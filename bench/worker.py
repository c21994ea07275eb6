"""One benchmark process: set up a workload, run it, print one JSON line.

``run.py`` starts this script in a fresh interpreter, so the set-up it
reports includes importing ``procbench``.  With ``--setup-only`` it stops
once the workload is ready.  Otherwise it runs whole rounds until
``--seconds`` have passed (``--trace 0``), or runs round 0 once untraced and
once under the span recorder (``--trace 1``).  Every output is checked; the
last line of stdout is a JSON object with the counts and the metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time

END_TO_END = [
    ("wall_s", "s"),
    ("env_steps_per_s", "steps/s"),
    ("dataset_rows_per_s", "rows/s"),
    ("control_step_ms_p50", "ms"),
    ("control_step_ms_p95", "ms"),
    ("peak_rss_mb", "MB"),
]


def peak_rss_mb() -> float:
    kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kb / 1024.0


def totals(rounds) -> dict:
    return {
        "attempted": sum(r.ops for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "wrong": sum(r.wrong for r in rounds),
        "plant_failures": sum(r.plant_failures for r in rounds),
        "problems": [p for r in rounds for p in r.problems][:20],
    }


def timed_run(workload, clock, seconds: float) -> dict:
    import numpy as np

    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        rounds.append(workload.round(len(rounds), "round"))
    after = workload.finish()
    # per-plant percentiles, averaged over the workload's plants, so the
    # mix of plants in the sample does not move them
    per_plant = [np.asarray(v) for v in clock.samples.values()]
    values = {
        "wall_s": statistics.median(r.seconds for r in rounds),
        "env_steps_per_s": sum(r.steps for r in rounds)
        / sum(r.gen_seconds for r in rounds),
        "dataset_rows_per_s": sum(r.rows for r in rounds)
        / sum(r.seconds for r in rounds),
        "control_step_ms_p50": 1e3 * np.mean([np.percentile(v, 50) for v in per_plant]),
        "control_step_ms_p95": 1e3 * np.mean([np.percentile(v, 95) for v in per_plant]),
        "peak_rss_mb": peak_rss_mb(),
    }
    out = totals(rounds + [after])
    out["attempted"] = sum(r.ops for r in rounds)
    out.update(
        rounds=len(rounds),
        control_steps=sum(v.size for v in per_plant),
        metrics={name: {"value": values[name], "unit": unit} for name, unit in END_TO_END},
    )
    return out


def traced_run(workload, import_s: float, spans_path: str) -> dict:
    import layers
    from spans import Tracer

    untraced = workload.round(0, "untraced")
    tracer = Tracer()
    layers.instrument(tracer, workload)
    try:
        traced = workload.round(0, "traced")
    finally:
        tracer.restore()
    after = workload.finish()
    values = layers.per_layer(tracer, import_s, traced.seconds, untraced.seconds)
    tracer.write(spans_path)

    print(f"traced round 0 of {workload.name}: {len(tracer.spans)} spans -> {spans_path}")
    print("  self time by span (s, share of the traced round):")
    by_self = sorted(tracer.summary().items(), key=lambda kv: -kv[1]["self_s"])
    for name, entry in by_self:
        share = 100.0 * entry["self_s"] / traced.seconds
        print(f"    {name:<36} {entry['self_s']:>10.4f}  {share:5.1f}%  calls {entry['calls']}")

    out = totals([untraced, traced, after])
    out["attempted"] = untraced.ops + traced.ops
    out["metrics"] = {
        name: {"value": values[name], "unit": unit} for name, unit in layers.PER_LAYER
    }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tmp", required=True, help="directory for datasets")
    parser.add_argument("--spans", default=None, help="span file of a traced run")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    import procbench.cli  # noqa: F401  (timed: the import is part of set-up)

    import_s = time.perf_counter() - t0
    import workloads

    clock = workloads.StepClock()
    clock.install()
    workload = workloads.WORKLOADS[args.workload](
        args.seed, args.tmp, traced=bool(args.trace)
    )
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0
    clock.samples.clear()
    if args.trace:
        result = traced_run(workload, import_s, args.spans)
    else:
        result = timed_run(workload, clock, args.seconds)
    result["ready"] = ready
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
