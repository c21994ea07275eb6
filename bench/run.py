"""Benchmark procbench on one workload and print its metrics.

Run from the root of a checkout:

    python3 bench/run.py --workload pensim-bo --seed 1 --seconds 12 --trace 0

Workloads: pensim-bo, reactor-mpc, offline-datasets, mab-plant, steady-state
(see bench/README.md).  The script imports nothing from the program itself.
It starts fresh interpreters running ``bench/worker.py`` against ``src/``:
SETUP_SAMPLES - 1 that only set the workload up, then one that also runs it.
``setup_s`` is the median of the three set-up times, each measured from
starting the interpreter to the workload being ready.  BLAS and OpenMP
threads are pinned to 1 in the workers.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a traced round with ``--trace 1``.  Datasets go to a
temporary directory under ``.bench_tmp/`` that is removed at the end; a
traced run leaves its spans in ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKER = os.path.join(ROOT, "bench", "worker.py")
WORKLOADS = ("pensim-bo", "reactor-mpc", "offline-datasets", "mab-plant", "steady-state")
SETUP_SAMPLES = 3
DEADLINE_S = 170.0  # the whole run, set-up samples included


def worker_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("PROCBENCH_CONFIG", None)  # the workloads fix their own configs
    return env


def start_worker(args: list[str], deadline: float) -> tuple[float, dict]:
    """Run one worker to completion; return its set-up time and result."""
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, WORKER, *args],
        cwd=ROOT,
        env=worker_env(),
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,  # one process group: pool workers included
    )
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise RuntimeError("worker ran past the deadline") from None
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    lines = stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    return result["ready"] - spawned, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "procbench", "__init__.py")):
        print("error: src/procbench not found; run from a procbench checkout",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    tmp_root = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(tmp_root, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_root)
    common = ["--workload", args.workload, "--seed", str(args.seed), "--tmp", tmp]
    spans = os.path.join(ROOT, ".bench_out", f"spans-{args.workload}-{args.seed}.csv")
    try:
        setups = [
            start_worker(common + ["--setup-only"], deadline)[0]
            for _ in range(SETUP_SAMPLES - 1)
        ]
        if args.trace:
            os.makedirs(os.path.dirname(spans), exist_ok=True)
        setup_s, result = start_worker(
            common + ["--seconds", str(args.seconds), "--trace", str(args.trace),
                      "--spans", spans],
            deadline,
        )
        setups.append(setup_s)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        if not os.listdir(tmp_root):
            os.rmdir(tmp_root)

    metrics = result["metrics"]
    if not args.trace:
        metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"}, **metrics}
    for problem in result["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    rounds = f"{result['rounds']} rounds, " if "rounds" in result else ""
    steps = (
        f", {result['control_steps']} control steps timed"
        if "control_steps" in result else ""
    )
    print(
        f"{args.workload} seed {args.seed}: {rounds}{result['attempted']} operations, "
        f"{result['failed']} failed, {result['plant_failures']} episodes ended on "
        f"error_reward{steps}; set-up samples "
        + ", ".join(f"{s:.3f}" for s in setups) + " s"
    )
    for name, m in metrics.items():
        print(f"  {name:<40} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": result["wrong"] == 0,
        "attempted": result["attempted"],
        "failed": min(result["failed"], result["attempted"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
