"""Per-module spans and counters for the traced run.

``instrument`` patches each public function or method named in ``SPANS``
where its caller looks it up, and adds the counts that come from return
values.  ``per_layer`` turns a traced round into the metrics listed in
``PER_LAYER`` (the ``per_layer`` list of BENCHMARK.json).
"""

from __future__ import annotations

import math
import os

import procbench.bayesopt
import procbench.cli
import procbench.control
import procbench.dataset
import procbench.envs.mab.env
import procbench.envs.reactor
import procbench.kernels
import procbench.policies
import procbench.runners
from procbench.envs.base import ProcessEnv
from procbench.envs.mab.columns import LoadingStepper
from procbench.kernels import OdeSystem
from procbench.spaces import ContinuousSpace


def _substeps(counts, args, kwargs, result):
    # integrate(sys, t0, x0, u, duration, h): full steps plus a trailing one
    duration, h = args[4], args[5]
    n_full = int(math.floor(duration / h + 1e-9))
    rem = duration - n_full * h
    counts["kernels.rk4_substeps"] += n_full + (rem > 1e-12 * max(1.0, duration))


def _newton(counts, args, kwargs, result):
    counts["kernels.newton_iterations"] += result.iterations


def _mpc(counts, args, kwargs, result):
    counts["control.iterations"] += result.iterations
    counts["control.stalls"] += int(result.stalled)


def _fit(counts, args, kwargs, result):
    if len(args) < 3 and kwargs.get("hyperparams") is None:
        counts["bayesopt.fit.hyperopt_calls"] += 1


def _written(counts, args, kwargs, result):
    ds, path = args[0], args[1]
    counts["dataset.write.rows"] += ds.n_rows
    counts["dataset.write.bytes"] += sum(
        os.path.getsize(os.path.join(path, name)) for name in ("meta.json", "data.csv")
    )


def _read(counts, args, kwargs, result):
    counts["dataset.read.rows"] += result.n_rows


def _policy_classes():
    classes = [procbench.runners.ProfilePolicy]
    for value in vars(procbench.policies).values():
        if (
            isinstance(value, type)
            and issubclass(value, procbench.policies.Policy)
            and "act" in value.__dict__
            and value is not procbench.policies.Policy
        ):
            classes.append(value)
    return classes


# (owner, attribute, span name, counter on the return value)
SPANS = [
    (procbench.cli, "main", "cli.main", None),
    (ProcessEnv, "step", "envs.step", None),
    (ProcessEnv, "reset", "envs.reset", None),
    (ContinuousSpace, "contains", "spaces.contains", None),
    (procbench.envs.reactor, "integrate", "kernels.integrate", _substeps),
    (procbench.envs.reactor, "solve_steady_state", "kernels.solve_steady_state", _newton),
    (procbench.control, "solve_steady_state", "kernels.solve_steady_state", _newton),
    (procbench.kernels, "fd_jacobian", "kernels.fd_jacobian", None),
    (procbench.policies, "solve_mpc", "control.solve", _mpc),
    (procbench.policies, "solve_empc", "control.solve", _mpc),
    (procbench.cli, "solve_steady_state_optimum", "control.steady_state_optimum", None),
    (procbench.bayesopt, "fit_state_model", "bayesopt.fit", _fit),
    (procbench.bayesopt, "log_marginal_likelihood", "bayesopt.lml", None),
    (procbench.bayesopt, "bo_propose", "bayesopt.propose", None),
    (procbench.dataset.DatasetRecorder, "record", "dataset.record", None),
    (procbench.dataset.DatasetRecorder, "finish", "dataset.finish", None),
    (procbench.runners, "write_dataset", "dataset.write", _written),
    (procbench.dataset, "write_dataset", "dataset.write", _written),
    (procbench.cli, "read_dataset", "dataset.read", _read),
    (procbench.dataset, "read_dataset", "dataset.read", _read),
    (procbench.runners, "run_episode", "runners.episode", None),
    (procbench.cli, "generate_dataset", "runners.generate_dataset", None),
    (LoadingStepper, "advance", "envs.mab.loading", None),
    (procbench.envs.mab.env, "integrate_fields", "envs.mab.integrate_fields", None),
]


def instrument(tracer, workload) -> None:
    for owner, attr, name, on_result in SPANS:
        tracer.patch(owner, attr, name, on_result)
    for cls in _policy_classes():
        tracer.patch(cls, "act", "policies.act")
    policy = getattr(workload, "policy", None)
    if isinstance(policy, procbench.policies.ShootingPolicy):
        policy.system = counting_system(policy.system, tracer.counts)


def counting_system(system: OdeSystem, counts) -> OdeSystem:
    """The same ODE system, counting right-hand-side calls and the state
    rows each call evaluates (a batched call evaluates many)."""
    rhs, dim = system.rhs, system.dim

    def counted(t, x, u):
        counts["control.rhs_calls"] += 1
        counts["control.rhs_rows"] += max(1, x.size // dim)
        return rhs(t, x, u)

    return OdeSystem(dim=dim, rhs=counted, vectorized=system.vectorized)


# metrics read from ``tracer.counts`` rather than from span totals
COUNTERS = {
    "kernels.rk4_substeps", "kernels.newton_iterations", "control.iterations",
    "control.stalls", "control.rhs_calls", "control.rhs_rows",
    "bayesopt.fit.hyperopt_calls", "dataset.write.bytes",
}

# (metric, unit): the per_layer list of BENCHMARK.json, in order
PER_LAYER = [
    ("cli.import_s", "s"),
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("envs.step.calls", "count"),
    ("envs.step.s", "s"),
    ("envs.step.self_s", "s"),
    ("envs.step.us_per_call", "us"),
    ("envs.reset.calls", "count"),
    ("spaces.contains.calls", "count"),
    ("spaces.contains.s", "s"),
    ("kernels.integrate.calls", "count"),
    ("kernels.integrate.s", "s"),
    ("kernels.rk4_substeps", "count"),
    ("kernels.solve_steady_state.calls", "count"),
    ("kernels.solve_steady_state.s", "s"),
    ("kernels.newton_iterations", "count"),
    ("kernels.fd_jacobian.calls", "count"),
    ("kernels.fd_jacobian.s", "s"),
    ("control.solve.calls", "count"),
    ("control.solve.s", "s"),
    ("control.solve.self_s", "s"),
    ("control.iterations", "count"),
    ("control.stalls", "count"),
    ("control.rhs_calls", "count"),
    ("control.rhs_rows", "count"),
    ("control.steady_state_optimum.calls", "count"),
    ("control.steady_state_optimum.s", "s"),
    ("control.steady_state_optimum.self_s", "s"),
    ("policies.act.calls", "count"),
    ("policies.act.s", "s"),
    ("policies.act.self_s", "s"),
    ("bayesopt.fit.calls", "count"),
    ("bayesopt.fit.hyperopt_calls", "count"),
    ("bayesopt.fit.s", "s"),
    ("bayesopt.fit.self_s", "s"),
    ("bayesopt.lml.calls", "count"),
    ("bayesopt.lml.s", "s"),
    ("bayesopt.propose.calls", "count"),
    ("bayesopt.propose.s", "s"),
    ("dataset.record.calls", "count"),
    ("dataset.record.s", "s"),
    ("dataset.finish.s", "s"),
    ("dataset.write.s", "s"),
    ("dataset.write.bytes", "bytes"),
    ("dataset.write.rows_per_s", "rows/s"),
    ("dataset.read.s", "s"),
    ("dataset.read.rows_per_s", "rows/s"),
    ("runners.episodes", "count"),
    ("runners.episode.s", "s"),
    ("runners.episode.self_s", "s"),
    ("runners.generate_dataset.s", "s"),
    ("envs.mab.loading.calls", "count"),
    ("envs.mab.loading.s", "s"),
    ("envs.mab.integrate_fields.calls", "count"),
    ("envs.mab.integrate_fields.s", "s"),
    ("trace.spans", "count"),
    ("trace.round_s", "s"),
    ("trace.untraced_round_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_pct", "%"),
]


def per_layer(tracer, import_s: float, traced_s: float, untraced_s: float) -> dict:
    """Per-layer values of one traced round, keyed by metric name."""
    spans = tracer.summary()
    counts = tracer.counts
    values: dict[str, float] = {
        "cli.import_s": import_s,
        "trace.spans": len(tracer.spans),
        "trace.round_s": traced_s,
        "trace.untraced_round_s": untraced_s,
        "trace.overhead_s": traced_s - untraced_s,
        "trace.overhead_pct": 100.0 * (traced_s - untraced_s) / untraced_s,
        "runners.episodes": spans.get("runners.episode", {}).get("calls", 0),
    }

    for name, _unit in PER_LAYER:
        if name in values:
            continue
        if name in COUNTERS:
            values[name] = counts.get(name, 0)
            continue
        span, _, field = name.rpartition(".")
        entry = spans.get(span, {"calls": 0, "s": 0.0, "self_s": 0.0})
        if field == "us_per_call":
            values[name] = 1e6 * entry["s"] / entry["calls"] if entry["calls"] else 0.0
        elif field == "rows_per_s":
            rows = counts.get(f"{span}.rows", 0)
            values[name] = rows / entry["s"] if entry["s"] > 0 else 0.0
        else:
            values[name] = entry[field]
    return values
