"""Command-line interface.

Subcommands:

- ``rollout``      run episodes with a controller, JSON report to stdout
- ``dataset``      generate and persist an offline dataset
- ``stats``        print the summary row of a stored dataset
- ``steady-state`` solve the reactor's steady-state economic optimum
- ``validate``     run an environment's configuration/invariant checks

Exit codes: 0 success, 1 runtime failure, 2 usage error; each error is one
line on stderr.  Machine-readable output goes to stdout as JSON; diagnostics
go to stderr.  A config file (``--config`` or the PROCBENCH_CONFIG
environment variable) is a JSON object mapping environment names to
override dictionaries.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .control import solve_steady_state_optimum
from .dataset import read_dataset
from .envs import ENVIRONMENTS, make_env, validate_episode_config
from .errors import ProcbenchError
from .runners import generate_dataset, rollout, stats_row

# Per-environment episodic configuration every build must report.
EXPECTED_CONFIG = {
    "reactor": {"a_dim": 2, "o_dim": 3, "max_steps": 100, "error_reward": -1000.0},
    "atropine": {"a_dim": 4, "o_dim": 8, "max_steps": 60, "error_reward": -100000.0},
    "pensim": {"a_dim": 6, "o_dim": 9, "max_steps": 1150, "error_reward": -100.0},
    "mab": {"a_dim": 9, "o_dim": None, "max_steps": 200, "error_reward": -100.0},
    "beer": {"a_dim": 1, "o_dim": 8, "max_steps": 200, "error_reward": -200.0},
}

CONTROLLERS = ("zero", "random", "pid", "mpc", "empc", "bo")


def load_config(path: str | None) -> dict:
    if path is None:
        path = os.environ.get("PROCBENCH_CONFIG")
    if not path:
        return {}
    with open(path, encoding="utf-8") as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError("config file must hold a JSON object keyed by env name")
    return cfg


def env_config(cfg: dict, env_name: str) -> dict | None:
    value = cfg.get(env_name)
    if value is not None and not isinstance(value, dict):
        raise ValueError(f"config key {env_name!r} must be an object, got {value!r}")
    return value


def validate_env(name: str, config: dict | None = None) -> list[tuple[str, bool, str]]:
    """Configuration conformance and basic contract checks for one env."""
    checks = []
    env = make_env(name, config)
    meta = env.metadata()
    expected = EXPECTED_CONFIG[name]
    for key in ("a_dim", "max_steps", "error_reward"):
        ok = meta[key] == expected[key]
        checks.append((f"{name}.{key}", ok, f"{meta[key]} vs {expected[key]}"))
    if expected["o_dim"] is not None:
        ok = meta["o_dim"] == expected["o_dim"]
        checks.append((f"{name}.o_dim", ok, f"{meta['o_dim']} vs {expected['o_dim']}"))
    else:
        checks.append(
            (f"{name}.o_dim", True, f"recorded as {meta['o_dim']} (grid-dependent)")
        )

    r_min = env.reward_floor()
    ok = validate_episode_config(env.error_reward, env.max_steps, r_min)
    checks.append(
        (
            f"{name}.error_reward_inequality",
            ok,
            f"error_reward {env.error_reward} <= r_min*max_steps "
            f"{r_min * env.max_steps:.6g}",
        )
    )

    obs_a = env.reset(seed=20260810)
    obs_b = env.reset(seed=20260810)
    checks.append(
        (f"{name}.reset_determinism", bool(np.array_equal(obs_a, obs_b)), "")
    )
    obs_c = env.reset(seed=20260811)
    checks.append(
        (f"{name}.reset_seed_sensitivity", not np.array_equal(obs_a, obs_c), "")
    )
    if name == "reactor":
        checks.append(
            (
                "reactor.steady_state_residual",
                env.steady_state.converged
                and env.steady_state.residual_norm <= 1e-10,
                f"residual {env.steady_state.residual_norm:.3e}",
            )
        )
    return checks


def _cmd_rollout(args) -> int:
    cfg = env_config(load_config(args.config), args.env)
    report = rollout(args.env, args.controller, args.episodes, args.seed, cfg)
    text = json.dumps(report, indent=2, sort_keys=True)
    print(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text + "\n")
    return 0


def _cmd_dataset(args) -> int:
    cfg = env_config(load_config(args.config), args.env)
    ds = generate_dataset(
        args.env,
        args.controller,
        args.episodes,
        args.seed,
        config=cfg,
        out_dir=args.out,
        jobs=args.jobs,
    )
    print(json.dumps(stats_row(ds), indent=2, sort_keys=True))
    return 0


def _cmd_stats(args) -> int:
    ds = read_dataset(args.data)
    print(json.dumps(stats_row(ds), indent=2, sort_keys=True))
    return 0


def _cmd_steady_state(args) -> int:
    env = make_env(args.env, env_config(load_config(args.config), args.env))
    problem = env.steady_state_problem()
    x_s, u_red, value = solve_steady_state_optimum(
        problem.system,
        problem.stage_value,
        problem.u_min,
        problem.u_max,
        problem.x_guess,
        x_min=problem.x_min,
        x_max=problem.x_max,
        seed=args.seed,
    )
    u_s = problem.full_input(u_red)
    residual = float(np.max(np.abs(problem.system.rhs(0.0, x_s, u_red))))
    print(
        json.dumps(
            {
                "env": args.env,
                "x_star": [float(v) for v in np.atleast_1d(x_s)],
                "u_star": [float(v) for v in np.atleast_1d(u_s)],
                "economic_value": float(value),
                "residual_norm": residual,
            },
            indent=2,
            sort_keys=True,
        )
    )
    return 0


def _cmd_validate(args) -> int:
    cfg = load_config(args.config)
    names = sorted(ENVIRONMENTS) if args.env == "all" else [args.env]
    failed = 0
    for name in names:
        for check, ok, detail in validate_env(name, env_config(cfg, name)):
            status = "PASS" if ok else "FAIL"
            suffix = f"  ({detail})" if detail else ""
            print(f"{status} {check}{suffix}")
            failed += 0 if ok else 1
    return 0 if failed == 0 else 1


def positive_int(text: str) -> int:
    """argparse type for counts that must be at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


class OneLineErrorParser(argparse.ArgumentParser):
    """Reports a usage error as one line on stderr and exits with code 2."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = OneLineErrorParser(
        prog="procbench",
        description="Process-control simulation benchmarks and baselines",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, controller=True, envs=tuple(sorted(ENVIRONMENTS))):
        p.add_argument("--env", required=True, choices=envs)
        if controller:
            p.add_argument("--controller", required=True, choices=CONTROLLERS)
            p.add_argument("--episodes", type=positive_int, default=1)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--config", default=None, help="JSON config path")

    p = sub.add_parser("rollout", help="run episodes, print a JSON report")
    add_common(p)
    p.add_argument("--out", default=None, help="also write the report here")
    p.set_defaults(handler=_cmd_rollout)

    p = sub.add_parser("dataset", help="generate and store an offline dataset")
    add_common(p)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--jobs", type=positive_int, default=1)
    p.set_defaults(handler=_cmd_dataset)

    p = sub.add_parser("stats", help="summarize a stored dataset")
    p.add_argument("--data", required=True, help="dataset directory")
    p.set_defaults(handler=_cmd_stats)

    p = sub.add_parser("steady-state", help="economic steady-state optimum")
    # reactor only: beer and pensim are batch processes, the atropine model
    # has no floor on its E-factor, and the mab search takes minutes
    add_common(p, controller=False, envs=("reactor",))
    p.set_defaults(handler=_cmd_steady_state)

    p = sub.add_parser("validate", help="run per-env invariant checks")
    p.add_argument(
        "--env", default="all", choices=sorted(ENVIRONMENTS) + ["all"]
    )
    p.add_argument("--config", default=None)
    p.set_defaults(handler=_cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ProcbenchError, ValueError, OSError, KeyError) as exc:
        message = " ".join(str(exc).split())
        print(f"error: {type(exc).__name__}: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
