"""Command-line interface.

Subcommands:

- ``rollout``      run episodes with a controller, JSON report to stdout
- ``dataset``      generate and persist an offline dataset
- ``stats``        print the summary row of a stored dataset
- ``steady-state`` solve the steady-state economic optimum of an env
- ``validate``     run an environment's configuration/invariant checks

Exit codes: 0 success, 1 runtime failure, 2 usage error.  Machine-readable
output goes to stdout as JSON; diagnostics go to stderr.  A config file
(``--config`` or the PROCBENCH_CONFIG environment variable) is a JSON
object mapping environment names to override dictionaries.
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
    return cfg.get(env_name)


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
    ok = validate_episode_config(env.episode_config(), r_min)
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
    cfg = env_config(load_config(args.config), args.env)
    env = make_env(args.env, cfg)
    if args.env == "reactor":
        from .kernels import OdeSystem
        from .policies import reactor_empc_spec

        # the level is a pure integrator: steady operation needs balanced
        # flows, so the economic search runs over the coolant only
        stage = reactor_empc_spec(env).stage_value
        q_in = env.params.q_in
        reduced = OdeSystem(
            dim=3,
            rhs=lambda t, x, u: env.system.rhs(
                t, x, np.concatenate([[q_in], np.atleast_1d(u)])
            ),
        )
        x_s, u_red, value = solve_steady_state_optimum(
            reduced,
            lambda x, u: float(
                stage(x[None], np.concatenate([[q_in], u])[None])[0]
            ),
            env.action_space.low[1:],
            env.action_space.high[1:],
            env.x_star,
            x_min=env.state_box.low,
            x_max=env.state_box.high,
            seed=args.seed,
        )
        u_s = np.concatenate([[q_in], u_red])
        residual = float(np.max(np.abs(env.system.rhs(0.0, x_s, u_s))))
    elif args.env == "atropine":
        m = env.model
        gain = m.c @ np.linalg.solve(np.eye(m.n_states) - m.a, m.b)  # dE/du_dev
        # linear objective over a box: optimum at a corner
        u_dev = np.where(gain[0] > 0, -env.q_steady, 5.0 - env.q_steady)
        x_s = np.linalg.solve(np.eye(m.n_states) - m.a, m.b @ u_dev)
        u_s = env.q_steady + u_dev
        value = -(env.y_steady + float(m.c[0] @ x_s))
        residual = float(np.max(np.abs(x_s - m.a @ x_s - m.b @ u_dev)))
    elif args.env == "mab":
        from .envs.mab.upstream import economic_objective, upstream_system
        from .kernels import OdeSystem

        sys17 = upstream_system(env.params, strict=False)

        # both vessel volumes are integrators: steady operation pins
        # F_1 = F_in + F_r and F_2 = F_in; search the 5 free inputs
        def expand(u_red):
            f_in, f_r, t_c, glc_in, amm_in = np.atleast_1d(u_red)
            return np.array([f_in, f_r, f_in + f_r, f_in, t_c, glc_in, amm_in])

        # cell counts sit nine orders of magnitude above concentrations;
        # Newton runs on the nondimensionalized system
        scales = np.maximum(np.abs(env.initial_upstream), 1e-3)
        reduced = OdeSystem(
            dim=17,
            rhs=lambda t, y, u: sys17.rhs(t, y * scales, expand(u)) / scales,
        )
        lo7, hi7 = env.action_space.low[:7], env.action_space.high[:7]
        red_idx = [0, 1, 4, 5, 6]
        y_s, u_red, value = solve_steady_state_optimum(
            reduced,
            lambda y, u: float(economic_objective(y * scales, expand(u))),
            lo7[red_idx],
            hi7[red_idx],
            env.initial_upstream / scales,
            x_min=env.upstream_box.low / scales,
            x_max=env.upstream_box.high / scales,
            n_starts=2,
            seed=args.seed,
        )
        x_s = y_s * scales
        u_s = expand(u_red)
        # residual of the scaled system (what the solver drove to zero)
        residual = float(np.max(np.abs(sys17.rhs(0.0, x_s, u_s) / scales)))
    elif args.env == "pensim":
        def stage(x, u):
            rates = env.rates(tuple(x))
            return (rates.r_p - rates.r_h) * x[6] * 1e-3

        x_s, u_s, value = solve_steady_state_optimum(
            env.system,
            stage,
            env.action_space.low,
            env.action_space.high,
            env.x0,
            x_min=env.state_box.low,
            x_max=env.state_box.high,
            n_starts=4,
            seed=args.seed,
        )
        residual = float(np.max(np.abs(env.system.rhs(0.0, x_s, u_s))))
    else:
        print(f"steady-state is not defined for {args.env!r} (batch process)",
              file=sys.stderr)
        return 2
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="procbench",
        description="Process-control simulation benchmarks and baselines",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, controller=True):
        p.add_argument("--env", required=True, choices=sorted(ENVIRONMENTS))
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
    add_common(p, controller=False)
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
