"""Acceptance suite: one test per release gate, one printed line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; each test also asserts, so the suite gates CI either way.
"""

import json
import subprocess
import sys
import time

import numpy as np

CRITERIA_SEEN = []


def _report(name: str, started: float, detail: str = ""):
    elapsed = time.perf_counter() - started
    line = f"PASS {name} ({elapsed:.1f}s)"
    if detail:
        line += f"  {detail}"
    print(line, flush=True)
    CRITERIA_SEEN.append(name)


# -- 1. printed-constant fidelity -------------------------------------------


def test_criterion_1_printed_constants():
    started = time.perf_counter()
    from procbench.envs.atropine import (
        kalman_update,
        lin_output,
        lin_step,
        Y_STEADY,
    )

    assert np.allclose(
        lin_step(np.array([1.0, 0.0]), np.zeros(4)), [0.8543, 0.0195], atol=1e-12
    )
    assert np.allclose(
        lin_step(np.zeros(2), np.array([1.0, 0, 0, 0])), [-0.0382, -0.0051],
        atol=1e-12,
    )
    assert abs(lin_output(np.array([1.0, 0.0])) - (-148.6124)) <= 1e-12
    assert abs(lin_output(np.array([0.0, -1.0])) - 46.8132) <= 1e-12
    assert np.allclose(
        kalman_update(np.zeros(2), np.zeros(4), 1.0), [-0.0093, 0.0115], atol=1e-12
    )
    assert Y_STEADY + lin_output(np.zeros(2)) == 13.057
    assert time.perf_counter() - started < 1.0
    _report("criterion-1 printed-constant fidelity", started)


# -- 2. episodic configuration conformance ----------------------------------


def test_criterion_2_configuration_conformance():
    started = time.perf_counter()
    from procbench.cli import EXPECTED_CONFIG, validate_env

    for name in sorted(EXPECTED_CONFIG):
        checks = validate_env(name)
        bad = [c for c in checks if not c[1]]
        assert not bad, f"{name}: {bad}"
        assert any("error_reward_inequality" in c[0] for c in checks)
    assert time.perf_counter() - started < 10.0
    _report("criterion-2 configuration conformance", started)


# -- 3. CSTR closed-loop control ---------------------------------------------


def test_criterion_3_cstr_mpc_closed_loop():
    started = time.perf_counter()
    from procbench.envs.reactor import ReactorEnv
    from procbench.policies import make_policy

    env = ReactorEnv()
    assert env.steady_state.converged
    assert env.steady_state.residual_norm <= 1e-10
    policy = make_policy(env, "mpc")
    ca_sp, h_sp = env.setpoint
    worst = 0
    for seed in range(100):
        obs = env.reset(seed=seed)
        policy.reset(seed)
        reached = False
        for k in range(60):
            result = env.step(policy.act(obs))
            assert not result.failure, f"seed {seed} failed at step {k}"
            obs = result.observation
            if (
                abs(obs[0] - ca_sp) <= 0.02 * ca_sp
                and abs(obs[2] - h_sp) <= 0.02 * h_sp
            ):
                reached = True
                worst = max(worst, k + 1)
                break
        assert reached, f"seed {seed} missed the 2% band in 60 steps"
    assert time.perf_counter() - started < 120.0
    _report(
        "criterion-3 CSTR MPC closed loop", started,
        f"100/100 in band, worst {worst} steps",
    )


# -- 4. numerical kernels -----------------------------------------------------


def test_criterion_4_numerical_kernels():
    started = time.perf_counter()
    from procbench.control import shooting_cost, shooting_gradient, solve_mpc
    from procbench.envs.reactor import ReactorEnv
    from procbench.kernels import OdeSystem, integrate
    from procbench.policies import reactor_mpc_spec
    from procbench.control import MpcSpec

    # RK4 measured order
    expo = OdeSystem(dim=1, rhs=lambda t, x, u: x)
    errors = [
        abs(integrate(expo, 0.0, np.ones(1), np.zeros(1), 1.0, h)[0] - np.e)
        for h in (0.1, 0.05, 0.025)
    ]
    orders = [np.log2(errors[i] / errors[i + 1]) for i in range(2)]
    assert min(orders) >= 3.9

    # forward-difference gradient vs central-difference oracle
    env = ReactorEnv()
    spec = reactor_mpc_spec(env, horizon=5)
    rng = np.random.default_rng(1)
    x0 = env.init_box.sample(rng)
    jitter = np.array([0.01, 10.0])
    accepted = 0
    while accepted < 10:
        u = env.u_nominal + rng.uniform(-1.0, 1.0, size=(5, 2)) * jitter
        u = np.clip(u, spec.u_min, spec.u_max)
        if shooting_cost(spec, env.system, x0, u) > 100.0:
            continue
        accepted += 1
        grad = shooting_gradient(spec, env.system, x0, u)
        central = np.empty_like(grad)
        for j in range(u.size):
            step = 1e-6 * (spec.u_max - spec.u_min).ravel()[j % 2]
            up, dn = u.copy().ravel(), u.copy().ravel()
            up[j] += step
            dn[j] -= step
            central.ravel()[j] = (
                shooting_cost(spec, env.system, x0, up.reshape(5, 2))
                - shooting_cost(spec, env.system, x0, dn.reshape(5, 2))
            ) / (2.0 * step)
        rel = np.max(np.abs(grad - central)) / max(np.max(np.abs(central)), 1e-12)
        assert rel < 1e-4

    # scalar analytic optimum
    dt = 0.7
    scalar = MpcSpec(
        horizon=1, dt=dt, q_weights=[1.0], r_weights=[1.0],
        x_setpoint=[0.0], u_setpoint=[0.0], u_min=[-5.0], u_max=[5.0],
    )
    integ = OdeSystem(dim=1, rhs=lambda t, x, u: u + 0.0 * x, vectorized=True)
    sol = solve_mpc(scalar, integ, np.array([1.0]))
    assert abs(sol.u0[0] - (-dt / (1.0 + dt * dt))) <= 1e-4
    assert time.perf_counter() - started < 60.0
    _report("criterion-4 numerical kernels", started, f"RK4 order {min(orders):.2f}")


# -- 5. antibody model audit ---------------------------------------------------


def test_criterion_5_mab_model_audit():
    started = time.perf_counter()
    from procbench.envs.mab.columns import (
        CaptureParams,
        LoadingStepper,
        LoopParams,
        capture_holdup,
        loop_rhs,
    )
    from procbench.envs.mab.upstream import (
        UpstreamParams,
        mu_max_of_temp,
        ph_of_ammonia,
        upstream_rhs,
    )
    from procbench.kernels import SpatialGrid
    from tests.test_mab_upstream import duplicate_rhs, random_points

    # duplicate-evaluation oracle on 1000 random in-box points
    p = UpstreamParams()
    rng = np.random.default_rng(123)
    xs, us = random_points(rng, 1000)
    worst = 0.0
    for x, u in zip(xs, us):
        got = upstream_rhs(x, u, p)
        want = duplicate_rhs(x, u, p)
        denom = np.maximum(np.abs(want), 1e-30)
        worst = max(worst, float(np.max(np.abs(got - want) / denom)))
    assert worst < 1e-12

    assert abs(mu_max_of_temp(37.0) - 0.0284) <= 1e-12
    assert abs(ph_of_ammonia(0.0) - 7.1836) <= 1e-3

    # capture-column mass audit at 60 axial nodes
    cap = CaptureParams()
    grid = SpatialGrid(60, cap.length, n_radial=8, volume=cap.volume)
    stepper = LoadingStepper(cap, grid)
    v, c_feed, minutes = 3.0, 30.0, 35.0
    dr = cap.r_p / grid.n_radial
    k_f = cap.k_f_coeff * v**cap.k_f_exp
    lam = (
        4.2 * cap.d_eff / dr**2
        + 2.0 * cap.d_ax_factor * v / grid.dz**2
        + v / (cap.eps_c * grid.dz)
        + 3 * (1 - cap.eps_c) * k_f / (cap.eps_c * cap.r_p)
        + cap.k_1 * (cap.q_max1 + 1 / cap.k_eq)
        + cap.k_2 * (cap.q_max2 + 1 / cap.k_eq)
    )
    h = 2.0 / lam
    c = np.zeros(60)
    cp = np.zeros((60, 8))
    q1 = np.zeros(60)
    q2 = np.zeros(60)
    out_mass = 0.0
    t = 0.0
    while t < minutes - 1e-9:
        prev = c[-1]
        c, cp, q1, q2 = stepper.advance(c, cp, q1, q2, v, c_feed, 0.25, h)
        out_mass += v * 0.5 * (prev + c[-1]) * cap.area * 0.25
        t += 0.25
    fed = v * c_feed * cap.area * minutes
    held = capture_holdup(c, cp, q1, q2, cap, grid)
    audit_gap = abs(fed - (held + out_mass)) / fed
    assert c[-1] > 0.05 * c_feed  # breakthrough reached
    assert audit_gap <= 0.01

    # loop pulse arrival at carrier velocity (dispersion reduced to make the
    # traveling peak identifiable; see decisions notes)
    loop = LoopParams(d_ax_factor=2.9)
    lgrid = SpatialGrid(120, loop.length, volume=loop.volume)
    z = lgrid.z_centers
    cl = np.exp(-0.5 * ((z - 0.15 * loop.length) / (0.02 * loop.length)) ** 2)
    v_loop = 60.0
    d_ax = loop.d_ax_factor * v_loop
    hl = min(0.25 * lgrid.dz**2 / d_ax, 0.5 * lgrid.dz / v_loop)
    times, peaks = [], []
    t = 0.0
    while t < 0.8 * loop.length / v_loop:
        cl = np.maximum(cl + hl * loop_rhs(cl, v_loop, 0.0, loop, lgrid), 0.0)
        t += hl
        j = int(np.argmax(cl))
        if 1 <= j <= 118:
            y0, y1, y2 = cl[j - 1], cl[j], cl[j + 1]
            denom = y0 - 2 * y1 + y2
            zp = z[j] + (0.5 * (y0 - y2) / denom if denom != 0 else 0.0) * lgrid.dz
            if 0.3 * loop.length <= zp <= 0.7 * loop.length:
                times.append(t)
                peaks.append(zp)
    slope = np.polyfit(times, peaks, 1)[0]
    arrival = loop.length / slope
    nominal = loop.length / v_loop
    assert abs(arrival - nominal) <= 0.05 * nominal
    assert time.perf_counter() - started < 300.0
    _report(
        "criterion-5 antibody model audit", started,
        f"oracle {worst:.2e}, audit gap {100 * audit_gap:.3f}%",
    )


# -- 6. twin-column scheduling ---------------------------------------------------


def test_criterion_6_twin_column_partitions():
    started = time.perf_counter()
    from procbench.envs.mab.schedule import TwinColumnSchedule, twin_column_tick

    rng = np.random.default_rng(6)
    duration = 240.0
    for _ in range(1000):
        n_parts = int(rng.integers(1, 16))
        cuts = np.sort(rng.uniform(0.0, duration, size=n_parts - 1))
        parts = np.diff(np.concatenate([[0.0], cuts, [duration]]))
        sched = TwinColumnSchedule(load_duration=duration)
        swaps = 0
        for dt in parts:
            if dt <= 0.0:
                continue
            sched, fired = twin_column_tick(sched, float(dt))
            swaps += fired
        assert swaps == 1
        assert sched.loading_column == 1
    assert time.perf_counter() - started < 10.0
    _report("criterion-6 twin-column scheduling", started)


# -- 7. Bayesian-optimization sanity ----------------------------------------------


def test_criterion_7_bayesopt_sanity():
    started = time.perf_counter()
    from procbench.bayesopt import FitOptions, expected_improvement, run_bo

    # Monte-Carlo oracle for EI at mean == best, unit standard deviation
    rng = np.random.default_rng(0)
    samples = rng.standard_normal(10_000_000)
    mc = float(np.mean(np.maximum(samples, 0.0)))
    ei = expected_improvement(0.0, 1.0, 0.0)
    assert abs(ei - mc) <= 1e-3
    assert abs(ei - 0.39894) <= 1e-3

    fast = FitOptions(n_starts=8, passes=1, grid_size=5)
    wins = 0
    for seed in range(100):
        state = run_bo(
            lambda point: -((point[0] - 0.7) ** 2),
            [0.0], [1.0],
            n_init=5, n_iter=25, seed=seed, fit_options=fast,
        )
        srng = np.random.default_rng(50_000 + seed)
        random_best = max(
            -((srng.uniform(0.0, 1.0) - 0.7) ** 2) for _ in range(30)
        )
        wins += state.best_score > random_best
    assert wins >= 90
    assert time.perf_counter() - started < 120.0
    _report("criterion-7 BO sanity", started, f"BO wins {wins}/100")


# -- 8. offline-dataset pipeline -----------------------------------------------


def test_criterion_8_dataset_pipeline(tmp_path):
    started = time.perf_counter()
    from procbench.dataset import read_dataset, stats, write_dataset
    from procbench.runners import generate_dataset

    out = tmp_path / "pensim_bo"
    ds = generate_dataset("pensim", "bo", 1000, seed=2026, out_dir=str(out))
    assert ds.meta.traj_count == 1000

    back = read_dataset(str(out))
    assert stats(back) == stats(ds)  # exact round trip
    second = tmp_path / "again"
    write_dataset(back, str(second))
    assert (out / "data.csv").read_bytes() == (second / "data.csv").read_bytes()

    mean, std, success = stats(back)
    # independent one-pass recomputation
    n = s = s2 = 0
    for r in back.rewards:
        n += 1
        s += r
        s2 += r * r
    mean2 = s / n
    std2 = float(np.sqrt(max(s2 / n - mean2**2, 0.0)))
    assert abs(mean - mean2) <= 1e-12 * max(1.0, abs(mean2))
    assert abs(std - std2) <= 1e-9 * max(1.0, std2)
    assert time.perf_counter() - started < 600.0
    _report(
        "criterion-8 dataset pipeline", started,
        f"1000 episodes, {back.n_rows} rows, mean {mean:.4f}, success {success:.2f}",
    )


# -- 9. rollout determinism -------------------------------------------------------


def test_criterion_9_rollout_determinism(tmp_path):
    started = time.perf_counter()
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"mab": {"max_steps": 1}}))
    cases = [
        ("reactor", "pid", []),
        ("atropine", "zero", []),
        ("pensim", "random", []),
        ("beer", "random", []),
        ("mab", "random", ["--config", str(cfg_path)]),
    ]
    for env_name, controller, extra in cases:
        outputs = []
        for _ in range(2):
            proc = subprocess.run(
                [
                    sys.executable, "-m", "procbench.cli", "rollout",
                    "--env", env_name, "--controller", controller,
                    "--episodes", "1", "--seed", "7", *extra,
                ],
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1], f"{env_name} rollout not byte-identical"
        json.loads(outputs[0])  # stdout is valid JSON
    assert time.perf_counter() - started < 60.0
    _report("criterion-9 rollout determinism", started)
