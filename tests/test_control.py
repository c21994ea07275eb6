"""Controller tests: PID, shooting costs/solvers, steady-state optimum."""

import numpy as np
import pytest
from scipy import optimize

from procbench.control import (
    EmpcSpec,
    MpcSpec,
    PidGains,
    PidState,
    economic_shooting_cost,
    pid_step,
    shooting_cost,
    shooting_gradient,
    solve_empc,
    solve_mpc,
    solve_steady_state_optimum,
)
from procbench.errors import NoFeasibleSteadyStateError
from procbench.kernels import OdeSystem


def integrator_system():
    # dx/dt = u (vectorized shape contract: preserve trailing state axis)
    return OdeSystem(dim=1, rhs=lambda t, x, u: u + 0.0 * x, vectorized=True)


def scalar_spec(dt=0.7, **kw):
    defaults = dict(
        horizon=1, dt=dt, q_weights=[1.0], r_weights=[1.0],
        x_setpoint=[0.0], u_setpoint=[0.0], u_min=[-5.0], u_max=[5.0],
    )
    defaults.update(kw)
    return MpcSpec(**defaults)


def test_pid_zero_error_with_bias():
    gains = PidGains(k_p=2.0, bias=0.3, u_min=-1.0, u_max=1.0)
    u, _ = pid_step(gains, 1.0, 1.0, PidState(), dt=1.0)
    assert u == 0.3


def test_pid_pure_proportional():
    gains = PidGains(k_p=3.0, u_min=-100.0, u_max=100.0)
    u, _ = pid_step(gains, 2.0, 0.0, PidState(), dt=1.0)
    assert u == 6.0


def test_pid_rectangle_rule_integration():
    gains = PidGains(k_p=0.0, k_i=0.5, u_min=-10.0, u_max=10.0)
    state = PidState()
    u1, state = pid_step(gains, 1.0, 0.0, state, dt=1.0)
    u2, state = pid_step(gains, 1.0, 0.0, state, dt=1.0)
    assert (u1, u2) == (0.5, 1.0)


def test_pid_anti_windup_freezes_integral():
    gains = PidGains(k_p=0.0, k_i=1.0, u_min=-0.5, u_max=0.5)
    state = PidState()
    for _ in range(10):
        u, state = pid_step(gains, 1.0, 0.0, state, dt=1.0)
    assert u == 0.5
    assert state.integral <= 1.0  # clamped, not wound up to 10


def test_shooting_cost_zero_at_steady_setpoint():
    spec = scalar_spec()
    cost = shooting_cost(spec, integrator_system(), np.array([0.0]),
                         np.zeros((1, 1)))
    assert cost == 0.0


def test_shooting_cost_analytic_formula():
    dt = 0.7
    spec = scalar_spec(dt=dt)
    for u in (-1.0, 0.3, 2.0):
        got = shooting_cost(spec, integrator_system(), np.array([1.0]),
                            np.array([[u]]))
        assert got == pytest.approx((1.0 + u * dt) ** 2 + u**2, rel=1e-12)


def test_doubling_q_doubles_state_cost():
    spec_r0 = scalar_spec(r_weights=[0.0])
    spec_2q = scalar_spec(r_weights=[0.0], q_weights=[2.0])
    u = np.array([[0.4]])
    c1 = shooting_cost(spec_r0, integrator_system(), np.array([1.0]), u)
    c2 = shooting_cost(spec_2q, integrator_system(), np.array([1.0]), u)
    assert c2 == pytest.approx(2.0 * c1, rel=1e-12)


def test_solve_mpc_recovers_analytic_optimum():
    dt = 0.7
    spec = scalar_spec(dt=dt)
    sol = solve_mpc(spec, integrator_system(), np.array([1.0]))
    assert sol.u0[0] == pytest.approx(-dt / (1.0 + dt * dt), abs=1e-4)


def test_solve_mpc_at_setpoint_returns_setpoint_input():
    spec = scalar_spec()
    sol = solve_mpc(spec, integrator_system(), np.array([0.0]))
    assert sol.cost == 0.0
    assert np.max(np.abs(sol.u_sequence)) == 0.0
    assert sol.iterations <= 1


def test_solve_mpc_projects_onto_bounds():
    dt = 0.7
    spec = scalar_spec(dt=dt, u_min=[-0.2], u_max=[5.0])
    sol = solve_mpc(spec, integrator_system(), np.array([1.0]))
    assert sol.u0[0] == pytest.approx(-0.2, abs=1e-9)  # clipped KKT face


def test_solve_mpc_cost_trace_nonincreasing():
    env_sys = integrator_system()
    spec = scalar_spec(horizon=5)
    sol = solve_mpc(spec, env_sys, np.array([2.0]))
    trace = np.asarray(sol.cost_trace)
    assert np.all(np.diff(trace) <= 1e-12)


def test_gradient_matches_central_difference_oracle():
    from procbench.envs.reactor import ReactorEnv
    from procbench.policies import reactor_mpc_spec

    env = ReactorEnv()
    spec = reactor_mpc_spec(env, horizon=5)
    rng = np.random.default_rng(0)
    x0 = env.init_box.sample(rng)
    jitter = np.array([0.01, 10.0])  # keep the integrating level in range
    accepted = 0
    while accepted < 10:
        # random sequences near the nominal input; skip draws whose rollout
        # runs away thermally (the cost there is a sentinel, not a smooth
        # objective, so finite differences are meaningless)
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
        denom = max(np.max(np.abs(central)), 1e-12)
        assert np.max(np.abs(grad - central)) / denom < 1e-4


def test_shooting_solvers_reject_non_vectorized_system():
    scalar_only = OdeSystem(dim=1, rhs=lambda t, x, u: u)
    x0 = np.array([1.0])
    with pytest.raises(ValueError, match="vectorized"):
        solve_mpc(scalar_spec(), scalar_only, x0)
    with pytest.raises(ValueError, match="vectorized"):
        shooting_gradient(scalar_spec(), scalar_only, x0, np.zeros((1, 1)))
    economic = EmpcSpec(horizon=1, dt=1.0, stage_value=lambda X, U: U[..., 0],
                        u_min=[0.0], u_max=[5.0])
    with pytest.raises(ValueError, match="vectorized"):
        solve_empc(economic, scalar_only, x0)


def test_reactor_first_tracking_solves_converge():
    from procbench.envs.reactor import ReactorEnv
    from procbench.policies import reactor_mpc_spec

    env = ReactorEnv()
    spec = reactor_mpc_spec(env)
    for seed in range(10):
        x0 = env.init_box.sample(np.random.default_rng(seed))
        sol = solve_mpc(spec, env.system, x0)
        assert sol.iterations < spec.max_iterations, seed
        assert not sol.stalled, seed
        assert np.all(np.diff(sol.cost_trace) <= 0.0), seed


def _linear_tracking_oracle(a, b, spec, x0):
    """Box-constrained least squares on the exact affine map from inputs to
    residuals of one RK4 step per stage on dx/dt = a x + b u."""
    ha = spec.dt * a
    eye = np.eye(a.shape[0])
    phi = eye + ha + ha @ ha / 2.0 + ha @ ha @ ha / 6.0 + ha @ ha @ ha @ ha / 24.0
    gamma = spec.dt * (eye + ha / 2.0 + ha @ ha / 6.0 + ha @ ha @ ha / 24.0) @ b
    n, m = spec.horizon, b.shape[1]
    root_q, root_r = np.sqrt(spec.q_weights), np.sqrt(spec.r_weights)
    sens = np.zeros((a.shape[0], n * m))
    x = np.asarray(x0, float)
    rows, offsets = [], []
    for k in range(n):
        sens = phi @ sens
        sens[:, k * m:(k + 1) * m] += gamma
        x = phi @ x
        rows.append(root_q[:, None] * sens)
        offsets.append(root_q * (x - spec.x_setpoint))
    rows.append(np.kron(np.eye(n), np.diag(root_r)))
    offsets.append(-np.tile(root_r * spec.u_setpoint, n))
    res = optimize.lsq_linear(
        np.vstack(rows), -np.concatenate(offsets),
        bounds=(np.tile(spec.u_min, n), np.tile(spec.u_max, n)),
        method="bvls", tol=1e-15,
    )
    return res.x.reshape(n, m)


@pytest.mark.parametrize("x0, max_iterations", [
    # input 1's setpoint lies below its box, so the first iterate already
    # holds it on the optimal face: one Gauss-Newton step is exact and the
    # second iteration only confirms it
    ([1.2, -0.3], 2),
    ([1.5, 0.0], 2),
    # here the first step holds the wrong inputs; projection corrects it
    ([0.5, 0.0], 5),
])
def test_solve_mpc_matches_lsq_linear_on_box_constrained_linear_system(
    x0, max_iterations
):
    a = np.array([[-0.5, 0.3], [0.2, -0.8]])
    b = np.array([[1.0, 0.0], [0.4, 0.7]])
    linear = OdeSystem(dim=2, rhs=lambda t, x, u: x @ a.T + u @ b.T, vectorized=True)
    # forward differences of an affine residual are exact at any step, so a
    # wide step only removes roundoff from the Jacobian
    spec = MpcSpec(
        horizon=4, dt=0.5, q_weights=[1.0, 2.0], r_weights=[1.0, 0.05],
        x_setpoint=[1.0, -0.5], u_setpoint=[-3.0, 0.0],
        u_min=[-1.0, -1.0], u_max=[1.0, 1.0], fd_step=1e-4,
    )
    sol = solve_mpc(spec, linear, np.array(x0))
    expected = _linear_tracking_oracle(a, b, spec, x0)
    assert np.any(expected == -1.0)  # the box binds at the optimum
    assert not sol.stalled
    assert sol.iterations <= max_iterations
    assert np.max(np.abs(sol.u_sequence - expected)) <= 1e-9


def test_weight_scaling_leaves_argmin_unchanged():
    dt = 0.7
    sys1 = integrator_system()
    a = solve_mpc(scalar_spec(dt=dt, grad_tol=1e-8), sys1, np.array([1.0]))
    b = solve_mpc(
        scalar_spec(dt=dt, q_weights=[7.0], r_weights=[7.0], grad_tol=1e-8),
        sys1,
        np.array([1.0]),
    )
    assert abs(a.u0[0] - b.u0[0]) < 1e-3


def test_empc_zero_objective_keeps_warm_start():
    spec = EmpcSpec(horizon=3, dt=1.0, stage_value=lambda X, U: 0.0 * U[..., 0],
                    u_min=[0.0], u_max=[5.0])
    warm = np.array([[1.0], [2.0], [3.0]])
    sol = solve_empc(spec, integrator_system(), np.array([0.0]), warm=warm)
    shifted = np.array([[2.0], [3.0], [3.0]])  # warm starts shift by one stage
    assert np.allclose(sol.u_sequence, shifted)


def test_empc_parabola_and_linear_objectives():
    sys1 = integrator_system()
    parab = EmpcSpec(horizon=1, dt=1.0,
                     stage_value=lambda X, U: -((U[..., 0] - 3.0) ** 2),
                     u_min=[0.0], u_max=[5.0])
    assert solve_empc(parab, sys1, np.array([0.0])).u0[0] == pytest.approx(3.0, abs=1e-4)
    linear = EmpcSpec(horizon=1, dt=1.0, stage_value=lambda X, U: U[..., 0],
                      u_min=[0.0], u_max=[5.0])
    assert solve_empc(linear, sys1, np.array([0.0])).u0[0] == pytest.approx(5.0, abs=1e-9)


def test_economic_cost_is_negated_integral():
    spec = EmpcSpec(horizon=2, dt=0.5, stage_value=lambda X, U: U[..., 0],
                    u_min=[0.0], u_max=[5.0])
    u = np.array([[1.0], [3.0]])
    got = economic_shooting_cost(spec, integrator_system(), np.array([0.0]), u)
    assert got == pytest.approx(-0.5 * (1.0 + 3.0), rel=1e-12)


def test_steady_state_optimum_concave_example():
    sysb = OdeSystem(dim=1, rhs=lambda t, x, u: u - x, vectorized=True)
    x_s, u_s, value = solve_steady_state_optimum(
        sysb, lambda x, u: x[0] - 0.5 * x[0] ** 2, [0.0], [2.0], [0.5]
    )
    assert x_s[0] == pytest.approx(1.0, abs=1e-5)
    assert u_s[0] == pytest.approx(1.0, abs=1e-5)
    assert value == pytest.approx(0.5, abs=1e-9)
    # returned pair satisfies the steady-state equation
    assert abs(u_s[0] - x_s[0]) <= 1e-10


def test_steady_state_optimum_deterministic():
    sysb = OdeSystem(dim=1, rhs=lambda t, x, u: u - x, vectorized=True)
    runs = [
        solve_steady_state_optimum(
            sysb, lambda x, u: 1.0, [0.0], [2.0], [0.5], seed=3
        )
        for _ in range(2)
    ]
    assert np.array_equal(runs[0][1], runs[1][1])


def test_steady_state_optimum_no_feasible():
    # dx/dt = 1 has no steady state anywhere
    hopeless = OdeSystem(dim=1, rhs=lambda t, x, u: np.ones_like(x))
    with pytest.raises(NoFeasibleSteadyStateError):
        solve_steady_state_optimum(hopeless, lambda x, u: 0.0, [0.0], [1.0], [0.0],
                                   n_starts=2)


def test_spec_from_config_and_trace_csv(tmp_path):
    from procbench.control import mpc_spec_from_config, write_cost_trace_csv

    spec = mpc_spec_from_config(
        dict(horizon=2, dt=0.5, q_weights=[1.0], r_weights=[0.1],
             x_setpoint=[0.0], u_setpoint=[0.0], u_min=[-1.0], u_max=[1.0])
    )
    sol = solve_mpc(spec, integrator_system(), np.array([1.0]))
    path = tmp_path / "trace.csv"
    write_cost_trace_csv(sol, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "iteration,cost"
    assert len(lines) == len(sol.cost_trace) + 1
    costs = [float(l.split(",")[1]) for l in lines[1:]]
    assert costs == sol.cost_trace
