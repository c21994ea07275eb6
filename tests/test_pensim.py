"""Penicillin fed-batch balance and reward tests."""

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import procbench.envs.pensim as pensim_module
from procbench.envs.pensim import (
    DEMO_KINETICS,
    N_STATES,
    PenSimEnv,
    pensim_deriv,
    pensim_reward,
)
from procbench.errors import DegenerateVolumeError, StiffnessError
from procbench.kernels import PI_FACTOR_MAX

FEEDS = (500.0, 1000.0)
# every rate constant zeroed; the affinities stay so no ratio is 0/0
ZERO_KINETICS = {
    key: (value if key in ("ks", "km", "kp_prod", "ki_prod") else 0.0)
    for key, value in DEMO_KINETICS.items()
}


def duplicate_rhs(state, kin, action, feeds, evp_rate, y_sx, y_sp, m_s):
    """Independent re-coding of the rate laws and the seven balances (oracle)."""
    a0, a1, a3, a4, p, s, v = state
    f_s, f_oil, f_paa, f_ab, f_w, f_dis = action
    s = max(s, 0.0)  # the rate laws see no negative substrate
    growth = s / (kin["ks"] + s)
    starving = 1.0 - growth
    r_b = kin["k_branch"] * growth * a1
    r_diff = kin["k_diff"] * starving * a0
    r_e = kin["k_extend"] * growth * a0
    r_deg = kin["k_degen"] * starving * a1
    r_a = kin["k_autolysis"] * a3
    r_p = (kin["k_prod"] * a0 * s / (kin["kp_prod"] + s)
           * kin["ki_prod"] / (kin["ki_prod"] + s))
    r_h = kin["k_hydrolysis"] * p
    r_m = a0 * s / (kin["km"] + s)
    f_in = f_s + f_oil + f_paa + f_ab + f_w
    out = np.empty(7)
    out[0] = r_b - r_diff - f_in * a0 / v
    out[1] = r_e - r_b + r_diff - r_deg - f_in * a1 / v
    out[2] = r_deg - r_a - f_in * a3 / v
    out[3] = r_a - f_in * a4 / v
    out[4] = r_p - r_h - f_in * p / v
    out[5] = (
        -y_sx * (r_e + r_b) - m_s * r_m - y_sp * r_p
        + f_s * feeds[0] / v + f_oil * feeds[1] / v
    )
    out[6] = f_in - evp_rate * v - f_dis
    return out


def test_everything_zero_gives_zero_derivatives():
    state = (1.0, 0.5, 0.1, 0.05, 2.0, 3.0, 100.0)
    d = pensim_deriv(ZERO_KINETICS, FEEDS, 0.0, 1.85, 0.9, 0.0)(state, (0.0,) * 6)
    assert max(abs(v) for v in d) == 0.0


def test_single_feed_term():
    state = (0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 100.0)
    action = (1.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    d = pensim_deriv(ZERO_KINETICS, (10.0, 0.0), 0.0, 1.85, 0.9, 0.01)(state, action)
    assert d[5] == pytest.approx(0.1, rel=1e-14)
    assert d[6] == pytest.approx(1.0, rel=1e-14)


def test_rhs_matches_duplicate_oracle():
    """Random states (a third with substrate below zero, where the rate laws
    clamp it) under random scalings of every ``DEMO_KINETICS`` constant."""
    rng = np.random.default_rng(17)
    for i in range(300):
        kin = {k: v * rng.uniform(0.2, 5.0) for k, v in DEMO_KINETICS.items()}
        state = rng.uniform([0, 0, 0, 0, 0, 0, 40], [40, 40, 10, 10, 50, 30, 200])
        if i % 3 == 0:
            state[5] = -rng.uniform(0.0, 0.01)
        state = tuple(state)
        action = tuple(rng.uniform(0, 0.3, 6))
        evp_rate = rng.uniform(0, 5e-4)
        got = pensim_deriv(kin, FEEDS, evp_rate, 1.85, 0.9, 0.01)(state, action)
        want = duplicate_rhs(state, kin, action, FEEDS, evp_rate, 1.85, 0.9, 0.01)
        assert np.allclose(got, want, rtol=1e-12, atol=1e-15)


def test_volume_bookkeeping_is_exact_linear():
    # constant flows and no kinetics: dV/dt is feeds in, evaporation and
    # discharge out
    state = (0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 100.0)
    action = (0.1, 0.05, 0.02, 0.01, 0.02, 0.06)
    evp_rate = 3e-4
    net = sum(action[:5]) - evp_rate * 100.0 - action[5]
    d = pensim_deriv(ZERO_KINETICS, FEEDS, evp_rate, 1.85, 0.9, 0.01)(state, action)
    assert d[6] == pytest.approx(net, rel=1e-14)


def test_reward_examples():
    a = (0.1, 0.1, 0.1, 0.1, 0.1, 0.1)
    assert pensim_reward(1.0, 1.0, a, a, 0.01) == 0.0
    assert pensim_reward(1.0, 3.0, a, a, 0.01) == 2.0
    jump = (10.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    zero = (0.0,) * 6
    assert pensim_reward(1.0, 1.0, jump, zero, 0.01) == pytest.approx(-1.0)


def test_dopri_step_matches_dop853_reference():
    """Each control hour of a 6-segment feed profile (the BO controller's
    shape) against scipy's DOP853 at rtol 1e-12 on the same model."""
    env = PenSimEnv()
    env.reset(seed=2)
    deriv = pensim_deriv(env.kinetics_params, env.feeds, env.evaporation_rate,
                         env.y_sx, env.y_sp, env.m_s)
    rng = np.random.default_rng(1)
    low, high = env.action_space.low, env.action_space.high
    segments = rng.uniform(low, low + 0.5 * (high - low), size=(6, 6))
    x = env.state.copy()
    worst = 0.0
    for k in range(env.max_steps):
        action = segments[k * 6 // env.max_steps]
        got = env._advance(x, action)
        ref = solve_ivp(
            lambda t, z: deriv(tuple(z), tuple(action)),
            (0.0, env.step_hours), x, method="DOP853", rtol=1e-12, atol=1e-14,
        ).y[:, -1]
        worst = max(worst, float(np.max(np.abs(got - ref) / np.maximum(np.abs(ref), 1e-3))))
        assert env._state_valid(got)
        x = got
    assert worst <= 1e-6


@pytest.mark.parametrize("fault", ["nan", "degenerate_volume", "stiff"])
def test_failing_rhs_fails_the_step_after_bounded_work(fault):
    env = PenSimEnv()
    env.reset(seed=0)
    calls = 0

    def broken(x, a):
        nonlocal calls
        calls += 1
        if calls > 10_000:  # a hang shows up as a test failure
            raise AssertionError("step kept evaluating the rhs")
        if fault == "nan":
            return (float("nan"),) * N_STATES
        if fault == "degenerate_volume":
            raise DegenerateVolumeError("volume below floor")
        # finite but so stiff that the step size collapses below its floor
        return tuple(-1e13 * v for v in x)

    env._deriv = broken
    obs_before = env._observe(env.state)
    r = env.step(np.array([0.1, 0.01, 0.005, 0.005, 0.01, 0.03]))
    assert r.failure and r.terminal and not r.timeout
    assert r.reward == env.error_reward
    assert np.array_equal(r.observation, obs_before)
    assert calls <= {"nan": 7, "degenerate_volume": 1, "stiff": 200}[fault]


def test_step_size_floor_raises_stiffness_error(monkeypatch):
    """With the floor at PI_FACTOR_MAX * step_hours, every step size the
    controller can reach after its first trial step (a quarter hour) lies
    below it: the real model trips the floor on a finite state."""
    monkeypatch.setattr(pensim_module, "H_MIN_FRACTION", PI_FACTOR_MAX)
    env = PenSimEnv()
    env.reset(seed=0)
    action = np.array([0.1, 0.01, 0.005, 0.005, 0.01, 0.03])
    with pytest.raises(StiffnessError, match="step size"):
        env._advance(env.state, action)
    r = env.step(action)
    assert r.failure and r.terminal and r.reward == env.error_reward


def test_advance_is_a_pure_function_of_state_and_action():
    env = PenSimEnv()
    env.reset(seed=1)
    x = env.state.copy()
    action = np.array([0.15, 0.02, 0.0, 0.01, 0.0, 0.05])
    first = env._advance(x, action)
    env._advance(first, action[::-1].copy())
    assert np.array_equal(env._advance(x, action), first)


def test_biomass_nonnegative_over_full_episode():
    env = PenSimEnv()
    env.reset(seed=4)
    action = np.array([0.08, 0.01, 0.005, 0.005, 0.01, 0.02])
    while True:
        r = env.step(action)
        assert not r.failure
        assert r.observation[7] >= 0.0  # total biomass slot
        assert np.all(r.observation[:4] >= 0.0)
        if r.terminal or r.timeout:
            break
    assert r.timeout


def test_reward_floor_satisfies_caption_inequality():
    env = PenSimEnv()
    floor = env.reward_floor()
    assert floor >= -100.0 / 1150.0
    assert env.error_reward <= floor * env.max_steps


def test_first_step_has_no_smoothness_penalty():
    env = PenSimEnv()
    env.reset(seed=0)
    state_before = env.state.copy()
    action = np.array([0.2, 0.0, 0.0, 0.0, 0.0, 0.0])
    r = env.step(action)
    pv0 = state_before[4] * state_before[6] * 1e-3
    pv1 = env.state[4] * env.state[6] * 1e-3
    assert r.reward == pytest.approx(pv1 - pv0, abs=1e-15)


def test_observation_layout():
    env = PenSimEnv()
    obs = env.reset(seed=0)
    assert obs.shape == (9,)
    assert obs[7] == pytest.approx(np.sum(obs[:4]))
    assert obs[8] == 0.0


def test_kinetics_plugin_selection():
    """The demo rate laws are the only ones; their constants are set
    through ``kinetics_params``."""
    env = PenSimEnv({"kinetics_params": {"k_prod": 0.01}})
    assert env.kinetics_params["k_prod"] == 0.01
    # no product yet and no flows: dP/dt is the production rate alone
    state = (1.0, 0.2, 0.0, 0.0, 0.0, 5.0, 100.0)
    assert env._deriv(state, (0.0,) * 6)[4] == pytest.approx(
        0.01 * 1.0 * (5.0 / 5.08) * (10.0 / 15.0), rel=1e-14
    )
