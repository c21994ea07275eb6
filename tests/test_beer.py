"""Beer fermentation model and reward tests."""

import numpy as np
import pytest

from procbench.envs.beer import DEMO_KINETICS, BeerEnv, beer_deriv, beer_reward

# every rate constant zeroed; the reference temperature, the temperature
# slopes and the affinities stay, so no ratio is 0/0
RATE_CONSTANTS = ("k_lag", "k_growth", "k_sugar", "k_death", "k_settle",
                  "ethanol_yield", "k_dy", "k_ab", "y_ea")
ZERO_KINETICS = {
    key: (0.0 if key in RATE_CONSTANTS else value)
    for key, value in DEMO_KINETICS.items()
}
T_REF = DEMO_KINETICS["t_ref"]


def duplicate_rhs(state, kin, temperature):
    """Independent re-coding of the rate laws and the seven balances (oracle)."""
    x_a, x_l, x_d, s, etoh, dy, ea = state
    # the rate laws see no negative sugar or ethanol; the balances do
    s_pos, etoh_pos = max(s, 0.0), max(etoh, 0.0)

    def at_temperature(k, a):
        return kin[k] * np.exp(kin[a] * (temperature - kin["t_ref"]))

    growth = at_temperature("k_growth", "a_growth") * s_pos / (kin["ks_growth"] + s_pos)
    uptake = at_temperature("k_sugar", "a_sugar") * s_pos / (kin["ks_sugar"] + s_pos)
    death = at_temperature("k_death", "a_death")
    activation = at_temperature("k_lag", "a_lag")
    formation = at_temperature("k_dy", "a_dy")
    reduction = at_temperature("k_ab", "a_ab")
    production = kin["ethanol_yield"] * uptake / (1.0 + etoh_pos / kin["ethanol_inhibition"])
    out = np.empty(7)
    out[0] = (growth - death) * x_a + activation * x_l
    out[1] = -activation * x_l
    out[2] = kin["k_settle"] * x_d + death * x_a
    out[3] = -uptake * x_a
    out[4] = production * x_a
    out[5] = formation * s * x_a - reduction * dy * etoh
    out[6] = kin["y_ea"] * growth * x_a
    return out


def test_all_rates_zero_gives_zero_derivatives():
    state = np.array([1.0, 2.0, 0.1, 100.0, 5.0, 0.2, 0.1])
    d = beer_deriv(ZERO_KINETICS)(0.0, state, [14.0])
    assert np.max(np.abs(d)) == 0.0


def test_single_rate_substitution():
    # at the reference temperature, with sugar at its affinity, the uptake
    # rate is half of k_sugar
    kin = {**ZERO_KINETICS, "k_sugar": 0.5, "ks_sugar": 50.0}
    state = np.array([2.0, 0.0, 0.0, 50.0, 0.0, 0.0, 0.0])
    d = beer_deriv(kin)(0.0, state, [T_REF])
    assert d[3] == -0.5
    d[3] = 0.0
    assert np.max(np.abs(d)) == 0.0


def test_rhs_matches_duplicate_oracle():
    """The env's model against the oracle over random states and
    temperatures, a third with sugar and a third with ethanol below zero
    (where the rate laws clamp them), under random scalings of every
    ``DEMO_KINETICS`` constant."""
    rng = np.random.default_rng(8)
    for i in range(300):
        kin = {k: v * rng.uniform(0.2, 5.0) for k, v in DEMO_KINETICS.items()}
        state = rng.uniform(0.0, [10, 10, 5, 150, 60, 1, 1])
        if i % 3 == 0:
            state[3] = -rng.uniform(0.0, 0.5)
        elif i % 3 == 1:
            state[4] = -rng.uniform(0.0, 0.5)
        temperature = rng.uniform(0.0, 25.0)
        rhs = BeerEnv({"kinetics_params": kin}).system.rhs
        got = rhs(0.0, state, np.array([temperature]))
        want = duplicate_rhs(state, kin, temperature)
        assert np.allclose(got, want, rtol=1e-12, atol=1e-15)


def test_reward_rule():
    assert beer_reward(10.0, 0.5, 5, 200) == (-1.0, False)
    assert beer_reward(0.4, 0.5, 120, 200) == (80.0, True)


def test_never_completing_returns_minus_200():
    env = BeerEnv()
    env.reset(seed=0)
    total = 0.0
    while True:
        r = env.step([9.0])  # coldest allowed: too slow to finish
        total += r.reward
        if r.terminal or r.timeout:
            break
    assert r.timeout and not r.failure
    assert total == -200.0


def test_completion_pays_steps_saved():
    env = BeerEnv()
    env.reset(seed=0)
    total = 0.0
    while True:
        r = env.step([16.0])
        total += r.reward
        if r.terminal or r.timeout:
            break
    assert r.terminal and not r.timeout and not r.failure
    steps = env.step_count
    assert r.reward == env.max_steps - steps
    assert total == (env.max_steps - steps) - (steps - 1)


def test_latent_cells_nonincreasing_and_dead_cells_nondecreasing():
    env = BeerEnv()
    obs = env.reset(seed=3)
    prev_latent, prev_dead = obs[1], obs[2]
    for _ in range(60):
        r = env.step([14.0])
        assert r.observation[1] <= prev_latent + 1e-12
        assert r.observation[2] >= prev_dead - 1e-12
        prev_latent, prev_dead = r.observation[1], r.observation[2]
        if r.terminal or r.timeout:
            break


def test_dead_cell_derivative_sign():
    kin = {**ZERO_KINETICS, "k_settle": 0.01, "k_death": 0.005}
    state = np.array([1.0, 0.5, 0.2, 50.0, 10.0, 0.1, 0.1])
    for temperature in (9.0, T_REF, 16.0):
        d = beer_deriv(kin)(0.0, state, [temperature])
        assert d[2] > 0.0


def test_observation_and_action_dims():
    env = BeerEnv()
    obs = env.reset(seed=0)
    assert obs.shape == (8,)
    assert env.action_space.dim == 1
    assert obs[-1] == 0.0
    r = env.step([12.0])
    assert r.observation[-1] == pytest.approx(1.0 / env.max_steps)


def test_out_of_band_temperature_fails():
    env = BeerEnv()
    env.reset(seed=0)
    r = env.step([20.0])
    assert r.failure and r.reward == -200.0


def test_reward_floor():
    assert BeerEnv().reward_floor() == -1.0


def test_advance_matches_hand_rk4_loop():
    """BeerEnv steps its model, ``env.system.rhs``, through
    kernels.integrate; pinned bit-for-bit to a hand-written RK4 loop over a
    seeded random-temperature episode."""
    env = BeerEnv()
    env.reset(seed=6)
    rng = np.random.default_rng(6)
    h = env.step_hours / env.n_substeps
    rhs = env.system.rhs
    for _ in range(env.max_steps):
        u = np.array([rng.uniform(env.action_space.low[0], env.action_space.high[0])])
        x = env.state.copy()
        for _ in range(env.n_substeps):
            k1 = rhs(0.0, x, u)
            k2 = rhs(0.0, x + 0.5 * h * k1, u)
            k3 = rhs(0.0, x + 0.5 * h * k2, u)
            k4 = rhs(0.0, x + h * k3, u)
            x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        assert np.array_equal(env._advance(env.state, u), x)
        r = env.step(u)
        assert not r.failure
        if r.terminal or r.timeout:
            break
