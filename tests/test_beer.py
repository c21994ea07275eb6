"""Beer fermentation model and reward tests."""

import numpy as np
import pytest

from procbench.envs.beer import BeerEnv, BeerRates, beer_reward, beer_rhs


def zero_rates(**overrides):
    base = dict(
        mu_x=0.0, mu_dt=0.0, mu_l=0.0, mu_sd=0.0,
        mu_s=0.0, mu_eth=0.0, mu_dy=0.0, mu_ab=0.0, y_ea=0.0,
    )
    base.update(overrides)
    return BeerRates(**base)


def duplicate_rhs(state, r):
    """Independent re-coding of the seven balances (oracle)."""
    x_a, x_l, x_d, s, etoh, dy, ea = state
    return np.array(
        [
            r.mu_x * x_a - r.mu_dt * x_a + r.mu_l * x_l,
            -r.mu_l * x_l,
            r.mu_sd * x_d + r.mu_dt * x_a,
            r.mu_s * x_a,
            r.mu_eth * x_a,
            r.mu_dy * s * x_a - r.mu_ab * dy * etoh,
            r.y_ea * r.mu_x * x_a,
        ]
    )


def test_all_rates_zero_gives_zero_derivatives():
    state = np.array([1.0, 2.0, 0.1, 100.0, 5.0, 0.2, 0.1])
    assert np.max(np.abs(beer_rhs(state, zero_rates()))) == 0.0


def test_single_rate_substitution():
    state = np.array([2.0, 0.0, 0.0, 50.0, 0.0, 0.0, 0.0])
    d = beer_rhs(state, zero_rates(mu_s=-0.5))
    assert d[3] == -1.0
    d[3] = 0.0
    assert np.max(np.abs(d)) == 0.0


def test_rhs_matches_duplicate_oracle():
    rng = np.random.default_rng(8)
    for _ in range(200):
        state = rng.uniform(0.0, [10, 10, 5, 150, 60, 1, 1])
        r = BeerRates(
            mu_x=rng.uniform(0, 0.2), mu_dt=rng.uniform(0, 0.01),
            mu_l=rng.uniform(0, 0.3), mu_sd=rng.uniform(0, 0.01),
            mu_s=-rng.uniform(0, 2.0), mu_eth=rng.uniform(0, 1.0),
            mu_dy=rng.uniform(0, 1e-4), mu_ab=rng.uniform(0, 1e-4),
            y_ea=rng.uniform(0, 0.1),
        )
        got = beer_rhs(state, r)
        want = duplicate_rhs(state, r)
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
    state = np.array([1.0, 0.5, 0.2, 50.0, 10.0, 0.1, 0.1])
    d = beer_rhs(state, zero_rates(mu_sd=0.01, mu_dt=0.005))
    assert d[2] >= 0.0


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
    """BeerEnv steps through kernels.integrate; pinned bit-for-bit to a
    hand-written RK4 loop over a seeded random-temperature episode."""
    env = BeerEnv()
    env.reset(seed=6)
    rng = np.random.default_rng(6)
    h = env.step_hours / env.n_substeps
    for _ in range(env.max_steps):
        temperature = rng.uniform(env.action_space.low[0], env.action_space.high[0])
        x = env.state.copy()
        for _ in range(env.n_substeps):
            k1 = beer_rhs(x, env.rates(x, temperature))
            k2 = beer_rhs(x + 0.5 * h * k1, env.rates(x + 0.5 * h * k1, temperature))
            k3 = beer_rhs(x + 0.5 * h * k2, env.rates(x + 0.5 * h * k2, temperature))
            k4 = beer_rhs(x + h * k3, env.rates(x + h * k3, temperature))
            x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        assert np.array_equal(env._advance(env.state, np.array([temperature])), x)
        r = env.step([temperature])
        assert not r.failure
        if r.terminal or r.timeout:
            break
