"""Atropine linear-plant, filter and episode tests."""

import numpy as np
import pytest

from procbench.envs.atropine import (
    AtropineEnv,
    LinearPlantModel,
    Q_STEADY,
    Y_STEADY,
    atropine_reward,
    kalman_update,
    lin_output,
    lin_step,
)


def test_lin_step_zero_fixed_point():
    assert np.array_equal(lin_step(np.zeros(2), np.zeros(4)), np.zeros(2))


def test_lin_step_reads_off_a_matrix():
    out = lin_step(np.array([1.0, 0.0]), np.zeros(4))
    assert np.allclose(out, [0.8543, 0.0195], atol=1e-12)


def test_lin_step_reads_off_b_column():
    out = lin_step(np.zeros(2), np.array([1.0, 0.0, 0.0, 0.0]))
    assert np.allclose(out, [-0.0382, -0.0051], atol=1e-12)


def test_output_at_zero_deviation_is_steady_e_factor():
    assert lin_output(np.zeros(2)) == 0.0
    assert Y_STEADY + lin_output(np.zeros(2)) == 13.057


def test_output_row_readoff():
    assert lin_output(np.array([1.0, 0.0])) == pytest.approx(-148.6124, abs=1e-12)
    assert lin_output(np.array([0.0, -1.0])) == pytest.approx(46.8132, abs=1e-12)


def test_kalman_zero_innovation():
    x = kalman_update(np.zeros(2), np.zeros(4), 0.0)
    assert np.array_equal(x, np.zeros(2))


def test_kalman_unit_innovation_returns_gain():
    x = kalman_update(np.zeros(2), np.zeros(4), 1.0)
    assert np.allclose(x, [-0.0093, 0.0115], atol=1e-12)


def test_filter_error_decays_tenfold_within_40_steps():
    model = LinearPlantModel()
    rng = np.random.default_rng(5)
    x = np.array([0.4, -0.3])
    x_hat = np.zeros(2)
    e0 = np.linalg.norm(x - x_hat)
    for _ in range(40):
        u = rng.uniform(-0.05, 0.05, 4)
        x = lin_step(x, u, model)
        y = lin_output(x, model)
        x_hat = kalman_update(x_hat, u, y, model)
    assert np.linalg.norm(x - x_hat) <= e0 / 10.0


def test_plant_and_filter_spectral_radii_inside_unit_circle():
    m = LinearPlantModel()
    assert np.max(np.abs(np.linalg.eigvals(m.a))) < 1.0
    closed = m.a - m.k @ m.c
    assert np.max(np.abs(np.linalg.eigvals(closed))) < 1.0


def test_free_response_decays():
    m = LinearPlantModel()
    x = np.array([1.0, 1.0])
    norms = [np.linalg.norm(x)]
    for _ in range(80):
        x = lin_step(x, np.zeros(4), m)
        norms.append(np.linalg.norm(x))
    assert norms[-1] < 1e-3 * norms[0]


def test_reward_examples():
    assert atropine_reward(13.057) == -13.057
    assert atropine_reward(0.0) == 0.0
    assert atropine_reward(5.0) > atropine_reward(9.0)


def test_episode_at_operating_point_stays_there():
    env = AtropineEnv({"init_low": [0.0, 0.0], "init_high": [0.0, 0.0]})
    obs = env.reset(seed=0)
    for k in range(60):
        r = env.step(Q_STEADY)
        assert not r.failure
        assert r.reward == -13.057
        assert np.array_equal(env.state, np.zeros(2))
    assert r.timeout


def test_absolute_flow_bound_violation_fails():
    env = AtropineEnv()
    env.reset(seed=1)
    r = env.step([5.1, 0.1, 0.1, 0.1])
    assert r.failure and r.reward == -100000.0


def test_observation_layout():
    env = AtropineEnv()
    obs = env.reset(seed=4)
    assert obs.shape == (8,)
    assert env.metadata()["o_dim"] == 8
    # filter state starts cold, previous inputs start at steady flows
    assert np.array_equal(obs[:2], np.zeros(2))
    assert np.array_equal(obs[4:], Q_STEADY)
    # E-factor slot is the steady value plus the deviation slot
    assert obs[3] == pytest.approx(Y_STEADY + obs[2], rel=1e-12)


def test_config_matrix_override():
    env = AtropineEnv({"a": [[0.5, 0.0], [0.0, 0.5]]})
    assert np.array_equal(env.model.a, 0.5 * np.eye(2))


