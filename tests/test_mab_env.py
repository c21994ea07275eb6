"""Integrated antibody environment tests (coarse grids for speed)."""

import contextlib
import signal

import numpy as np
import pytest

from procbench.envs.mab.env import IDX_V_ELU, IDX_V_POL, MabEnv

COARSE = {
    "grids": {
        "capture_axial": 8,
        "capture_radial": 3,
        "loop_axial": 6,
        "polish_axial": 5,
    },
    "schedule_minutes": 90.0,
}

ACTION = np.array([0.05, 0.1, 0.15, 0.05, 36.5, 50.0, 0.0, 2.0, 2.0])


def test_metadata_and_observation_dim():
    env = MabEnv(COARSE)
    obs = env.reset(seed=0)
    meta = env.metadata()
    assert meta["a_dim"] == 9
    assert meta["max_steps"] == 200
    assert meta["error_reward"] == -100.0
    assert meta["o_dim"] == obs.size  # grid-dependent, recorded


def test_step_reward_is_nonnegative_economic_value():
    env = MabEnv(COARSE)
    env.reset(seed=1)
    r = env.step(ACTION)
    assert not r.failure
    x = env.state.upstream
    expected = 1e-3 * (x[7] * ACTION[2] + x[16] * ACTION[3])
    assert r.reward == pytest.approx(expected, rel=1e-12)
    assert r.reward >= 0.0


def test_column_fields_stay_nonnegative_and_bounded():
    env = MabEnv(COARSE)
    env.reset(seed=2)
    for _ in range(3):
        r = env.step(ACTION)
        assert not r.failure
    for col in env.state.columns:
        for arr in (col.c, col.c_p, col.q1, col.q2, col.c_elu, col.q_elu, col.cs_elu):
            assert np.all(arr >= 0.0)
        assert np.all(col.q1 <= env.capture.q_max1 + 1e-9)
        assert np.all(col.q2 <= env.capture.q_max2 + 1e-9)
        assert np.all(col.q_elu <= env.elu.q_max + 1e-9)


def test_roles_swap_on_schedule():
    env = MabEnv(COARSE)  # 90-minute phases: swap inside the second hour
    env.reset(seed=3)
    first = env.state.schedule.loading_column
    env.step(ACTION)
    assert env.state.schedule.loading_column == first
    env.step(ACTION)
    assert env.state.schedule.loading_column == 1 - first


def test_loading_column_accumulates_antibody():
    env = MabEnv(COARSE)
    env.reset(seed=4)
    env.step(ACTION)
    loader = env.state.columns[env.state.schedule.loading_column]
    assert loader.q1.max() > 0.0
    assert loader.c.max() > 0.0


def test_determinism_across_instances():
    results = []
    for _ in range(2):
        env = MabEnv(COARSE)
        obs = env.reset(seed=11)
        r1 = env.step(ACTION)
        r2 = env.step(ACTION)
        results.append((obs, r1.observation, r2.observation, r1.reward, r2.reward))
    assert np.array_equal(results[0][0], results[1][0])
    assert np.array_equal(results[0][1], results[1][1])
    assert np.array_equal(results[0][2], results[1][2])
    assert results[0][3] == results[1][3]
    assert results[0][4] == results[1][4]


def test_out_of_bounds_action_fails():
    env = MabEnv(COARSE)
    env.reset(seed=5)
    bad = ACTION.copy()
    bad[4] = 45.0  # jacket temperature outside band
    r = env.step(bad)
    assert r.failure and r.reward == -100.0


def test_product_recovery_accumulates():
    env = MabEnv(COARSE)
    env.reset(seed=6)
    for _ in range(3):
        env.step(ACTION)
    assert env.state.product_mg >= 0.0


def test_initial_state_respects_coupling():
    env = MabEnv(COARSE)
    for seed in range(20):
        env.reset(seed=seed)
        x = env.state.upstream
        assert x[2] >= x[1]          # total cells dominate viable cells
        assert 36.0 <= x[8] <= 37.0  # temperature band
        assert env.upstream_box.contains(x)


def test_full_coarse_episode_keeps_fields_nonnegative():
    env = MabEnv({**COARSE, "max_steps": 20})
    env.reset(seed=12)
    while True:
        r = env.step(ACTION)
        assert not r.failure
        assert np.all(r.observation[17:] >= 0.0)  # every column field slot
        if r.terminal or r.timeout:
            break
    assert r.timeout


def test_downstream_param_overrides():
    env = MabEnv({**COARSE, "cex": {"k_kin": 0.5}, "loop": {"d_ax_factor": 50.0}})
    assert env.cex.k_kin == 0.5
    assert env.loop.d_ax_factor == 50.0


@contextlib.contextmanager
def _deadline(seconds):
    """Raise TimeoutError in the main thread once ``seconds`` have passed."""
    def expire(signum, frame):
        raise TimeoutError(f"not done within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("seed, v", [(1, 1.5), (2, 2.0), (3, 3.0)])
def test_default_grids_survive_the_first_column_swap(seed, v):
    """Six control hours on the default grids at a fixed balanced action
    cross the 240-minute swap, after which the first eluate runs through
    the holdup loops, whose dispersion (D_ax = 290 v) is the stiffest
    transport of the plant.  An explicit march past its stability limit
    there grew without bound in hour 5 and slowed every later slice."""
    env = MabEnv({})
    env.reset(seed=seed)
    action = ACTION.copy()
    action[IDX_V_ELU] = action[IDX_V_POL] = v
    fed = 0.0    # mg of antibody carried into the capture step
    titre = 0.0  # highest harvest concentration, mg/mL
    with _deadline(120.0):
        for _ in range(6):
            before = env.state.upstream[16]
            r = env.step(action)
            assert not r.failure
            after = env.state.upstream[16]
            fed += action[3] * 60.0 * max(before, after)  # L/min * min * mg/L
            titre = max(titre, before * 1e-3, after * 1e-3)
    assert np.all(np.isfinite(r.observation))  # every field of every unit
    s = env.state
    assert s.schedule.loading_column == 1  # the swap happened
    assert 0.0 < s.product_mg <= fed
    for field in (s.loop_vi, s.cex_c, s.loop_hold, s.aex_c):
        assert field.max() <= titre
