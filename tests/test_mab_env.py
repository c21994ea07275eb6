"""Integrated antibody environment tests (coarse grids for speed)."""

import copy
import dataclasses

import numpy as np
import pytest

from procbench.envs.mab.env import MabEnv

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


def test_field_csv_export(tmp_path):
    env = MabEnv(COARSE)
    env.reset(seed=7)
    env.step(ACTION)
    path = tmp_path / "fields.csv"
    env.write_field_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("unit,node")
    assert len(lines) > 10


def test_initial_state_respects_coupling():
    env = MabEnv(COARSE)
    for seed in range(20):
        env.reset(seed=seed)
        x = env.state.upstream
        assert x[2] >= x[1]          # total cells dominate viable cells
        assert 36.0 <= x[8] <= 37.0  # temperature band
        assert env.upstream_box.contains(x)


def test_breakthrough_logging(tmp_path):
    env = MabEnv({**COARSE, "log_breakthrough": True})
    env.reset(seed=8)
    env.step(ACTION)
    env.step(ACTION)
    assert len(env.breakthrough_log) == 2
    path = tmp_path / "bt.csv"
    env.write_breakthrough_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("step,load_outlet")
    assert len(lines) == 3


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


def _assert_same(before, after, path="state"):
    if dataclasses.is_dataclass(before):
        assert type(after) is type(before), path
        for f in dataclasses.fields(before):
            _assert_same(getattr(before, f.name), getattr(after, f.name),
                         f"{path}.{f.name}")
    elif isinstance(before, list):
        assert len(after) == len(before), path
        for i, (b, a) in enumerate(zip(before, after)):
            _assert_same(b, a, f"{path}[{i}]")
    elif isinstance(before, np.ndarray):
        assert np.array_equal(before, after), path
    else:
        assert before == after, path


def test_step_does_not_mutate_previous_state():
    env = MabEnv(COARSE)  # 90-minute phases: the second step swaps roles
    env.reset(seed=13)
    for _ in range(2):
        prev = env.state
        snapshot = copy.deepcopy(prev)
        r = env.step(ACTION)
        assert not r.failure
        assert env.state is not prev
        _assert_same(snapshot, prev)
