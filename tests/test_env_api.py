"""Episodic-contract tests: seeding, failure semantics, replay, config."""

import copy
import dataclasses

import numpy as np
import pytest

from procbench.envs import ENVIRONMENTS, make_env, validate_episode_config
from procbench.envs.base import ProcessEnv
from procbench.errors import EpisodeFinishedError
from procbench.spaces import ContinuousSpace
from procbench.cli import EXPECTED_CONFIG


class _StubEnv(ProcessEnv):
    """Scriptable plant for exercising the base-class semantics."""

    name = "stub"

    def __init__(self, advance=None, max_steps=5):
        box = ContinuousSpace(np.array([-10.0]), np.array([10.0]))
        super().__init__(
            max_steps=max_steps,
            error_reward=-50.0,
            action_space=ContinuousSpace(np.array([-1.0]), np.array([1.0])),
            observation_space=box,
            state_box=box,
        )
        self._advance_fn = advance or (lambda s, a: s + a)

    def _draw_initial_state(self, rng):
        return np.array([rng.uniform(0.0, 1.0)])

    def _advance(self, state, action):
        return self._advance_fn(state, action)

    def _observe(self, state):
        return np.asarray(state, float).copy()

    def _reward(self, prev_state, action, state):
        return 1.0, False

    def reward_floor(self):
        return 1.0


def test_action_out_of_bounds_fails_with_error_reward():
    env = make_env("reactor")
    env.reset(seed=0)
    result = env.step([0.5, 100.0])  # coolant far below its bound
    assert result.failure and result.terminal and not result.timeout
    assert result.reward == -1000.0


def test_reactor_timeout_at_100_steps():
    env = make_env("reactor")
    env.reset(seed=1)
    u = env.u_nominal
    for k in range(100):
        result = env.step(u)
        assert not result.failure
    assert result.timeout and not result.terminal
    with pytest.raises(EpisodeFinishedError):
        env.step(u)


def test_nan_state_fails_with_error_reward():
    hits = {"n": 0}

    def advance(state, action):
        hits["n"] += 1
        if hits["n"] >= 3:
            return np.array([np.nan])
        return state

    env = _StubEnv(advance=advance)
    env.reset(seed=0)
    env.step([0.0])
    env.step([0.0])
    result = env.step([0.0])
    assert result.failure and result.reward == -50.0
    assert np.all(np.isfinite(result.observation))


def test_state_box_violation_fails():
    env = _StubEnv(advance=lambda s, a: s + 100.0)
    env.reset(seed=0)
    result = env.step([0.0])
    assert result.failure and result.reward == -50.0


def test_failure_and_timeout_mutually_exclusive():
    env = _StubEnv(max_steps=1)
    env.reset(seed=0)
    result = env.step([2.0])  # out-of-bounds action on the final step
    assert result.failure and not result.timeout


def test_reset_determinism_and_membership():
    for name in ("reactor", "atropine", "pensim", "beer"):
        env = make_env(name)
        a = env.reset(seed=99)
        b = env.reset(seed=99)
        assert np.array_equal(a, b), name
        c = env.reset(seed=100)
        assert not np.array_equal(a, c), name


MAB_COARSE = {
    "grids": {"capture_axial": 8, "capture_radial": 3, "loop_axial": 6, "polish_axial": 5},
    "schedule_minutes": 90.0,  # the second step swaps the capture columns
}


# an in-box action per plant that two steps from reset(seed=13) survive
CONTRACT_ACTIONS = {
    "reactor": [0.1, 295.0],
    "atropine": [0.4078, 0.1089, 0.3888, 0.2126],
    "pensim": [0.05] * 6,
    "beer": [12.5],
    "mab": [0.05, 0.1, 0.15, 0.05, 36.5, 50.0, 0.0, 2.0, 2.0],
}


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


@pytest.mark.parametrize("name", sorted(ENVIRONMENTS))
def test_reset_is_deterministic_and_step_never_mutates_previous_state(name):
    env = make_env(name, MAB_COARSE if name == "mab" else None)
    action = CONTRACT_ACTIONS[name]

    def episode():
        observations = [env.reset(seed=13)]
        states = [copy.deepcopy(env.state)]
        for _ in range(2):
            prev = env.state
            snapshot = copy.deepcopy(prev)
            r = env.step(action)
            assert not r.failure
            assert env.state is not prev
            _assert_same(snapshot, prev)
            observations.append(r.observation)
            states.append(copy.deepcopy(env.state))
        return observations, states

    obs_a, states_a = episode()
    obs_b, states_b = episode()
    for a, b in zip(obs_a, obs_b):
        assert np.array_equal(a, b)
    _assert_same(states_a, states_b)


def test_reactor_thousand_resets_inside_init_box():
    env = make_env("reactor")
    for seed in range(1000):
        env.reset(seed=seed)
        assert env.init_box.contains(env.state)


def test_replay_reproduces_rewards_and_observations():
    def run(seed):
        env = make_env("reactor")
        rng = np.random.default_rng(7)
        obs = [env.reset(seed=seed)]
        rewards = []
        for _ in range(20):
            action = env.action_space.sample(rng)
            r = env.step(action)
            obs.append(r.observation)
            rewards.append(r.reward)
            if r.terminal or r.timeout:
                break
        return np.concatenate(obs), np.asarray(rewards)

    obs_a, rew_a = run(123)
    obs_b, rew_b = run(123)
    assert np.array_equal(obs_a, obs_b)
    assert np.array_equal(rew_a, rew_b)


def test_no_reward_below_error_reward():
    rng = np.random.default_rng(0)
    for name in ("reactor", "atropine", "beer"):
        env = make_env(name)
        env.reset(seed=5)
        for _ in range(30):
            r = env.step(env.action_space.sample(rng))
            assert r.reward >= env.error_reward
            if r.terminal or r.timeout:
                break


def test_validate_episode_config_examples():
    assert validate_episode_config(-1000.0, 100, r_min=-10.0)
    assert validate_episode_config(-200.0, 200, r_min=-1.0)
    assert not validate_episode_config(0.0, 10, r_min=-1.0)
    assert not validate_episode_config(-199.0, 200, r_min=-1.0)


def test_episodic_configuration_rows():
    for name, expected in EXPECTED_CONFIG.items():
        env = make_env(name)
        meta = env.metadata()
        assert meta["a_dim"] == expected["a_dim"], name
        assert meta["max_steps"] == expected["max_steps"], name
        assert meta["error_reward"] == expected["error_reward"], name
        if expected["o_dim"] is not None:
            assert meta["o_dim"] == expected["o_dim"], name
        else:
            assert meta["o_dim"] > 0  # grid-dependent, recorded in metadata


def test_caption_inequality_all_envs():
    for name in ENVIRONMENTS:
        env = make_env(name)
        assert validate_episode_config(
            env.error_reward, env.max_steps, env.reward_floor()
        ), name


@pytest.mark.parametrize(
    "name,key",
    [
        ("reactor", "not_a_key"),
        # switches of deleted model variants, registries and outlet logs
        ("pensim", "kinetics"),
        ("pensim", "literal_a1_outflow"),
        ("beer", "kinetics"),
        ("mab", "literal_gln_recycle"),
        ("mab", "literal_adsorption_sign"),
        ("mab", "log_breakthrough"),
        ("atropine", "disturbance_std"),
    ],
)
def test_unknown_config_key_rejected(name, key):
    with pytest.raises(KeyError):
        make_env(name, {key: 1})


@pytest.mark.parametrize(
    "name,config",
    [
        ("beer", {"n_substeps": 0}),
        ("beer", {"n_substeps": -2}),
        ("beer", {"step_hours": 0.0}),
        ("reactor", {"n_substeps": 0}),
        ("reactor", {"control_minutes": -1.0}),
        ("pensim", {"rtol": 0.0}),
        ("pensim", {"rtol": -1e-8}),
        ("pensim", {"step_hours": float("nan")}),
        ("mab", {"step_hours": -1.0}),
        ("mab", {"slice_minutes": 0.0}),
        ("mab", {"slice_minutes": 120.0}),
    ],
)
def test_step_settings_that_freeze_or_divide_by_zero_rejected(name, config):
    with pytest.raises(ValueError):
        make_env(name, config)
