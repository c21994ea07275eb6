"""Controller-policy wiring tests."""

import numpy as np
import pytest

from procbench.control import MpcSolution
from procbench.envs import make_env
from procbench.policies import make_policy
from procbench.runners import rollout

MAB_TEST_GRIDS = {
    "grids": {"capture_axial": 8, "capture_radial": 3,
              "loop_axial": 6, "polish_axial": 5},
}


def test_zero_and_random_policies():
    env = make_env("atropine")
    zero = make_policy(env, "zero")
    assert np.array_equal(zero.act(env.reset(seed=0)), np.zeros(4))
    rand = make_policy(env, "random")
    rand.reset(3)
    a1 = rand.act(None)
    rand.reset(3)
    a2 = rand.act(None)
    assert np.array_equal(a1, a2)
    assert env.action_space.contains(a1)


def test_unsupported_pair_raises():
    env = make_env("beer")
    with pytest.raises(ValueError):
        make_policy(env, "mpc")


@pytest.mark.parametrize("env_name", ["reactor", "beer", "mab"])
def test_zero_is_unsupported_where_the_box_excludes_zero(env_name):
    env = make_env(env_name, MAB_TEST_GRIDS if env_name == "mab" else None)
    assert not env.action_space.contains(np.zeros(env.action_space.dim))
    with pytest.raises(ValueError, match="zero"):
        make_policy(env, "zero")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("env_name, controller, options", [
    ("reactor", "mpc", None),
    ("reactor", "empc", None),
    ("atropine", "mpc", None),
    ("mab", "mpc", {"horizon": 4}),
    ("mab", "empc", {"horizon": 4}),
])
def test_every_mpc_pair_reports_its_solution(env_name, controller, options):
    env = make_env(env_name, MAB_TEST_GRIDS if env_name == "mab" else None)
    policy = make_policy(env, controller, options)
    obs = env.reset(seed=0)
    policy.reset(0)
    action = policy.act(obs)
    sol = policy.last_solution
    assert isinstance(sol, MpcSolution)
    assert sol.iterations >= 1
    assert len(sol.cost_trace) > 0
    assert env.action_space.contains(action)


def test_reactor_pid_regulates_level_and_conversion():
    env = make_env("reactor")
    policy = make_policy(env, "pid")
    ca_sp, h_sp = env.setpoint
    obs = env.reset(seed=1)
    policy.reset(1)
    for _ in range(60):
        r = env.step(policy.act(obs))
        assert not r.failure
        obs = r.observation
    assert abs(obs[0] - ca_sp) <= 0.05 * ca_sp
    assert abs(obs[2] - h_sp) <= 0.05 * h_sp


def test_atropine_mpc_steers_output_toward_steady_point():
    env = make_env("atropine")
    policy = make_policy(env, "mpc", {"horizon": 10})
    obs = env.reset(seed=2)
    policy.reset(2)
    first_dev = abs(obs[2])
    for _ in range(20):
        action = policy.act(obs)
        assert env.action_space.contains(action)
        r = env.step(action)
        assert not r.failure
        obs = r.observation
    assert abs(obs[2]) < max(first_dev, 1.0)  # output deviation regulated


@pytest.mark.filterwarnings("error")
def test_reactor_empc_runaway_start_stalls_quietly():
    # the mid-box initial guess predicts a thermal runaway from this state,
    # so every finite-difference rollout is infinite
    env = make_env("reactor")
    policy = make_policy(env, "empc")
    obs = env.reset(seed=3)
    policy.reset(3)
    action = policy.act(obs)
    assert policy.last_solution.stalled
    assert env.action_space.contains(action)


@pytest.mark.filterwarnings("error")
def test_mab_policies_produce_valid_actions():
    env = make_env("mab", MAB_TEST_GRIDS)
    obs = env.reset(seed=0)
    for name in ("mpc", "empc"):
        policy = make_policy(env, name, {"horizon": 4})
        policy.reset(0)
        action = policy.act(obs)
        assert action.shape == (9,)
        assert env.action_space.contains(action)


def test_bo_rollout_on_pensim():
    report = rollout("pensim", "bo", episodes=4, seed=5)
    assert len(report["results"]) == 4
    assert report["summary"]["steps_mean"] > 0


def test_rollout_report_structure():
    report = rollout("reactor", "pid", episodes=2, seed=9)
    assert report["metadata"]["a_dim"] == 2
    assert {"return_mean", "return_std", "success_rate", "steps_mean"} <= set(
        report["summary"]
    )
    assert all(len(r["final_observation"]) == 3 for r in report["results"])
