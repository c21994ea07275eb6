"""Each output check accepts the program's real output and rejects a
corrupted copy of it: one reward's sign flipped, a closing row dropped, an
action moved out of its box, a NaN in the JSON."""

from __future__ import annotations

import json
import math
import os

import pytest

import checks
from procbench.envs import make_env
from procbench.runners import generate_dataset, stats_row

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _dataset(tmp_path, env_name, controller, config=None):
    out = str(tmp_path / env_name)
    ds = generate_dataset(env_name, controller, 2, 3, config=config, out_dir=out)
    table = checks.Table.load(os.path.join(out, "data.csv"))
    return table, json.dumps(stats_row(ds)), make_env(env_name, config)


def _copy(table, rows=None):
    return checks.Table(table.header, [list(r) for r in (rows or table.rows)])


def _flip_reward(table, index=3):
    bad = _copy(table)
    col = bad.col["reward"]
    bad.rows[index][col] = -bad.rows[index][col] if bad.rows[index][col] else 1.0
    return bad


@pytest.fixture(scope="module")
def reactor(tmp_path_factory):
    return _dataset(tmp_path_factory.mktemp("reactor"), "reactor", "pid")


def _reward_checks(env_name, table, env):
    if env_name == "reactor":
        return checks.check_reactor_rewards(table, env.error_reward, env.setpoint)
    if env_name == "atropine":
        return checks.check_atropine_rewards(table, env.error_reward)
    if env_name == "beer":
        return checks.check_beer_rewards(table, env.error_reward, env.max_steps)
    return checks.check_pensim_rewards(table, env.error_reward, env.smoothness)


@pytest.mark.parametrize(
    "env_name, controller, config",
    [
        ("reactor", "pid", None),
        ("atropine", "random", None),
        ("beer", "random", {"max_steps": 30}),
        ("pensim", "random", {"max_steps": 30}),
    ],
)
def test_rewards_recomputed_and_sign_flip_rejected(tmp_path, env_name, controller, config):
    table, stats_text, env = _dataset(tmp_path, env_name, controller, config)
    assert _reward_checks(env_name, table, env) == ([], set())
    assert checks.check_stats(table, stats_text, env.error_reward) == []

    bad = _flip_reward(table)
    problems, episodes = _reward_checks(env_name, bad, env)
    assert problems and episodes == {0}
    assert checks.check_stats(bad, stats_text, env.error_reward)


def test_dropped_closing_row_rejected(reactor):
    table, stats_text, env = reactor
    assert checks.check_episode_structure(table, 2, env.max_steps) == ([], [])
    first = table.episodes()[0]
    bad = _copy(table, [r for r in table.rows if r is not first[-1]])
    problems, episodes = checks.check_episode_structure(bad, 2, env.max_steps)
    assert problems and episodes == [0]
    assert checks.check_stats(bad, stats_text, env.error_reward)


def test_action_out_of_box_rejected(reactor):
    table, _, env = reactor
    low, high = env.action_space.low.tolist(), env.action_space.high.tolist()
    assert checks.check_action_box(table, low, high) == ([], set())
    bad = _copy(table)
    bad.rows[150][bad.act[1]] = high[1] + 1.0
    problems, episodes = checks.check_action_box(bad, low, high)
    assert len(problems) == 1 and episodes == {1}


def test_nan_in_json_rejected(reactor):
    table, stats_text, env = reactor
    report = json.loads(stats_text)
    report["reward_std"] = math.nan
    assert checks.check_stats(table, json.dumps(report), env.error_reward)

    steady = {
        "env": "reactor", "x_star": [0.93, 320.0, 0.5], "u_star": [0.1, 290.0],
        "economic_value": 0.007, "residual_norm": 1e-13,
    }
    box = {
        "x_low": env.state_box.low.tolist(), "x_high": env.state_box.high.tolist(),
        "u_low": env.action_space.low.tolist(), "u_high": env.action_space.high.tolist(),
    }
    assert checks.check_steady_state_report(json.dumps(steady), box, 0.1) == []
    for key, value in (("economic_value", math.nan), ("residual_norm", 1e-9)):
        assert checks.check_steady_state_report(
            json.dumps({**steady, key: value}), box, 0.1
        )
    assert checks.check_steady_state_report(
        json.dumps({**steady, "u_star": [0.2, 290.0]}), box, 0.1
    )


def test_failure_rows_must_carry_error_reward(reactor):
    table, _, env = reactor
    assert checks.check_failed_rows(table, env.error_reward, True) == ([], set())
    bad = _copy(table)
    last = table.episodes()[0][-1]
    row = bad.rows[table.rows.index(last)]
    row[bad.col["timeout"]], row[bad.col["terminal"]] = 0.0, 1.0
    assert checks.check_failed_rows(bad, env.error_reward, True)[1] == {0}


def test_piecewise_profile_and_sequence_checks():
    header = ["episode_id", "step", "obs_0", "act_0", "reward", "terminal", "timeout"]
    steps = [[0, k, 0.0, float(k // 3), 0.0, 0, int(k == 8)] for k in range(9)]
    table = checks.Table(header, [[float(v) for v in r] for r in steps])
    assert checks.check_piecewise_constant(table, 3) == ([], set())
    assert checks.check_piecewise_constant(table, 2)[1] == {0}

    assert checks.check_nonincreasing([3.0, 2.0, 2.0], "t") is None
    assert checks.check_nonincreasing([3.0, 2.0, 2.5], "t")
    assert checks.check_nondecreasing([0.0, 0.0, 1.0], "p") is None
    assert checks.check_nondecreasing([0.0, 1.0, 0.5], "p")
    assert checks.check_hold([[1.0, 300.0], [1.0, 300.0]], [1.0, 300.0]) is None
    assert checks.check_hold([[1.0, 300.0], [1.0, 300.01]], [1.0, 300.0])
    far, near = [2.0, 0.0, 2.0], [1.01, 0.0, 0.99]
    assert checks.check_reaches_band([far, near], (1.0, 1.0), 2) is None
    assert checks.check_reaches_band([far, near], (1.0, 1.0), 1)


def test_benchmark_json_names_every_reported_metric():
    import layers
    import worker

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [
        ("setup_s", "s")
    ] + worker.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layers.PER_LAYER
