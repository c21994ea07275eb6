"""Command-line behaviour: determinism, pipelines, exit codes."""

import inspect
import json
import subprocess
import sys

import pytest

import procbench.cli
import procbench.errors
from procbench.cli import main
from procbench.dataset import read_dataset, stats
from procbench.envs import make_env


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "procbench.cli", *args],
        capture_output=True,
        text=True,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_rollout_stdout_is_deterministic_and_json():
    code1, out1, _ = run_cli("rollout", "--env", "atropine", "--controller",
                             "zero", "--episodes", "1", "--seed", "7")
    code2, out2, _ = run_cli("rollout", "--env", "atropine", "--controller",
                             "zero", "--episodes", "1", "--seed", "7")
    assert code1 == code2 == 0
    assert out1 == out2
    report = json.loads(out1)
    assert report["env"] == "atropine"
    assert report["results"][0]["steps"] == 60  # zero flows stay in the box


def test_rollout_zero_outside_the_action_box_exits_1():
    code, out, err = run_cli("rollout", "--env", "reactor", "--controller",
                             "zero", "--episodes", "1", "--seed", "7")
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("error: ValueError: unsupported env/controller pair: reactor/zero")


def test_dataset_then_stats_pipeline(tmp_path):
    out = tmp_path / "ds"
    code, stdout, _ = run_cli(
        "dataset", "--env", "reactor", "--controller", "random",
        "--episodes", "4", "--seed", "3", "--out", str(out),
    )
    assert code == 0
    row = json.loads(stdout)
    assert (row["a_dim"], row["o_dim"], row["max_steps"], row["error_reward"]) == (
        2, 3, 100, -1000.0,
    )
    code, stdout, _ = run_cli("stats", "--data", str(out))
    assert code == 0
    row2 = json.loads(stdout)
    ds = read_dataset(out)
    mean, std, success = stats(ds)
    assert row2["reward_mean"] == mean
    assert row2["reward_std"] == std
    assert row2["success_rate"] == success
    assert row == row2  # generation-time row matches the stored dataset


def test_dataset_parallel_jobs_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    code1, _, _ = run_cli("dataset", "--env", "reactor", "--controller",
                          "random", "--episodes", "6", "--seed", "11",
                          "--out", str(a), "--jobs", "1")
    code2, _, _ = run_cli("dataset", "--env", "reactor", "--controller",
                          "random", "--episodes", "6", "--seed", "11",
                          "--out", str(b), "--jobs", "3")
    assert code1 == code2 == 0
    assert (a / "data.csv").read_bytes() == (b / "data.csv").read_bytes()
    assert (a / "meta.json").read_bytes() == (b / "meta.json").read_bytes()


def test_validate_all_exits_zero():
    code, out, _ = run_cli("validate", "--env", "all")
    assert code == 0
    lines = [l for l in out.splitlines() if l]
    assert all(line.startswith("PASS") for line in lines)
    assert sum("error_reward_inequality" in l for l in lines) == 5


def test_usage_error_exit_2():
    code, _, err = run_cli("rollout", "--env", "reactor", "--controller",
                           "warp-drive")
    assert code == 2
    code, _, _ = run_cli("nonsense")
    assert code == 2


def test_runtime_error_exit_1(tmp_path):
    code, _, err = run_cli("stats", "--data", str(tmp_path / "missing"))
    assert code == 1
    assert "error:" in err


def test_steady_state_reactor_in_process(capsys):
    code = main(["steady-state", "--env", "reactor", "--seed", "1"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["residual_norm"] <= 1e-10
    assert len(payload["x_star"]) == 3 and len(payload["u_star"]) == 2
    env = make_env("reactor")
    assert payload["u_star"][0] == env.params.q_in  # balanced flows
    assert env.state_box.contains(payload["x_star"])


def test_steady_state_problem_uses_the_configured_inflow(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(
        {"reactor": {"params": {"q_in": 0.12}, "nominal_inputs": [0.12, 295.0]}}
    ))
    code = main(["steady-state", "--env", "reactor", "--seed", "1",
                 "--config", str(cfg)])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["u_star"][0] == 0.12
    assert payload["residual_norm"] <= 1e-10


@pytest.mark.parametrize("env", ["atropine", "beer", "mab", "pensim"])
def test_steady_state_non_reactor_env_is_usage_error(env, capsys):
    with pytest.raises(SystemExit) as info:
        main(["steady-state", "--env", env])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("procbench steady-state: error: ")
    assert f"invalid choice: {env!r}" in captured.err


def test_config_file_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"reactor": {"max_steps": 17}}))
    code = main(["rollout", "--env", "reactor", "--controller", "pid",
                 "--episodes", "1", "--seed", "0", "--config", str(cfg)])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["metadata"]["max_steps"] == 17
    assert report["results"][0]["steps"] <= 17


def test_env_var_config_fallback(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"reactor": {"max_steps": 9}}))
    monkeypatch.setenv("PROCBENCH_CONFIG", str(cfg))
    code = main(["rollout", "--env", "reactor", "--controller", "pid",
                 "--episodes", "1", "--seed", "0"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["metadata"]["max_steps"] == 9


def test_malformed_meta_is_one_line_error(tmp_path, capsys):
    (tmp_path / "meta.json").write_text(
        json.dumps({"format_version": "1", "env": "pensim"})
    )
    assert main(["stats", "--data", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: CorruptMetaError: meta.json lacks ")
    assert err.count("\n") == 1


ERROR_TYPES = [
    cls for _, cls in inspect.getmembers(procbench.errors, inspect.isclass)
    if issubclass(cls, procbench.errors.ProcbenchError)
]


@pytest.mark.parametrize("error", ERROR_TYPES, ids=lambda cls: cls.__name__)
def test_every_package_error_is_a_one_line_exit_1(error, monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise error("first line\nsecond line")

    monkeypatch.setattr(procbench.cli, "read_dataset", fail)
    assert main(["stats", "--data", "unused"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {error.__name__}: first line second line\n"


def test_steady_state_without_feasible_candidate_exits_1(monkeypatch, capsys):
    def no_feasible(*args, **kwargs):
        raise procbench.errors.NoFeasibleSteadyStateError("no feasible start")

    monkeypatch.setattr(procbench.cli, "solve_steady_state_optimum", no_feasible)
    assert main(["steady-state", "--env", "reactor", "--seed", "10"]) == 1
    err = capsys.readouterr().err
    assert err == "error: NoFeasibleSteadyStateError: no feasible start\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["rollout", "--env", "reactor", "--controller", "pid", "--episodes", "0"],
        ["rollout", "--env", "reactor", "--controller", "pid", "--episodes", "-3"],
        ["dataset", "--env", "reactor", "--controller", "pid", "--out", "x",
         "--episodes", "0"],
        ["dataset", "--env", "reactor", "--controller", "pid", "--out", "x",
         "--jobs", "0"],
        ["dataset", "--env", "reactor", "--controller", "pid", "--out", "x",
         "--jobs", "two"],
    ],
)
def test_counts_below_one_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must be at least 1" in captured.err or "invalid positive_int" in captured.err
