"""Dataset recording, persistence and statistics tests."""

import json

import numpy as np
import pytest

import procbench.dataset as dataset_module
from procbench.dataset import (
    DatasetRecorder,
    _row_template,
    read_dataset,
    stats,
    write_dataset,
)
from procbench.errors import (
    CorruptMetaError,
    CorruptRowError,
    DimMismatchError,
    EmptyDatasetError,
    FormatVersionMismatchError,
    InvalidEpisodeError,
)


def recorder(**kw):
    defaults = dict(env_name="stub", baseline="zero", a_dim=2, o_dim=3,
                    max_steps=5, error_reward=-9.0, seed=0)
    defaults.update(kw)
    return DatasetRecorder(**defaults)


def small_dataset():
    rec = recorder()
    rng = np.random.default_rng(0)
    for ep in range(3):
        rec.begin_episode()
        for step in range(4):
            last = step == 3
            rec.record(rng.random(3), rng.random(2), rng.normal(),
                       terminal=last and ep == 1, timeout=last and ep != 1)
    return rec.finish()


def test_record_and_read_back_row():
    rec = recorder()
    rec.begin_episode()
    obs = np.array([1.0, 2.0, 3.0])
    act = np.array([0.5, -0.5])
    rec.record(obs, act, 1.25, terminal=False, timeout=True)
    ds = rec.finish()
    assert np.array_equal(ds.observations[0], obs)
    assert np.array_equal(ds.actions[0], act)
    assert ds.rewards[0] == 1.25 and ds.timeouts[0]


def test_terminal_closes_episode():
    rec = recorder()
    rec.begin_episode()
    rec.record(np.zeros(3), np.zeros(2), 0.0, terminal=True, timeout=False)
    with pytest.raises(InvalidEpisodeError):
        rec.record(np.zeros(3), np.zeros(2), 0.0, terminal=False, timeout=False)
    rec.begin_episode()  # reopening is the required path
    rec.record(np.zeros(3), np.zeros(2), 0.0, terminal=True, timeout=False)


def test_episode_cannot_exceed_max_steps():
    rec = recorder(max_steps=2)
    rec.begin_episode()
    rec.record(np.zeros(3), np.zeros(2), 0.0, False, False)
    rec.record(np.zeros(3), np.zeros(2), 0.0, False, False)
    with pytest.raises(InvalidEpisodeError):
        rec.record(np.zeros(3), np.zeros(2), 0.0, False, False)


def test_dim_mismatch():
    rec = recorder()
    rec.begin_episode()
    with pytest.raises(DimMismatchError):
        rec.record(np.zeros(4), np.zeros(2), 0.0, False, False)
    with pytest.raises(DimMismatchError):
        rec.record(np.zeros(3), np.zeros(1), 0.0, False, False)


def test_write_read_write_is_byte_identical(tmp_path):
    ds = small_dataset()
    d1, d2 = tmp_path / "a", tmp_path / "b"
    write_dataset(ds, d1)
    back = read_dataset(d1)
    write_dataset(back, d2)
    assert (d1 / "data.csv").read_bytes() == (d2 / "data.csv").read_bytes()
    assert (d1 / "meta.json").read_bytes() == (d2 / "meta.json").read_bytes()
    assert np.array_equal(back.observations, ds.observations)
    assert np.array_equal(back.rewards, ds.rewards)


def test_roundtrip_preserves_awkward_floats(tmp_path):
    rec = recorder(o_dim=1, a_dim=1)
    rec.begin_episode()
    values = [1.0 / 3.0, 1e-300, 123456789.123456789, -0.1]
    for v in values[:-1]:
        rec.record([v], [v], v, False, False)
    rec.record([values[-1]], [values[-1]], values[-1], True, False)
    ds = rec.finish()
    write_dataset(ds, tmp_path / "x")
    back = read_dataset(tmp_path / "x")
    assert np.array_equal(back.rewards, ds.rewards)  # bit-exact round trip
    assert np.array_equal(back.observations, ds.observations)


def test_row_template_matches_per_cell_format():
    # the writer's former per-cell formatting of floats
    def _fmt(x):
        return format(float(x), ".17g")

    floats = [float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, 1e300]
    row = (7, 3, *floats, 0.1, True, False)
    want = ",".join(
        ["7", "3"] + [_fmt(v) for v in floats + [0.1]] + ["1", "0"]
    ) + "\n"
    assert _row_template(o_dim=4, a_dim=2) % row == want
    assert want.startswith("7,3,nan,inf,-inf,-0,4.9406564584124654e-324,1.0000000000000001e+300,")


def test_write_matches_per_cell_format(tmp_path, monkeypatch):
    monkeypatch.setattr(dataset_module, "_WRITE_CHUNK", 5)  # 12 rows: 3 chunks
    ds = small_dataset()
    ds.observations[0] = [float("nan"), -0.0, 5e-324]
    ds.actions[1] = [float("inf"), -float("inf")]
    ds.rewards[2] = 1e300
    write_dataset(ds, str(tmp_path / "d"))
    lines = (tmp_path / "d" / "data.csv").read_text().splitlines()[1:]
    assert len(lines) == ds.n_rows
    for i, line in enumerate(lines):
        cells = [str(int(ds.episode_ids[i])), str(int(ds.steps[i]))]
        cells += [format(float(v), ".17g") for v in ds.observations[i]]
        cells += [format(float(v), ".17g") for v in ds.actions[i]]
        cells += [format(float(ds.rewards[i]), ".17g")]
        cells += [str(int(ds.terminals[i])), str(int(ds.timeouts[i]))]
        assert line == ",".join(cells)


def test_empty_dataset_valid_but_stats_raise(tmp_path):
    rec = recorder()
    ds = rec.finish()
    write_dataset(ds, tmp_path / "empty")
    back = read_dataset(tmp_path / "empty")
    assert back.n_rows == 0
    with pytest.raises(EmptyDatasetError):
        stats(back)


def test_stats_examples():
    rec = recorder(max_steps=10)
    rec.begin_episode()
    for k in range(3):
        rec.record(np.zeros(3), np.zeros(2), 1.0, k == 2, False)
    mean, std, success = stats(rec.finish())
    assert (mean, std, success) == (1.0, 0.0, 1.0)

    rec = recorder(max_steps=10)
    rec.begin_episode()
    rec.record(np.zeros(3), np.zeros(2), 0.0, False, False)
    rec.record(np.zeros(3), np.zeros(2), 2.0, True, False)
    mean, std, _ = stats(rec.finish())
    assert (mean, std) == (1.0, 1.0)


def test_stats_against_independent_recomputation():
    ds = small_dataset()
    mean, std, success = stats(ds)
    # one-pass accumulation as the independent oracle
    n = s = s2 = 0
    for r in ds.rewards:
        n += 1
        s += r
        s2 += r * r
    mean2 = s / n
    std2 = np.sqrt(s2 / n - mean2**2)
    assert mean == pytest.approx(mean2, abs=1e-12)
    assert std == pytest.approx(std2, abs=1e-12)


def test_failure_episodes_lower_success_rate():
    rec = recorder(max_steps=10)
    rec.begin_episode()
    rec.record(np.zeros(3), np.zeros(2), -9.0, True, False)  # error reward row
    rec.begin_episode()
    rec.record(np.zeros(3), np.zeros(2), 0.5, False, True)
    _, _, success = stats(rec.finish())
    assert success == 0.5


def test_format_version_mismatch(tmp_path):
    ds = small_dataset()
    write_dataset(ds, tmp_path / "v")
    meta = json.loads((tmp_path / "v" / "meta.json").read_text())
    meta["format_version"] = "999"
    (tmp_path / "v" / "meta.json").write_text(json.dumps(meta))
    with pytest.raises(FormatVersionMismatchError):
        read_dataset(tmp_path / "v")


@pytest.mark.parametrize(
    "edit",
    [
        lambda meta: {"format_version": "1", "env": "pensim"},
        lambda meta: {**meta, "surprise": 1},
        lambda meta: {**meta, "o_dim": "3"},
        lambda meta: [meta],
    ],
    ids=["missing-keys", "unknown-key", "non-integer-dim", "not-an-object"],
)
def test_malformed_meta_rejected(tmp_path, edit):
    ds = small_dataset()
    write_dataset(ds, tmp_path / "m")
    meta = json.loads((tmp_path / "m" / "meta.json").read_text())
    (tmp_path / "m" / "meta.json").write_text(json.dumps(edit(meta)))
    with pytest.raises(CorruptMetaError) as info:
        read_dataset(tmp_path / "m")
    assert "\n" not in str(info.value)


def test_corrupt_row_rejected(tmp_path):
    ds = small_dataset()
    write_dataset(ds, tmp_path / "c")
    csv = (tmp_path / "c" / "data.csv").read_text().splitlines()
    csv[1] = csv[1].rsplit(",", 1)[0] + ",URK"
    (tmp_path / "c" / "data.csv").write_text("\n".join(csv) + "\n")
    with pytest.raises(CorruptRowError):
        read_dataset(tmp_path / "c")
    # flags other than 0/1 would not survive a write->read->write round trip
    for flags in ("7,0", "0,2", "01,0"):
        write_dataset(ds, tmp_path / "f")
        csv = (tmp_path / "f" / "data.csv").read_text().splitlines()
        csv[1] = csv[1].rsplit(",", 2)[0] + "," + flags
        (tmp_path / "f" / "data.csv").write_text("\n".join(csv) + "\n")
        with pytest.raises(CorruptRowError, match="line 2"):
            read_dataset(tmp_path / "f")


def test_no_reward_below_error_reward_in_recorded_env_data():
    from procbench.runners import generate_dataset

    ds = generate_dataset("reactor", "random", 5, seed=1)
    assert np.all(ds.rewards >= ds.meta.error_reward)
    assert ds.meta.traj_count == 5
    assert ds.meta.inequality_checked


def test_reactor_episode_rows_capped_at_100():
    from procbench.runners import generate_dataset

    ds = generate_dataset("reactor", "pid", 2, seed=0)
    rows = np.bincount(ds.episode_ids)
    assert len(rows) == 2 and np.all(rows <= 100)


def test_recorder_episode_invariants():
    """Each episode ends at its first terminal or timeout row, which no row
    may follow; rows count from step 0 within their episode; no episode may
    stay open across ``begin_episode`` or ``finish``."""
    rec = recorder()
    with pytest.raises(InvalidEpisodeError, match="begin_episode"):
        rec.record(np.zeros(3), np.zeros(2), 1.0, False, False)
    for episode, closing in enumerate(((True, False), (False, True))):
        assert rec.begin_episode() == episode
        with pytest.raises(InvalidEpisodeError, match="still open"):
            rec.begin_episode()
        rec.record(np.zeros(3), np.zeros(2), 1.0, False, False)
        with pytest.raises(InvalidEpisodeError, match="open episode"):
            rec.finish()
        rec.record(np.zeros(3), np.zeros(2), 1.0, *closing)
        with pytest.raises(InvalidEpisodeError, match="closed"):
            rec.record(np.zeros(3), np.zeros(2), 1.0, False, False)
    ds = rec.finish()
    assert ds.meta.traj_count == 2
    assert ds.episode_ids.tolist() == [0, 0, 1, 1]
    assert ds.steps.tolist() == [0, 1, 0, 1]
    assert ds.terminals.tolist() == [False, True, False, False]
    assert ds.timeouts.tolist() == [False, False, False, True]
