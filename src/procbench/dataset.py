"""Offline-dataset recording, persistence and summary statistics.

A dataset is a flat table of transitions (observation, action, reward,
terminal, timeout) tagged by episode and step, plus a metadata header.
``DatasetRecorder`` takes the rows one at a time, checks that each episode
ends at its first terminal or timeout row, and stacks them into arrays.  On
disk a dataset is a directory holding ``meta.json`` and ``data.csv``;
numbers are written with 17 significant digits, which round-trips IEEE
doubles exactly, so write -> read -> write reproduces identical bytes.

A failed step stores the error reward as that step's reward with
terminal=1, so failure episodes are recognizable as terminal rows carrying
exactly the error reward.
"""

from __future__ import annotations

import json
import os
from dataclasses import MISSING, asdict, dataclass, fields

import numpy as np

from .errors import (
    CorruptMetaError,
    CorruptRowError,
    DimMismatchError,
    EmptyDatasetError,
    FormatVersionMismatchError,
    InvalidEpisodeError,
)

FORMAT_VERSION = "1"


@dataclass
class DatasetMeta:
    env: str
    baseline: str
    traj_count: int
    a_dim: int
    o_dim: int
    max_steps: int
    error_reward: float
    reward_mean: float
    reward_std: float
    seed: int
    format_version: str = FORMAT_VERSION
    # per-step convention: the mean/std are over individual step rewards,
    # not episode returns
    reward_convention: str = "per_step"
    # whether error_reward <= r_min * max_steps was verified at generation
    inequality_checked: bool = False


@dataclass
class Dataset:
    meta: DatasetMeta
    episode_ids: np.ndarray
    steps: np.ndarray
    observations: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    terminals: np.ndarray
    timeouts: np.ndarray

    @property
    def n_rows(self) -> int:
        return self.rewards.size


class DatasetRecorder:
    """Row-at-a-time sink enforcing episode structure.

    Episodes open with ``begin_episode`` and close themselves on the first
    terminal or timeout row, so an episode holds at most one closing row,
    its last.  Recording past a closed episode (or past ``max_steps`` rows)
    raises.  ``finish`` stacks the rows into a ``Dataset``.
    """

    def __init__(self, env_name, baseline, a_dim, o_dim, max_steps,
                 error_reward, seed):
        self.env_name = env_name
        self.baseline = baseline
        self.a_dim = int(a_dim)
        self.o_dim = int(o_dim)
        self.max_steps = int(max_steps)
        self.error_reward = float(error_reward)
        self.seed = int(seed)
        # (episode_id, step, observation, action, reward, terminal, timeout)
        self._rows: list[tuple] = []
        self._episodes = 0   # episodes begun
        self._length = 0     # rows of the last episode begun
        self._open = False   # the last episode has no closing row yet

    def begin_episode(self) -> int:
        if self._open:
            raise InvalidEpisodeError("previous episode is still open")
        self._episodes += 1
        self._length = 0
        self._open = True
        return self._episodes - 1

    def record(self, observation, action, reward, terminal, timeout) -> None:
        if not self._episodes:
            raise InvalidEpisodeError("begin_episode() before recording")
        observation = np.array(observation, dtype=float)
        action = np.array(action, dtype=float)
        if observation.shape != (self.o_dim,):
            raise DimMismatchError(
                f"observation dim {observation.shape} != ({self.o_dim},)"
            )
        if action.shape != (self.a_dim,):
            raise DimMismatchError(f"action dim {action.shape} != ({self.a_dim},)")
        if self._length >= self.max_steps:
            raise InvalidEpisodeError("episode exceeded max_steps")
        if not self._open:
            raise InvalidEpisodeError(
                "episode closed by a terminal/timeout row; begin a new one"
            )
        terminal, timeout = bool(terminal), bool(timeout)
        self._rows.append((self._episodes - 1, self._length, observation, action,
                           float(reward), terminal, timeout))
        self._length += 1
        self._open = not (terminal or timeout)

    def finish(self) -> Dataset:
        if self._open:
            raise InvalidEpisodeError("cannot finish with an open episode")
        n = len(self._rows)
        ids, steps, obs, act, rewards, terminals, timeouts = (
            zip(*self._rows) if n else ((),) * 7
        )
        rewards = np.array(rewards, dtype=float)
        mean, std = _stats_arrays(rewards) if n else (0.0, 0.0)
        meta = DatasetMeta(
            env=self.env_name,
            baseline=self.baseline,
            traj_count=self._episodes,
            a_dim=self.a_dim,
            o_dim=self.o_dim,
            max_steps=self.max_steps,
            error_reward=self.error_reward,
            reward_mean=float(mean),
            reward_std=float(std),
            seed=self.seed,
        )
        return Dataset(
            meta,
            np.array(ids, dtype=np.int64),
            np.array(steps, dtype=np.int64),
            np.array(obs, dtype=float).reshape(n, self.o_dim),
            np.array(act, dtype=float).reshape(n, self.a_dim),
            rewards,
            np.array(terminals, dtype=bool),
            np.array(timeouts, dtype=bool),
        )


def _stats_arrays(rewards: np.ndarray):
    mean = float(np.mean(rewards))
    std = float(np.sqrt(np.mean((rewards - mean) ** 2)))  # population std
    return mean, std


def stats(ds: Dataset) -> tuple[float, float, float]:
    """Per-step reward mean, population std, and episode success rate.

    An episode failed when its closing row is terminal with exactly the
    error reward; everything else (timeouts, successful completions)
    counts as success.
    """
    if ds.n_rows == 0:
        raise EmptyDatasetError("dataset has no rows")
    mean, std = _stats_arrays(ds.rewards)
    closing = ds.terminals | ds.timeouts
    failures = np.sum(
        ds.terminals[closing] & (ds.rewards[closing] == ds.meta.error_reward)
    )
    episodes = int(np.sum(closing))
    success_rate = 1.0 - failures / episodes if episodes else 1.0
    return mean, std, float(success_rate)


# rows are formatted in chunks, so the per-row Python lists stay small
_WRITE_CHUNK = 1024


def _row_template(o_dim: int, a_dim: int) -> str:
    """One CSV row: ids, step and flags as ``%d``, every float as ``%.17g``."""
    return ",".join(["%d", "%d"] + ["%.17g"] * (o_dim + a_dim + 1) + ["%d", "%d"]) + "\n"


def write_dataset(ds: Dataset, path: str) -> None:
    """Persist as ``meta.json`` + ``data.csv`` under directory ``path``."""
    os.makedirs(path, exist_ok=True)
    meta = dict(sorted(asdict(ds.meta).items()))
    with open(os.path.join(path, "meta.json"), "w", encoding="utf-8", newline="\n") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    header = (
        ["episode_id", "step"]
        + [f"obs_{i}" for i in range(ds.meta.o_dim)]
        + [f"act_{i}" for i in range(ds.meta.a_dim)]
        + ["reward", "terminal", "timeout"]
    )
    with open(os.path.join(path, "data.csv"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        template = _row_template(ds.meta.o_dim, ds.meta.a_dim)
        for start in range(0, ds.n_rows, _WRITE_CHUNK):
            rows = slice(start, start + _WRITE_CHUNK)
            fh.writelines(
                template % (e, st, *o, *a, r, term, tout)
                for e, st, o, a, r, term, tout in zip(
                    ds.episode_ids[rows].tolist(),
                    ds.steps[rows].tolist(),
                    ds.observations[rows].tolist(),
                    ds.actions[rows].tolist(),
                    ds.rewards[rows].tolist(),
                    ds.terminals[rows].tolist(),
                    ds.timeouts[rows].tolist(),
                )
            )


_META_FIELDS = {f.name: f for f in fields(DatasetMeta)}
_META_INT_KEYS = ("traj_count", "a_dim", "o_dim", "max_steps", "seed")


def _meta_from_json(raw) -> DatasetMeta:
    """Check the parsed ``meta.json`` against ``DatasetMeta``'s fields."""
    if not isinstance(raw, dict):
        raise CorruptMetaError("meta.json must hold a JSON object")
    version = raw.get("format_version")
    if version != FORMAT_VERSION:
        raise FormatVersionMismatchError(
            f"dataset format {version!r}; this reader supports {FORMAT_VERSION!r}"
        )
    missing = [
        name for name, f in _META_FIELDS.items()
        if f.default is MISSING and name not in raw
    ]
    if missing:
        raise CorruptMetaError(f"meta.json lacks {', '.join(missing)}")
    unknown = sorted(set(raw) - set(_META_FIELDS))
    if unknown:
        raise CorruptMetaError(f"meta.json has unknown keys {', '.join(unknown)}")
    bad = [
        key for key in _META_INT_KEYS
        if isinstance(raw[key], bool) or not isinstance(raw[key], int)
    ]
    if bad:
        raise CorruptMetaError(f"meta.json needs integer {', '.join(bad)}")
    return DatasetMeta(**raw)


# the only spellings ``write_dataset`` gives the terminal and timeout flags
_FLAGS = {"0": False, "1": True}


def read_dataset(path: str) -> Dataset:
    with open(os.path.join(path, "meta.json"), encoding="utf-8") as fh:
        raw = json.load(fh)
    meta = _meta_from_json(raw)
    o_dim, a_dim = meta.o_dim, meta.a_dim
    n_cols = 2 + o_dim + a_dim + 3
    episode_ids, steps, rewards, terminals, timeouts = [], [], [], [], []
    observations, actions = [], []
    with open(os.path.join(path, "data.csv"), encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        if len(header) != n_cols:
            raise CorruptRowError(
                f"header has {len(header)} columns, expected {n_cols}"
            )
        for lineno, line in enumerate(fh, start=2):
            parts = line.rstrip("\n").split(",")
            if len(parts) != n_cols:
                raise CorruptRowError(f"line {lineno}: {len(parts)} columns")
            try:
                episode_ids.append(int(parts[0]))
                steps.append(int(parts[1]))
                observations.append([float(v) for v in parts[2 : 2 + o_dim]])
                actions.append(
                    [float(v) for v in parts[2 + o_dim : 2 + o_dim + a_dim]]
                )
                rewards.append(float(parts[2 + o_dim + a_dim]))
                terminals.append(_FLAGS[parts[2 + o_dim + a_dim + 1]])
                timeouts.append(_FLAGS[parts[2 + o_dim + a_dim + 2]])
            except KeyError as exc:
                raise CorruptRowError(
                    f"line {lineno}: flag {exc.args[0]!r} is not 0 or 1"
                ) from exc
            except ValueError as exc:
                raise CorruptRowError(f"line {lineno}: {exc}") from exc
    n = len(rewards)
    return Dataset(
        meta=meta,
        episode_ids=np.asarray(episode_ids, dtype=np.int64),
        steps=np.asarray(steps, dtype=np.int64),
        observations=np.asarray(observations, float).reshape(n, o_dim),
        actions=np.asarray(actions, float).reshape(n, a_dim),
        rewards=np.asarray(rewards, float),
        terminals=np.asarray(terminals, dtype=bool),
        timeouts=np.asarray(timeouts, dtype=bool),
    )
