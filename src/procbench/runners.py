"""Episode execution: rollouts, dataset generation, and the BO pipeline.

Per-episode seeds derive from the base seed and the episode index through a
seed tree, so a dataset generated with eight workers is byte-identical to
the same dataset generated serially.  The Bayesian-optimization baseline is
inherently sequential (every proposal conditions on all previous episodes)
and ignores the worker count.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .bayesopt import FitOptions, run_bo
from .dataset import Dataset, DatasetRecorder, stats, write_dataset
from .envs import make_env, validate_episode_config
from .policies import make_policy

BO_INIT_EPISODES = 10


def episode_seed(base_seed: int, episode_index: int) -> int:
    """Stable per-episode seed, independent of scheduling order."""
    ss = np.random.SeedSequence(base_seed, spawn_key=(episode_index,))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def run_episode(env, policy, seed: int, record=None):
    """Run one episode to termination/timeout; optionally record rows.

    Returns a summary dict.  ``record`` is a callable taking
    (obs, action, reward, terminal, timeout) per step.
    """
    obs = env.reset(seed=seed)
    policy.reset(seed)
    total = 0.0
    steps = 0
    terminal = timeout = failure = False
    while True:
        action = np.asarray(policy.act(obs), float)
        result = env.step(action)
        if record is not None:
            record(obs, action, result.reward, result.terminal, result.timeout)
        total += result.reward
        steps += 1
        obs = result.observation
        terminal, timeout, failure = result.terminal, result.timeout, result.failure
        if terminal or timeout:
            break
    return {
        "seed": seed,
        "steps": steps,
        "return": total,
        "terminal": bool(terminal and not failure),
        "timeout": bool(timeout),
        "failure": bool(failure),
        "final_observation": [float(v) for v in obs],
    }


def _episode_worker(args):
    env_name, config, controller, options, index, seed = args
    env = make_env(env_name, config)
    policy = make_policy(env, controller, options)
    rows = []

    def record(obs, action, reward, terminal, timeout):
        rows.append(
            (
                [float(v) for v in obs],
                [float(v) for v in action],
                float(reward),
                bool(terminal),
                bool(timeout),
            )
        )

    summary = run_episode(env, policy, seed, record=record)
    return index, rows, summary


def rollout(env_name, controller, episodes, seed, config=None, options=None) -> dict:
    """Run episodes and return a JSON-ready report."""
    env = make_env(env_name, config)
    results = []
    if controller == "bo":
        results = _bo_rollout(env, episodes, seed, record_sink=None)
    else:
        policy = make_policy(env, controller, options)
        for i in range(episodes):
            summary = run_episode(env, policy, episode_seed(seed, i))
            summary["episode"] = i
            results.append(summary)
    returns = [r["return"] for r in results]
    report = {
        "env": env_name,
        "controller": controller,
        "episodes": episodes,
        "seed": seed,
        "metadata": env.metadata(),
        "results": results,
        "summary": {
            "return_mean": float(np.mean(returns)),
            "return_std": float(np.std(returns)),
            "success_rate": float(np.mean([not r["failure"] for r in results])),
            "steps_mean": float(np.mean([r["steps"] for r in results])),
        },
    }
    return report


def _profile_box(env, segments: int):
    lo = np.repeat(env.action_space.low, segments)
    hi = np.repeat(env.action_space.high, segments)
    return lo, hi


class ProfilePolicy:
    """Piecewise-constant action profile over an episode (used by BO)."""

    def __init__(self, env, params: np.ndarray, segments: int):
        self.a_dim = env.action_space.dim
        self.segments = segments
        self.max_steps = env.max_steps
        self.profile = np.asarray(params, float).reshape(self.a_dim, segments)
        self._step = 0

    def reset(self, seed):
        self._step = 0

    def act(self, observation):
        seg = min(self.segments - 1, self._step * self.segments // self.max_steps)
        self._step += 1
        return self.profile[:, seg]


def _bo_hyperopt_schedule(n: int) -> bool:
    if n <= 50:
        return True
    if n <= 300:
        return n % 10 == 0
    return n % 25 == 0


def _bo_rollout(env, episodes, seed, record_sink=None, segments: int = 6):
    """Sequential GP-EI search over feed profiles; each evaluation is one
    recorded episode.  Pensim is the one env it supports."""
    if env.name != "pensim":
        raise ValueError(f"unsupported env/controller pair: {env.name}/bo")
    lo, hi = _profile_box(env, segments)
    results = []
    counter = {"i": 0}

    def objective(params):
        i = counter["i"]
        counter["i"] += 1
        policy = ProfilePolicy(env, params, segments)
        if record_sink is not None:
            record_sink.begin_episode()
            summary = run_episode(
                env, policy, episode_seed(seed, i), record=record_sink.record
            )
        else:
            summary = run_episode(env, policy, episode_seed(seed, i))
        summary["episode"] = i
        results.append(summary)
        return summary["return"]

    n_init = min(BO_INIT_EPISODES, episodes)
    run_bo(
        objective,
        lo,
        hi,
        n_init=n_init,
        n_iter=episodes - n_init,
        seed=seed,
        fit_options=FitOptions(
            n_starts=6, passes=1, grid_size=5, subsample=160, seed=seed
        ),
        hyperopt_every=_bo_hyperopt_schedule,
    )
    return results


def generate_dataset(
    env_name,
    controller,
    episodes,
    seed,
    config=None,
    options=None,
    out_dir=None,
    jobs: int = 1,
) -> Dataset:
    """Generate an offline dataset and optionally persist it.

    Independent-episode controllers parallelize over ``jobs`` workers with
    deterministic per-episode seeds; output ordering follows episode ids
    regardless of scheduling.
    """
    env = make_env(env_name, config)
    recorder = DatasetRecorder(
        env_name=env_name,
        baseline=controller,
        a_dim=env.action_space.dim,
        o_dim=env.observation_space.dim,
        max_steps=env.max_steps,
        error_reward=env.error_reward,
        seed=seed,
    )
    if controller == "bo":
        _bo_rollout(env, episodes, seed, record_sink=recorder)
    else:
        tasks = [
            (env_name, config, controller, options, i, episode_seed(seed, i))
            for i in range(episodes)
        ]
        if jobs > 1:
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                outputs = list(pool.map(_episode_worker, tasks, chunksize=4))
            outputs.sort(key=lambda t: t[0])
        else:
            outputs = [_episode_worker(t) for t in tasks]
        for _, rows, _summary in outputs:
            recorder.begin_episode()
            for obs, action, reward, terminal, timeout in rows:
                recorder.record(obs, action, reward, terminal, timeout)
    ds = recorder.finish()
    ds.meta.inequality_checked = validate_episode_config(
        env.error_reward, env.max_steps, env.reward_floor()
    )
    if out_dir is not None:
        write_dataset(ds, out_dir)
    return ds


def stats_row(ds: Dataset) -> dict:
    """Configuration-and-statistics summary row for one dataset."""
    mean, std, success = stats(ds)
    return {
        "env": ds.meta.env,
        "baseline": ds.meta.baseline,
        "traj_count": ds.meta.traj_count,
        "reward_mean": mean,
        "reward_std": std,
        "success_rate": success,
        "a_dim": ds.meta.a_dim,
        "o_dim": ds.meta.o_dim,
        "max_steps": ds.meta.max_steps,
        "error_reward": ds.meta.error_reward,
    }
