"""The benchmark's workloads.

Each workload builds what it needs once (the set-up), then runs rounds: a
round is a fixed pipeline of operations whose inputs come from the workload
seed and the round index.  ``round`` times its parts, checks every output
with ``checks`` and returns a ``RoundResult``.  The program is reached only
through its public entry points: ``procbench.cli.main`` in-process, or
``make_env``, ``make_policy`` and ``runners.run_episode`` where a workload
needs per-episode detail.

An operation is one episode, one dataset round trip (write and read back,
then ``stats``), or one steady-state solve.  It fails when the program
raises or a check on its output fails.  An episode that ends on the plant's
``error_reward`` is the controller's outcome, not a failed operation; it is
counted in ``plant_failures``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

import checks
from procbench import cli, runners
from procbench import dataset as pdataset
from procbench.envs import make_env
from procbench.envs.base import ProcessEnv
from procbench.policies import Policy, make_policy

_now = time.perf_counter


class StepClock:
    """Latency of each control step, per plant: from the end of the previous
    ``reset``/``step`` of the episode to the end of this ``step``, which
    covers ``policy.act``, ``env.step`` and the recorder call in between.

    It wraps the two methods on ``ProcessEnv`` for the life of the process;
    episodes run one at a time in the process that installs it.
    """

    def __init__(self):
        self.samples: dict[str, list[float]] = defaultdict(list)
        self._last = 0.0

    def install(self) -> None:
        reset, step = ProcessEnv.reset, ProcessEnv.step
        clock = self

        def timed_reset(env, seed=0):
            obs = reset(env, seed)
            clock._last = _now()
            return obs

        def timed_step(env, action):
            result = step(env, action)
            now = _now()
            clock.samples[env.name].append(now - clock._last)
            clock._last = now
            return result

        ProcessEnv.reset = timed_reset
        ProcessEnv.step = timed_step


@dataclass
class RoundResult:
    seconds: float = 0.0      # the whole round
    gen_seconds: float = 0.0  # generating episodes (dataset command or episode loop)
    steps: int = 0            # env steps taken
    rows: int = 0             # rows in the final data.csv files
    ops: int = 0
    failed: int = 0
    wrong: int = 0            # failed because a check on the output failed
    plant_failures: int = 0
    problems: list[str] = field(default_factory=list)

    def fail(self, n: int, problems: list[str], wrong: bool = True) -> None:
        self.failed += n
        self.wrong += n if wrong else 0
        self.problems += problems


def capture(argv: list[str]) -> tuple[int, str]:
    """Run ``procbench`` in-process; return its exit code and stdout."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main([str(a) for a in argv])
    return rc, buf.getvalue()


def same_bytes(a: str, b: str) -> bool:
    with open(a, "rb") as fa, open(b, "rb") as fb:
        return fa.read() == fb.read()


def record_episodes(env, policy, episode_seeds, baseline: str, seed: int):
    """Run seeded episodes through ``runners.run_episode`` into a recorder."""
    recorder = pdataset.DatasetRecorder(
        env_name=env.name, baseline=baseline, a_dim=env.action_space.dim,
        o_dim=env.observation_space.dim, max_steps=env.max_steps,
        error_reward=env.error_reward, seed=seed,
    )
    summaries = []
    for episode_seed in episode_seeds:
        recorder.begin_episode()
        summaries.append(
            runners.run_episode(env, policy, episode_seed, record=recorder.record)
        )
    return recorder, summaries


def write_and_stats(recorder, out: str) -> tuple[int, str]:
    """Finish and persist a recorded dataset, then run ``stats`` on it."""
    pdataset.write_dataset(recorder.finish(), out)
    return capture(["stats", "--data", out])


def table_checks(table, env, episodes: int, terminal_is_failure: bool):
    """Episode structure, action box and failure-row checks of one dataset;
    returns the problems and the positions of the episodes they concern."""
    problems, bad = checks.check_episode_structure(table, episodes, env.max_steps)
    bad = set(bad)
    for found, ids in (
        checks.check_action_box(
            table, env.action_space.low.tolist(), env.action_space.high.tolist()
        ),
        checks.check_failed_rows(table, env.error_reward, terminal_is_failure),
    ):
        problems += found
        bad |= ids
    return problems, bad


class Workload:
    name = ""
    ops_per_round = 0

    def __init__(self, seed: int, tmp: str, traced: bool = False):
        self.seed = seed
        self.tmp = tmp

    def round(self, j: int, tag: str) -> RoundResult:
        """Run round ``j`` (its inputs depend on the seed and ``j`` only)."""
        out = RoundResult(ops=self.ops_per_round)
        work = os.path.join(self.tmp, f"{tag}-{j}")
        os.makedirs(work)
        try:
            self._round(j, work, out)
        except Exception:  # the program raised: every operation of the round fails
            traceback.print_exc(file=sys.stderr)
            out.fail(out.ops - out.failed, [f"round {j} raised"], wrong=False)
        if not self.keep(work):
            shutil.rmtree(work)
        return out

    def keep(self, work: str) -> bool:
        """Whether a round's files are still needed by ``finish``."""
        return False

    def finish(self) -> RoundResult:
        """Checks made once per run, after the rounds."""
        return RoundResult()


class PensimBo(Workload):
    """Criterion 8's pipeline at a reduced episode count: GP-EI search over
    piecewise-constant feed profiles, every episode recorded, then
    write -> read -> write of the dataset and ``stats`` on the copy.

    The search always runs with BO_SEED.  How many of its episodes end early
    on the plant's error_reward decides the work, and it differs by a factor
    of two between search seeds, so a seeded search would make the round
    time a property of the seed rather than of the code.
    """

    name = "pensim-bo"
    EPISODES = 30
    BO_SEED = 0
    SEGMENTS = 6
    ops_per_round = EPISODES + 1

    def __init__(self, seed, tmp, traced=False):
        super().__init__(seed, tmp, traced)
        self.env = make_env("pensim")
        # warm-up: one episode step through the same code paths
        self.env.reset(seed=0)
        self.env.step(0.5 * (self.env.action_space.low + self.env.action_space.high))

    def _round(self, j, work, out):
        env = self.env
        first, copy = os.path.join(work, "generated"), os.path.join(work, "copy")
        t0 = _now()
        rc_gen, report = capture([
            "dataset", "--env", "pensim", "--controller", "bo",
            "--episodes", self.EPISODES, "--seed", self.BO_SEED, "--out", first,
        ])
        t1 = _now()
        pdataset.write_dataset(pdataset.read_dataset(first), copy)
        rc_stats, stats_text = capture(["stats", "--data", copy])
        t2 = _now()
        out.seconds, out.gen_seconds = t2 - t0, t1 - t0

        table = checks.Table.load(os.path.join(copy, "data.csv"))
        out.rows = out.steps = len(table.rows)
        out.plant_failures = checks.count_plant_failures(table, env.error_reward)
        problems, bad = table_checks(table, env, self.EPISODES, True)
        for found, ids in (
            checks.check_piecewise_constant(table, self.SEGMENTS),
            checks.check_pensim_rewards(table, env.error_reward, env.smoothness),
        ):
            problems += found
            bad |= ids
        out.fail(len(bad), problems)

        trip = []
        if rc_gen != 0 or rc_stats != 0:
            trip.append(f"exit codes dataset={rc_gen} stats={rc_stats}")
        for name in ("data.csv", "meta.json"):
            if not same_bytes(os.path.join(first, name), os.path.join(copy, name)):
                trip.append(f"write -> read -> write changed {name}")
        trip += checks.check_json(report, "dataset report")
        trip += checks.check_stats(table, stats_text, env.error_reward)
        if trip:
            out.fail(1, trip)


class ReactorMpc(Workload):
    """Closed-loop reactor MPC episodes from seeded initial states (criterion
    3's loop), EPISODES per round, cut to MAX_STEPS by ``max_steps``.
    Round j runs the episode seeds ``episode_seed(seed, i)`` for i =
    EPISODES * j, ..., the seeds ``procbench rollout --seed <seed>`` gives
    its episodes.  The transitions are recorded and written so the round
    ends in a dataset like every other workload's.

    The first five or six solves of an episode stop at the solver's
    iteration cap (about 0.45 s each); the rest take milliseconds.  At 40
    steps the capped solves are about an eighth of the samples, so the p95
    step time is one of them; at 60 steps it fell between the two kinds
    and moved by a fifth between seeds.  The 2% band is reached within
    three steps, well inside the episode.
    """

    name = "reactor-mpc"
    MAX_STEPS = 40
    EPISODES = 3  # two rounds hold the 200 steps that put ten beyond p95
    ops_per_round = EPISODES + 1

    def __init__(self, seed, tmp, traced=False):
        super().__init__(seed, tmp, traced)
        self.env = make_env("reactor", {"max_steps": self.MAX_STEPS})
        self.policy = make_policy(self.env, "mpc")
        # warm-up: one receding-horizon solve
        self.policy.act(self.env.reset(seed=0))

    def _round(self, j, work, out):
        env, policy = self.env, self.policy
        traces = []
        act = policy.act

        def act_and_keep(obs):
            u = act(obs)
            traces.append(policy.last_solution.cost_trace)
            return u

        seeds = [
            runners.episode_seed(self.seed, self.EPISODES * j + i)
            for i in range(self.EPISODES)
        ]
        policy.act = act_and_keep
        try:
            t0 = _now()
            recorder, summaries = record_episodes(env, policy, seeds, "mpc", self.seed)
            t1 = _now()
            rc, stats_text = write_and_stats(recorder, work)
            t2 = _now()
        finally:
            del policy.act
        out.seconds, out.gen_seconds = t2 - t0, t1 - t0

        table = checks.Table.load(os.path.join(work, "data.csv"))
        out.rows = out.steps = len(table.rows)
        out.plant_failures = sum(s["failure"] for s in summaries)
        problems, bad = table_checks(table, env, self.EPISODES, True)
        found, ids = checks.check_reactor_rewards(table, env.error_reward, env.setpoint)
        problems += found
        bad |= ids
        first_step = 0
        for index, (rows, summary) in enumerate(zip(table.episodes(), summaries)):
            mine = []
            if summary["failure"]:
                mine.append("the episode ended on a plant failure")
            observed = [[r[c] for c in table.obs] for r in rows[1:]]
            observed.append(summary["final_observation"])
            band = checks.check_reaches_band(observed, env.setpoint, self.MAX_STEPS)
            mine += [band] if band else []
            steps = traces[first_step:first_step + summary["steps"]]
            first_step += summary["steps"]
            for k, trace in enumerate(steps):
                rise = checks.check_nonincreasing(trace, f"solve at step {k}")
                mine += [rise] if rise else []
            if mine:
                problems += [f"episode {index}: {m}" for m in mine]
                bad.add(index)
        out.fail(len(bad), problems)

        trip = [f"stats exit code {rc}"] if rc != 0 else []
        trip += checks.check_stats(table, stats_text, env.error_reward)
        if trip:
            out.fail(1, trip)


class OfflineDatasets(Workload):
    """``procbench dataset --jobs 2`` for reactor PID, beer random and
    atropine MPC, each followed by ``procbench stats``.  Round j uses CLI
    seed ``100 * seed + j``.  After the rounds, the first REF_EPISODES
    episodes of each round-0 dataset are generated again with ``--jobs 1``,
    and their rows must be the byte-identical start of the ``--jobs 2`` file.
    Traced runs use ``--jobs 1`` throughout, since spans recorded in pool
    workers are lost.
    """

    name = "offline-datasets"
    PAIRS = (("reactor", "pid", 24), ("beer", "random", 24), ("atropine", "mpc", 32))
    JOBS = 2
    REF_EPISODES = 8
    ops_per_round = sum(n + 1 for _, _, n in PAIRS)

    def __init__(self, seed, tmp, traced=False):
        super().__init__(seed, tmp, traced)
        self.jobs = 1 if traced else self.JOBS
        self.envs = {name: make_env(name) for name, _, _ in self.PAIRS}
        self.first_round: str | None = None
        # warm-up: one step of each pair
        for name, controller, _ in self.PAIRS:
            env = self.envs[name]
            obs = env.reset(seed=0)
            env.step(make_policy(env, controller).act(obs))

    def cli_seed(self, j: int) -> int:
        return 100 * self.seed + j

    def keep(self, work):
        return work == self.first_round

    def _round(self, j, work, out):
        if self.first_round is None:
            self.first_round = work
        for name, controller, episodes in self.PAIRS:
            env = self.envs[name]
            target = os.path.join(work, name)
            t0 = _now()
            rc_gen, report = capture([
                "dataset", "--env", name, "--controller", controller,
                "--episodes", episodes, "--seed", self.cli_seed(j),
                "--jobs", self.jobs, "--out", target,
            ])
            t1 = _now()
            rc_stats, stats_text = capture(["stats", "--data", target])
            t2 = _now()
            out.seconds += t2 - t0
            out.gen_seconds += t1 - t0

            table = checks.Table.load(os.path.join(target, "data.csv"))
            out.rows += len(table.rows)
            out.steps += len(table.rows)
            out.plant_failures += checks.count_plant_failures(table, env.error_reward)
            problems, bad = table_checks(table, env, episodes, name != "beer")
            if name == "reactor":
                found, ids = checks.check_reactor_rewards(
                    table, env.error_reward, env.setpoint
                )
            elif name == "atropine":
                found, ids = checks.check_atropine_rewards(table, env.error_reward)
            else:
                found, ids = checks.check_beer_rewards(
                    table, env.error_reward, env.max_steps
                )
            out.fail(len(bad | ids), problems + found)

            trip = []
            if rc_gen != 0 or rc_stats != 0:
                trip.append(f"{name}: exit codes dataset={rc_gen} stats={rc_stats}")
            trip += checks.check_json(report, f"{name} dataset report")
            trip += checks.check_stats(table, stats_text, env.error_reward)
            if trip:
                out.fail(1, trip)

    def finish(self):
        """``--jobs 1`` reference for the start of each round-0 dataset."""
        out = RoundResult()
        if self.first_round is None:
            return out
        ref_root = os.path.join(self.tmp, "jobs1-reference")
        for name, controller, _ in self.PAIRS:
            ref = os.path.join(ref_root, name)
            try:
                rc, _ = capture([
                    "dataset", "--env", name, "--controller", controller,
                    "--episodes", self.REF_EPISODES, "--seed", self.cli_seed(0),
                    "--jobs", 1, "--out", ref,
                ])
                with open(os.path.join(ref, "data.csv"), "rb") as fh:
                    serial = fh.read()
                with open(os.path.join(self.first_round, name, "data.csv"), "rb") as fh:
                    parallel = fh.read()
            except Exception:  # the program raised, or round 0 wrote no file
                traceback.print_exc(file=sys.stderr)
                out.fail(1, [f"{name}: --jobs 1 reference raised"], wrong=False)
                continue
            rest = parallel[len(serial):]
            if rc != 0 or not parallel.startswith(serial) or not rest.startswith(
                f"{self.REF_EPISODES},0,".encode()
            ):
                out.fail(1, [f"{name}: --jobs {self.jobs} rows differ from --jobs 1"])
        shutil.rmtree(ref_root, ignore_errors=True)
        shutil.rmtree(self.first_round)
        return out


class BalancedFlowPolicy(Policy):
    """Seeded random inputs around the antibody plant's nominal operating
    point, with balanced vessel flows (F_1 = F_in + F_r, F_2 = F_in).

    The shipped ``random`` controller draws the four flows independently, so
    the separator drains within one to five control hours on most seeds and
    the episode ends on a plant failure.
    """

    NOMINAL = (0.05, 0.1, 50.0)  # F_in, F_r (L/min), glucose in feed

    def __init__(self, env):
        self.env = env
        self.rng = np.random.default_rng(0)
        self.product: list[float] = []

    def reset(self, seed):
        self.rng = np.random.default_rng(seed)
        self.product = []

    def act(self, observation):
        self.product.append(self.env.product_recovered_mg)
        f_in0, f_r0, glc0 = self.NOMINAL
        r = self.rng
        f_in = f_in0 * r.uniform(0.9, 1.1)
        f_r = f_r0 * r.uniform(0.9, 1.1)
        return np.array([
            f_in, f_r, f_in + f_r, f_in, r.uniform(36.0, 37.0),
            glc0 * r.uniform(0.9, 1.1), r.uniform(0.0, 0.5),
            r.uniform(1.5, 2.5), r.uniform(1.5, 2.5),
        ])


class MabPlant(Workload):
    """One seeded antibody-plant episode per round on the default grids,
    cut to MAX_STEPS control hours.  The episode seed is
    ``episode_seed(seed, j)``."""

    name = "mab-plant"
    MAX_STEPS = 2
    ops_per_round = 1

    def __init__(self, seed, tmp, traced=False):
        super().__init__(seed, tmp, traced)
        self.env = make_env("mab", {"max_steps": self.MAX_STEPS})
        self.policy = BalancedFlowPolicy(self.env)
        # warm-up: reset and one action; a step costs seconds of column time
        self.policy.act(self.env.reset(seed=0))

    def _round(self, j, work, out):
        env, policy = self.env, self.policy
        t0 = _now()
        recorder, (summary,) = record_episodes(
            env, policy, [runners.episode_seed(self.seed, j)], "balanced-random",
            self.seed,
        )
        t1 = _now()
        rc, stats_text = write_and_stats(recorder, work)
        t2 = _now()
        out.seconds, out.gen_seconds = t2 - t0, t1 - t0
        policy.product.append(env.product_recovered_mg)

        table = checks.Table.load(os.path.join(work, "data.csv"))
        out.rows = out.steps = len(table.rows)
        out.plant_failures = int(summary["failure"])
        problems, _ = table_checks(table, env, 1, True)
        if summary["failure"]:
            problems.append("the episode ended on a plant failure")
        space = env.observation_space
        observed = [[r[c] for c in table.obs] for r in table.rows]
        observed.append(summary["final_observation"])
        for k, obs in enumerate(observed):
            problems += checks.check_in_box(
                obs, space.low.tolist(), space.high.tolist(), f"observation {k}"
            )
        for row in table.rows:
            if not table.value(row, "reward") >= env.reward_floor():
                problems.append(f"reward {table.value(row, 'reward')!r} below 0")
        dropped = checks.check_nondecreasing(policy.product, "product_recovered_mg")
        problems += [dropped] if dropped else []
        if rc != 0:
            problems.append(f"stats exit code {rc}")
        problems += checks.check_stats(table, stats_text, env.error_reward)
        if problems:
            out.fail(1, problems)


class ConstantPolicy(Policy):
    def __init__(self, action):
        self.action = np.asarray(action, float)

    def act(self, observation):
        return self.action.copy()


class SteadyState(Workload):
    """``procbench steady-state --env reactor`` with the CLI seeds in
    CLI_SEEDS, one solve each per round.  Each solve is verified by holding
    a reactor built around it (nominal inputs u*, start x*) at u* for
    HOLD_STEPS steps: a steady state does not move.  The hold's transitions
    are recorded, written and summarized by ``stats``.

    The inputs do not depend on the workload seed.  The solve raises
    ``NoFeasibleSteadyStateError`` for some multi-start seeds (10 of the
    seeds 0-119, the first 10, 22 and 31), and its cost varies threefold
    between seeds, so the workload keeps a fixed set on which it succeeds.
    """

    name = "steady-state"
    CLI_SEEDS = (0, 1, 2, 3)
    HOLD_STEPS = 100  # the reactor's own max_steps
    ops_per_round = len(CLI_SEEDS)

    def __init__(self, seed, tmp, traced=False):
        super().__init__(seed, tmp, traced)
        env = make_env("reactor")
        self.box = {
            "x_low": env.state_box.low.tolist(), "x_high": env.state_box.high.tolist(),
            "u_low": env.action_space.low.tolist(), "u_high": env.action_space.high.tolist(),
        }
        self.q_in = env.params.q_in

    def _round(self, j, work, out):
        for cli_seed in self.CLI_SEEDS:
            t0 = _now()
            try:
                problems = self._solve(cli_seed, work, out, t0)
            except Exception:  # the program raised: this solve fails
                traceback.print_exc(file=sys.stderr)
                out.seconds += _now() - t0
                out.fail(1, [f"seed {cli_seed}: raised"], wrong=False)
                continue
            if problems:
                out.fail(1, [f"seed {cli_seed}: {p}" for p in problems])

    def _solve(self, cli_seed, work, out, t0) -> list[str]:
        rc, text = capture(["steady-state", "--env", "reactor", "--seed", cli_seed])
        problems = [f"exit code {rc}"] if rc != 0 else []
        problems += checks.check_steady_state_report(text, self.box, self.q_in)
        if problems:
            out.seconds += _now() - t0
            return problems
        report = json.loads(text)
        x_star, u_star = report["x_star"], report["u_star"]
        env = make_env("reactor", {
            "nominal_inputs": u_star, "steady_state_guess": x_star,
            "init_rel": 0.0, "init_t_abs": 0.0, "max_steps": self.HOLD_STEPS,
        })
        t1 = _now()
        recorder, (summary,) = record_episodes(
            env, ConstantPolicy(u_star), [cli_seed], "steady-state-hold", cli_seed
        )
        t2 = _now()
        hold_dir = os.path.join(work, f"hold-{cli_seed}")
        rc_stats, stats_text = write_and_stats(recorder, hold_dir)
        t3 = _now()
        out.seconds += t3 - t0
        out.gen_seconds += t2 - t1

        table = checks.Table.load(os.path.join(hold_dir, "data.csv"))
        out.rows += len(table.rows)
        out.steps += len(table.rows)
        out.plant_failures += int(summary["failure"])
        found, _ = table_checks(table, env, 1, True)
        problems += found
        if summary["failure"]:
            problems.append("the hold ended on a plant failure")
        observed = [[r[c] for c in table.obs] for r in table.rows]
        observed.append(summary["final_observation"])
        drift = checks.check_hold(observed, x_star)
        problems += [drift] if drift else []
        setpoint = (x_star[0], x_star[2])
        problems += checks.check_reactor_rewards(table, env.error_reward, setpoint)[0]
        if rc_stats != 0:
            problems.append(f"stats exit code {rc_stats}")
        problems += checks.check_stats(table, stats_text, env.error_reward)
        return problems


WORKLOADS = {
    w.name: w for w in (PensimBo, ReactorMpc, OfflineDatasets, MabPlant, SteadyState)
}
