"""Output checks computed apart from the program.

Every function here reads the program's outputs as plain data: ``data.csv``
through the standard-library ``csv`` module, the JSON reports through
``json``.  Nothing imports ``procbench``, so a fault in the program's own
reader, statistics or reward code cannot hide itself.  Each check returns a
list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import csv
import json
import math

# absolute floor and relative tolerance for recomputed floating-point values
ABS_TOL = 1e-12
REL_TOL = 1e-9


def close(a: float, b: float, rel: float = REL_TOL, abs_tol: float = ABS_TOL) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=abs_tol)


def read_table(path: str) -> tuple[list[str], list[list[float]]]:
    """Parse ``data.csv`` into its header and rows of floats."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [[float(v) for v in row] for row in reader]
    return header, rows


class Table:
    """Column access by name over a parsed ``data.csv``."""

    def __init__(self, header: list[str], rows: list[list[float]]):
        self.header = header
        self.rows = rows
        self.col = {name: i for i, name in enumerate(header)}
        self.obs = [i for i, n in enumerate(header) if n.startswith("obs_")]
        self.act = [i for i, n in enumerate(header) if n.startswith("act_")]

    @classmethod
    def load(cls, path: str) -> "Table":
        return cls(*read_table(path))

    def value(self, row: list[float], name: str) -> float:
        return row[self.col[name]]

    def closing(self, row: list[float]) -> bool:
        return row[self.col["terminal"]] == 1.0 or row[self.col["timeout"]] == 1.0

    def episodes(self) -> list[list[list[float]]]:
        """Rows grouped by ``episode_id`` in file order."""
        out: list[list[list[float]]] = []
        last = None
        for row in self.rows:
            eid = row[self.col["episode_id"]]
            if eid != last:
                out.append([])
                last = eid
            out[-1].append(row)
        return out


def strict_json(text: str):
    """``json.loads`` that rejects NaN and infinities instead of parsing them."""

    def reject(token):
        raise ValueError(f"non-finite number {token} in JSON")

    return json.loads(text, parse_constant=reject)


def check_json(text: str, what: str) -> list[str]:
    try:
        strict_json(text)
    except ValueError as exc:
        return [f"{what}: {exc}"]
    return []


def check_episode_structure(
    table: Table, episodes: int, max_steps: int
) -> tuple[list[str], list[int]]:
    """Ids count up from 0, steps count up from 0, exactly one closing row
    which is the last, and no episode longer than ``max_steps``.

    Returns the problems and the episode ids they concern.
    """
    problems, bad = [], []
    groups = table.episodes()
    if len(groups) != episodes:
        problems.append(f"{len(groups)} episodes in data.csv, expected {episodes}")
    for index, rows in enumerate(groups):
        eid = int(table.value(rows[0], "episode_id"))
        msgs = []
        if eid != index:
            msgs.append(f"episode id {eid} at position {index}")
        steps = [int(table.value(r, "step")) for r in rows]
        if steps != list(range(len(rows))):
            msgs.append("steps do not count up from 0")
        closings = [i for i, r in enumerate(rows) if table.closing(r)]
        if closings != [len(rows) - 1]:
            msgs.append(f"closing rows at {closings}, expected only the last")
        if len(rows) > max_steps:
            msgs.append(f"{len(rows)} rows exceed max_steps {max_steps}")
        if msgs:
            problems.append(f"episode {eid}: " + "; ".join(msgs))
            bad.append(index)
    return problems, bad


def check_action_box(table: Table, low, high) -> tuple[list[str], set[int]]:
    problems, bad = [], set()
    for row in table.rows:
        for j, col in enumerate(table.act):
            a = row[col]
            if not (low[j] <= a <= high[j]):
                eid = int(table.value(row, "episode_id"))
                problems.append(
                    f"episode {eid} step {int(table.value(row, 'step'))}: "
                    f"act_{j}={a!r} outside [{low[j]}, {high[j]}]"
                )
                bad.add(eid)
    return problems, bad


def check_failed_rows(
    table: Table, error_reward: float, terminal_is_failure: bool
) -> tuple[list[str], set[int]]:
    """A row carrying exactly ``error_reward`` must be terminal.  On a plant
    that never finishes early (``terminal_is_failure``), every terminal row
    is a failure and must carry exactly ``error_reward``."""
    problems, bad = [], set()
    for row in table.rows:
        reward = table.value(row, "reward")
        terminal = table.value(row, "terminal") == 1.0
        eid = int(table.value(row, "episode_id"))
        if reward == error_reward and not terminal:
            problems.append(f"episode {eid}: error_reward on a non-terminal row")
            bad.add(eid)
        elif terminal and terminal_is_failure and reward != error_reward:
            problems.append(f"episode {eid}: terminal row with reward {reward!r}")
            bad.add(eid)
    return problems, bad


def count_plant_failures(table: Table, error_reward: float) -> int:
    return sum(
        1
        for rows in table.episodes()
        if table.value(rows[-1], "terminal") == 1.0
        and table.value(rows[-1], "reward") == error_reward
    )


def one_pass_stats(table: Table, error_reward: float) -> dict:
    """Per-step reward mean and population std in one pass (Welford), and
    the episode success rate."""
    n, mean, m2 = 0, 0.0, 0.0
    for row in table.rows:
        r = table.value(row, "reward")
        n += 1
        delta = r - mean
        mean += delta / n
        m2 += delta * (r - mean)
    episodes = table.episodes()
    failures = count_plant_failures(table, error_reward)
    return {
        "reward_mean": mean,
        "reward_std": math.sqrt(m2 / n) if n else 0.0,
        "success_rate": 1.0 - failures / len(episodes) if episodes else 1.0,
        "traj_count": len(episodes),
    }


def check_stats(table: Table, stats_text: str, error_reward: float) -> list[str]:
    """The ``stats`` report parses as strict JSON and matches a recomputation."""
    problems = check_json(stats_text, "stats")
    if problems:
        return problems
    report = json.loads(stats_text)
    mine = one_pass_stats(table, error_reward)
    for key in ("reward_mean", "reward_std", "success_rate"):
        # the one-pass and two-pass formulas round differently
        if not close(report[key], mine[key], rel=1e-9, abs_tol=1e-9):
            problems.append(f"stats {key} {report[key]!r} != recomputed {mine[key]!r}")
    if report["traj_count"] != mine["traj_count"]:
        problems.append(
            f"stats traj_count {report['traj_count']} != {mine['traj_count']}"
        )
    return problems


def _reward_mismatch(table, row, expected):
    got = table.value(row, "reward")
    if close(got, expected):
        return None
    return (
        f"episode {int(table.value(row, 'episode_id'))} step "
        f"{int(table.value(row, 'step'))}: reward {got!r}, recomputed {expected!r}"
    )


def _check_rewards(table: Table, error_reward: float, expect) -> tuple[list[str], set[int]]:
    """Compare each non-closing, non-failed row's reward with
    ``expect(rows, i)``, which may read the next row's observation."""
    problems, bad = [], set()
    for rows in table.episodes():
        for i, row in enumerate(rows[:-1]):
            msg = _reward_mismatch(table, row, expect(rows, i))
            if msg:
                problems.append(msg)
                bad.add(int(table.value(row, "episode_id")))
    return problems, bad


def check_pensim_rewards(table: Table, error_reward: float, smoothness: float = 0.01):
    """reward = (P'V' - PV) * 1e-3 - smoothness * |a - a_prev|^2, with P and V
    read from ``obs_4`` and ``obs_6`` of consecutive rows."""
    p, v = table.col["obs_4"], table.col["obs_6"]

    def expect(rows, i):
        row, nxt = rows[i], rows[i + 1]
        prev = rows[i - 1] if i > 0 else row
        jump = sum((row[c] - prev[c]) ** 2 for c in table.act)
        return (nxt[p] * nxt[v] * 1e-3 - row[p] * row[v] * 1e-3) - smoothness * jump

    return _check_rewards(table, error_reward, expect)


def check_reactor_rewards(table: Table, error_reward: float, setpoint):
    """reward = -((c_A - c_sp)/c_sp)^2 - ((h - h_sp)/h_sp)^2 of the next state."""
    c_sp, h_sp = setpoint
    ca, h = table.col["obs_0"], table.col["obs_2"]

    def expect(rows, i):
        nxt = rows[i + 1]
        return -(((nxt[ca] - c_sp) / c_sp) ** 2 + ((nxt[h] - h_sp) / h_sp) ** 2)

    return _check_rewards(table, error_reward, expect)


def check_atropine_rewards(table: Table, error_reward: float):
    """reward = -E-factor of the next row (``obs_3``)."""
    e = table.col["obs_3"]
    return _check_rewards(table, error_reward, lambda rows, i: -rows[i + 1][e])


def check_beer_rewards(table: Table, error_reward: float, max_steps: int):
    """-1 per unfinished row; a finishing row pays max_steps - (step + 1)."""
    problems, bad = [], set()
    for rows in table.episodes():
        for i, row in enumerate(rows):
            reward = table.value(row, "reward")
            last = i == len(rows) - 1
            terminal = table.value(row, "terminal") == 1.0
            if last and terminal and reward == error_reward:
                continue  # plant failure, checked by check_failed_rows
            if last and terminal:
                expected = float(max_steps - (int(table.value(row, "step")) + 1))
            else:
                expected = -1.0
            msg = _reward_mismatch(table, row, expected)
            if msg:
                problems.append(msg)
                bad.add(int(table.value(row, "episode_id")))
    return problems, bad


def check_piecewise_constant(table: Table, segments: int) -> tuple[list[str], set[int]]:
    """Each episode's action profile changes at most ``segments - 1`` times."""
    problems, bad = [], set()
    for rows in table.episodes():
        changes = sum(
            1
            for a, b in zip(rows, rows[1:])
            if any(a[c] != b[c] for c in table.act)
        )
        if changes > segments - 1:
            eid = int(table.value(rows[0], "episode_id"))
            problems.append(f"episode {eid}: {changes + 1} action segments > {segments}")
            bad.add(eid)
    return problems, bad


def check_reaches_band(
    observations, setpoint, within: int, band: float = 0.02
) -> str | None:
    """Some observation among the first ``within`` steps has c_A and h within
    ``band`` of their setpoints (relative)."""
    c_sp, h_sp = setpoint
    for k, obs in enumerate(observations[:within]):
        if abs(obs[0] - c_sp) <= band * c_sp and abs(obs[2] - h_sp) <= band * h_sp:
            return None
    return f"c_A and h never within {band:.0%} of the setpoint in {within} steps"


def check_nonincreasing(trace, what: str) -> str | None:
    for i, (a, b) in enumerate(zip(trace, trace[1:])):
        if b > a:
            return f"{what}: cost rises from {a!r} to {b!r} at iteration {i + 1}"
    return None


def check_nondecreasing(values, what: str) -> str | None:
    for i, (a, b) in enumerate(zip(values, values[1:])):
        if b < a:
            return f"{what} falls from {a!r} to {b!r} after step {i + 1}"
    return None


def check_in_box(values, low, high, what: str, tol: float = 0.0) -> list[str]:
    problems = []
    for i, (x, lo, hi) in enumerate(zip(values, low, high)):
        if not (math.isfinite(x) and lo - tol <= x <= hi + tol):
            problems.append(f"{what}[{i}]={x!r} outside [{lo}, {hi}]")
    return problems


def check_steady_state_report(text: str, box: dict, q_in: float) -> list[str]:
    """``steady-state --env reactor``: strict JSON, x* and u* inside their
    boxes, residual at most 1e-10, and balanced flows (q_out* equals q_in)."""
    problems = check_json(text, "steady-state")
    if problems:
        return problems
    report = json.loads(text)
    problems += check_in_box(report["x_star"], box["x_low"], box["x_high"], "x_star")
    problems += check_in_box(report["u_star"], box["u_low"], box["u_high"], "u_star")
    if not report["residual_norm"] <= 1e-10:
        problems.append(f"residual_norm {report['residual_norm']!r} > 1e-10")
    if report["u_star"][0] != q_in:
        problems.append(f"q_out* {report['u_star'][0]!r} != q_in {q_in!r}")
    return problems


def check_hold(observations, x_star, rel: float = 1e-6) -> str | None:
    """A plant started at x* and held at u* stays at x*."""
    for k, obs in enumerate(observations):
        for i, (x, ref) in enumerate(zip(obs, x_star)):
            if abs(x - ref) > rel * max(abs(ref), 1.0):
                return f"state {i} drifts to {x!r} from {ref!r} by step {k}"
    return None
