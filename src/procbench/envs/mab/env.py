"""Integrated antibody manufacturing environment.

Upstream, a perfusion bioreactor with cell-retention recycle produces a
harvest stream whose antibody content feeds the downstream capture step.
Downstream, two protein-A columns alternate: one loads from the harvest
while the other is eluted through a virus-inactivation loop, a
cation-exchange column, a holdup loop and a flow-through anion-exchange
column.  Loading and purification phases have equal length, so the capture
step runs continuously.

Action (9): the seven upstream inputs, the elution pump velocity (capture
column + VI loop) and the polish pump velocity (CEX + holdup loop + AEX),
both in cm/min.  Reward: antibody mass flow leaving the bioreactor and
separator, scaled to keep step rewards O(1); it is nonnegative, so the
error reward is strictly below anything an episode can earn.

The downstream is integrated with one-minute operator splitting: within a
slice each unit sees its upstream neighbour's outlet frozen.  The loading
capture column advances by exponential time differencing
(``LoadingStepper``), which applies its stiff pore diffusion exactly and
picks its own substep from the slow explicit terms, about 12 substeps per
minute.  The holdup loops and the flow-through anion-exchange column are
advanced exactly (``TransportStepper``), the eluting capture column and the
cation-exchange column by exponential time differencing with exact
transport (``ExchangeStepper``); their operators are built once per control
step, since the pump velocities are fixed within it.  The bioreactor
advances by ``upstream.integrate_fields``, stability-limited RK4 substeps
of ``kernels.rk4_step`` that keep its states nonnegative; it is most of the
cost of a step.
Unit-level mass audits are exact (see the column kernels); the splitting
only affects the coupling resolution.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ...kernels import SpatialGrid
from ...spaces import ContinuousSpace
from ..base import ProcessEnv, deep_merge, replace_fields, require_positive
from .columns import (
    CaptureParams,
    ExchangeStepper,
    LoadingStepper,
    LoopParams,
    TransportStepper,
    aex_params,
    capture_elution_params,
    cex_params,
)
from .schedule import TwinColumnSchedule, twin_column_tick
from .upstream import (
    N_INPUTS,
    N_STATES,
    UpstreamParams,
    economic_objective,
    integrate_fields,
    upstream_h0,
    upstream_system,
)


@dataclass
class ColumnState:
    """One capture column; carries both mode field sets (inactive one zero)."""

    c: np.ndarray             # mobile phase during loading (nz,)
    c_p: np.ndarray           # pore liquid (nz, nr)
    q1: np.ndarray            # fast-site adsorbed (nz,)
    q2: np.ndarray            # slow-site adsorbed (nz,)
    c_elu: np.ndarray         # mobile phase during elution (nz,)
    q_elu: np.ndarray         # adsorbed phase during elution (nz,)
    cs_elu: np.ndarray        # modifier during elution (nz,)

    def flat(self) -> np.ndarray:
        return np.concatenate(
            [self.c, self.c_p.ravel(), self.q1, self.q2,
             self.c_elu, self.q_elu, self.cs_elu]
        )


@dataclass
class MabState:
    upstream: np.ndarray
    columns: list[ColumnState]
    loop_vi: np.ndarray
    cex_c: np.ndarray
    cex_q: np.ndarray
    cex_cs: np.ndarray
    loop_hold: np.ndarray
    aex_c: np.ndarray
    aex_q: np.ndarray
    aex_cs: np.ndarray
    schedule: TwinColumnSchedule
    product_mg: float = 0.0


DEFAULT_CONFIG: dict = {
    "params": {},          # UpstreamParams overrides
    "capture": {},         # CaptureParams overrides
    "elution": {},         # ExchangeParams overrides for capture elution
    "cex": {},             # ExchangeParams overrides for cation exchange
    "aex": {},             # ExchangeParams overrides for anion exchange
    "loop": {},            # LoopParams overrides (both holdup loops)
    "max_steps": 200,
    "error_reward": -100.0,
    "step_hours": 1.0,
    "slice_minutes": 1.0,  # operator-splitting slice inside one step
    "grids": {
        "capture_axial": 30,
        "capture_radial": 8,
        "loop_axial": 40,
        "polish_axial": 20,
    },
    "schedule_minutes": 240.0,
    "elution_modifier_in": 0.1,  # M
    "cex_modifier_in": 0.5,
    "aex_modifier_in": 0.5,
    "modifier_floor": 1e-3,
    "reward_scale": 1e-3,
    "action_low": [0.0, 0.0, 0.0, 0.0, 33.0, 0.0, 0.0, 0.0, 0.0],
    "action_high": [0.2, 0.5, 0.5, 0.2, 37.0, 100.0, 10.0, 10.0, 10.0],
    "upstream_low": [100.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 33.0,
                     10.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    "upstream_high": [2000.0, 5e10, 1e11, 100.0, 50.0, 500.0, 50.0, 5000.0, 37.0,
                      500.0, 5e10, 1e11, 100.0, 50.0, 500.0, 50.0, 5000.0],
    "initial_upstream": [500.0, 5e9, 5.5e9, 25.0, 4.0, 1.0, 0.5, 150.0, 36.5,
                         50.0, 1e9, 1.1e9, 20.0, 3.0, 1.0, 0.5, 300.0],
    "init_rel": 0.1,
    "init_temp_range": [36.0, 37.0],
}

# indices of the two pump velocities in the 9-dim action
IDX_V_ELU = 7
IDX_V_POL = 8


class MabEnv(ProcessEnv):
    name = "mab"

    def __init__(self, config: dict | None = None):
        cfg = deep_merge(DEFAULT_CONFIG, config)
        self.params = replace_fields("params", UpstreamParams(), cfg["params"])
        self.capture = replace_fields("capture", CaptureParams(), cfg["capture"])
        self.elu = replace_fields(
            "elution", capture_elution_params(self.capture), cfg["elution"]
        )
        self.cex = replace_fields("cex", cex_params(), cfg["cex"])
        self.aex = replace_fields("aex", aex_params(), cfg["aex"])
        self.loop = replace_fields("loop", LoopParams(), cfg["loop"])
        g = cfg["grids"]
        self.cap_grid = SpatialGrid(
            int(g["capture_axial"]), self.capture.length,
            n_radial=int(g["capture_radial"]), volume=self.capture.volume,
        )
        self.loop_grid = SpatialGrid(
            int(g["loop_axial"]), self.loop.length, volume=self.loop.volume
        )
        self.pol_grid = SpatialGrid(
            int(g["polish_axial"]), self.cex.length, volume=self.cex.volume
        )
        self._load_stepper = LoadingStepper(self.capture, self.cap_grid)
        self.step_hours = require_positive("step_hours", float(cfg["step_hours"]))
        self.slice_minutes = require_positive(
            "slice_minutes", float(cfg["slice_minutes"])
        )
        self.n_slices = int(round(self.step_hours * 60.0 / self.slice_minutes))
        if self.n_slices < 1:
            raise ValueError(
                f"slice_minutes {self.slice_minutes} leaves no slice in a "
                f"{self.step_hours} h step"
            )
        self.schedule_minutes = float(cfg["schedule_minutes"])
        self.cs_elu_in = float(cfg["elution_modifier_in"])
        self.cs_cex_in = float(cfg["cex_modifier_in"])
        self.cs_aex_in = float(cfg["aex_modifier_in"])
        self.cs_floor = float(cfg["modifier_floor"])
        self.reward_scale = float(cfg["reward_scale"])
        self._elu_stepper = ExchangeStepper(self.elu, self.cap_grid)
        self._cex_stepper = ExchangeStepper(self.cex, self.pol_grid)
        self._aex_stepper = ExchangeStepper(self.aex, self.pol_grid)
        self._vi_stepper = TransportStepper(self.loop_grid, self.loop.d_ax_factor)
        self._hold_stepper = TransportStepper(self.loop_grid, self.loop.d_ax_factor)
        self.initial_upstream = np.asarray(cfg["initial_upstream"], float)
        self.init_rel = float(cfg["init_rel"])
        self.init_temp_range = tuple(cfg["init_temp_range"])

        self.upstream_box = ContinuousSpace(
            np.asarray(cfg["upstream_low"], float),
            np.asarray(cfg["upstream_high"], float),
        )
        template = self._blank_state(self.initial_upstream)
        o_dim = self._observe(template).size
        obs_low = np.full(o_dim, -np.inf)
        obs_high = np.full(o_dim, np.inf)
        obs_low[:N_STATES] = self.upstream_box.low
        obs_high[:N_STATES] = self.upstream_box.high
        super().__init__(
            max_steps=cfg["max_steps"],
            error_reward=cfg["error_reward"],
            action_space=ContinuousSpace(
                np.asarray(cfg["action_low"], float),
                np.asarray(cfg["action_high"], float),
            ),
            observation_space=ContinuousSpace(obs_low, obs_high),
            state_box=self.upstream_box,  # applies to the upstream block
            state_box_tol=1e-9,
        )

    # -- state plumbing ----------------------------------------------------

    def _blank_column(self) -> ColumnState:
        nz, nr = self.cap_grid.n_axial, self.cap_grid.n_radial
        return ColumnState(
            c=np.zeros(nz),
            c_p=np.zeros((nz, nr)),
            q1=np.zeros(nz),
            q2=np.zeros(nz),
            c_elu=np.zeros(nz),
            q_elu=np.zeros(nz),
            cs_elu=np.full(nz, self.cs_floor),
        )

    def _blank_state(self, upstream: np.ndarray) -> MabState:
        n_loop, n_pol = self.loop_grid.n_axial, self.pol_grid.n_axial
        return MabState(
            upstream=np.asarray(upstream, float).copy(),
            columns=[self._blank_column(), self._blank_column()],
            loop_vi=np.zeros(n_loop),
            cex_c=np.zeros(n_pol),
            cex_q=np.zeros(n_pol),
            cex_cs=np.full(n_pol, self.cs_cex_in),
            loop_hold=np.zeros(n_loop),
            aex_c=np.zeros(n_pol),
            aex_q=np.zeros(n_pol),
            aex_cs=np.full(n_pol, self.cs_aex_in),
            schedule=TwinColumnSchedule(load_duration=self.schedule_minutes),
            product_mg=0.0,
        )

    def _draw_initial_state(self, rng: np.random.Generator) -> MabState:
        x = self.initial_upstream.copy()
        jitter = rng.uniform(1.0 - self.init_rel, 1.0 + self.init_rel, size=N_STATES)
        x = x * jitter
        # total cells must dominate viable cells; temperature has its own band
        x[2] = x[1] * rng.uniform(1.05, 1.15)
        x[11] = x[10] * rng.uniform(1.05, 1.15)
        x[8] = rng.uniform(*self.init_temp_range)
        x = self.upstream_box.clip(x)
        return self._blank_state(x)

    # -- physics -----------------------------------------------------------

    def _advance(self, state: MabState, action) -> MabState:
        action = np.asarray(action, float)
        u7 = action[:N_INPUTS]
        v_elu = float(action[IDX_V_ELU])
        v_pol = float(action[IDX_V_POL])
        dt = self.slice_minutes

        s = MabState(
            upstream=state.upstream.copy(),
            columns=[replace(c) for c in state.columns],
            loop_vi=state.loop_vi.copy(),
            cex_c=state.cex_c.copy(),
            cex_q=state.cex_q.copy(),
            cex_cs=state.cex_cs.copy(),
            loop_hold=state.loop_hold.copy(),
            aex_c=state.aex_c.copy(),
            aex_q=state.aex_q.copy(),
            aex_cs=state.aex_cs.copy(),
            schedule=state.schedule,
            product_mg=state.product_mg,
        )
        upstream = upstream_system(self.params)
        q_elu = v_elu * self.capture.area          # mL/min through the elution train
        q_pol = v_pol * self.cex.area              # mL/min through the polish train
        v_loop_vi = q_elu / self.loop.area
        v_loop_hold = q_pol / self.loop.area

        for _ in range(self.n_slices):
            # upstream slice
            s.upstream = integrate_fields(
                upstream, s.upstream, u7, dt, upstream_h0(s.upstream, self.params)
            )

            # loading column fed by the separator harvest
            f_2 = u7[3]                            # L/min
            v_load = f_2 * 1000.0 / self.capture.area
            c_feed = s.upstream[16] * 1e-3         # mg/L -> mg/mL
            loader = s.columns[s.schedule.loading_column]
            if v_load > 0.0:
                loader.c, loader.c_p, loader.q1, loader.q2 = self._load_stepper.advance(
                    loader.c, loader.c_p, loader.q1, loader.q2, v_load, c_feed, dt
                )

            # purification train, one unit at a time with frozen inlets
            purifier = s.columns[1 - s.schedule.loading_column]
            if v_elu > 0.0:
                purifier.c_elu, purifier.q_elu, cs = self._elu_stepper.advance(
                    purifier.c_elu, purifier.q_elu, purifier.cs_elu, v_elu,
                    0.0, self.cs_elu_in, dt,
                )
                purifier.cs_elu = np.maximum(cs, self.cs_floor)
                s.loop_vi = self._vi_stepper.advance(
                    s.loop_vi, v_loop_vi, float(purifier.c_elu[-1]), dt
                )

            if v_pol > 0.0:
                # flow-matching joint: mass flux from the VI loop is preserved
                cex_inlet = float(s.loop_vi[-1]) * (q_elu / q_pol)
                s.cex_c, s.cex_q, cs = self._cex_stepper.advance(
                    s.cex_c, s.cex_q, s.cex_cs, v_pol, cex_inlet, self.cs_cex_in, dt
                )
                s.cex_cs = np.maximum(cs, self.cs_floor)
                s.loop_hold = self._hold_stepper.advance(
                    s.loop_hold, v_loop_hold, float(s.cex_c[-1]), dt
                )
                s.aex_c, s.aex_q, cs = self._aex_stepper.advance(
                    s.aex_c, s.aex_q, s.aex_cs, v_pol,
                    float(s.loop_hold[-1]), self.cs_aex_in, dt,
                )
                s.aex_cs = np.maximum(cs, self.cs_floor)
                s.product_mg += q_pol * float(s.aex_c[-1]) * dt

            s.schedule, swaps = twin_column_tick(s.schedule, dt)
            for _ in range(swaps):
                self._swap_roles(s)
        return s

    def _swap_roles(self, s: MabState) -> None:
        """Loading column moves to elution with its adsorbed inventory; the
        emptied column starts loading fresh."""
        old_loader = s.columns[1 - s.schedule.loading_column]
        new_loader = s.columns[s.schedule.loading_column]
        old_loader.q_elu = np.minimum(old_loader.q1 + old_loader.q2, self.elu.q_max)
        old_loader.c_elu = old_loader.c.copy()
        old_loader.cs_elu = np.full(self.cap_grid.n_axial, self.cs_floor)
        old_loader.c = np.zeros_like(old_loader.c)
        old_loader.c_p = np.zeros_like(old_loader.c_p)
        old_loader.q1 = np.zeros_like(old_loader.q1)
        old_loader.q2 = np.zeros_like(old_loader.q2)
        new_loader.c_elu = np.zeros_like(new_loader.c_elu)
        new_loader.q_elu = np.zeros_like(new_loader.q_elu)
        new_loader.cs_elu = np.full(self.cap_grid.n_axial, self.cs_floor)

    # -- episode hooks -------------------------------------------------------

    def _state_valid(self, state: MabState) -> bool:
        if not np.all(np.isfinite(state.upstream)):
            return False
        if not self.upstream_box.contains(state.upstream, tol=self._state_box_tol):
            return False
        for col in state.columns:
            if not all(
                np.all(np.isfinite(a))
                for a in (col.c, col.c_p, col.q1, col.q2, col.c_elu, col.q_elu, col.cs_elu)
            ):
                return False
        return all(
            np.all(np.isfinite(a))
            for a in (
                state.loop_vi, state.cex_c, state.cex_q, state.cex_cs,
                state.loop_hold, state.aex_c, state.aex_q, state.aex_cs,
            )
        )

    def _observe(self, state: MabState) -> np.ndarray:
        sched = np.array(
            [state.schedule.clock / state.schedule.load_duration,
             float(state.schedule.loading_column)]
        )
        return np.concatenate(
            [state.upstream]
            + [col.flat() for col in state.columns]
            + [
                state.loop_vi, state.cex_c, state.cex_q, state.cex_cs,
                state.loop_hold, state.aex_c, state.aex_q, state.aex_cs,
                sched,
            ]
        )

    def _reward(self, prev_state, action, state: MabState):
        value = economic_objective(state.upstream, np.asarray(action, float))
        return self.reward_scale * float(value), False

    def reward_floor(self) -> float:
        return 0.0  # flows and concentrations are nonnegative

    # -- inspection ----------------------------------------------------------

    @property
    def product_recovered_mg(self) -> float:
        return float(self.state.product_mg)
