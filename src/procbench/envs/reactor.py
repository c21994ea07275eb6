"""Exothermic A -> B stirred-tank reactor with a cooling jacket.

Three states: reactant concentration c_A (kmol/m^3), mixture temperature T
(K), and liquid level h (m).  The level is a pure integrator driven by the
inlet/outlet flow mismatch, so the steady-state manifold is one-dimensional
in h; the solver's least-squares Newton step leaves h at its guess.

Manipulated variables are the outlet flow q_out (m^3/min) and the coolant
temperature T_c (K).  The controlled variables are c_A and h.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..errors import DegenerateLevelError
from ..kernels import OdeSystem, integrate, solve_steady_state
from ..spaces import ContinuousSpace
from .base import ProcessEnv, deep_merge, replace_fields, require_positive

STATE_NAMES = ("c_a", "temp", "level")


@dataclass(frozen=True)
class CstrParams:
    """Physical parameters.

    ``t_f`` is tabulated upstream as 76.85 with a kelvin unit, which is not a
    plausible feed temperature; the default adopts 350.0 K (= 76.85 degC) and
    the raw value remains reachable through the config.  ``u_heat`` is stored
    in J/(min m^2 K); the energy balance divides by 1e3 so that it combines
    with ``c_p`` in kJ/(kg K).  ``minus_dh`` in J/mol equals kJ/kmol, which
    pairs directly with c_A in kmol/m^3.
    """

    q_in: float = 0.1        # m^3/min
    r: float = 0.219         # m
    c_af: float = 1.0        # kmol/m^3
    t_f: float = 350.0       # K
    e_over_r: float = 8750.0  # K
    k_0: float = 7.2e10      # 1/min
    minus_dh: float = 5.0e4  # J/mol = kJ/kmol
    u_heat: float = 5.0e4    # J/(min m^2 K)
    c_p: float = 0.239       # kJ/(kg K)
    rho: float = 1000.0      # kg/m^3

    def __post_init__(self):
        for name in self.__dataclass_fields__:
            if getattr(self, name) <= 0.0:
                raise ValueError(f"parameter {name} must be strictly positive")

    @property
    def cross_section(self) -> float:
        return np.pi * self.r**2


def cstr_rhs(state, action, p: CstrParams):
    """Balance equations; accepts batched states/actions (leading axes)."""
    state = np.asarray(state, dtype=float)
    action = np.asarray(action, dtype=float)
    c_a = state[..., 0]
    temp = state[..., 1]
    h = state[..., 2]
    q_out = action[..., 0]
    t_c = action[..., 1]
    if state.ndim == 1 and h <= 1e-6:
        raise DegenerateLevelError(f"liquid level {h:.3e} m below validity floor")

    area = p.cross_section
    dilution = p.q_in / (area * h)
    rate = p.k_0 * np.exp(-p.e_over_r / temp) * c_a
    heat_capacity = p.rho * p.c_p  # kJ/(m^3 K)

    dc_a = dilution * (p.c_af - c_a) - rate
    dtemp = (
        dilution * (p.t_f - temp)
        + (p.minus_dh / heat_capacity) * rate
        + (2.0 * (p.u_heat / 1e3) / (p.r * heat_capacity)) * (t_c - temp)
    )
    dh = (p.q_in - q_out) / area
    return np.stack(np.broadcast_arrays(dc_a, dtemp, dh), axis=-1)


def production_rate(state, p: CstrParams):
    """Product formation rate k_0 exp(-E/RT) c_A times the liquid volume A h
    (kmol/min); accepts batched states."""
    c_a = state[..., 0]
    temp = state[..., 1]
    h = state[..., 2]
    return p.k_0 * np.exp(-p.e_over_r / temp) * c_a * p.cross_section * h


@dataclass(frozen=True)
class SteadyStateProblem:
    """The economic steady-state search on the balanced-flow manifold.

    The level is a pure integrator, so steady operation needs q_out = q_in:
    ``system`` and ``stage_value`` take the coolant temperature alone as
    their input, and ``full_input`` maps it back to (q_out, T_c).
    """

    system: OdeSystem
    stage_value: Callable[[np.ndarray, np.ndarray], float]
    u_min: np.ndarray
    u_max: np.ndarray
    x_guess: np.ndarray
    x_min: np.ndarray
    x_max: np.ndarray
    full_input: Callable[[np.ndarray], np.ndarray]


def reactor_reward(state, setpoint) -> float:
    """Negative squared relative tracking error of (c_A, h)."""
    c_a_sp, h_sp = setpoint
    c_a = state[..., 0]
    h = state[..., 2]
    return -(((c_a - c_a_sp) / c_a_sp) ** 2 + ((h - h_sp) / h_sp) ** 2)


def reactor_observe(state: np.ndarray) -> np.ndarray:
    return np.asarray(state, dtype=float).copy()


DEFAULT_CONFIG: dict = {
    "params": {},  # CstrParams field overrides
    "max_steps": 100,
    "error_reward": -1000.0,
    "control_minutes": 1.0,
    "n_substeps": 10,
    "action_low": [0.0, 290.0],
    "action_high": [0.3, 340.0],
    "state_low": [0.0, 280.0, 0.05],
    "state_high": [2.0, 450.0, 1.0],
    # nominal inputs: q_out balances q_in; T_c picked so the resulting
    # steady state is open-loop stable (low conversion branch)
    "nominal_inputs": [0.1, 295.0],
    "steady_state_guess": [0.9, 320.0, 0.659],
    # setpoint defaults to the (c_A, h) components of the nominal steady state
    "setpoint": None,
    # initial box around the nominal point: relative for c_A/h, absolute
    # kelvin for T (a +-10% kelvin band would span 64 K and allow thermal
    # runaway from the upper edge)
    "init_rel": 0.1,
    "init_t_abs": 10.0,
}


class ReactorEnv(ProcessEnv):
    name = "reactor"

    def __init__(self, config: dict | None = None):
        cfg = deep_merge(DEFAULT_CONFIG, config)
        self.params = replace_fields("params", CstrParams(), cfg["params"])
        self.control_minutes = require_positive(
            "control_minutes", float(cfg["control_minutes"])
        )
        self.n_substeps = require_positive("n_substeps", int(cfg["n_substeps"]))
        self.u_nominal = np.asarray(cfg["nominal_inputs"], dtype=float)
        self.system = OdeSystem(
            dim=3,
            rhs=lambda t, x, u: cstr_rhs(x, u, self.params),
            vectorized=True,
        )

        result = solve_steady_state(
            self.system, self.u_nominal, np.asarray(cfg["steady_state_guess"], float)
        )
        self.x_star = result.x_star
        self.steady_state = result
        if cfg["setpoint"] is None:
            self.setpoint = (float(self.x_star[0]), float(self.x_star[2]))
        else:
            self.setpoint = (float(cfg["setpoint"][0]), float(cfg["setpoint"][1]))

        state_box = ContinuousSpace(
            np.asarray(cfg["state_low"], float), np.asarray(cfg["state_high"], float)
        )
        super().__init__(
            max_steps=cfg["max_steps"],
            error_reward=cfg["error_reward"],
            action_space=ContinuousSpace(
                np.asarray(cfg["action_low"], float),
                np.asarray(cfg["action_high"], float),
            ),
            observation_space=state_box,
            state_box=state_box,
        )
        rel, t_abs = float(cfg["init_rel"]), float(cfg["init_t_abs"])
        low = np.array(
            [
                self.x_star[0] * (1 - rel),
                self.x_star[1] - t_abs,
                self.x_star[2] * (1 - rel),
            ]
        )
        high = np.array(
            [
                self.x_star[0] * (1 + rel),
                self.x_star[1] + t_abs,
                self.x_star[2] * (1 + rel),
            ]
        )
        low = np.clip(low, state_box.low, state_box.high)
        high = np.clip(high, state_box.low, state_box.high)
        self.init_box = ContinuousSpace(low, np.maximum(high, low))

    def _draw_initial_state(self, rng: np.random.Generator) -> np.ndarray:
        return self.init_box.sample(rng)

    def steady_state_problem(self) -> SteadyStateProblem:
        """Maximize the production rate over coolant temperatures, with
        q_out pinned to ``params.q_in`` and the state inside its box."""
        q_in = self.params.q_in

        def full_input(u_coolant):
            return np.concatenate([[q_in], np.atleast_1d(u_coolant)])

        return SteadyStateProblem(
            system=OdeSystem(
                dim=3, rhs=lambda t, x, u: self.system.rhs(t, x, full_input(u))
            ),
            stage_value=lambda x, u: float(production_rate(x, self.params)),
            u_min=self.action_space.low[1:],
            u_max=self.action_space.high[1:],
            x_guess=self.x_star,
            x_min=self.state_box.low,
            x_max=self.state_box.high,
            full_input=full_input,
        )

    def _advance(self, state, action):
        h = self.control_minutes / self.n_substeps
        return integrate(self.system, 0.0, state, action, self.control_minutes, h)

    def _observe(self, state):
        return reactor_observe(state)

    def _reward(self, prev_state, action, state):
        return float(reactor_reward(state, self.setpoint)), False

    def reward_floor(self) -> float:
        c_a_sp, h_sp = self.setpoint
        worst_ca = max(
            abs(self.state_box.low[0] - c_a_sp), abs(self.state_box.high[0] - c_a_sp)
        )
        worst_h = max(
            abs(self.state_box.low[2] - h_sp), abs(self.state_box.high[2] - h_sp)
        )
        return -((worst_ca / c_a_sp) ** 2 + (worst_h / h_sp) ** 2)
