"""Fed-batch penicillin fermentation.

Biomass is split into four regions -- growing (A0), non-growing (A1),
degenerated (A3) and autolysed (A4) -- with product, substrate and volume
balances on top.  The region/product/substrate/volume balance structure is
fixed; the kinetic rate laws feeding it are pluggable because validated rate
parameters live outside this package.  The shipped ``demo_monod`` closure is
a self-consistent Monod-type demo set, fully exposed through the config and
not to be mistaken for a calibrated industrial model.

Reward per step is the penicillin mass gained (kg of P*V) minus a quadratic
action-smoothness penalty, so a batch's return telescopes to its net yield
minus the roughness of its feeding profile.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from ..errors import DegenerateVolumeError
from ..kernels import OdeSystem
from ..spaces import ContinuousSpace
from .base import ProcessEnv, deep_merge, require_positive

N_STATES = 7
N_ACTIONS = 6

STATE_NAMES = ("a0_growing", "a1_nongrowing", "a3_degenerated", "a4_autolysed",
               "product", "substrate", "volume")
ACTION_NAMES = ("f_sugar", "f_oil", "f_paa", "f_acid_base", "f_water", "f_discharge")


class PenRates(NamedTuple):
    """Nonnegative kinetic rates consumed by the balances (units per hour)."""

    r_b: float     # branching
    r_diff: float  # differentiation
    r_e: float     # extension
    r_deg: float   # degeneration
    r_a: float     # autolysis
    r_p: float     # product formation
    r_h: float     # product hydrolysis
    r_m: float     # maintenance


def pensim_rhs(
    state,
    rates: PenRates,
    action,
    feeds: tuple[float, float],
    f_evp: float,
    y_sx: float,
    y_sp: float,
    m_s: float,
    literal_a1_outflow: bool = False,
):
    """Region/product/substrate/volume balances.

    ``literal_a1_outflow`` selects the variant where the degeneration rate
    multiplies the A1 washout term instead of standing alone; the default is
    the dimensionally consistent reading (degeneration as its own sink).
    """
    a0, a1, a3, a4, p, s, v = state
    if v <= 1e-6:
        raise DegenerateVolumeError(f"fermenter volume {v:.3e} L below floor")
    f_s, f_oil, f_paa, f_ab, f_w, f_dis = action
    c_s, c_oil = feeds
    f_in = f_s + f_oil + f_paa + f_ab + f_w  # streams entering the vessel

    da0 = rates.r_b - rates.r_diff - f_in * a0 / v
    if literal_a1_outflow:
        da1 = rates.r_e - rates.r_b + rates.r_diff - rates.r_deg * f_in * a1 / v
    else:
        da1 = rates.r_e - rates.r_b + rates.r_diff - rates.r_deg - f_in * a1 / v
    da3 = rates.r_deg - rates.r_a - f_in * a3 / v
    da4 = rates.r_a - f_in * a4 / v
    dp = rates.r_p - rates.r_h - f_in * p / v
    ds = (
        -y_sx * rates.r_e
        - y_sx * rates.r_b
        - m_s * rates.r_m
        - y_sp * rates.r_p
        + f_s * c_s / v
        + f_oil * c_oil / v
    )
    dv = f_in - f_evp - f_dis
    return (da0, da1, da3, da4, dp, ds, dv)


def pensim_reward(
    prev_pv_kg: float, next_pv_kg: float, action, prev_action, smoothness: float
) -> float:
    """Penicillin mass gained (kg) minus the action-jump penalty."""
    jump = 0.0
    for a, b in zip(action, prev_action):
        jump += (a - b) ** 2
    return (next_pv_kg - prev_pv_kg) - smoothness * jump


DEMO_KINETICS: dict = {
    "ks": 0.4,        # g/L substrate affinity for growth-linked rates
    "km": 0.05,       # g/L substrate affinity for maintenance
    "k_branch": 0.03,     # 1/h
    "k_extend": 0.05,     # 1/h
    "k_diff": 0.004,      # 1/h, differentiation favoured when starved
    "k_degen": 0.002,     # 1/h
    "k_autolysis": 0.001,  # 1/h
    "k_prod": 0.004,      # 1/h
    "kp_prod": 0.08,      # g/L
    "ki_prod": 10.0,      # g/L, sugar repression of production
    "k_hydrolysis": 0.0008,  # 1/h
}


def demo_monod_kinetics(state, p: dict) -> PenRates:
    """Monod-type demo closure; production is repressed at high sugar."""
    a0, a1, a3, _a4, pen, s, _v = state
    s = max(float(s), 0.0)
    mu = s / (p["ks"] + s)
    starve = p["ks"] / (p["ks"] + s)
    return PenRates(
        r_b=p["k_branch"] * a1 * mu,
        r_diff=p["k_diff"] * a0 * starve,
        r_e=p["k_extend"] * a0 * mu,
        r_deg=p["k_degen"] * a1 * starve,
        r_a=p["k_autolysis"] * a3,
        r_p=p["k_prod"] * a0 * (s / (p["kp_prod"] + s)) * (p["ki_prod"] / (p["ki_prod"] + s)),
        r_h=p["k_hydrolysis"] * pen,
        r_m=a0 * (s / (p["km"] + s)),
    )


def _fused_demo_monod_deriv(kin: dict, feeds, evp_rate, y_sx, y_sp, m_s, literal_a1):
    """Demo kinetics and balances fused into one closure with local constants.

    Semantically identical to composing ``demo_monod_kinetics`` with
    ``pensim_rhs`` (pinned by a test); exists because a full batch runs
    34500 integrator substeps and the composed path pays for it.
    """
    ks, km = kin["ks"], kin["km"]
    k_b, k_e, k_diff = kin["k_branch"], kin["k_extend"], kin["k_diff"]
    k_deg, k_a = kin["k_degen"], kin["k_autolysis"]
    k_p, kp_p, ki_p = kin["k_prod"], kin["kp_prod"], kin["ki_prod"]
    k_h = kin["k_hydrolysis"]
    c_s, c_oil = feeds

    def deriv(x, a):
        a0, a1, a3, a4, p, s, v = x
        if v <= 1e-6:
            raise DegenerateVolumeError(f"fermenter volume {v:.3e} L below floor")
        f_s, f_oil, f_paa, f_ab, f_w, f_dis = a
        f_in = f_s + f_oil + f_paa + f_ab + f_w
        sp = s if s > 0.0 else 0.0
        mu = sp / (ks + sp)
        starve = ks / (ks + sp)
        r_b = k_b * a1 * mu
        r_diff = k_diff * a0 * starve
        r_e = k_e * a0 * mu
        r_deg = k_deg * a1 * starve
        r_a = k_a * a3
        r_p = k_p * a0 * (sp / (kp_p + sp)) * (ki_p / (ki_p + sp))
        r_h = k_h * p
        r_m = a0 * (sp / (km + sp))
        out_frac = f_in / v
        if literal_a1:
            da1 = r_e - r_b + r_diff - r_deg * out_frac * a1
        else:
            da1 = r_e - r_b + r_diff - r_deg - out_frac * a1
        return (
            r_b - r_diff - out_frac * a0,
            da1,
            r_deg - r_a - out_frac * a3,
            r_a - out_frac * a4,
            r_p - r_h - out_frac * p,
            -y_sx * r_e - y_sx * r_b - m_s * r_m - y_sp * r_p
            + f_s * c_s / v + f_oil * c_oil / v,
            f_in - evp_rate * v - f_dis,
        )

    return deriv


PENSIM_KINETICS = {"demo_monod": demo_monod_kinetics}
PENSIM_FUSED_DERIVS = {"demo_monod": _fused_demo_monod_deriv}

DEFAULT_CONFIG: dict = {
    "kinetics": "demo_monod",
    "kinetics_params": {},
    "max_steps": 1150,
    "error_reward": -100.0,
    "step_hours": 1.0,
    "n_substeps": 30,
    "action_low": [0.0] * N_ACTIONS,
    # five feeds capped lower than the discharge so sustainable profiles are
    # reachable; the vessel still overflows under sustained full feeding
    "action_high": [0.2, 0.2, 0.2, 0.2, 0.2, 0.5],  # L/h
    "feed_sugar": 500.0,   # g/L
    "feed_oil": 1000.0,    # g/L
    "evaporation_rate": 2.0e-4,  # 1/h, F_evp = rate * V
    "y_sx": 1.85,
    "y_sp": 0.9,
    "m_s": 0.01,
    "smoothness_penalty": 0.01,
    "literal_a1_outflow": False,
    "initial_state": [1.0, 0.2, 0.0, 0.0, 0.0, 5.0, 100.0],
    "init_rel": 0.1,       # +-10% on A0, s; +-5% on V
    "state_low": [0.0, 0.0, 0.0, 0.0, 0.0, -0.01, 30.0],
    "state_high": [80.0, 80.0, 80.0, 80.0, 80.0, 80.0, 300.0],
}


class PenSimEnv(ProcessEnv):
    """Observation: the 7 states, total biomass, and normalized time (dim 9)."""

    name = "pensim"

    def __init__(self, config: dict | None = None):
        cfg = deep_merge(DEFAULT_CONFIG, config)
        self.kinetics_params = {**DEMO_KINETICS, **cfg["kinetics_params"]}
        self._kinetics = PENSIM_KINETICS[cfg["kinetics"]]
        self.step_hours = require_positive("step_hours", float(cfg["step_hours"]))
        self.n_substeps = require_positive("n_substeps", int(cfg["n_substeps"]))
        self.feeds = (float(cfg["feed_sugar"]), float(cfg["feed_oil"]))
        self.evaporation_rate = float(cfg["evaporation_rate"])
        self.y_sx = float(cfg["y_sx"])
        self.y_sp = float(cfg["y_sp"])
        self.m_s = float(cfg["m_s"])
        self.smoothness = float(cfg["smoothness_penalty"])
        self.literal_a1_outflow = bool(cfg["literal_a1_outflow"])
        self.x0 = np.asarray(cfg["initial_state"], dtype=float)
        self.init_rel = float(cfg["init_rel"])

        state_box = ContinuousSpace(
            np.asarray(cfg["state_low"], float), np.asarray(cfg["state_high"], float)
        )
        obs_low = np.concatenate([state_box.low, [0.0, 0.0]])
        obs_high = np.concatenate(
            [state_box.high, [4.0 * state_box.high[0], 1.0]]
        )
        super().__init__(
            max_steps=cfg["max_steps"],
            error_reward=cfg["error_reward"],
            action_space=ContinuousSpace(
                np.asarray(cfg["action_low"], float),
                np.asarray(cfg["action_high"], float),
            ),
            observation_space=ContinuousSpace(obs_low, obs_high),
            state_box=state_box,
            state_box_tol=1e-9,
        )
        self._prev_action: np.ndarray | None = None
        self.system = OdeSystem(
            dim=N_STATES,
            rhs=lambda t, x, u: np.asarray(self.rhs_tuple(tuple(x), tuple(u)), float),
        )
        fused = PENSIM_FUSED_DERIVS.get(cfg["kinetics"])
        if fused is not None:
            self._deriv = fused(
                self.kinetics_params,
                self.feeds,
                self.evaporation_rate,
                self.y_sx,
                self.y_sp,
                self.m_s,
                self.literal_a1_outflow,
            )
        else:
            self._deriv = self.rhs_tuple

    # -- model pieces ------------------------------------------------------

    def rates(self, state) -> PenRates:
        return self._kinetics(state, self.kinetics_params)

    def rhs_tuple(self, state, action):
        f_evp = self.evaporation_rate * state[6]
        return pensim_rhs(
            state,
            self.rates(state),
            action,
            self.feeds,
            f_evp,
            self.y_sx,
            self.y_sp,
            self.m_s,
            self.literal_a1_outflow,
        )

    # -- episode hooks -----------------------------------------------------

    def _draw_initial_state(self, rng: np.random.Generator) -> np.ndarray:
        self._prev_action = None
        state = self.x0.copy()
        state[0] *= 1.0 + rng.uniform(-self.init_rel, self.init_rel)
        state[5] *= 1.0 + rng.uniform(-self.init_rel, self.init_rel)
        state[6] *= 1.0 + rng.uniform(-self.init_rel / 2.0, self.init_rel / 2.0)
        return state

    def _advance(self, state, action):
        # Plain-float unrolled RK4: a 1150-step batch runs 34500 substeps,
        # so this loop avoids numpy's small-array overhead.  Equivalence
        # with the kernel integrator is pinned by a test.
        x = tuple(float(v) for v in state)
        a = tuple(float(v) for v in action)
        h = self.step_hours / self.n_substeps
        sixth = h / 6.0
        half = h / 2.0
        deriv = self._deriv
        for _ in range(self.n_substeps):
            x0, x1, x2, x3, x4, x5, x6 = x
            b0, b1, b2, b3, b4, b5, b6 = k1 = deriv(x, a)
            y = (x0 + half * b0, x1 + half * b1, x2 + half * b2,
                 x3 + half * b3, x4 + half * b4, x5 + half * b5, x6 + half * b6)
            c0, c1, c2, c3, c4, c5, c6 = k2 = deriv(y, a)
            y = (x0 + half * c0, x1 + half * c1, x2 + half * c2,
                 x3 + half * c3, x4 + half * c4, x5 + half * c5, x6 + half * c6)
            d0, d1, d2, d3, d4, d5, d6 = k3 = deriv(y, a)
            y = (x0 + h * d0, x1 + h * d1, x2 + h * d2,
                 x3 + h * d3, x4 + h * d4, x5 + h * d5, x6 + h * d6)
            e0, e1, e2, e3, e4, e5, e6 = deriv(y, a)
            x = (
                x0 + sixth * (b0 + 2.0 * c0 + 2.0 * d0 + e0),
                x1 + sixth * (b1 + 2.0 * c1 + 2.0 * d1 + e1),
                x2 + sixth * (b2 + 2.0 * c2 + 2.0 * d2 + e2),
                x3 + sixth * (b3 + 2.0 * c3 + 2.0 * d3 + e3),
                x4 + sixth * (b4 + 2.0 * c4 + 2.0 * d4 + e4),
                x5 + sixth * (b5 + 2.0 * c5 + 2.0 * d5 + e5),
                x6 + sixth * (b6 + 2.0 * c6 + 2.0 * d6 + e6),
            )
        # non-finite values, if any, propagate to the state validity check
        return np.asarray(x, dtype=float)

    def _observe(self, state):
        state = np.asarray(state, dtype=float)
        total_biomass = float(state[0] + state[1] + state[2] + state[3])
        return np.concatenate(
            [state, [total_biomass, self._step_count / self.max_steps]]
        )

    def _reward(self, prev_state, action, state):
        prev_action = self._prev_action if self._prev_action is not None else action
        reward = pensim_reward(
            prev_state[4] * prev_state[6] * 1e-3,
            state[4] * state[6] * 1e-3,
            action,
            prev_action,
            self.smoothness,
        )
        self._prev_action = np.asarray(action, float).copy()
        return reward, False

    def reward_floor(self) -> float:
        """Worst per-step reward over the state/action boxes.

        d(P*V)/dt = V*r_p - V*r_h - P*(F_evp + F_dis): the feed dilution
        terms cancel, so the worst drop over one step is bounded by the
        hydrolysis, evaporation and discharge maxima.
        """
        p_max = self.state_box.high[4]
        v_max = self.state_box.high[6]
        k_h = self.kinetics_params["k_hydrolysis"]
        f_dis_max = self.action_space.high[5]
        drop = (
            k_h * p_max * v_max
            + p_max * (self.evaporation_rate * v_max + f_dis_max)
        ) * self.step_hours * 1e-3
        span = self.action_space.high - self.action_space.low
        return -(drop + self.smoothness * float(np.sum(span**2)))
