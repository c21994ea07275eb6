"""Fed-batch penicillin fermentation.

Biomass is split into four regions -- growing (A0), non-growing (A1),
degenerated (A3) and autolysed (A4) -- with product, substrate and volume
balances on top, written once in ``pensim_deriv``.  The rate laws feeding
the balances are a self-consistent Monod-type demo set, every constant of
which (``DEMO_KINETICS``) can be overridden through ``kinetics_params``; it
is not a calibrated industrial model, since validated rate parameters live
outside this package.

Each control interval is integrated by the Dormand-Prince 5(4) pair of
``kernels`` with PI step-size control (relative tolerance ``rtol``,
absolute ``1e-3 * rtol``), unrolled in plain floats over the seven states.
A step whose error estimate turns non-finite or whose step size collapses
fails through the env contract.

Reward per step is the penicillin mass gained (kg of P*V) minus a quadratic
action-smoothness penalty, so a batch's return telescopes to its net yield
minus the roughness of its feeding profile.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import DegenerateVolumeError, NonFiniteStateError, StiffnessError
from ..kernels import DOPRI_A, DOPRI_B, DOPRI_E, pi_step_factor
from ..spaces import ContinuousSpace
from .base import ProcessEnv, deep_merge, require_positive

N_STATES = 7
N_ACTIONS = 6

# Step control of ``PenSimEnv._advance``: the absolute tolerance is this
# multiple of ``rtol``, and a step size below ``H_MIN_FRACTION * step_hours``
# fails the step.
ATOL_PER_RTOL = 1e-3
H_MIN_FRACTION = 1e-10

STATE_NAMES = ("a0_growing", "a1_nongrowing", "a3_degenerated", "a4_autolysed",
               "product", "substrate", "volume")
ACTION_NAMES = ("f_sugar", "f_oil", "f_paa", "f_acid_base", "f_water", "f_discharge")


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


def pensim_deriv(kin: dict, feeds, evp_rate, y_sx, y_sp, m_s):
    """The pensim model: ``deriv(state, action)`` over plain-float tuples.

    ``kin`` holds the constants of the ``DEMO_KINETICS`` rate laws, which
    feed the region/product/substrate/volume balances; ``feeds`` are the
    sugar and oil feed concentrations (g/L) and ``evp_rate * V`` is the
    evaporation flow.  The rate laws read the substrate clamped at zero, and
    a volume at or below 1e-6 L raises ``DegenerateVolumeError``.  The
    constants are bound once, as closure locals, because a full batch takes
    about 30000 evaluations.

    Degeneration is a sink of A1 of its own.  A published variant multiplies
    the A1 washout term by the degeneration rate instead; that product is
    not dimensionally a rate, so the code takes the consistent reading.
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
        return (
            r_b - r_diff - out_frac * a0,
            r_e - r_b + r_diff - r_deg - out_frac * a1,
            r_deg - r_a - out_frac * a3,
            r_a - out_frac * a4,
            r_p - r_h - out_frac * p,
            -y_sx * r_e - y_sx * r_b - m_s * r_m - y_sp * r_p
            + f_s * c_s / v + f_oil * c_oil / v,
            f_in - evp_rate * v - f_dis,
        )

    return deriv


DEFAULT_CONFIG: dict = {
    "kinetics_params": {},  # overrides of DEMO_KINETICS
    "max_steps": 1150,
    "error_reward": -100.0,
    "step_hours": 1.0,
    "rtol": 1e-8,  # relative error tolerance of the Dormand-Prince step
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
        self.kinetics_params = deep_merge(DEMO_KINETICS, cfg["kinetics_params"])
        self.step_hours = require_positive("step_hours", float(cfg["step_hours"]))
        self.rtol = require_positive("rtol", float(cfg["rtol"]))
        self.feeds = (float(cfg["feed_sugar"]), float(cfg["feed_oil"]))
        self.evaporation_rate = float(cfg["evaporation_rate"])
        self.y_sx = float(cfg["y_sx"])
        self.y_sp = float(cfg["y_sp"])
        self.m_s = float(cfg["m_s"])
        self.smoothness = float(cfg["smoothness_penalty"])
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
        self._deriv = pensim_deriv(
            self.kinetics_params,
            self.feeds,
            self.evaporation_rate,
            self.y_sx,
            self.y_sp,
            self.m_s,
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
        """Integrate one control interval by Dormand-Prince 5(4).

        The step size follows the PI controller of ``kernels.pi_step_factor``
        on the RMS error over ``atol + rtol * |x|`` (``atol`` is
        ``ATOL_PER_RTOL * rtol``, in state units).  The seventh stage of an
        accepted step is the next step's first (first same as last).  The
        loop runs on plain floats, unrolled over the seven states, because
        numpy's small-array overhead would dominate it.

        A pure function of (state, action): every call starts from
        ``h = step_hours / 4`` and carries nothing to the next call.  A
        non-finite error estimate raises ``NonFiniteStateError``, and ``h``
        below ``H_MIN_FRACTION * step_hours`` raises ``StiffnessError``, so
        the step fails through the env contract instead of looping.
        """
        x = tuple(float(v) for v in state)
        a = tuple(float(v) for v in action)
        deriv = self._deriv
        (
            (a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54),
            (a61, a62, a63, a64, a65), _,
        ) = DOPRI_A
        b1, _, b3, b4, b5, b6, _ = DOPRI_B
        e1, _, e3, e4, e5, e6, e7 = DOPRI_E
        rtol = self.rtol
        atol = ATOL_PER_RTOL * rtol
        t_end = self.step_hours
        h_min = H_MIN_FRACTION * t_end
        h = 0.25 * t_end
        t = 0.0
        err_prev = 0.0
        rejected = False
        # stage derivatives k1..k7 are p, q, r, s, u, w, z
        p0, p1, p2, p3, p4, p5, p6 = deriv(x, a)
        while True:
            x0, x1, x2, x3, x4, x5, x6 = x
            # stretch a step by up to 1% rather than leave a sliver to t_end
            last = t + 1.01 * h >= t_end
            if last:
                h = t_end - t
            c1 = h * a21
            q0, q1, q2, q3, q4, q5, q6 = deriv((
                x0 + c1 * p0,
                x1 + c1 * p1,
                x2 + c1 * p2,
                x3 + c1 * p3,
                x4 + c1 * p4,
                x5 + c1 * p5,
                x6 + c1 * p6,
            ), a)
            c1, c2 = h * a31, h * a32
            r0, r1, r2, r3, r4, r5, r6 = deriv((
                x0 + c1 * p0 + c2 * q0,
                x1 + c1 * p1 + c2 * q1,
                x2 + c1 * p2 + c2 * q2,
                x3 + c1 * p3 + c2 * q3,
                x4 + c1 * p4 + c2 * q4,
                x5 + c1 * p5 + c2 * q5,
                x6 + c1 * p6 + c2 * q6,
            ), a)
            c1, c2, c3 = h * a41, h * a42, h * a43
            s0, s1, s2, s3, s4, s5, s6 = deriv((
                x0 + c1 * p0 + c2 * q0 + c3 * r0,
                x1 + c1 * p1 + c2 * q1 + c3 * r1,
                x2 + c1 * p2 + c2 * q2 + c3 * r2,
                x3 + c1 * p3 + c2 * q3 + c3 * r3,
                x4 + c1 * p4 + c2 * q4 + c3 * r4,
                x5 + c1 * p5 + c2 * q5 + c3 * r5,
                x6 + c1 * p6 + c2 * q6 + c3 * r6,
            ), a)
            c1, c2, c3, c4 = h * a51, h * a52, h * a53, h * a54
            u0, u1, u2, u3, u4, u5, u6 = deriv((
                x0 + c1 * p0 + c2 * q0 + c3 * r0 + c4 * s0,
                x1 + c1 * p1 + c2 * q1 + c3 * r1 + c4 * s1,
                x2 + c1 * p2 + c2 * q2 + c3 * r2 + c4 * s2,
                x3 + c1 * p3 + c2 * q3 + c3 * r3 + c4 * s3,
                x4 + c1 * p4 + c2 * q4 + c3 * r4 + c4 * s4,
                x5 + c1 * p5 + c2 * q5 + c3 * r5 + c4 * s5,
                x6 + c1 * p6 + c2 * q6 + c3 * r6 + c4 * s6,
            ), a)
            c1, c2, c3, c4, c5 = h * a61, h * a62, h * a63, h * a64, h * a65
            w0, w1, w2, w3, w4, w5, w6 = deriv((
                x0 + c1 * p0 + c2 * q0 + c3 * r0 + c4 * s0 + c5 * u0,
                x1 + c1 * p1 + c2 * q1 + c3 * r1 + c4 * s1 + c5 * u1,
                x2 + c1 * p2 + c2 * q2 + c3 * r2 + c4 * s2 + c5 * u2,
                x3 + c1 * p3 + c2 * q3 + c3 * r3 + c4 * s3 + c5 * u3,
                x4 + c1 * p4 + c2 * q4 + c3 * r4 + c4 * s4 + c5 * u4,
                x5 + c1 * p5 + c2 * q5 + c3 * r5 + c4 * s5 + c5 * u5,
                x6 + c1 * p6 + c2 * q6 + c3 * r6 + c4 * s6 + c5 * u6,
            ), a)
            c1, c3, c4, c5, c6 = h * b1, h * b3, h * b4, h * b5, h * b6
            y = (
                x0 + c1 * p0 + c3 * r0 + c4 * s0 + c5 * u0 + c6 * w0,
                x1 + c1 * p1 + c3 * r1 + c4 * s1 + c5 * u1 + c6 * w1,
                x2 + c1 * p2 + c3 * r2 + c4 * s2 + c5 * u2 + c6 * w2,
                x3 + c1 * p3 + c3 * r3 + c4 * s3 + c5 * u3 + c6 * w3,
                x4 + c1 * p4 + c3 * r4 + c4 * s4 + c5 * u4 + c6 * w4,
                x5 + c1 * p5 + c3 * r5 + c4 * s5 + c5 * u5 + c6 * w5,
                x6 + c1 * p6 + c3 * r6 + c4 * s6 + c5 * u6 + c6 * w6,
            )
            z0, z1, z2, z3, z4, z5, z6 = deriv(y, a)
            y0, y1, y2, y3, y4, y5, y6 = y
            c1, c3, c4, c5, c6, c7 = h * e1, h * e3, h * e4, h * e5, h * e6, h * e7
            d0 = ((c1 * p0 + c3 * r0 + c4 * s0 + c5 * u0 + c6 * w0 + c7 * z0)
                  / (atol + rtol * max(abs(x0), abs(y0))))
            d1 = ((c1 * p1 + c3 * r1 + c4 * s1 + c5 * u1 + c6 * w1 + c7 * z1)
                  / (atol + rtol * max(abs(x1), abs(y1))))
            d2 = ((c1 * p2 + c3 * r2 + c4 * s2 + c5 * u2 + c6 * w2 + c7 * z2)
                  / (atol + rtol * max(abs(x2), abs(y2))))
            d3 = ((c1 * p3 + c3 * r3 + c4 * s3 + c5 * u3 + c6 * w3 + c7 * z3)
                  / (atol + rtol * max(abs(x3), abs(y3))))
            d4 = ((c1 * p4 + c3 * r4 + c4 * s4 + c5 * u4 + c6 * w4 + c7 * z4)
                  / (atol + rtol * max(abs(x4), abs(y4))))
            d5 = ((c1 * p5 + c3 * r5 + c4 * s5 + c5 * u5 + c6 * w5 + c7 * z5)
                  / (atol + rtol * max(abs(x5), abs(y5))))
            d6 = ((c1 * p6 + c3 * r6 + c4 * s6 + c5 * u6 + c6 * w6 + c7 * z6)
                  / (atol + rtol * max(abs(x6), abs(y6))))
            err = math.sqrt((
                d0 * d0 + d1 * d1 + d2 * d2 + d3 * d3 + d4 * d4 + d5 * d5 + d6 * d6
            ) / N_STATES)
            if not math.isfinite(err):
                raise NonFiniteStateError(f"pensim error estimate is {err} at t={t:.6g} h")
            if err <= 1.0:
                t += h
                x = y
                p0, p1, p2, p3, p4, p5, p6 = z0, z1, z2, z3, z4, z5, z6
                if last:
                    return np.asarray(x, dtype=float)
                factor = pi_step_factor(err, err_prev)
                if rejected and factor > 1.0:
                    factor = 1.0  # no growth right after a rejection
                err_prev = err
                rejected = False
            else:
                factor = pi_step_factor(err, err_prev)
                rejected = True
            h *= factor
            if h < h_min:
                raise StiffnessError(
                    f"pensim step size {h:.3e} h fell below {h_min:.3e} h"
                )

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
