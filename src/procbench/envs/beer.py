"""Batch beer fermentation with temperature as the single control.

Seven component balances: active, latent and dead cells, sugar, ethanol,
diacetyls and ethyl acetate.  The control objective is time-optimal: finish
fermenting (sugar below a target) as early as possible.  Each step while
unfinished costs -1; the completing step pays the number of steps saved.

The model is written once, in ``beer_deriv``: demo rate laws, exponential
in temperature and calibrated so that warm fermentations finish within the
episode and cold ones do not, feeding the seven balances.  The rate laws are
not a validated industrial parameter set; every constant of
``DEMO_KINETICS`` can be overridden through ``kinetics_params``, and is
bound into the model when the env is built.
"""

from __future__ import annotations

import numpy as np

from ..kernels import OdeSystem, integrate
from ..spaces import ContinuousSpace
from .base import ProcessEnv, deep_merge, require_positive

STATE_NAMES = ("x_active", "x_latent", "x_dead", "sugar", "ethanol",
               "diacetyl", "ethyl_acetate")


def beer_reward(
    sugar: float, s_target: float, step_index: int, max_steps: int
) -> tuple[float, bool]:
    """-1 per unfinished step; finishing pays the steps saved."""
    if sugar <= s_target:
        return float(max_steps - step_index), True
    return -1.0, False


DEMO_KINETICS: dict = {
    "t_ref": 12.5,        # degC, centre of the allowed band
    "k_lag": 0.09,        # 1/h latent activation at t_ref
    "a_lag": 0.18,
    "k_growth": 0.028,    # 1/h at t_ref
    "a_growth": 0.22,
    "k_sugar": 0.32,      # g/(g h) at t_ref
    "a_sugar": 0.22,
    "ks_growth": 25.0,    # g/L
    "ks_sugar": 12.0,     # g/L
    "k_death": 4.0e-4,    # 1/h
    "a_death": 0.10,
    "k_settle": 1.0e-4,   # 1/h
    "ethanol_yield": 0.42,  # g EtOH per g sugar
    "ethanol_inhibition": 90.0,  # g/L
    "k_dy": 1.6e-5,
    "a_dy": 0.10,
    "k_ab": 6.0e-5,
    "a_ab": 0.10,
    "y_ea": 0.02,
}


def beer_deriv(kin: dict):
    """The beer model: ``deriv(t, x, u)``, the ``OdeSystem`` right-hand side
    over the state array (X_A, X_L, X_D, S, EtOH, DY, EA) at the temperature
    ``u[0]``.

    ``kin`` holds the ``DEMO_KINETICS`` constants of the exponential-in-
    temperature rate laws, which read sugar and ethanol clamped at zero; the
    component balances read the raw state.  The constants are bound once, as
    closure locals, because one control step takes 40 evaluations.  The
    rates use ``np.exp``: ``math.exp`` rounds some inputs differently, which
    would change recorded datasets.
    """
    t_ref = kin["t_ref"]
    k_lag, a_lag = kin["k_lag"], kin["a_lag"]
    k_growth, a_growth, ks_growth = kin["k_growth"], kin["a_growth"], kin["ks_growth"]
    k_sugar, a_sugar, ks_sugar = kin["k_sugar"], kin["a_sugar"], kin["ks_sugar"]
    k_death, a_death, k_settle = kin["k_death"], kin["a_death"], kin["k_settle"]
    eth_yield, eth_inhibition = kin["ethanol_yield"], kin["ethanol_inhibition"]
    k_dy, a_dy, k_ab, a_ab = kin["k_dy"], kin["a_dy"], kin["k_ab"], kin["a_ab"]
    y_ea = kin["y_ea"]

    def deriv(t, x, u):
        x_a, x_l, x_d, s, etoh, dy, _ea = x.tolist()
        sp = max(s, 0.0)
        dt_rel = float(u[0]) - t_ref
        uptake = k_sugar * np.exp(a_sugar * dt_rel) * sp / (ks_sugar + sp)
        inhibition = 1.0 / (1.0 + max(etoh, 0.0) / eth_inhibition)
        mu_x = k_growth * np.exp(a_growth * dt_rel) * sp / (ks_growth + sp)
        mu_dt = k_death * np.exp(a_death * dt_rel)
        mu_l = k_lag * np.exp(a_lag * dt_rel)
        mu_dy = k_dy * np.exp(a_dy * dt_rel)
        mu_ab = k_ab * np.exp(a_ab * dt_rel)
        return np.array(
            [
                mu_x * x_a - mu_dt * x_a + mu_l * x_l,
                -mu_l * x_l,
                k_settle * x_d + mu_dt * x_a,
                -uptake * x_a,
                eth_yield * uptake * inhibition * x_a,
                mu_dy * s * x_a - mu_ab * dy * etoh,
                y_ea * mu_x * x_a,
            ]
        )

    return deriv


DEFAULT_CONFIG: dict = {
    "kinetics_params": {},  # overrides of DEMO_KINETICS
    "max_steps": 200,
    "error_reward": -200.0,
    "step_hours": 1.0,
    "n_substeps": 10,
    "temp_low": 9.0,
    "temp_high": 16.0,
    "s_target": 0.5,       # g/L residual sugar counting as finished
    "initial_state": [0.3, 1.8, 0.0, 130.0, 0.0, 0.0, 0.0],
    "init_jitter_rel": 0.02,  # seeded +-2% on X_L and S
    "state_low": [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    "state_high": [20.0, 20.0, 20.0, 200.0, 120.0, 5.0, 5.0],
}


class BeerEnv(ProcessEnv):
    """Observation: 7 concentrations plus normalized elapsed time (dim 8)."""

    name = "beer"

    def __init__(self, config: dict | None = None):
        cfg = deep_merge(DEFAULT_CONFIG, config)
        self.kinetics_params = deep_merge(DEMO_KINETICS, cfg["kinetics_params"])
        self.step_hours = require_positive("step_hours", float(cfg["step_hours"]))
        self.n_substeps = require_positive("n_substeps", int(cfg["n_substeps"]))
        self.s_target = float(cfg["s_target"])
        self.x0 = np.asarray(cfg["initial_state"], dtype=float)
        self.init_jitter_rel = float(cfg["init_jitter_rel"])
        self.system = OdeSystem(
            dim=len(STATE_NAMES), rhs=beer_deriv(self.kinetics_params)
        )

        state_box = ContinuousSpace(
            np.asarray(cfg["state_low"], float), np.asarray(cfg["state_high"], float)
        )
        obs_low = np.concatenate([state_box.low, [0.0]])
        obs_high = np.concatenate([state_box.high, [1.0]])
        super().__init__(
            max_steps=cfg["max_steps"],
            error_reward=cfg["error_reward"],
            action_space=ContinuousSpace(
                np.array([cfg["temp_low"]]), np.array([cfg["temp_high"]])
            ),
            observation_space=ContinuousSpace(obs_low, obs_high),
            state_box=state_box,
            state_box_tol=1e-9,
        )

    def _draw_initial_state(self, rng: np.random.Generator) -> np.ndarray:
        state = self.x0.copy()
        jitter = rng.uniform(-self.init_jitter_rel, self.init_jitter_rel, size=2)
        state[1] *= 1.0 + jitter[0]  # latent cells
        state[3] *= 1.0 + jitter[1]  # sugar
        return state

    def _advance(self, state, action):
        h = self.step_hours / self.n_substeps
        return integrate(self.system, 0.0, state, action, self.step_hours, h)

    def _observe(self, state):
        t_norm = self._step_count / self.max_steps
        return np.concatenate([np.asarray(state, float), [t_norm]])

    def _reward(self, prev_state, action, state):
        return beer_reward(
            float(state[3]), self.s_target, self._step_count + 1, self.max_steps
        )

    def reward_floor(self) -> float:
        return -1.0  # completion bonus is nonnegative, all other steps pay -1
