"""Batch beer fermentation with temperature as the single control.

Seven component balances: active, latent and dead cells, sugar, ethanol,
diacetyls and ethyl acetate.  The control objective is time-optimal: finish
fermenting (sugar below a target) as early as possible.  Each step while
unfinished costs -1; the completing step pays the number of steps saved.

The temperature-dependent rate values come from ``demo_beer_kinetics``, a
documented demo with simple exponential temperature laws, calibrated so that
warm fermentations finish within the episode and cold ones do not.  It is
not a validated industrial parameter set; every constant can be overridden
through ``kinetics_params``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..kernels import OdeSystem, integrate
from ..spaces import ContinuousSpace
from .base import ProcessEnv, deep_merge, require_positive

STATE_NAMES = ("x_active", "x_latent", "x_dead", "sugar", "ethanol",
               "diacetyl", "ethyl_acetate")


@dataclass(frozen=True)
class BeerRates:
    """Rate bundle consumed by the component balances.

    Sign conventions: ``mu_s <= 0`` (sugar consumption), ``mu_eth >= 0``
    (ethanol production, already including the inhibition factor f).
    """

    mu_x: float       # active-cell growth, 1/h
    mu_dt: float      # active-cell death, 1/h
    mu_l: float       # latent-cell activation, 1/h
    mu_sd: float      # dead-cell settling term coefficient, 1/h
    mu_s: float       # specific sugar uptake, g/(g h), <= 0
    mu_eth: float     # specific ethanol production incl. inhibition, g/(g h)
    mu_dy: float      # diacetyl formation coefficient, L/(g h)
    mu_ab: float      # diacetyl reduction coefficient, L/(g h)
    y_ea: float       # ethyl acetate yield on growth, g/g


def beer_rhs(state, rates: BeerRates) -> np.ndarray:
    """Component balances for (X_A, X_L, X_D, S, EtOH, DY, EA)."""
    x_a, x_l, x_d, s, etoh, dy, _ea = np.asarray(state, dtype=float)
    return np.array(
        [
            rates.mu_x * x_a - rates.mu_dt * x_a + rates.mu_l * x_l,
            -rates.mu_l * x_l,
            rates.mu_sd * x_d + rates.mu_dt * x_a,
            rates.mu_s * x_a,
            rates.mu_eth * x_a,
            rates.mu_dy * s * x_a - rates.mu_ab * dy * etoh,
            rates.y_ea * rates.mu_x * x_a,
        ]
    )


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


def demo_beer_kinetics(state, temperature: float, p: dict) -> BeerRates:
    """Exponential-in-temperature demo closure (not a validated data set)."""
    _x_a, _x_l, _x_d, s, etoh, _dy, _ea = state
    s = max(float(s), 0.0)
    dt_rel = temperature - p["t_ref"]
    uptake = (
        p["k_sugar"] * np.exp(p["a_sugar"] * dt_rel) * s / (p["ks_sugar"] + s)
    )
    inhibition = 1.0 / (1.0 + max(float(etoh), 0.0) / p["ethanol_inhibition"])
    return BeerRates(
        mu_x=p["k_growth"] * np.exp(p["a_growth"] * dt_rel) * s / (p["ks_growth"] + s),
        mu_dt=p["k_death"] * np.exp(p["a_death"] * dt_rel),
        mu_l=p["k_lag"] * np.exp(p["a_lag"] * dt_rel),
        mu_sd=p["k_settle"],
        mu_s=-uptake,
        mu_eth=p["ethanol_yield"] * uptake * inhibition,
        mu_dy=p["k_dy"] * np.exp(p["a_dy"] * dt_rel),
        mu_ab=p["k_ab"] * np.exp(p["a_ab"] * dt_rel),
        y_ea=p["y_ea"],
    )


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
            dim=len(STATE_NAMES),
            rhs=lambda t, x, u: beer_rhs(x, self.rates(x, float(u[0]))),
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

    def rates(self, state, temperature: float) -> BeerRates:
        return demo_beer_kinetics(state, temperature, self.kinetics_params)

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
