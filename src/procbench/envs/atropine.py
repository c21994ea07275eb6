"""Continuous-flow atropine production around an identified linear model.

The plant is a discrete-time 2-state deviation model with four inlet flow
rates as inputs and the E-factor (kg waste per kg product) as output.  A
steady-state Kalman filter reconstructs the deviation state from the output,
and the reward is the negative absolute E-factor (less waste per product is
better).  Actions are absolute flows in mL/min; the environment converts
them to deviations from the operating point internally.
"""

from __future__ import annotations

import numpy as np

from ..spaces import ContinuousSpace
from .base import ProcessEnv, deep_merge

# Identified discrete-time deviation model and steady-state filter gain.
A_MATRIX = np.array([[0.8543, -0.1164], [0.0195, 0.8576]])
B_MATRIX = np.array(
    [
        [-0.0382, -0.0547, 0.0103, 0.1290],
        [-0.0051, 0.0072, 0.0020, 0.0078],
    ]
)
C_MATRIX = np.array([[-148.6124, -46.8132]])
K_GAIN = np.array([[-0.0093], [0.0115]])

# Operating point: steady flows (mL/min) and steady E-factor (kg/kg).
Q_STEADY = np.array([0.4078, 0.1089, 0.3888, 0.2126])
Y_STEADY = 13.057
FLOW_BOUNDS = (0.0, 5.0)


class LinearPlantModel:
    """x(k+1) = A x(k) + B u(k),  y(k) = C x(k), with filter gain K."""

    def __init__(self, a=A_MATRIX, b=B_MATRIX, c=C_MATRIX, k=K_GAIN):
        self.a = np.asarray(a, dtype=float)
        self.b = np.asarray(b, dtype=float)
        self.c = np.atleast_2d(np.asarray(c, dtype=float))
        self.k = np.asarray(k, dtype=float).reshape(-1, 1)
        if self.a.shape != (self.a.shape[0], self.a.shape[0]):
            raise ValueError("A must be square")
        n = self.a.shape[0]
        if self.b.shape[0] != n or self.c.shape[1] != n or self.k.shape[0] != n:
            raise ValueError("B/C/K dimensions inconsistent with A")

    @property
    def n_states(self) -> int:
        return self.a.shape[0]

    @property
    def n_inputs(self) -> int:
        return self.b.shape[1]


def lin_step(x: np.ndarray, u: np.ndarray, model: LinearPlantModel | None = None):
    """One step of the deviation model: A x + B u."""
    m = model or _DEFAULT_MODEL
    return m.a @ np.asarray(x, float) + m.b @ np.asarray(u, float)


def lin_output(x: np.ndarray, model: LinearPlantModel | None = None) -> float:
    """E-factor deviation; absolute E-factor is y_ss + lin_output(x)."""
    m = model or _DEFAULT_MODEL
    return float(m.c[0] @ np.asarray(x, float))


def kalman_update(
    x_hat: np.ndarray,
    u: np.ndarray,
    y_meas: float,
    model: LinearPlantModel | None = None,
):
    """Combined predict/correct with the steady-state gain:
    x' = A x_hat + B u + K (y - C x_hat)."""
    m = model or _DEFAULT_MODEL
    x_hat = np.asarray(x_hat, float)
    innovation = float(y_meas) - float(m.c[0] @ x_hat)
    return m.a @ x_hat + m.b @ np.asarray(u, float) + m.k[:, 0] * innovation


def atropine_reward(e_abs: float) -> float:
    return -float(e_abs)


_DEFAULT_MODEL = LinearPlantModel()


DEFAULT_CONFIG: dict = {
    "a": A_MATRIX.tolist(),
    "b": B_MATRIX.tolist(),
    "c": C_MATRIX.tolist(),
    "k": K_GAIN.tolist(),
    "q_steady": Q_STEADY.tolist(),
    "y_steady": Y_STEADY,
    "flow_low": FLOW_BOUNDS[0],
    "flow_high": FLOW_BOUNDS[1],
    "max_steps": 60,
    "error_reward": -100000.0,
    "state_low": [-5.0, -5.0],
    "state_high": [5.0, 5.0],
    "init_low": [-0.05, -0.05],
    "init_high": [0.05, 0.05],
}


class AtropineEnv(ProcessEnv):
    """Deviation-state episodic wrapper around the identified model.

    Observation (8 values): filter state estimate (2), output deviation (1),
    absolute E-factor (1), previous absolute flows (4).
    """

    name = "atropine"

    def __init__(self, config: dict | None = None):
        cfg = deep_merge(DEFAULT_CONFIG, config)
        self.model = LinearPlantModel(cfg["a"], cfg["b"], cfg["c"], cfg["k"])
        self.q_steady = np.asarray(cfg["q_steady"], dtype=float)
        self.y_steady = float(cfg["y_steady"])
        n_u = self.model.n_inputs
        if not np.all(
            (self.q_steady >= cfg["flow_low"]) & (self.q_steady <= cfg["flow_high"])
        ):
            raise ValueError("steady flows must sit inside the flow bounds")

        state_box = ContinuousSpace(
            np.asarray(cfg["state_low"], float), np.asarray(cfg["state_high"], float)
        )
        # output deviation range over the state box (C is a single row)
        y_span = float(np.sum(np.abs(self.model.c) * np.max(np.abs(state_box.high))))
        obs_low = np.concatenate(
            [
                state_box.low,
                [-y_span, self.y_steady - y_span],
                np.full(n_u, cfg["flow_low"]),
            ]
        )
        obs_high = np.concatenate(
            [
                state_box.high,
                [y_span, self.y_steady + y_span],
                np.full(n_u, cfg["flow_high"]),
            ]
        )
        super().__init__(
            max_steps=cfg["max_steps"],
            error_reward=cfg["error_reward"],
            action_space=ContinuousSpace(
                np.full(n_u, cfg["flow_low"]), np.full(n_u, cfg["flow_high"])
            ),
            observation_space=ContinuousSpace(obs_low, obs_high),
            state_box=state_box,
        )
        self.init_box = ContinuousSpace(
            np.asarray(cfg["init_low"], float), np.asarray(cfg["init_high"], float)
        )
        self._x_hat = np.zeros(self.model.n_states)
        self._prev_u_abs = self.q_steady.copy()

    def _draw_initial_state(self, rng: np.random.Generator) -> np.ndarray:
        self._x_hat = np.zeros(self.model.n_states)
        self._prev_u_abs = self.q_steady.copy()
        return self.init_box.sample(rng)

    def _advance(self, state, action):
        u_dev = np.asarray(action, float) - self.q_steady
        new_state = lin_step(state, u_dev, self.model)
        # same-step measurement drives the filter used in the observation
        y_meas = lin_output(new_state, self.model)
        self._x_hat = kalman_update(self._x_hat, u_dev, y_meas, self.model)
        self._prev_u_abs = np.asarray(action, float).copy()
        return new_state

    def _observe(self, state):
        y_dev = lin_output(state, self.model)
        return np.concatenate(
            [self._x_hat, [y_dev, self.y_steady + y_dev], self._prev_u_abs]
        )

    def _reward(self, prev_state, action, state):
        e_abs = self.y_steady + lin_output(state, self.model)
        return atropine_reward(e_abs), False

    def reward_floor(self) -> float:
        worst = np.abs(self.model.c[0]) @ np.maximum(
            np.abs(self.state_box.low), np.abs(self.state_box.high)
        )
        return -(self.y_steady + float(worst))
