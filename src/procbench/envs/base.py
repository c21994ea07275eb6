"""Episodic environment contract shared by every simulated plant.

An episode runs for at most ``max_steps`` control intervals.  A step fails --
and the episode terminates with ``error_reward`` -- when the action leaves
the action box, the dynamics report a simulation error, or the resulting
state is non-finite or outside the state box.  Checks happen in exactly that
order so failure attribution is deterministic.  Reaching ``max_steps``
without failure is a timeout, which keeps its accumulated rewards (a timeout
is not a failure).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, fields, replace
from typing import Any

import numpy as np

from ..errors import EpisodeFinishedError, SimulationError
from ..spaces import ContinuousSpace


@dataclass
class StepResult:
    observation: np.ndarray
    reward: float
    terminal: bool
    timeout: bool
    failure: bool


def validate_episode_config(error_reward: float, max_steps: int, r_min: float) -> bool:
    """True iff the failure reward is at least as punishing as the worst
    full-length episode: ``error_reward <= r_min * max_steps``."""
    return bool(error_reward <= float(r_min) * max_steps)


def deep_merge(base: dict, override: dict | None) -> dict:
    """Recursively merge ``override`` into a deep copy of ``base``.

    Keys absent from ``base`` raise ``KeyError``, except below a default
    that is an empty dict: such a sub-config overrides defaults held outside
    the config (a kinetics dict or a parameter dataclass), and the env that
    applies it rejects its unknown keys through ``deep_merge`` or
    ``replace_fields``.  A key whose default is a dict takes only a dict;
    any other value raises ``ValueError`` naming the key.
    """
    merged = copy.deepcopy(base)
    for key, value in (override or {}).items():
        if key not in merged:
            raise KeyError(f"unknown config key: {key!r}")
        if isinstance(merged[key], dict):
            if not isinstance(value, dict):
                raise ValueError(f"config key {key!r} must be an object, got {value!r}")
            if merged[key]:
                value = deep_merge(merged[key], value)
        merged[key] = value
    return merged


def replace_fields(section: str, params, overrides: dict):
    """``dataclasses.replace(params, **overrides)``; a key that names no
    field of ``params`` raises ``KeyError`` naming it and ``section``, the
    sub-config it came from."""
    known = {f.name for f in fields(params)}
    for key in overrides:
        if key not in known:
            raise KeyError(f"unknown config key: {key!r} under {section!r}")
    return replace(params, **overrides)


def require_positive(key: str, value):
    """``value`` itself when it is positive (NaN is not); otherwise a
    ``ValueError`` naming the config key.  Guards step lengths, substep
    counts and tolerances, where zero divides by zero or never finishes a
    step and a negative value freezes the plant."""
    if not value > 0:
        raise ValueError(f"config key {key!r} must be positive, got {value}")
    return value


class ProcessEnv:
    """Base class implementing the episode semantics.

    Subclasses provide the physics through four hooks:

    - ``_advance(state, action)``: integrate one control interval, raising a
      ``SimulationError`` subclass when the model leaves its validity domain;
    - ``_observe(state)``: map the internal state to an observation vector;
    - ``_reward(prev_state, action, state)``: per-step reward, plus a flag
      marking successful early termination (e.g. a finished batch);
    - ``_draw_initial_state(rng)``: seeded initial condition.

    One instance owns one mutable episode; independent instances may run on
    separate workers.
    """

    name: str = "base"

    def __init__(
        self,
        max_steps: int,
        error_reward: float,
        action_space: ContinuousSpace,
        observation_space: ContinuousSpace,
        state_box: ContinuousSpace,
        state_box_tol: float = 0.0,
    ):
        self.max_steps = require_positive("max_steps", int(max_steps))
        self.error_reward = float(error_reward)
        self.action_space = action_space
        self.observation_space = observation_space
        self.state_box = state_box
        self._state_box_tol = float(state_box_tol)
        self._state: np.ndarray | None = None
        self._step_count = 0
        self._done = True
        self._rng = np.random.default_rng(0)

    # -- hooks -----------------------------------------------------------

    def _advance(self, state: np.ndarray, action: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _observe(self, state: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _reward(
        self, prev_state: np.ndarray, action: np.ndarray, state: np.ndarray
    ) -> tuple[float, bool]:
        raise NotImplementedError

    def _draw_initial_state(self, rng: np.random.Generator):
        raise NotImplementedError

    def reward_floor(self) -> float:
        """Least per-step reward achievable inside the state/action boxes."""
        raise NotImplementedError

    def _state_valid(self, state) -> bool:
        """Finite-and-in-box check; structured-state envs override this."""
        return self.state_box.contains(state, tol=self._state_box_tol)

    # -- episode API -----------------------------------------------------

    @property
    def state(self):
        if self._state is None:
            raise EpisodeFinishedError("reset() has not been called")
        return self._state

    @property
    def step_count(self) -> int:
        return self._step_count

    def reset(self, seed: int = 0) -> np.ndarray:
        self._rng = np.random.default_rng(seed)
        self._state = self._draw_initial_state(self._rng)
        self._step_count = 0
        self._done = False
        return self._observe(self._state)

    def step(self, action: np.ndarray) -> StepResult:
        if self._done or self._state is None:
            raise EpisodeFinishedError("episode is finished; call reset()")
        action = np.asarray(action, dtype=float)
        prev_state = self._state

        # 1. action validation
        if not self.action_space.contains(action):
            return self._fail(self._observe(prev_state))
        # 2. dynamics
        try:
            new_state = self._advance(prev_state, action)
        except SimulationError:
            return self._fail(self._observe(prev_state))
        # 3. state validity
        if not self._state_valid(new_state):
            return self._fail(self._observe(prev_state))

        self._state = new_state
        reward, success = self._reward(prev_state, action, new_state)
        self._step_count += 1
        timeout = (not success) and self._step_count >= self.max_steps
        terminal = bool(success)
        self._done = terminal or timeout
        return StepResult(
            observation=self._observe(new_state),
            reward=float(reward),
            terminal=terminal,
            timeout=timeout,
            failure=False,
        )

    def _fail(self, observation: np.ndarray) -> StepResult:
        self._done = True
        return StepResult(
            observation=observation,
            reward=self.error_reward,
            terminal=True,
            timeout=False,
            failure=True,
        )

    # -- introspection ---------------------------------------------------

    def metadata(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "a_dim": self.action_space.dim,
            "o_dim": self.observation_space.dim,
            "max_steps": self.max_steps,
            "error_reward": self.error_reward,
        }
