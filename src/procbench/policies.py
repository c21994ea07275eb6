"""Controller policies for episode rollouts.

A policy maps observations to actions, holding whatever controller state it
needs (PID integrals, MPC warm starts).  ``make_policy`` wires the supported
env/controller pairs:

    reactor:  random, pid, mpc, empc
    atropine: zero, random, mpc
    pensim:   zero, random, bo (episode-level, see the dataset runner)
    mab:      random, mpc, empc
    beer:     random

``zero`` is offered only where the action box contains the zero vector.

Every MPC controller runs the one projected solver in ``control``.  The
reactor and mab controllers are ``ShootingPolicy`` instances that predict
with the plant's own ``OdeSystem``.  The atropine controller predicts with
its identified discrete-time model and hands the solver its exact linear
rollouts; its projected-gradient steps stall at the first iteration of
every solve, so it holds the steady flows.
"""

from __future__ import annotations

import numpy as np

from .control import (
    EmpcSpec,
    MpcSolution,
    MpcSpec,
    PidGains,
    PidState,
    _warm_or,
    pid_step,
    solve_empc,
    solve_mpc,
    solve_projected,
)
from .envs.atropine import AtropineEnv
from .envs.mab.env import MabEnv
from .envs.mab.upstream import economic_objective, upstream_system
from .envs.reactor import ReactorEnv, production_rate


class Policy:
    """Base protocol: reset() at episode start, act(obs) per step."""

    def reset(self, seed: int) -> None:  # pragma: no cover - trivial default
        pass

    def act(self, observation: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class ZeroPolicy(Policy):
    def __init__(self, env):
        self._dim = env.action_space.dim
        if not env.action_space.contains(np.zeros(self._dim)):
            raise ValueError(
                f"unsupported env/controller pair: {env.name}/zero "
                "(the zero action lies outside the action box)"
            )

    def act(self, observation):
        return np.zeros(self._dim)


class RandomPolicy(Policy):
    """Uniform actions inside the action box, seeded per episode."""

    def __init__(self, env):
        self._space = env.action_space
        self._rng = np.random.default_rng(0)

    def reset(self, seed):
        self._rng = np.random.default_rng(seed)

    def act(self, observation):
        return self._space.sample(self._rng)


class ReactorPidPolicy(Policy):
    """Two independent loops: level via outlet flow, conversion via coolant.

    Both loops are reverse-acting (raising the input lowers the controlled
    variable), hence the negative gains.
    """

    def __init__(self, env: ReactorEnv, gains: dict | None = None):
        g = {
            "level_kp": -0.08, "level_ki": -0.015,
            "conc_kp": -100.0, "conc_ki": -15.0,
        }
        g.update(gains or {})
        self.env = env
        ca_sp, h_sp = env.setpoint
        self.setpoints = (ca_sp, h_sp)
        self.level = PidGains(
            k_p=g["level_kp"], k_i=g["level_ki"],
            u_min=env.action_space.low[0], u_max=env.action_space.high[0],
            bias=env.u_nominal[0],
        )
        self.conc = PidGains(
            k_p=g["conc_kp"], k_i=g["conc_ki"],
            u_min=env.action_space.low[1], u_max=env.action_space.high[1],
            bias=env.u_nominal[1],
        )
        self._level_state = PidState()
        self._conc_state = PidState()

    def reset(self, seed):
        self._level_state = PidState()
        self._conc_state = PidState()

    def act(self, observation):
        ca_sp, h_sp = self.setpoints
        q_out, self._level_state = pid_step(
            self.level, h_sp, observation[2], self._level_state, 1.0
        )
        t_c, self._conc_state = pid_step(
            self.conc, ca_sp, observation[0], self._conc_state, 1.0
        )
        return np.array([q_out, t_c])


class ShootingPolicy(Policy):
    """Receding-horizon policy around solve_mpc/solve_empc with warm starts.

    An ``EmpcSpec`` makes it economic, an ``MpcSpec`` tracking.
    ``to_action`` maps the solved first input to the full action when the
    spec covers only part of it.
    """

    def __init__(self, spec, system, observe_to_state, to_action=None):
        self.spec = spec
        self.system = system
        self.observe_to_state = observe_to_state
        self.to_action = to_action
        self._warm = None
        self.last_solution: MpcSolution | None = None

    def reset(self, seed):
        self._warm = None

    def act(self, observation):
        x0 = self.observe_to_state(observation)
        solver = solve_empc if isinstance(self.spec, EmpcSpec) else solve_mpc
        sol = solver(self.spec, self.system, x0, warm=self._warm)
        self._warm = sol.u_sequence
        self.last_solution = sol
        return sol.u0 if self.to_action is None else self.to_action(sol.u0)


def reactor_mpc_spec(env: ReactorEnv, horizon: int = 20) -> MpcSpec:
    ca_sp, h_sp = env.setpoint
    return MpcSpec(
        horizon=horizon,
        dt=env.control_minutes,
        q_weights=[1.0 / ca_sp**2, 0.0, 1.0 / h_sp**2],
        r_weights=1e-3 / (env.action_space.high - env.action_space.low) ** 2,
        x_setpoint=env.x_star,
        u_setpoint=env.u_nominal,
        u_min=env.action_space.low,
        u_max=env.action_space.high,
        x_min=env.state_box.low,
        x_max=env.state_box.high,
        n_substeps=1,
        max_iterations=60,
        grad_tol=3e-5,
    )


def reactor_empc_spec(env: ReactorEnv, horizon: int = 20) -> EmpcSpec:
    """Economic stage: product formation rate (reaction rate times volume)."""
    return EmpcSpec(
        horizon=horizon,
        dt=env.control_minutes,
        stage_value=lambda states, inputs: production_rate(states, env.params),
        u_min=env.action_space.low,
        u_max=env.action_space.high,
        x_min=env.state_box.low,
        x_max=env.state_box.high,
        n_substeps=1,
        max_iterations=60,
        grad_tol=3e-5,
    )


class AtropineMpcPolicy(Policy):
    """Output tracking on the identified deviation model.

    The shared projected solver minimizes the cost of exact linear rollouts
    of the discrete model, starting from the steady flows or the shifted
    previous solution.
    """

    def __init__(self, env: AtropineEnv, horizon: int = 20,
                 output_weight: float = 1.0, input_weight: float = 0.05):
        self.env = env
        self.horizon = horizon
        self.output_weight = output_weight
        self.input_weight = input_weight
        self._warm = None
        self.last_solution: MpcSolution | None = None

    def reset(self, seed):
        self._warm = None

    def _rollout_outputs(self, x0, u_dev_batch):
        m = self.env.model
        x = np.broadcast_to(x0, u_dev_batch.shape[:-2] + (m.n_states,)).copy()
        ys = np.empty(u_dev_batch.shape[:-2] + (self.horizon,))
        for k in range(self.horizon):
            x = x @ m.a.T + u_dev_batch[..., k, :] @ m.b.T
            ys[..., k] = x @ m.c[0]
        return ys

    def _cost_batch(self, x0, u_abs_batch):
        u_dev = u_abs_batch - self.env.q_steady
        ys = self._rollout_outputs(x0, u_dev)
        cost = self.output_weight * np.sum(ys**2, axis=-1)
        return cost + self.input_weight * np.sum(u_dev**2, axis=(-2, -1))

    def act(self, observation):
        x_hat = observation[:2]
        space = self.env.action_space
        u_init = np.tile(self.env.q_steady, (self.horizon, 1))
        u_init = _warm_or(u_init, self._warm, self.horizon, space.dim)
        sol = solve_projected(
            lambda u_batch: self._cost_batch(x_hat, u_batch),
            u_init, space.low, space.high,
            max_iterations=80, grad_tol=1e-6, fd_step=1e-7,
        )
        self._warm = sol.u_sequence
        self.last_solution = sol
        return sol.u0


def mab_mpc_policy(env: MabEnv, horizon: int = 100, economic: bool = False,
                   setpoint: tuple | None = None) -> ShootingPolicy:
    """Upstream-model shooting controller for the integrated plant.

    Predicts with the 17-state upstream model only and solves for the seven
    upstream inputs; the two downstream pump velocities are held at 2 cm/min.
    The tracking controller's default setpoint is the initial upstream state
    under a balanced feed.
    """
    system = upstream_system(env.params)
    u_lo = env.action_space.low[:7]
    u_hi = env.action_space.high[:7]
    if economic:
        spec = EmpcSpec(
            horizon=horizon, dt=60.0,
            stage_value=economic_objective,
            u_min=u_lo, u_max=u_hi,
            x_min=env.upstream_box.low, x_max=env.upstream_box.high,
            n_substeps=4, max_iterations=25, grad_tol=1e-4,
        )
    else:
        if setpoint is None:
            setpoint = (env.initial_upstream,
                        np.array([0.05, 0.1, 0.15, 0.05, 36.5, 50.0, 0.0]))
        x_s, u_s = setpoint
        scale = np.where(np.abs(x_s) > 1e-9, np.abs(x_s), 1.0)
        spec = MpcSpec(
            horizon=horizon, dt=60.0,
            q_weights=1.0 / scale**2,
            r_weights=1e-4 / np.maximum(u_hi - u_lo, 1e-9) ** 2,
            x_setpoint=x_s, u_setpoint=u_s,
            u_min=u_lo, u_max=u_hi,
            x_min=env.upstream_box.low, x_max=env.upstream_box.high,
            n_substeps=4, max_iterations=25, grad_tol=1e-4,
        )
    pumps = np.array([2.0, 2.0])
    return ShootingPolicy(spec, system, lambda obs: obs[:17],
                          to_action=lambda u7: np.concatenate([u7, pumps]))


def make_policy(env, controller: str, options: dict | None = None) -> Policy:
    options = options or {}
    if controller == "zero":
        return ZeroPolicy(env)
    if controller == "random":
        return RandomPolicy(env)
    name = env.name
    if name == "reactor":
        if controller == "pid":
            return ReactorPidPolicy(env, options.get("gains"))
        if controller == "mpc":
            spec = reactor_mpc_spec(env, horizon=options.get("horizon", 20))
            return ShootingPolicy(spec, env.system, lambda obs: obs)
        if controller == "empc":
            spec = reactor_empc_spec(env, horizon=options.get("horizon", 20))
            return ShootingPolicy(spec, env.system, lambda obs: obs)
    if name == "atropine" and controller == "mpc":
        return AtropineMpcPolicy(env, horizon=options.get("horizon", 20))
    if name == "mab" and controller in ("mpc", "empc"):
        return mab_mpc_policy(env, horizon=options.get("horizon", 100),
                              economic=controller == "empc",
                              setpoint=options.get("setpoint"))
    raise ValueError(f"unsupported env/controller pair: {name}/{controller}")
