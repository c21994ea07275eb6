"""Controller policies for episode rollouts.

A policy maps observations to actions, holding whatever controller state it
needs (PID integrals, MPC warm starts).  ``make_policy`` wires the supported
env/controller pairs:

    reactor:  zero, random, pid, mpc, empc
    atropine: zero, random, mpc
    pensim:   zero, random, bo (episode-level, see the dataset runner)
    mab:      zero, random, mpc, empc
    beer:     zero, random

The shooting controllers predict with each environment's own model and
share the solver in ``control``.  The atropine controller predicts with its
identified discrete-time model and runs its own copy of a projected-gradient
loop; it does not use the shared solver.
"""

from __future__ import annotations

import numpy as np

from .control import (
    EmpcSpec,
    MpcSolution,
    MpcSpec,
    PidGains,
    PidState,
    pid_step,
    solve_empc,
    solve_mpc,
)
from .envs.atropine import AtropineEnv
from .envs.mab.env import IDX_V_ELU, IDX_V_POL, MabEnv
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
    """Receding-horizon policy around solve_mpc/solve_empc with warm starts."""

    def __init__(self, spec, system, economic: bool, observe_to_state):
        self.spec = spec
        self.system = system
        self.economic = economic
        self.observe_to_state = observe_to_state
        self._warm = None
        self.last_solution: MpcSolution | None = None

    def reset(self, seed):
        self._warm = None

    def act(self, observation):
        x0 = self.observe_to_state(observation)
        solver = solve_empc if self.economic else solve_mpc
        sol = solver(self.spec, self.system, x0, warm=self._warm)
        self._warm = sol.u_sequence
        self.last_solution = sol
        return sol.u0


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

    A private projected-gradient loop, separate from the shared shooting
    solver in ``control``: forward-difference gradients over exact linear
    rollouts of the discrete model, ten halving step lengths, at most 80
    iterations.
    """

    def __init__(self, env: AtropineEnv, horizon: int = 20,
                 output_weight: float = 1.0, input_weight: float = 0.05):
        self.env = env
        self.horizon = horizon
        self.output_weight = output_weight
        self.input_weight = input_weight
        self._warm = None

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
        lo = self.env.action_space.low
        hi = self.env.action_space.high
        n, m = self.horizon, lo.size
        u = self._warm if self._warm is not None else np.tile(self.env.q_steady, (n, 1))
        # projected gradient with exact linear rollouts
        scale = hi - lo
        z = np.clip((u - lo) / scale, 0.0, 1.0)
        cost = self._cost_batch(x_hat, lo + z * scale)
        for _ in range(80):
            flat = z.ravel()
            batch = np.tile(flat, (n * m + 1, 1))
            batch[1:] += np.eye(n * m) * 1e-7
            costs = self._cost_batch(x_hat, lo + batch.reshape(-1, n, m) * scale)
            grad = ((costs[1:] - costs[0]) / 1e-7).reshape(n, m)
            step = z - np.clip(z - grad, 0.0, 1.0)
            if np.max(np.abs(step)) <= 1e-6:
                break
            alphas = 1.0 * 0.5 ** np.arange(10)
            cands = np.clip(z[None] - alphas[:, None, None] * grad[None], 0.0, 1.0)
            cand_costs = self._cost_batch(x_hat, lo + cands * scale)
            improved = cand_costs < costs[0] - 1e-12
            if not np.any(improved):
                break
            z = cands[int(np.argmax(improved))]
        u = lo + z * scale
        self._warm = np.vstack([u[1:], u[-1:]])
        return u[0]


def mab_mpc_policy(env: MabEnv, horizon: int = 100, economic: bool = False,
                   setpoint: tuple | None = None) -> ShootingPolicy:
    """Upstream-model shooting controller for the integrated plant.

    Predicts with the 17-state upstream model only; the two downstream pump
    velocities are held at mid-range by the wrapper below.
    """
    system = upstream_system(env.params)
    u_lo = env.action_space.low[:7]
    u_hi = env.action_space.high[:7]
    if economic:
        spec = EmpcSpec(
            horizon=horizon, dt=60.0,
            stage_value=lambda X, U: economic_objective(X, U),
            u_min=u_lo, u_max=u_hi,
            x_min=env.upstream_box.low, x_max=env.upstream_box.high,
            n_substeps=4, max_iterations=25, grad_tol=1e-4,
        )
    else:
        if setpoint is None:
            raise ValueError("tracking controller needs a setpoint")
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
    return ShootingPolicy(spec, system, economic, lambda obs: obs[:17])


class MabPolicy(Policy):
    """Wraps the upstream shooting controller, holding pump velocities."""

    def __init__(self, env: MabEnv, economic: bool, horizon: int = 100,
                 setpoint: tuple | None = None, pump_velocities=(2.0, 2.0)):
        self.inner = mab_mpc_policy(env, horizon=horizon, economic=economic,
                                    setpoint=setpoint)
        self.pumps = np.asarray(pump_velocities, float)

    def reset(self, seed):
        self.inner.reset(seed)

    def act(self, observation):
        u7 = self.inner.act(observation)
        action = np.empty(9)
        action[:7] = u7
        action[IDX_V_ELU], action[IDX_V_POL] = self.pumps
        return action


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
            return ShootingPolicy(spec, env.system, False, lambda obs: obs)
        if controller == "empc":
            spec = reactor_empc_spec(env, horizon=options.get("horizon", 20))
            return ShootingPolicy(spec, env.system, True, lambda obs: obs)
    if name == "atropine" and controller == "mpc":
        return AtropineMpcPolicy(env, horizon=options.get("horizon", 20))
    if name == "mab" and controller in ("mpc", "empc"):
        if controller == "mpc":
            setpoint = options.get("setpoint")
            if setpoint is None:
                x0 = env.initial_upstream
                u7 = np.array([0.05, 0.1, 0.15, 0.05, 36.5, 50.0, 0.0])
                setpoint = (x0, u7)
            return MabPolicy(env, economic=False,
                             horizon=options.get("horizon", 100), setpoint=setpoint)
        return MabPolicy(env, economic=True, horizon=options.get("horizon", 100))
    raise ValueError(f"unsupported env/controller pair: {name}/{controller}")
