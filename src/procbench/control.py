"""Baseline controllers.

PID with clamp anti-windup, setpoint-tracking and economic model predictive
control transcribed by direct single shooting with piecewise-constant
inputs, and a multi-start steady-state economic optimizer.

The shooting solver works on input sequences scaled to the unit box, with
batched Armijo backtracking over twelve step lengths per iteration.  Each
iteration runs one batched simulation of the sequence and one forward
finite-difference bump per input entry, so the model must be a vectorized
``OdeSystem``.  The tracking cost is the squared sum of a residual vector
(weighted state errors, input errors and soft box violations); the same
batch gives its Jacobian, and the search direction is a projected
Gauss-Newton step on the inputs not held at a bound (Bertsekas, "Projected
Newton methods for optimization problems with simple constraints", 1982),
with the projected gradient as fallback.  The economic cost has no
residuals and takes projected-gradient steps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy import optimize

from .errors import NoFeasibleSteadyStateError, SimulationError
from .kernels import OdeSystem, rk4_step, solve_steady_state

# -- PID ---------------------------------------------------------------------


@dataclass(frozen=True)
class PidGains:
    k_p: float
    k_i: float = 0.0
    k_d: float = 0.0
    u_min: float = -np.inf
    u_max: float = np.inf
    bias: float = 0.0

    def __post_init__(self):
        if not self.u_min < self.u_max:
            raise ValueError("u_min must be below u_max")


@dataclass
class PidState:
    integral: float = 0.0
    prev_error: float | None = None


def pid_step(
    gains: PidGains,
    setpoint: float,
    measurement: float,
    state: PidState,
    dt: float,
) -> tuple[float, PidState]:
    """One PID update with rectangle-rule integration.

    Returns the clamped output and the successor state.  Clamp anti-windup:
    the integral only advances when the unclamped output stays in range.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    error = setpoint - measurement
    integral = state.integral + error * dt
    derivative = 0.0 if state.prev_error is None else (error - state.prev_error) / dt
    u_raw = gains.bias + gains.k_p * error + gains.k_i * integral + gains.k_d * derivative
    u = min(max(u_raw, gains.u_min), gains.u_max)
    if u != u_raw:
        integral = state.integral  # hold while saturated
    return u, PidState(integral=integral, prev_error=error)


# -- shooting transcription ----------------------------------------------------


@dataclass(frozen=True)
class MpcSpec:
    horizon: int
    dt: float
    q_weights: np.ndarray          # diagonal state weights
    r_weights: np.ndarray          # diagonal input weights
    x_setpoint: np.ndarray
    u_setpoint: np.ndarray
    u_min: np.ndarray
    u_max: np.ndarray
    x_min: np.ndarray | None = None   # soft state box
    x_max: np.ndarray | None = None
    soft_weight: float = 1e4
    n_substeps: int = 1
    max_iterations: int = 200
    grad_tol: float = 1e-6
    fd_step: float = 1e-7

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        for name in ("q_weights", "r_weights", "x_setpoint", "u_setpoint",
                     "u_min", "u_max"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), float))
        if np.any(self.q_weights < 0.0) or np.any(self.r_weights < 0.0):
            raise ValueError("weights must be nonnegative")


@dataclass(frozen=True)
class EmpcSpec:
    horizon: int
    dt: float
    stage_value: Callable[[np.ndarray, np.ndarray], np.ndarray]  # economic rate
    u_min: np.ndarray
    u_max: np.ndarray
    x_min: np.ndarray | None = None
    x_max: np.ndarray | None = None
    soft_weight: float = 1e4
    n_substeps: int = 1
    max_iterations: int = 200
    grad_tol: float = 1e-6
    fd_step: float = 1e-7

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        for name in ("u_min", "u_max"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), float))


@dataclass
class MpcSolution:
    u0: np.ndarray
    u_sequence: np.ndarray
    cost: float
    iterations: int
    stalled: bool
    cost_trace: list[float] = field(default_factory=list)


def _simulate_stages(sys: OdeSystem, x0, u_seq, dt: float, n_substeps: int):
    """Roll the system over the horizon, returning states after each stage.

    ``u_seq`` has shape (..., N, m); leading axes batch whole input
    sequences over a shared initial state.  Overflow inside an unstable
    candidate rollout is data (an infinite-cost trajectory), not an error.
    """
    u_seq = np.asarray(u_seq, float)
    batch_shape = u_seq.shape[:-2]
    n = u_seq.shape[-2]
    x = np.broadcast_to(np.asarray(x0, float), batch_shape + (sys.dim,)).copy()
    h = dt / n_substeps
    states = np.empty(batch_shape + (n, sys.dim))
    with np.errstate(all="ignore"):
        for k in range(n):
            u = u_seq[..., k, :]
            for _ in range(n_substeps):
                x = rk4_step(sys, 0.0, x, u, h, check=False)
            states[..., k, :] = x
    return states


def _soft_box_penalty(states, x_min, x_max, weight):
    penalty = 0.0
    if x_min is not None:
        viol = np.maximum(x_min - states, 0.0)
        penalty = penalty + weight * np.sum(viol**2, axis=(-2, -1))
    if x_max is not None:
        viol = np.maximum(states - x_max, 0.0)
        penalty = penalty + weight * np.sum(viol**2, axis=(-2, -1))
    return penalty


def _tracking_residual_batch(spec: MpcSpec, sys: OdeSystem, x0, u_batch):
    """Residual vector whose squared sum is the tracking cost.

    Per input sequence: sqrt(Q)-weighted state errors at the stage
    endpoints, sqrt(R)-weighted input errors and sqrt(soft_weight)-weighted
    state-box violations, flattened to shape (..., p).
    """
    states = _simulate_stages(sys, x0, u_batch, spec.dt, spec.n_substeps)
    batch_shape = np.shape(u_batch)[:-2]
    root_soft = np.sqrt(spec.soft_weight)
    with np.errstate(all="ignore"):
        parts = [
            np.sqrt(spec.q_weights) * (states - spec.x_setpoint),
            np.sqrt(spec.r_weights) * (u_batch - spec.u_setpoint),
        ]
        if spec.x_min is not None:
            parts.append(root_soft * np.maximum(spec.x_min - states, 0.0))
        if spec.x_max is not None:
            parts.append(root_soft * np.maximum(states - spec.x_max, 0.0))
    return np.concatenate([p.reshape(batch_shape + (-1,)) for p in parts], axis=-1)


def _squared_sum(residuals):
    with np.errstate(all="ignore"):
        cost = np.sum(residuals**2, axis=-1)
    return np.where(np.isfinite(cost), cost, np.inf)


def _tracking_cost_batch(spec: MpcSpec, sys: OdeSystem, x0, u_batch):
    return _squared_sum(_tracking_residual_batch(spec, sys, x0, u_batch))


def _economic_cost_batch(spec: EmpcSpec, sys: OdeSystem, x0, u_batch):
    states = _simulate_stages(sys, x0, u_batch, spec.dt, spec.n_substeps)
    with np.errstate(all="ignore"):
        value = spec.stage_value(states, u_batch)
        cost = -spec.dt * np.sum(value, axis=-1)
        cost = cost + _soft_box_penalty(states, spec.x_min, spec.x_max, spec.soft_weight)
    return np.where(np.isfinite(cost), cost, np.inf)


def shooting_cost(spec: MpcSpec, sys: OdeSystem, x0, u_seq) -> float:
    """Tracking objective of one input sequence (quadratic stage costs
    accumulated at the stage endpoints, plus the soft state-box penalty)."""
    u_seq = np.asarray(u_seq, float)
    if u_seq.shape != (spec.horizon, spec.u_min.size):
        raise ValueError(f"input sequence must have shape ({spec.horizon}, m)")
    return float(_tracking_cost_batch(spec, sys, x0, u_seq[None])[0])


def economic_shooting_cost(spec: EmpcSpec, sys: OdeSystem, x0, u_seq) -> float:
    """Negative accumulated economic value of one input sequence."""
    u_seq = np.asarray(u_seq, float)
    return float(_economic_cost_batch(spec, sys, x0, u_seq[None])[0])


def _require_vectorized(sys: OdeSystem) -> None:
    if not sys.vectorized:
        raise ValueError(
            "shooting solvers need a vectorized OdeSystem (rhs broadcasting "
            "over leading batch axes)"
        )


def _fd_batch(u_seq, steps):
    """The base sequence followed by one forward bump per input entry."""
    n, m = u_seq.shape
    batch = np.tile(u_seq.ravel(), (n * m + 1, 1))
    batch[1:] += np.diag(steps.ravel())
    return batch.reshape(n * m + 1, n, m)


def _fd_gradient_batch(cost_batch, u_seq, steps):
    """Forward-difference gradient via one batched cost evaluation.

    An infinite cost (a runaway rollout) gives a non-finite gradient entry,
    which the solver treats as data, so the subtraction is silenced.
    """
    costs = cost_batch(_fd_batch(u_seq, steps))
    with np.errstate(invalid="ignore"):
        grad = (costs[1:] - costs[0]) / steps.ravel()
    return costs[0], grad.reshape(u_seq.shape)


def _fd_gauss_newton_model(residual_batch, u_seq, steps):
    """Cost, gradient and residual Jacobian from one batched rollout.

    Returns ``(cost, grad, (jac_t, res))`` with ``jac_t[j]`` the forward
    difference of the residual vector ``res`` along input entry j and
    ``grad = 2 jac_t @ res``.  When a residual or a Jacobian entry is not
    finite the model is ``None`` and the gradient is the forward difference
    of the costs, as for a cost without residuals.
    """
    residuals = residual_batch(_fd_batch(u_seq, steps))
    costs = _squared_sum(residuals)
    with np.errstate(all="ignore"):
        res = residuals[0]
        jac_t = (residuals[1:] - res) / steps.reshape(-1, 1)
        if np.all(np.isfinite(jac_t)) and np.all(np.isfinite(res)):
            grad = 2.0 * (jac_t @ res)
            return costs[0], grad.reshape(u_seq.shape), (jac_t, res)
        grad = (costs[1:] - costs[0]) / steps.ravel()
    return costs[0], grad.reshape(u_seq.shape), None


def shooting_gradient(spec: MpcSpec, sys: OdeSystem, x0, u_seq) -> np.ndarray:
    """Forward-difference gradient of the tracking shooting cost."""
    _require_vectorized(sys)
    u_seq = np.asarray(u_seq, float)
    scale = np.maximum(spec.u_max - spec.u_min, 1e-12)
    steps = np.broadcast_to(spec.fd_step * scale, u_seq.shape).copy()
    cost_batch = lambda ub: _tracking_cost_batch(spec, sys, x0, ub)
    return _fd_gradient_batch(cost_batch, u_seq, steps)[1]


def _gauss_newton_direction(z, grad, model):
    """Gauss-Newton step on the free inputs of the unit box.

    An input at a bound whose gradient points out of the box is held there;
    the others take the least-squares step of the linearized residuals.
    """
    jac_t, res = model
    held = ((z <= 0.0) & (grad > 0.0)) | ((z >= 1.0) & (grad < 0.0))
    free = ~held.ravel()
    step = np.zeros(z.size)
    step[free] = np.linalg.lstsq(jac_t[free].T, -res, rcond=None)[0]
    return step.reshape(z.shape)


# Armijo sufficient-decrease constant and the twelve trial step lengths
# 1, 1/2, ..., 1/2048 that every backtracking batch evaluates.
_ARMIJO_C = 1e-4
_ALPHAS = 0.5 ** np.arange(12)


def _solve_projected(cost_batch, u_init, u_min, u_max, spec, residual_batch=None):
    """Projected descent with batched Armijo backtracking, unit-box scaled.

    With ``residual_batch`` (a cost that is the squared sum of residuals)
    each iteration first tries the Gauss-Newton direction, accepting a
    point of the projected arc clip(z + alpha d) on sufficient decrease
    against the gradient; when no candidate passes, or the Jacobian is not
    finite, it falls back to the projected-gradient step.  Without it the
    direction is the negative forward-difference gradient.
    """
    n, m = u_init.shape
    scale = np.maximum(u_max - u_min, 1e-12)
    lo = np.broadcast_to(u_min, (n, m))
    z = np.clip((u_init - lo) / scale, 0.0, 1.0)

    def to_u(zz):
        return lo + zz * scale

    steps = np.full((n, m), spec.fd_step)

    def scaled_cost_batch(z_batch):
        return cost_batch(to_u(z_batch))

    if residual_batch is None:
        def linearize(zz):
            return _fd_gradient_batch(scaled_cost_batch, zz, steps) + (None,)
    else:
        def linearize(zz):
            return _fd_gauss_newton_model(
                lambda z_batch: residual_batch(to_u(z_batch)), zz, steps
            )

    trace = []
    stalled = False
    iterations = 0
    cost, grad, model = linearize(z)
    trace.append(float(cost))
    while iterations < spec.max_iterations:
        iterations += 1
        projected_step = z - np.clip(z - grad, 0.0, 1.0)
        if np.max(np.abs(projected_step)) <= spec.grad_tol:
            break
        accepted = None
        if model is not None:
            direction = _gauss_newton_direction(z, grad, model)
            cands = np.clip(z[None] + _ALPHAS[:, None, None] * direction[None], 0.0, 1.0)
            cand_costs = scaled_cost_batch(cands)
            for a_idx in range(_ALPHAS.size):
                predicted = float(np.sum(grad * (z - cands[a_idx])))
                if predicted > 0.0 and cand_costs[a_idx] <= cost - _ARMIJO_C * predicted:
                    accepted = cands[a_idx]
                    break
        if accepted is None:
            # batched backtracking: all candidate step lengths in one rollout
            cands = np.clip(z[None] - _ALPHAS[:, None, None] * grad[None], 0.0, 1.0)
            cand_costs = scaled_cost_batch(cands)
            for a_idx in range(_ALPHAS.size):
                dz = z - cands[a_idx]
                decrease = (_ARMIJO_C / max(_ALPHAS[a_idx], 1e-16)) * float(np.sum(dz * dz))
                if cand_costs[a_idx] <= cost - decrease:
                    accepted = cands[a_idx]
                    break
        if accepted is None:
            stalled = True
            break
        z = accepted
        cost, grad, model = linearize(z)
        trace.append(float(cost))
    u_star = to_u(z)
    return MpcSolution(
        u0=u_star[0].copy(),
        u_sequence=u_star,
        cost=float(cost),
        iterations=iterations,
        stalled=stalled,
        cost_trace=trace,
    )


def _warm_or(u_default, warm, n, m):
    if warm is None:
        return u_default
    warm = np.asarray(warm, float)
    if warm.shape != (n, m):
        raise ValueError("warm start has wrong shape")
    shifted = np.vstack([warm[1:], warm[-1:]])
    return shifted


def solve_mpc(spec: MpcSpec, sys: OdeSystem, x0, warm=None) -> MpcSolution:
    """Receding-horizon tracking solve; apply ``u0``, keep ``u_sequence``
    for the next warm start (it is shifted by one stage internally)."""
    _require_vectorized(sys)
    m = spec.u_min.size
    u_init = np.tile(np.clip(spec.u_setpoint, spec.u_min, spec.u_max), (spec.horizon, 1))
    u_init = _warm_or(u_init, warm, spec.horizon, m)
    cost_batch = lambda ub: _tracking_cost_batch(spec, sys, x0, ub)
    residual_batch = lambda ub: _tracking_residual_batch(spec, sys, x0, ub)
    return _solve_projected(cost_batch, u_init, spec.u_min, spec.u_max, spec, residual_batch)


def solve_empc(spec: EmpcSpec, sys: OdeSystem, x0, warm=None) -> MpcSolution:
    """Receding-horizon economic solve (maximizes the stage value)."""
    _require_vectorized(sys)
    m = spec.u_min.size
    u_init = np.tile(0.5 * (spec.u_min + spec.u_max), (spec.horizon, 1))
    u_init = _warm_or(u_init, warm, spec.horizon, m)
    cost_batch = lambda ub: _economic_cost_batch(spec, sys, x0, ub)
    return _solve_projected(cost_batch, u_init, spec.u_min, spec.u_max, spec)


# -- steady-state economic optimization ---------------------------------------


def solve_steady_state_optimum(
    sys: OdeSystem,
    stage_value: Callable[[np.ndarray, np.ndarray], float],
    u_min,
    u_max,
    x_guess,
    x_min=None,
    x_max=None,
    n_starts: int = 8,
    seed: int = 0,
    residual_tol: float = 1e-10,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Best steady state (x_s, u_s) over the input box by economic value.

    Multi-start local refinement: seeded uniform input samples, each
    polished with Nelder-Mead on the steady-state manifold (inner damped
    Newton supplies x(u)).  Ties in value are broken toward the
    lexicographically smallest input.  Raises when no start yields a
    converged, box-feasible steady state.
    """
    u_min = np.asarray(u_min, float)
    u_max = np.asarray(u_max, float)
    x_guess = np.asarray(x_guess, float)
    rng = np.random.default_rng(seed)
    starts = rng.uniform(u_min, u_max, size=(n_starts, u_min.size))

    def steady_x(u):
        try:
            res = solve_steady_state(sys, u, x_guess)
        except SimulationError:
            return None
        return res if res.converged else None

    def objective(u):
        res = steady_x(u)
        if res is None:
            return 1e12
        x = res.x_star
        penalty = 0.0
        if x_min is not None:
            penalty += 1e6 * float(np.sum(np.maximum(x_min - x, 0.0) ** 2))
        if x_max is not None:
            penalty += 1e6 * float(np.sum(np.maximum(x - x_max, 0.0) ** 2))
        return -float(stage_value(x, np.asarray(u, float))) + penalty

    candidates = []
    bounds = list(zip(u_min, u_max))
    for u0 in starts:
        res = optimize.minimize(
            objective,
            u0,
            method="Nelder-Mead",
            bounds=bounds,
            options={"xatol": 1e-9, "fatol": 1e-12, "maxiter": 400 * u_min.size},
        )
        u_cand = np.clip(res.x, u_min, u_max)
        ss = steady_x(u_cand)
        if ss is None or ss.residual_norm > residual_tol:
            continue
        x = ss.x_star
        if x_min is not None and np.any(x < np.asarray(x_min, float) - 1e-9):
            continue
        if x_max is not None and np.any(x > np.asarray(x_max, float) + 1e-9):
            continue
        candidates.append((float(stage_value(x, u_cand)), u_cand, x))
    if not candidates:
        raise NoFeasibleSteadyStateError(
            "no start produced a converged steady state inside the boxes"
        )
    best_value = max(c[0] for c in candidates)
    near = [c for c in candidates if c[0] >= best_value - 1e-9]
    near.sort(key=lambda c: tuple(c[1]))  # lexicographic tie-break on u
    value, u_s, x_s = near[0]
    return x_s, u_s, value
