"""Shared numerical kernels.

Fixed-step classical RK4 integration, the Dormand-Prince 5(4) embedded pair
with its PI step-size controller, a damped-Newton steady-state solver with
finite-difference Jacobians, and conservative 1-D stencils used by the
method-of-lines transport models.

The reactor, beer and the shooting rollouts step by fixed RK4
(``rk4_step``/``integrate``); the mab bioreactor steps by ``rk4_step`` too,
under a step-halving, nonnegativity-keeping driver of its own.  Pensim
steps by the embedded pair: its unrolled plain-float loop reads the tableau
and ``pi_step_factor`` below, so they are defined once here.

Everything in this module is a pure function of its arguments, so concurrent
use from any number of workers is safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NonFiniteStateError, SimulationError

RhsFn = Callable[[float, np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class OdeSystem:
    """A first-order ODE system ``dx/dt = rhs(t, x, u)``.

    ``rhs`` must be pure and return a derivative of length ``dim``.  When
    ``vectorized`` is set, ``rhs`` additionally accepts states (and inputs)
    with leading batch axes and broadcasts elementwise; the shooting-based
    controllers require this, to evaluate finite differences in one pass.
    """

    dim: int
    rhs: RhsFn
    vectorized: bool = False

    def __post_init__(self):
        if self.dim <= 0:
            raise ValueError(f"dim must be positive, got {self.dim}")


@dataclass
class SteadyStateResult:
    x_star: np.ndarray
    residual_norm: float
    converged: bool
    iterations: int


@dataclass(frozen=True)
class SpatialGrid:
    """Uniform axial (optionally radial) discretization of a column.

    Nodes sit at cell centers, so ``n_axial * dz == length`` exactly.
    ``volume``, when given, is the total column volume in the same unit
    family as ``length``; ``cell_volume`` then follows from uniform cells.
    """

    n_axial: int
    length: float
    n_radial: int = 0
    volume: float | None = None

    def __post_init__(self):
        if self.n_axial < 3:
            raise ValueError(f"n_axial must be >= 3, got {self.n_axial}")
        if self.length <= 0.0:
            raise ValueError(f"length must be positive, got {self.length}")
        if self.n_radial != 0 and self.n_radial < 2:
            raise ValueError(f"n_radial must be 0 or >= 2, got {self.n_radial}")
        if self.volume is not None and self.volume <= 0.0:
            raise ValueError(f"volume must be positive, got {self.volume}")

    @property
    def dz(self) -> float:
        return self.length / self.n_axial

    @property
    def cell_volume(self) -> float:
        if self.volume is None:
            raise ValueError("grid was built without a column volume")
        return self.volume / self.n_axial

    @property
    def z_centers(self) -> np.ndarray:
        return (np.arange(self.n_axial) + 0.5) * self.dz


def _require_finite(x: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(x)):
        raise NonFiniteStateError(f"{what} contains non-finite components")


def rk4_step(
    sys: OdeSystem,
    t: float,
    x: np.ndarray,
    u: np.ndarray,
    h: float,
    check: bool = True,
) -> np.ndarray:
    """One classical 4th-order Runge-Kutta step of size ``h``."""
    if h <= 0.0:
        raise ValueError(f"step size must be positive, got {h}")
    x = np.asarray(x, dtype=float)
    k1 = sys.rhs(t, x, u)
    k2 = sys.rhs(t + 0.5 * h, x + 0.5 * h * k1, u)
    k3 = sys.rhs(t + 0.5 * h, x + 0.5 * h * k2, u)
    k4 = sys.rhs(t + h, x + h * k3, u)
    out = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if check:
        _require_finite(out, "rk4 state")
    return out


def integrate(
    sys: OdeSystem,
    t0: float,
    x0: np.ndarray,
    u: np.ndarray,
    duration: float,
    h: float,
) -> np.ndarray:
    """Advance ``x0`` over ``duration`` with fixed RK4 steps of size ``h``.

    The interval is covered by full steps plus one trailing partial step, so
    the endpoint is hit exactly; ``duration == 0`` returns a copy of ``x0``.
    """
    if duration < 0.0:
        raise ValueError(f"duration must be nonnegative, got {duration}")
    if h <= 0.0:
        raise ValueError(f"step size must be positive, got {h}")
    x = np.array(x0, dtype=float, copy=True)
    if duration == 0.0:
        return x
    # Tolerant floor so that duration = n*h does not produce a stray
    # epsilon-sized trailing step.
    n_full = int(np.floor(duration / h + 1e-9))
    t = t0
    for _ in range(n_full):
        x = rk4_step(sys, t, x, u, h)
        t += h
    rem = duration - n_full * h
    if rem > 1e-12 * max(1.0, duration):
        x = rk4_step(sys, t, x, u, rem)
    return x


# Dormand-Prince 5(4) (Dormand & Prince, J. Comput. Appl. Math. 6, 1980;
# Hairer, Norsett & Wanner, Solving ODEs I, Sec. II.4-5).  Row i of DOPRI_A
# holds the coefficients of stages 1..i for stage i + 1; DOPRI_C the nodes
# of stages 2..7.  The 7th stage is evaluated at the 5th-order solution, so
# it is the next step's first stage (first same as last).  DOPRI_E is the
# 5th-order minus the embedded 4th-order weights: ``h * sum(E_i k_i)`` is
# the local error estimate.
DOPRI_C = (1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
DOPRI_A = (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
DOPRI_B = DOPRI_A[-1] + (0.0,)
DOPRI_E = (
    71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40,
)

# PI step-size control for a 5(4) pair (Hairer & Wanner's DOPRI5 values).
PI_ALPHA = 0.17
PI_BETA = 0.04
PI_SAFETY = 0.9
PI_FACTOR_MIN = 0.2
PI_FACTOR_MAX = 10.0
# floor on the previous accepted error, so one near-exact step does not
# hold the next factor down through the err_prev ** beta term
PI_ERR_FLOOR = 1e-4


def pi_step_factor(err: float, err_prev: float) -> float:
    """Step-size ratio ``h_new / h`` after a step with scaled error ``err``.

    ``err`` is the RMS of the local error over ``atol + rtol * |x|``; a step
    is accepted when ``err <= 1``.  ``err_prev`` is the error of the last
    accepted step, 0.0 before the first; it is floored at
    ``PI_ERR_FLOOR``.  The ratio is clamped to
    ``[PI_FACTOR_MIN, PI_FACTOR_MAX]``.
    """
    if err == 0.0:
        return PI_FACTOR_MAX
    fac = PI_SAFETY * err ** -PI_ALPHA * max(err_prev, PI_ERR_FLOOR) ** PI_BETA
    return min(PI_FACTOR_MAX, max(PI_FACTOR_MIN, fac))


def fd_jacobian(
    f: Callable[[np.ndarray], np.ndarray],
    x: np.ndarray,
    rel_step: float = 1e-7,
    abs_floor: float = 1e-9,
) -> np.ndarray:
    """Forward-difference Jacobian of ``f`` at ``x`` (columnwise)."""
    x = np.asarray(x, dtype=float)
    f0 = np.asarray(f(x), dtype=float)
    jac = np.empty((f0.size, x.size))
    for i in range(x.size):
        step = max(rel_step * abs(x[i]), abs_floor)
        xp = x.copy()
        xp[i] += step
        jac[:, i] = (np.asarray(f(xp), dtype=float) - f0) / step
    return jac


def solve_steady_state(
    sys: OdeSystem,
    u: np.ndarray,
    x_guess: np.ndarray,
    tol: float = 1e-10,
    max_iter: int = 100,
    max_halvings: int = 20,
) -> SteadyStateResult:
    """Damped Newton solve of ``rhs(x, u) = 0`` from ``x_guess``.

    Each Newton step is halved until the residual inf-norm decreases (up to
    ``max_halvings`` times).  Rank-deficient Jacobians fall back to a
    least-squares (minimum-norm) step, which leaves unobservable directions
    such as a pure-integrator level untouched.  A solve that cannot make
    progress returns a result with ``converged`` false.
    """
    x = np.array(x_guess, dtype=float, copy=True)
    _require_finite(x, "steady-state guess")
    u = np.asarray(u, dtype=float)

    def residual(xv: np.ndarray) -> np.ndarray:
        return np.asarray(sys.rhs(0.0, xv, u), dtype=float)

    fx = residual(x)
    norm = float(np.max(np.abs(fx)))
    iterations = 0
    while norm > tol and iterations < max_iter:
        try:
            jac = fd_jacobian(residual, x)
        except SimulationError:
            break  # model invalid within a finite-difference step of x
        try:
            step = np.linalg.solve(jac, -fx)
        except np.linalg.LinAlgError:
            step, *_ = np.linalg.lstsq(jac, -fx, rcond=None)
        if not np.all(np.isfinite(step)):
            return SteadyStateResult(x, norm, False, iterations)
        alpha = 1.0
        improved = False
        for _ in range(max_halvings + 1):
            x_try = x + alpha * step
            try:
                f_try = residual(x_try)
            except SimulationError:
                alpha *= 0.5  # trial left the model's domain; shorten
                continue
            if np.all(np.isfinite(f_try)) and np.max(np.abs(f_try)) < norm:
                x, fx = x_try, f_try
                norm = float(np.max(np.abs(f_try)))
                improved = True
                break
            alpha *= 0.5
        iterations += 1
        if not improved:
            break
    return SteadyStateResult(x, norm, norm <= tol, iterations)


def upwind_convection(
    grid: SpatialGrid,
    c: np.ndarray,
    velocity_over_void: float,
    inlet_value: float,
) -> np.ndarray:
    """First-order upwind approximation of ``-(v/eps) dc/dz``.

    The inlet ghost value is supplied by the caller, which lets the caller
    decide the boundary treatment (a ghost equal to the feed concentration
    reproduces the flux-form inlet condition exactly).  The stencil
    telescopes, so the column total changes only through the two boundary
    fluxes.
    """
    if velocity_over_void < 0.0:
        raise ValueError("velocity must be nonnegative (flow is oriented +z)")
    c = np.asarray(c, dtype=float)
    if c.shape[-1] != grid.n_axial:
        raise ValueError(f"field length {c.shape[-1]} != n_axial {grid.n_axial}")
    out = np.empty_like(c)
    w = velocity_over_void / grid.dz
    out[..., 0] = -w * (c[..., 0] - inlet_value)
    out[..., 1:] = -w * (c[..., 1:] - c[..., :-1])
    return out


def central_dispersion(grid: SpatialGrid, c: np.ndarray, d_ax: float) -> np.ndarray:
    """Second-order central approximation of ``d_ax d2c/dz2``.

    Both boundaries use mirrored ghost nodes (zero gradient), so dispersion
    redistributes mass inside the column without creating or destroying any.
    """
    if d_ax < 0.0:
        raise ValueError("dispersion coefficient must be nonnegative")
    c = np.asarray(c, dtype=float)
    if c.shape[-1] != grid.n_axial:
        raise ValueError(f"field length {c.shape[-1]} != n_axial {grid.n_axial}")
    out = np.empty_like(c)
    w = d_ax / grid.dz**2
    out[..., 0] = w * (c[..., 1] - c[..., 0])
    out[..., -1] = w * (c[..., -2] - c[..., -1])
    out[..., 1:-1] = w * (c[..., 2:] - 2.0 * c[..., 1:-1] + c[..., :-2])
    return out
