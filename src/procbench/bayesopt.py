"""Gaussian-process Bayesian optimization with expected improvement.

A squared-exponential GP is fit by log-marginal-likelihood coordinate
search over (shared log-lengthscale, log signal variance, log noise
variance), restarted from seeded random hyperparameter vectors.  Proposals
maximize closed-form expected improvement over a fixed budget of seeded
quasi-random candidates, which keeps the whole loop reproducible: same
seed, same observations, same proposal.

Everything works in maximization convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg import solve_triangular
from scipy.special import ndtr
from scipy.stats import qmc

from .errors import IllConditionedKernelError

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def _sq_dists(xa: np.ndarray, xb: np.ndarray, lengthscales: np.ndarray) -> np.ndarray:
    a = xa / lengthscales
    b = xb / lengthscales
    return (
        np.sum(a**2, axis=1)[:, None]
        + np.sum(b**2, axis=1)[None, :]
        - 2.0 * a @ b.T
    )


def _kernel(xa, xb, lengthscales, signal_var):
    return signal_var * np.exp(-0.5 * np.maximum(_sq_dists(xa, xb, lengthscales), 0.0))


def _chol_with_jitter(k_noisy: np.ndarray):
    """Cholesky with escalating jitter 1e-10..1e-6 of the mean diagonal."""
    try:
        return np.linalg.cholesky(k_noisy), 0.0
    except np.linalg.LinAlgError:
        pass
    scale = float(np.mean(np.diag(k_noisy)))
    jitter = 1e-10
    while jitter <= 1e-6:
        try:
            return (
                np.linalg.cholesky(k_noisy + jitter * scale * np.eye(k_noisy.shape[0])),
                jitter,
            )
        except np.linalg.LinAlgError:
            jitter *= 10.0
    raise IllConditionedKernelError(
        "kernel matrix stayed indefinite after jitter escalation to 1e-6"
    )


@dataclass
class GpModel:
    """Fitted GP posterior state (prior mean = training-target mean)."""

    x_train: np.ndarray
    y_train: np.ndarray
    lengthscales: np.ndarray
    signal_var: float
    noise_var: float
    prior_mean: float
    chol: np.ndarray = field(repr=False)
    alpha: np.ndarray = field(repr=False)


def _build_posterior(x, y, lengthscales, signal_var, noise_var) -> GpModel:
    prior_mean = float(np.mean(y))
    resid = y - prior_mean
    k = _kernel(x, x, lengthscales, signal_var)
    chol, _ = _chol_with_jitter(k + noise_var * np.eye(x.shape[0]))
    alpha = solve_triangular(
        chol.T, solve_triangular(chol, resid, lower=True), lower=False
    )
    return GpModel(
        x_train=x, y_train=y, lengthscales=lengthscales,
        signal_var=signal_var, noise_var=noise_var,
        prior_mean=prior_mean, chol=chol, alpha=alpha,
    )


def log_marginal_likelihood(x, y, lengthscales, signal_var, noise_var) -> float:
    n = x.shape[0]
    prior_mean = float(np.mean(y))
    resid = y - prior_mean
    k = _kernel(x, x, lengthscales, signal_var)
    try:
        chol, _ = _chol_with_jitter(k + noise_var * np.eye(n))
    except IllConditionedKernelError:
        return -np.inf
    alpha = solve_triangular(
        chol.T, solve_triangular(chol, resid, lower=True), lower=False
    )
    return float(
        -0.5 * resid @ alpha
        - np.sum(np.log(np.diag(chol)))
        - 0.5 * n * math.log(2.0 * math.pi)
    )


@dataclass(frozen=True)
class FitOptions:
    """Effort knobs for hyperparameter search.

    ``n_starts`` seeded restarts of a coordinate descent with ``passes``
    sweeps over a ``grid_size``-point per-coordinate scan.  With more than
    ``subsample`` observations the likelihood search runs on a seeded
    subsample (the posterior always uses all data).
    """

    n_starts: int = 50
    passes: int = 2
    grid_size: int = 7
    subsample: int = 256
    seed: int = 0


def fit_gp(
    x: np.ndarray,
    y: np.ndarray,
    lengthscales=None,
    signal_var: float | None = None,
    noise_var: float | None = None,
    options: FitOptions = FitOptions(),
) -> GpModel:
    """Fit the GP; hyperparameters are optimized unless given explicitly."""
    x = np.atleast_2d(np.asarray(x, float))
    y = np.asarray(y, float).ravel()
    if x.shape[0] != y.size:
        raise ValueError("x and y disagree on the number of observations")
    d = x.shape[1]
    if lengthscales is not None and signal_var is not None and noise_var is not None:
        ls = np.broadcast_to(np.asarray(lengthscales, float), (d,)).copy()
        return _build_posterior(x, y, ls, float(signal_var), float(noise_var))

    rng = np.random.default_rng(options.seed)
    if x.shape[0] > options.subsample:
        idx = rng.choice(x.shape[0], size=options.subsample, replace=False)
        xs, ys = x[idx], y[idx]
    else:
        xs, ys = x, y
    y_var = max(float(np.var(ys)), 1e-12)

    # search in log10 space: shared lengthscale, signal var, noise var
    bounds = np.array(
        [
            [-2.0, 1.0],
            [math.log10(y_var) - 2.0, math.log10(y_var) + 1.0],
            [math.log10(y_var) - 8.0, math.log10(y_var)],
        ]
    )

    def lml_of(theta):
        ls = np.full(d, 10.0 ** theta[0])
        return log_marginal_likelihood(xs, ys, ls, 10.0 ** theta[1], 10.0 ** theta[2])

    best_theta, best_lml = None, -np.inf
    starts = rng.uniform(bounds[:, 0], bounds[:, 1], size=(options.n_starts, 3))
    for theta in starts:
        theta = theta.copy()
        value = lml_of(theta)
        for _ in range(options.passes):
            for coord in range(3):
                grid = np.linspace(
                    bounds[coord, 0], bounds[coord, 1], options.grid_size
                )
                for g in grid:
                    trial = theta.copy()
                    trial[coord] = g
                    v = lml_of(trial)
                    if v > value:
                        value, theta = v, trial
        if value > best_lml:
            best_lml, best_theta = value, theta
    ls = np.full(d, 10.0 ** best_theta[0])
    return _build_posterior(x, y, ls, 10.0 ** best_theta[1], 10.0 ** best_theta[2])


def gp_posterior(model: GpModel, x_query: np.ndarray):
    """Posterior mean and variance at query points ((m,d) or (d,))."""
    xq = np.atleast_2d(np.asarray(x_query, float))
    k_star = _kernel(model.x_train, xq, model.lengthscales, model.signal_var)
    mean = model.prior_mean + k_star.T @ model.alpha
    v = solve_triangular(model.chol, k_star, lower=True)
    var = np.maximum(model.signal_var - np.sum(v**2, axis=0), 0.0)
    if np.ndim(x_query) == 1:
        return float(mean[0]), float(var[0])
    return mean, var


def expected_improvement(mean, variance, best):
    """Closed-form EI for maximization; collapses to max(mean-best, 0) at
    zero variance."""
    mean = np.asarray(mean, float)
    variance = np.asarray(variance, float)
    if np.any(variance < 0.0):
        raise ValueError("variance must be nonnegative")
    sd = np.sqrt(variance)
    improve = mean - best
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(sd > 0.0, improve / np.where(sd > 0.0, sd, 1.0), 0.0)
    cdf = ndtr(z)
    pdf = _INV_SQRT_2PI * np.exp(-0.5 * z**2)
    ei = np.where(sd > 0.0, improve * cdf + sd * pdf, np.maximum(improve, 0.0))
    return float(ei) if np.ndim(mean) == 0 else ei


@dataclass
class BoState:
    """Running record of a Bayesian-optimization search over a box."""

    lo: np.ndarray
    hi: np.ndarray
    seed: int
    x: np.ndarray = None
    scores: np.ndarray = None
    iteration: int = 0
    n_candidates: int = 2048

    def __post_init__(self):
        self.lo = np.asarray(self.lo, float)
        self.hi = np.asarray(self.hi, float)
        if self.x is None:
            self.x = np.empty((0, self.lo.size))
        if self.scores is None:
            self.scores = np.empty(0)

    @property
    def best_score(self) -> float:
        return float(np.max(self.scores))

    def add(self, point: np.ndarray, score: float) -> None:
        self.x = np.vstack([self.x, np.asarray(point, float)[None]])
        self.scores = np.append(self.scores, float(score))


def bo_propose(state: BoState, model: GpModel) -> np.ndarray:
    """EI-argmax over seeded scrambled-Sobol candidates in the box.

    Deterministic given (state.seed, state.iteration); ties (e.g. EI
    identically zero) resolve to the lowest-index candidate.
    """
    if state.x.shape[0] < 2:
        raise ValueError("need at least 2 evaluated points before proposing")
    d = state.lo.size
    sobol_seed = np.random.SeedSequence(state.seed, spawn_key=(state.iteration,))
    sampler = qmc.Sobol(d, scramble=True, seed=np.random.default_rng(sobol_seed))
    unit = sampler.random(state.n_candidates)
    cands = state.lo + unit * (state.hi - state.lo)
    # the model lives in unit-box coordinates (see run_bo)
    mean, var = gp_posterior(model, unit)
    ei = expected_improvement(mean, var, state.best_score)
    return cands[int(np.argmax(ei))]


def fit_state_model(state: BoState, options: FitOptions,
                    hyperparams: tuple | None = None) -> GpModel:
    """Fit a GP to the state's observations in unit-box coordinates."""
    unit = (state.x - state.lo) / np.maximum(state.hi - state.lo, 1e-12)
    if hyperparams is not None:
        ls, sv, nv = hyperparams
        return fit_gp(unit, state.scores, lengthscales=ls, signal_var=sv,
                      noise_var=nv, options=options)
    return fit_gp(unit, state.scores, options=options)


def run_bo(
    objective,
    lo,
    hi,
    n_init: int,
    n_iter: int,
    seed: int = 0,
    fit_options: FitOptions | None = None,
    hyperopt_every=None,
) -> BoState:
    """Random initialization followed by EI proposals.

    ``hyperopt_every(n)`` decides whether hyperparameters are re-optimized
    at the fit for observation count n (default: always).  The GP posterior
    itself is rebuilt once per new observation either way.
    """
    lo = np.asarray(lo, float)
    hi = np.asarray(hi, float)
    state = BoState(lo=lo, hi=hi, seed=seed)
    rng = np.random.default_rng(seed)
    fit_options = fit_options or FitOptions()
    if hyperopt_every is None:
        hyperopt_every = lambda n: True

    def note(point, score):
        state.add(point, score)
        state.iteration += 1

    for _ in range(n_init):
        point = rng.uniform(lo, hi)
        note(point, objective(point))

    hypers = None
    for _ in range(n_iter):
        opts = replace(fit_options, seed=fit_options.seed + state.iteration)
        if hyperopt_every(state.x.shape[0]) or hypers is None:
            model = fit_state_model(state, opts)
            hypers = (model.lengthscales, model.signal_var, model.noise_var)
        else:
            model = fit_state_model(state, opts, hyperparams=hypers)
        point = bo_propose(state, model)
        note(point, objective(point))
    return state
