"""GP posterior, expected improvement and proposal-loop tests."""

import math

import numpy as np
import pytest
from scipy.stats import qmc

import procbench.bayesopt as bo
from procbench.bayesopt import (
    BoState,
    FitOptions,
    bo_propose,
    expected_improvement,
    fit_gp,
    gp_posterior,
    run_bo,
)

FAST_FIT = FitOptions(n_starts=8, passes=1, grid_size=5)


def test_posterior_interpolates_noise_free_data():
    x = np.array([[0.2], [0.8]])
    y = np.array([1.0, 3.0])
    m = fit_gp(x, y, lengthscales=[0.2], signal_var=2.0, noise_var=0.0)
    mu, var = gp_posterior(m, np.array([0.2]))
    assert abs(mu - 1.0) < 1e-8
    assert var <= 1e-8


def test_posterior_reverts_to_prior_far_away():
    x = np.array([[0.2], [0.8]])
    y = np.array([1.0, 3.0])
    m = fit_gp(x, y, lengthscales=[0.2], signal_var=2.0, noise_var=0.0)
    mu, var = gp_posterior(m, np.array([60.0]))
    assert mu == pytest.approx(np.mean(y), rel=0.01)
    assert var == pytest.approx(2.0, rel=0.01)


def test_posterior_midpoint_of_symmetric_pair():
    x = np.array([[-1.0], [1.0]])
    y = np.array([0.5, 2.5])
    m = fit_gp(x, y, lengthscales=[0.7], signal_var=1.0, noise_var=0.0)
    mu, _ = gp_posterior(m, np.array([0.0]))
    # symmetry makes the posterior mean the average of both targets
    assert mu == pytest.approx(np.mean(y), abs=1e-10)


def test_ei_zero_variance_cases():
    assert expected_improvement(0.5, 0.0, 1.0) == 0.0
    assert expected_improvement(1.5, 0.0, 1.0) == pytest.approx(0.5)


def test_ei_at_best_with_unit_sd():
    assert expected_improvement(0.0, 1.0, 0.0) == pytest.approx(
        1.0 / np.sqrt(2.0 * np.pi), abs=1e-12
    )


def test_ei_monotone_in_sd_at_mean_equal_best():
    sds = np.linspace(0.1, 3.0, 15)
    ei = expected_improvement(np.zeros(15), sds**2, 0.0)
    assert np.all(np.diff(ei) > 0.0)


def test_ei_matches_erf_form_over_wide_z_range():
    # the former closed form, with the normal cdf through math.erf
    z = np.linspace(-40.0, 40.0, 16001)
    cdf = 0.5 * (1.0 + np.array([math.erf(v / math.sqrt(2.0)) for v in z]))
    pdf = np.exp(-0.5 * z**2) / math.sqrt(2.0 * math.pi)
    want = z * cdf + pdf  # mean z, unit sd, best 0
    got = expected_improvement(z, np.ones_like(z), 0.0)
    # the cdfs agree to 1e-15; EI multiplies the cdf by the improvement z
    assert np.all(np.abs(got - want) <= 1e-15 * np.maximum(1.0, np.abs(z)))
    assert np.all(got >= 0.0)


def test_ei_rejects_negative_variance():
    with pytest.raises(ValueError):
        expected_improvement(0.0, -1.0, 0.0)


def test_propose_requires_two_points():
    state = BoState(lo=[0.0], hi=[1.0], seed=0)
    state.add([0.5], 1.0)
    m = fit_gp(state.x, state.scores, lengthscales=[0.3], signal_var=1.0,
               noise_var=1e-6)
    with pytest.raises(ValueError):
        bo_propose(state, m)


def test_propose_stays_in_box_and_is_deterministic():
    state = BoState(lo=[-1.0, 2.0], hi=[1.0, 4.0], seed=5)
    rng = np.random.default_rng(1)
    for _ in range(6):
        state.add(rng.uniform(state.lo, state.hi), rng.normal())
    unit = (state.x - state.lo) / (state.hi - state.lo)
    m = fit_gp(unit, state.scores, lengthscales=[0.3, 0.3], signal_var=1.0,
               noise_var=1e-6)
    p1 = bo_propose(state, m)
    p2 = bo_propose(state, m)
    assert np.array_equal(p1, p2)
    assert np.all(p1 >= state.lo) and np.all(p1 <= state.hi)


def test_propose_flat_ei_takes_first_candidate():
    # zero signal variance: posterior mean is the prior everywhere, which
    # sits below the best observed score, so EI is identically zero
    state = BoState(lo=[0.0], hi=[1.0], seed=9)
    state.add([0.2], 0.0)
    state.add([0.8], 2.0)
    m = fit_gp(state.x, state.scores, lengthscales=[0.3], signal_var=0.0,
               noise_var=1.0)
    got = bo_propose(state, m)
    ss = np.random.SeedSequence(9, spawn_key=(state.iteration,))
    sampler = qmc.Sobol(1, scramble=True, seed=np.random.default_rng(ss))
    expected = sampler.random(2048)[0, 0]
    assert got[0] == pytest.approx(expected, abs=1e-15)


def test_best_score_nondecreasing_and_refit_once_per_observation(monkeypatch):
    calls = {"n": 0, "optimized": []}
    real_fit = bo.fit_gp

    def counting_fit(x, y, lengthscales=None, signal_var=None, noise_var=None,
                     options=FitOptions()):
        calls["n"] += 1
        calls["optimized"].append(lengthscales is None)
        return real_fit(x, y, lengthscales, signal_var, noise_var, options)

    monkeypatch.setattr(bo, "fit_gp", counting_fit)
    bests = []
    real_propose = bo.bo_propose

    def recording_propose(state, model):
        bests.append(state.best_score)
        return real_propose(state, model)

    monkeypatch.setattr(bo, "bo_propose", recording_propose)
    state = run_bo(
        lambda p: -((p[0] - 0.6) ** 2),
        [0.0], [1.0],
        n_init=3,
        n_iter=7,
        seed=2,
        fit_options=FAST_FIT,
        hyperopt_every=lambda n: n % 2 == 0,
    )
    assert len(bests) == 7
    assert np.all(np.diff(bests) >= 0.0)
    assert state.best_score == max(state.scores)
    assert calls["n"] == 7  # exactly one posterior fit per proposal round
    # hyperparameters re-optimized only on the scheduled rounds
    assert any(calls["optimized"]) and not all(calls["optimized"])


def test_bo_beats_random_search_small():
    wins = 0
    for seed in range(20):
        state = run_bo(lambda p: -((p[0] - 0.7) ** 2), [0.0], [1.0],
                       n_init=5, n_iter=25, seed=seed, fit_options=FAST_FIT)
        rng = np.random.default_rng(10_000 + seed)
        random_best = max(-((rng.uniform(0.0, 1.0) - 0.7) ** 2) for _ in range(30))
        wins += state.best_score > random_best
    assert wins >= 17


def test_jitter_escalation_rescues_coincident_points():
    x = np.zeros((40, 1))  # forty coincident points, zero noise
    y = np.linspace(0.0, 1.0, 40)
    m = fit_gp(x, y, lengthscales=[1.0], signal_var=1.0, noise_var=0.0)
    mu, _ = gp_posterior(m, np.array([0.0]))
    assert np.isfinite(mu)


def test_ill_conditioned_kernel_raises():
    from procbench.errors import IllConditionedKernelError
    from procbench.bayesopt import _chol_with_jitter

    indefinite = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3 and -1
    with pytest.raises(IllConditionedKernelError):
        _chol_with_jitter(indefinite)

