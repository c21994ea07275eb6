"""Upstream bioreactor/separator model tests."""

import math

import numpy as np
import pytest

from procbench.envs.mab.upstream import (
    N_INPUTS,
    N_STATES,
    UpstreamParams,
    economic_objective,
    growth_rates,
    integrate_fields,
    mu_death_max_of_temp,
    mu_max_of_temp,
    ph_of_ammonia,
    upstream_h0,
    upstream_rhs,
    upstream_system,
)
from procbench.errors import ZeroRecycleFlowError
from procbench.kernels import OdeSystem


def duplicate_rhs(x, u, p):
    """Independent scalar re-coding of all seventeen balances (oracle)."""
    (v1, xv1, xt1, glc1, gln1, lac1, amm1, mab1, temp,
     v2, xv2, xt2, glc2, gln2, lac2, amm2, mab2) = x
    f_in, f_r, f_1, f_2, t_c, glc_in, amm_in = u

    mu_max = 0.0016 * temp - 0.0308
    mud_max = -0.0045 * temp + 0.1682
    f_lim = (glc1 / (p.k_glc + glc1)) * (gln1 / (p.k_gln + gln1))
    f_inh = (p.ki_lac / (p.ki_lac + lac1)) * (p.ki_amm / (p.ki_amm + amm1))
    mu = mu_max * f_lim * f_inh
    mu_d = 0.0 if amm1 == 0.0 else mud_max / (1.0 + (p.k_d_amm / amm1) ** p.n_death)

    ratio = 0.0 if f_r == 0.0 else f_1 / f_r
    xv_r = p.eta_rec * xv1 * ratio
    xt_r = p.eta_rec * xt1 * ratio
    glc_r = p.eta_ret * glc1 * ratio
    gln_r = p.eta_ret * gln1 * ratio
    lac_r = p.eta_ret * lac1 * ratio
    amm_r = p.eta_ret * amm1 * ratio
    mab_r = p.eta_ret * mab1 * ratio

    q_glc = mu / p.y_x_glc + p.m_glc
    m_gln = p.alpha1 * gln1 / (p.alpha2 + gln1)
    q_gln = mu / p.y_x_gln + m_gln
    q_lac = p.y_lac_glc * q_glc
    q_amm = p.y_amm_gln * q_gln
    ph = 7.1697 - math.log10(0.074028 * amm1 + 0.968385)
    q_mab = p.q_mab_max * math.exp(-0.5 * ((ph - p.ph_opt) / p.omega_mab) ** 2)

    out = np.empty(N_STATES)
    out[0] = f_in + f_r - f_1
    out[1] = mu * xv1 - mu_d * xv1 - f_in / v1 * xv1 + f_r / v1 * (xv_r - xv1)
    out[2] = mu * xv1 - f_in / v1 * xt1 + f_r / v1 * (xt_r - xt1)
    out[3] = -q_glc * xv1 + f_in / v1 * (glc_in - glc1) + f_r / v1 * (glc_r - glc1)
    out[4] = (
        -q_gln * xv1 - p.k_d_gln * gln1 + f_in / v1 * (p.gln_in - gln1)
        + f_r / v1 * (gln_r - gln1)
    )
    out[5] = q_lac * xv1 - f_in / v1 * lac1 + f_r / v1 * (lac_r - lac1)
    out[6] = q_amm * xv1 + p.k_d_gln * gln1 - f_in / v1 * amm1 + f_r / v1 * (amm_r - amm1)
    out[7] = q_mab * xv1 - f_in / v1 * mab1 + f_r / v1 * (mab_r - mab1)
    hc = p.rho * p.c_p
    out[8] = (
        f_in / v1 * (p.t_in - temp)
        + p.minus_dh / hc * (mu * xv1 / p.cells_per_mol)
        + p.u_heat / (v1 * hc) * (t_c - temp)
    )
    out[9] = f_1 - f_2 - f_r
    out[10] = f_1 / v2 * (xv1 - xv2) - f_r / v2 * (xv_r - xv2)
    out[11] = f_1 / v2 * (xt1 - xt2) - f_r / v2 * (xt_r - xt2)
    out[12] = f_1 / v2 * (glc1 - glc2) - f_r / v2 * (glc_r - glc2)
    out[13] = f_1 / v2 * (gln1 - gln2) - f_r / v2 * (gln_r - gln2)
    out[14] = f_1 / v2 * (lac1 - lac2) - f_r / v2 * (lac_r - lac2)
    out[15] = f_1 / v2 * (amm1 - amm2) - f_r / v2 * (amm_r - amm2)
    out[16] = f_1 / v2 * (mab1 - mab2) - f_r / v2 * (mab_r - mab2)
    return out


def random_points(rng, n):
    lo = np.array([200, 1e8, 1e8, 0.1, 0.05, 0.1, 0.05, 10, 33.5,
                   20, 1e7, 1e7, 0.1, 0.05, 0.1, 0.05, 10], float)
    hi = np.array([1500, 2e10, 4e10, 60, 10, 100, 20, 2000, 36.9,
                   400, 1e10, 2e10, 60, 10, 100, 20, 3000], float)
    xs = rng.uniform(lo, hi, size=(n, N_STATES))
    xs[:, 2] = np.maximum(xs[:, 2], xs[:, 1])
    us = rng.uniform([0.001, 0.001, 0.001, 0, 33, 0, 0],
                     [0.2, 0.5, 0.5, 0.2, 37, 100, 10], size=(n, N_INPUTS))
    return xs, us


def test_growth_law_values():
    assert mu_max_of_temp(37.0) == pytest.approx(0.0284, abs=1e-12)
    assert mu_max_of_temp(33.0) == pytest.approx(0.0220, abs=1e-12)
    assert mu_death_max_of_temp(33.0) == pytest.approx(0.0197, abs=1e-12)


def test_death_rate_half_maximum_at_threshold():
    p = UpstreamParams()
    for n in (2.0, 3.7):
        pn = UpstreamParams(n_death=n)
        _, mu_d = growth_rates(10.0, 5.0, 0.0, pn.k_d_amm, 35.0, pn)
        assert mu_d == pytest.approx(mu_death_max_of_temp(35.0) / 2.0, rel=1e-12)
    _, mu_d0 = growth_rates(10.0, 5.0, 0.0, 0.0, 35.0, p)
    assert mu_d0 == 0.0


def test_growth_saturates_to_mu_max():
    """Also outside the fitted 33..37 degC band, which the laws extrapolate."""
    p = UpstreamParams()
    for temp in (32.0, 36.0, 37.5):
        mu, _ = growth_rates(1e9, 1e9, 0.0, 0.0, temp, p)
        assert mu == pytest.approx(mu_max_of_temp(temp), rel=1e-6)


def test_growth_continuous_in_temperature():
    p = UpstreamParams()
    temps = np.linspace(33.0, 37.0, 41)
    mus = [growth_rates(20.0, 4.0, 1.0, 1.0, t, p)[0] for t in temps]
    muds = [growth_rates(20.0, 4.0, 1.0, 1.0, t, p)[1] for t in temps]
    assert np.max(np.abs(np.diff(mus))) < 1e-3
    assert np.max(np.abs(np.diff(muds))) < 1e-3


def test_ph_values():
    assert ph_of_ammonia(0.0) == pytest.approx(7.1836, abs=1e-3)
    amm = (1.0 - 0.968385) / 0.074028  # argument of the log equals one
    assert ph_of_ammonia(amm) == pytest.approx(7.1697, abs=1e-3)
    grid = np.linspace(0.0, 30.0, 50)
    ph = ph_of_ammonia(grid)
    assert np.all(np.diff(ph) < 0.0)


def test_economic_objective_examples():
    x = np.zeros(N_STATES)
    u = np.zeros(N_INPUTS)
    assert economic_objective(x, u) == 0.0
    x[7], x[16] = 10.0, 5.0
    u[2], u[3] = 2.0, 4.0
    assert economic_objective(x, u) == pytest.approx(40.0)
    u2 = u.copy()
    u2[2] *= 3.0
    u2[3] *= 3.0
    assert economic_objective(x, u2) == pytest.approx(3.0 * economic_objective(x, u))


def test_zero_flow_zero_cells_leaves_only_glutamine_decay():
    p = UpstreamParams()
    x = np.array([500.0, 0.0, 0.0, 20.0, 5.0, 1.0, 0.5, 100.0, 36.0,
                  50.0, 0.0, 0.0, 20.0, 5.0, 1.0, 0.5, 100.0])
    u = np.array([0.0, 0.0, 0.0, 0.0, 36.0, 50.0, 0.0])  # T_c = T
    d = upstream_rhs(x, u, p)
    expected = np.zeros(N_STATES)
    expected[4] = -p.k_d_gln * 5.0
    expected[6] = p.k_d_gln * 5.0
    assert np.allclose(d, expected, atol=1e-14)


def test_bioreactor_volume_balance():
    p = UpstreamParams()
    x = np.array([500.0, 1e9, 1.1e9, 20.0, 5.0, 1.0, 0.5, 100.0, 36.0,
                  50.0, 1e8, 1.1e8, 20.0, 5.0, 1.0, 0.5, 100.0])
    u = np.array([2.0, 1.0, 3.0, 0.5, 36.0, 50.0, 0.0])
    assert upstream_rhs(x, u, p)[0] == 0.0


def test_rhs_matches_duplicate_oracle():
    p = UpstreamParams()
    rng = np.random.default_rng(23)
    xs, us = random_points(rng, 400)
    for x, u in zip(xs, us):
        got = upstream_rhs(x, u, p)
        want = duplicate_rhs(x, u, p)
        denom = np.maximum(np.abs(want), 1e-30)
        assert np.max(np.abs(got - want) / denom) < 1e-12


def test_separator_inert_without_feed_or_recycle():
    p = UpstreamParams()
    x = np.array([500.0, 1e9, 1.1e9, 20.0, 5.0, 1.0, 0.5, 100.0, 36.0,
                  50.0, 2e8, 2.2e8, 15.0, 4.0, 2.0, 0.7, 300.0])
    u = np.array([0.1, 0.0, 0.0, 0.0, 36.0, 50.0, 0.0])  # F_1 = F_r = 0
    d = upstream_rhs(x, u, p)
    assert np.max(np.abs(d[10:])) == 0.0


def test_zero_recycle_with_outflow_raises():
    p = UpstreamParams()
    x = np.ones(N_STATES)
    x[0], x[9] = 500.0, 50.0
    x[8] = 36.0
    u = np.array([0.1, 0.0, 0.2, 0.0, 36.0, 50.0, 0.0])
    with pytest.raises(ZeroRecycleFlowError):
        upstream_rhs(x, u, p)


def test_batched_rhs_matches_scalar():
    p = UpstreamParams()
    rng = np.random.default_rng(31)
    xs, us = random_points(rng, 16)
    batched = upstream_rhs(xs, us, p)
    for i in range(16):
        assert np.allclose(batched[i], upstream_rhs(xs[i], us[i], p), rtol=1e-14)


def test_integrate_fields_survives_stiff_start():
    decay = 1000.0
    system = OdeSystem(dim=4, rhs=lambda t, x, u: -decay * x)
    out = integrate_fields(system, np.ones(4), np.zeros(0), dt=0.1, h_start=0.05)
    assert np.all(np.isfinite(out))
    assert np.max(out) < 1e-6  # fully decayed, no blow-up


def test_integrate_fields_respects_floor():
    seen = []

    def rhs(t, x, u):
        seen.append(x.copy())
        return np.full(3, -5.0)

    system = OdeSystem(dim=3, rhs=rhs)
    out = integrate_fields(system, np.full(3, 0.02), np.zeros(0), dt=1.0, h_start=0.1)
    assert np.array_equal(out, np.zeros(3))
    assert min(float(np.min(x)) for x in seen) == 0.0  # every stage floored


def test_integrate_fields_matches_hand_clamped_rk4_loop():
    """The driver is pinned bit-for-bit to a hand-written RK4 loop whose
    stages and accepted substeps are clamped at zero, over one-minute
    slices from seeded in-box upstream states and actions."""
    p = UpstreamParams()
    system = upstream_system(p)
    xs, us = random_points(np.random.default_rng(16), 20)
    # no glucose left or fed: maintenance uptake drives the stages below 0
    xs[::2, 3] = 0.0
    us[::2, 5] = 0.0
    clamped_stages = 0
    for x0, u in zip(xs, us):
        h0 = upstream_h0(x0, p)
        x, t, h = x0.copy(), 0.0, min(h0, 1.0)
        while t < 1.0 - 1e-12:
            h_try = min(h, 1.0 - t)
            k1 = upstream_rhs(x, u, p)
            stage = x + 0.5 * h_try * k1
            clamped_stages += np.any(stage < 0.0)
            k2 = upstream_rhs(np.maximum(stage, 0.0), u, p)
            stage = x + 0.5 * h_try * k2
            clamped_stages += np.any(stage < 0.0)
            k3 = upstream_rhs(np.maximum(stage, 0.0), u, p)
            stage = x + h_try * k3
            clamped_stages += np.any(stage < 0.0)
            k4 = upstream_rhs(np.maximum(stage, 0.0), u, p)
            x = np.maximum(x + (h_try / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), 0.0)
            t += h_try
            h = min(h * 2.0, h0)
        assert np.array_equal(integrate_fields(system, x0, u, 1.0, h0), x)
    assert clamped_stages > 0  # the clamp is exercised, not vacuous
