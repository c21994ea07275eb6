"""Chromatography kernels: trivial identities, equilibria, mass audits."""

import numpy as np
import pytest
from scipy.optimize import brentq

from procbench.envs.mab.columns import (
    CaptureParams,
    ExchangeParams,
    LoadingStepper,
    LoopParams,
    aex_params,
    capture_elution_params,
    cex_params,
    capture_holdup,
    exchange_rhs,
    grm_loading_rhs,
    integrate_fields,
    loop_rhs,
)
from procbench.errors import ZeroModifierError
from procbench.kernels import SpatialGrid


def capture_grid(n_axial=12, n_radial=4):
    p = CaptureParams()
    return p, SpatialGrid(n_axial, p.length, n_radial=n_radial, volume=p.volume)


def test_loading_all_zero_is_static():
    p, grid = capture_grid()
    z = np.zeros(grid.n_axial)
    zp = np.zeros((grid.n_axial, grid.n_radial))
    derivs = grm_loading_rhs(z, zp, z.copy(), z.copy(), 1.0, 0.0, p, grid)
    assert all(np.max(np.abs(d)) == 0.0 for d in derivs)


def test_loading_pure_desorption_at_capacity():
    p, grid = capture_grid()
    z = np.zeros(grid.n_axial)
    zp = np.zeros((grid.n_axial, grid.n_radial))
    q1 = np.full(grid.n_axial, p.q_max1)
    q2 = np.full(grid.n_axial, p.q_max2)
    _, _, dq1, dq2 = grm_loading_rhs(z, zp, q1, q2, 0.5, 0.0, p, grid)
    assert np.allclose(dq1, -p.k_1 * p.q_max1 / p.k_eq, rtol=1e-14)
    assert np.allclose(dq2, -p.k_2 * p.q_max2 / p.k_eq, rtol=1e-14)


def breakthrough_audit(n_axial, n_radial, v, c_feed, minutes, slice_min=0.25):
    """March the loading model and audit fed = held + escaped."""
    p = CaptureParams()
    grid = SpatialGrid(n_axial, p.length, n_radial=n_radial, volume=p.volume)
    stepper = LoadingStepper(p, grid)
    dr = p.r_p / n_radial
    lam = 4.2 * p.d_eff / dr**2 + 2.0 * p.d_ax_factor * v / grid.dz**2 \
        + v / (p.eps_c * grid.dz) + p.k_1 * (p.q_max1 + 1 / p.k_eq) \
        + p.k_2 * (p.q_max2 + 1 / p.k_eq) \
        + 3 * (1 - p.eps_c) * (p.k_f_coeff * v**p.k_f_exp) / (p.eps_c * p.r_p)
    h = 2.0 / lam
    c = np.zeros(n_axial)
    cp = np.zeros((n_axial, n_radial))
    q1 = np.zeros(n_axial)
    q2 = np.zeros(n_axial)
    out_mass = 0.0
    t = 0.0
    while t < minutes - 1e-9:
        c_out_prev = c[-1]
        c, cp, q1, q2 = stepper.advance(c, cp, q1, q2, v, c_feed, slice_min, h)
        out_mass += v * 0.5 * (c_out_prev + c[-1]) * p.area * slice_min
        t += slice_min
    fed = v * c_feed * p.area * minutes
    held = capture_holdup(c, cp, q1, q2, p, grid)
    return fed, held, out_mass, c


def test_capture_mass_audit_closes():
    fed, held, out, c = breakthrough_audit(12, 4, 3.0, 30.0, minutes=35.0)
    assert c[-1] > 0.05 * 30.0  # breakthrough actually reached
    assert abs(fed - (held + out)) <= 0.01 * fed


def _rk4_loading(fields, v, c_feed, p, grid, dt, h):
    """Reference march: classical RK4 over ``grm_loading_rhs``."""
    n = int(np.ceil(dt / h))
    h = dt / n

    def deriv(y):
        return list(grm_loading_rhs(*y, v, c_feed, p, grid))

    y = list(fields)
    for _ in range(n):
        k1 = deriv(y)
        k2 = deriv([a + 0.5 * h * b for a, b in zip(y, k1)])
        k3 = deriv([a + 0.5 * h * b for a, b in zip(y, k2)])
        k4 = deriv([a + h * b for a, b in zip(y, k3)])
        y = [a + h / 6.0 * (b1 + 2 * b2 + 2 * b3 + b4)
             for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)]
    return y


def _rk4_stability_step(p, grid, v):
    """The explicit-RK4 stability step of the loading model, whose stiffest
    term is the radial pore diffusion."""
    dr = p.r_p / grid.n_radial
    k_f = p.k_f_coeff * v**p.k_f_exp
    lam = (4.2 * p.d_eff / dr**2 + 2.0 * p.d_ax_factor * v / grid.dz**2
           + v / (p.eps_c * grid.dz)
           + 3 * (1 - p.eps_c) * k_f / (p.eps_c * p.r_p)
           + p.k_1 * (p.q_max1 + 1 / p.k_eq) + p.k_2 * (p.q_max2 + 1 / p.k_eq))
    return 2.6 / lam


@pytest.mark.parametrize("v", [0.01, 3.0])
def test_loading_stepper_matches_rk4_reference(v):
    """One one-minute slice from a random loaded state (an empty column
    loaded for a random time at a random feed, then jittered by 1%), at the
    stepper's own substep, against RK4 at a quarter of the RK4 stability
    step."""
    p, grid = capture_grid(30, 8)
    stepper = LoadingStepper(p, grid)
    rng = np.random.default_rng(0)
    c_feed = 10.0 ** rng.uniform(np.log10(0.3), np.log10(30.0))
    z = np.zeros(grid.n_axial)
    state = stepper.advance(z, np.zeros((grid.n_axial, grid.n_radial)), z, z,
                            v, c_feed, rng.uniform(5.0, 60.0))
    state = [a * rng.uniform(0.99, 1.01, a.shape) for a in state]
    got = stepper.advance(*state, v, c_feed, 1.0)
    want = _rk4_loading(state, v, c_feed, p, grid, 1.0,
                        0.25 * _rk4_stability_step(p, grid, v))
    for g, w in zip(got, want):
        assert np.max(np.abs(g - w)) <= 1e-3 * np.max(np.abs(w))


def test_loading_stepper_conserves_mass_at_operating_point():
    """Default grid, the env's loading velocity and feed, 120 one-minute
    slices at the stepper's own substep: fed = held + escaped."""
    p, grid = capture_grid(30, 8)
    stepper = LoadingStepper(p, grid)
    v, c_feed = 0.01, 0.3
    c = np.zeros(grid.n_axial)
    cp = np.zeros((grid.n_axial, grid.n_radial))
    q1 = np.zeros(grid.n_axial)
    q2 = np.zeros(grid.n_axial)
    out_mass = 0.0
    for _ in range(120):
        prev = c[-1]
        c, cp, q1, q2 = stepper.advance(c, cp, q1, q2, v, c_feed, 1.0)
        out_mass += v * 0.5 * (prev + c[-1]) * p.area
    fed = v * c_feed * p.area * 120.0
    held = capture_holdup(c, cp, q1, q2, p, grid)
    assert held > 0.5 * fed  # the column actually loaded
    assert abs(fed - (held + out_mass)) <= 1e-6 * fed


def _march_to_equilibrium(p: ExchangeParams, c0, q0, cs_level):
    grid = SpatialGrid(3, p.length, volume=p.volume)
    c = np.full(3, c0)
    q = np.full(3, q0)
    cs = np.full(3, cs_level)
    h = 0.01
    for _ in range(200000):
        dc, dq, dcs = exchange_rhs(c, q, cs, 0.0, 0.0, cs_level, p, grid)
        c = c + h * dc
        q = q + h * dq
        cs = cs + h * dcs
        if np.max(np.abs(dq)) < 1e-13:
            break
    return float(c[0]), float(q[0])


def test_cex_single_node_equilibrium_two_ways():
    p = cex_params()
    cs_level = 0.5
    henry = p.h_0 * cs_level ** (-p.beta)
    c0, q0 = 2.0, 0.0
    c_end, q_end = _march_to_equilibrium(p, c0, q0, cs_level)
    # independent algebraic root under the conserved linear combination
    total = p.eps_total * c0 + (1.0 - p.eps_c) * q0

    def f(q):
        c = (total - (1.0 - p.eps_c) * q) / p.eps_total
        return henry * (1.0 - q / p.q_max) * c - q

    q_root = brentq(f, 0.0, p.q_max, xtol=1e-14)
    assert abs(q_end - q_root) <= 1e-8


def test_beta_zero_reduces_to_plain_langmuir():
    base = cex_params()
    p = ExchangeParams(
        q_max=base.q_max, k_kin=base.k_kin, h_0=0.8, beta=0.0,
        d_ax_factor=base.d_ax_factor, length=base.length, volume=base.volume,
        eps_c=base.eps_c, eps_total=base.eps_total,
    )
    c_end, q_end = _march_to_equilibrium(p, 1.5, 0.0, cs_level=0.123)
    # modifier-independent Langmuir; the kinetics' saturation factor is
    # (1 - q/qmax), so the equilibrium ratio carries 1/qmax
    assert q_end / (p.q_max - q_end) == pytest.approx(
        0.8 * c_end / p.q_max, abs=1e-8
    )


def test_aex_nothing_binds():
    p = aex_params()
    grid = SpatialGrid(20, p.length, volume=p.volume)
    rng = np.random.default_rng(1)
    c = rng.uniform(0, 2, 20)
    q = rng.uniform(0, 5, 20)
    cs = np.full(20, 0.5)
    _, dq, _ = exchange_rhs(c, q, cs, 2.0, 0.3, 0.5, p, grid)
    assert np.max(np.abs(dq)) == 0.0


def test_aex_pulse_full_recovery():
    p = aex_params()
    n = 20
    grid = SpatialGrid(n, p.length, volume=p.volume)
    z = grid.z_centers
    c = np.exp(-0.5 * ((z - 0.3 * p.length) / (0.08 * p.length)) ** 2)
    q = np.zeros(n)
    cs = np.full(n, 0.5)
    v = 3.0
    initial_mass = p.eps_total * np.sum(c) * grid.dz * p.area
    h = 0.2 / (2.0 * p.d_ax_factor * v / grid.dz**2 + v / (p.eps_total * grid.dz))
    out = 0.0
    t = 0.0
    while t < 30.0:
        c_prev_out = c[-1]
        dc, dq, dcs = exchange_rhs(c, q, cs, v, 0.0, 0.5, p, grid)
        c = np.maximum(c + h * dc, 0.0)
        cs = cs + h * dcs
        out += v * 0.5 * (c_prev_out + c[-1]) * p.area * h
        t += h
    assert np.max(c) < 1e-4  # column emptied
    assert out == pytest.approx(initial_mass, rel=0.01)


def test_aex_equals_loop_when_scaling_matched():
    loop = LoopParams()
    grid = SpatialGrid(30, loop.length, volume=loop.volume)
    p = ExchangeParams(
        q_max=1.0, k_kin=0.0, h_0=0.0, beta=0.0,
        d_ax_factor=loop.d_ax_factor, length=loop.length, volume=loop.volume,
        eps_c=1.0, eps_total=1.0,
    )
    rng = np.random.default_rng(4)
    c = rng.uniform(0, 1, 30)
    v, inlet = 2.5, 0.7
    dc_exchange, _, _ = exchange_rhs(c, np.zeros(30), np.ones(30), v, inlet, 1.0, p, grid)
    dc_loop = loop_rhs(c, v, inlet, loop, grid)
    assert np.allclose(dc_exchange, dc_loop, rtol=1e-14)


def test_loop_uniform_field_static():
    loop = LoopParams()
    grid = SpatialGrid(40, loop.length, volume=loop.volume)
    c = np.full(40, 0.9)
    assert np.max(np.abs(loop_rhs(c, 5.0, 0.9, loop, grid))) == 0.0


def _track_loop_peak(n_axial, v):
    # The tabulated loop dispersion (D_ax = 290 v) gives a Peclet number
    # near 2: a pulse mixes across the whole loop long before it arrives,
    # so no traveling peak exists to time.  The advection-speed property of
    # the transport kernel is verified at a reduced dispersion factor; mass
    # conservation is checked at the tabulated value separately.
    loop = LoopParams(d_ax_factor=2.9)
    grid = SpatialGrid(n_axial, loop.length, volume=loop.volume)
    z = grid.z_centers
    c = np.exp(-0.5 * ((z - 0.15 * loop.length) / (0.02 * loop.length)) ** 2)
    d_ax = loop.d_ax_factor * v
    # explicit-Euler march: diffusion number <= 0.25, CFL <= 0.5
    h = min(0.25 * grid.dz**2 / d_ax, 0.5 * grid.dz / v)
    times, peaks = [], []
    in_mass0 = np.sum(c) * grid.dz
    out = 0.0
    t = 0.0
    while t < 0.8 * loop.length / v:
        c_prev_out = c[-1]
        dc = loop_rhs(c, v, 0.0, loop, grid)
        c = np.maximum(c + h * dc, 0.0)
        out += v * 0.5 * (c_prev_out + c[-1]) * h
        t += h
        j = int(np.argmax(c))
        if 1 <= j <= n_axial - 2:
            # quadratic vertex interpolation for sub-grid peak position
            y0, y1, y2 = c[j - 1], c[j], c[j + 1]
            denom = y0 - 2 * y1 + y2
            offset = 0.5 * (y0 - y2) / denom if denom != 0 else 0.0
            zp = z[j] + offset * grid.dz
            if 0.3 * loop.length <= zp <= 0.7 * loop.length:
                times.append(t)
                peaks.append(zp)
    slope = np.polyfit(times, peaks, 1)[0]
    balance = (np.sum(c) * grid.dz + out) / in_mass0
    return slope, balance


def test_loop_pulse_travels_at_carrier_velocity():
    v = 60.0
    slope, balance = _track_loop_peak(120, v)
    arrival = LoopParams().length / slope
    nominal = LoopParams().length / v
    assert abs(arrival - nominal) <= 0.05 * nominal
    assert balance == pytest.approx(1.0, abs=0.01)  # mass audit over traversal


def test_loop_mass_conserved_at_tabulated_dispersion():
    loop = LoopParams()
    n = 60
    grid = SpatialGrid(n, loop.length, volume=loop.volume)
    z = grid.z_centers
    c = np.exp(-0.5 * ((z - 0.3 * loop.length) / (0.05 * loop.length)) ** 2)
    v = 30.0
    d_ax = loop.d_ax_factor * v
    h = min(0.25 * grid.dz**2 / d_ax, 0.5 * grid.dz / v)
    mass0 = np.sum(c) * grid.dz
    out = 0.0
    t = 0.0
    while t < loop.length / v:
        c_prev = c[-1]
        c = np.maximum(c + h * loop_rhs(c, v, 0.0, loop, grid), 0.0)
        out += v * 0.5 * (c_prev + c[-1]) * h
        t += h
    assert (np.sum(c) * grid.dz + out) == pytest.approx(mass0, rel=0.01)


def test_elution_requires_modifier():
    p = capture_elution_params()
    grid = SpatialGrid(5, p.length, volume=p.volume)
    with pytest.raises(ZeroModifierError):
        exchange_rhs(np.ones(5), np.ones(5), np.zeros(5), 1.0, 0.0, 0.1, p, grid)


def test_elution_inert_modifier_transport_only():
    p = capture_elution_params()
    grid = SpatialGrid(8, p.length, volume=p.volume)
    c = np.zeros(8)
    q = np.zeros(8)
    cs = np.linspace(0.01, 0.1, 8)
    dc, dq, dcs = exchange_rhs(c, q, cs, 1.5, 0.0, 0.12, p, grid)
    assert np.max(np.abs(dq)) == 0.0
    assert np.max(np.abs(dc)) == 0.0
    assert np.max(np.abs(dcs)) > 0.0


def test_literal_adsorption_sign_flips_coupling():
    p = capture_elution_params()
    grid = SpatialGrid(6, p.length, volume=p.volume)
    rng = np.random.default_rng(5)
    c = rng.uniform(0.1, 1.0, 6)
    q = rng.uniform(0.0, 50.0, 6)
    cs = np.full(6, 0.1)
    dc_minus, dq, _ = exchange_rhs(c, q, cs, 0.0, 0.0, 0.1, p, grid)
    dc_plus, _, _ = exchange_rhs(c, q, cs, 0.0, 0.0, 0.1, p, grid,
                                 literal_adsorption_sign=True)
    assert np.allclose(dc_plus, -dc_minus, rtol=1e-14)
    assert np.max(np.abs(dq)) > 0.0


def test_integrate_fields_survives_stiff_start():
    decay = 1000.0

    def deriv(fields):
        return [-decay * fields[0]]

    out = integrate_fields(deriv, [np.ones(4)], dt=0.1, h_start=0.05)[0]
    assert np.all(np.isfinite(out))
    assert np.max(out) < 1e-6  # fully decayed, no blow-up


def test_integrate_fields_respects_floor():
    def deriv(fields):
        return [np.full(3, -5.0)]

    out = integrate_fields(deriv, [np.full(3, 0.02)], dt=1.0, h_start=0.1,
                           floors=[0.01])[0]
    assert np.all(out >= 0.01)


def test_named_elution_and_aex_wrappers():
    """exchange_rhs under the named elution and AEX parameter sets: at the
    same state the elution set exchanges protein and the AEX set freezes
    the adsorbed phase."""
    rng = np.random.default_rng(9)
    elu = capture_elution_params()
    grid = SpatialGrid(10, elu.length, volume=elu.volume)
    c = rng.uniform(0, 1, 10)
    q = rng.uniform(0, 50, 10)
    cs = np.full(10, 0.1)

    _, dq_elu, dcs_elu = exchange_rhs(c, q, cs, 1.2, 0.0, 0.1, elu, grid)
    assert np.max(np.abs(dq_elu)) > 0.0
    assert np.all(np.isfinite(dq_elu))
    aexp = aex_params()
    agrid = SpatialGrid(10, aexp.length, volume=aexp.volume)
    _, dq, dcs = exchange_rhs(c, q, cs, 1.2, 0.0, 0.5, aexp, agrid)
    assert np.max(np.abs(dq)) == 0.0
    assert np.all(np.isfinite(dcs))


def test_capture_outlet_curve_grid_insensitive():
    """Doubling the axial resolution beyond the default moves the
    breakthrough curve by less than 5% in L1."""

    def outlet_curve(n_axial):
        p = CaptureParams()
        n_radial = 8
        grid = SpatialGrid(n_axial, p.length, n_radial=n_radial, volume=p.volume)
        stepper = LoadingStepper(p, grid)
        v, cf = 3.0, 30.0
        dr = p.r_p / n_radial
        k_f = p.k_f_coeff * v**p.k_f_exp
        lam = (4.2 * p.d_eff / dr**2 + 2.0 * p.d_ax_factor * v / grid.dz**2
               + v / (p.eps_c * grid.dz) + p.k_1 * (p.q_max1 + 1 / p.k_eq)
               + p.k_2 * (p.q_max2 + 1 / p.k_eq)
               + 3 * (1 - p.eps_c) * k_f / (p.eps_c * p.r_p))
        h = 2.0 / lam
        c = np.zeros(n_axial)
        cp = np.zeros((n_axial, n_radial))
        q1 = np.zeros(n_axial)
        q2 = np.zeros(n_axial)
        curve = []
        for _ in range(120):
            c, cp, q1, q2 = stepper.advance(c, cp, q1, q2, v, cf, 0.25, h)
            curve.append(c[-1])
        return np.asarray(curve)

    coarse = outlet_curve(30)  # default resolution
    fine = outlet_curve(60)
    rel_l1 = np.sum(np.abs(coarse - fine)) / np.sum(np.abs(fine))
    assert rel_l1 < 0.05
