"""Numerical kernel tests: integrators, steady-state solver, stencils."""

import numpy as np
import pytest

from procbench.errors import NonFiniteStateError
from procbench.kernels import (
    DOPRI_A,
    DOPRI_B,
    DOPRI_C,
    DOPRI_E,
    PI_ERR_FLOOR,
    PI_FACTOR_MAX,
    PI_FACTOR_MIN,
    OdeSystem,
    pi_step_factor,
    SpatialGrid,
    central_dispersion,
    integrate,
    rk4_step,
    solve_steady_state,
    upwind_convection,
)

U0 = np.zeros(1)


def expo_system():
    return OdeSystem(dim=1, rhs=lambda t, x, u: x)


def test_rk4_zero_derivative_identity():
    sys0 = OdeSystem(dim=3, rhs=lambda t, x, u: np.zeros(3))
    x = np.array([1.0, 2.0, 3.0])
    assert np.array_equal(rk4_step(sys0, 0.0, x, U0, 0.1), x)


def test_rk4_exponential_one_step():
    out = rk4_step(expo_system(), 0.0, np.array([1.0]), U0, 0.1)
    assert abs(out[0] - np.exp(0.1)) < 1e-7


def test_rk4_constant_derivative_exact():
    # dyadic values make the quadrature arithmetic exact in binary
    c, h = 0.125, 0.75
    sysc = OdeSystem(dim=1, rhs=lambda t, x, u: np.full(1, c))
    out = rk4_step(sysc, 0.0, np.zeros(1), U0, h)
    assert out[0] == c * h


def test_rk4_rejects_nonfinite():
    bad = OdeSystem(dim=1, rhs=lambda t, x, u: np.full(1, np.nan))
    with pytest.raises(NonFiniteStateError):
        rk4_step(bad, 0.0, np.ones(1), U0, 0.1)


def test_integrate_zero_duration_returns_copy():
    x0 = np.array([2.0, -1.0])
    sys0 = OdeSystem(dim=2, rhs=lambda t, x, u: np.ones(2))
    out = integrate(sys0, 0.0, x0, U0, 0.0, 0.1)
    assert np.array_equal(out, x0)
    assert out is not x0


def test_integrate_exponential_accuracy():
    out = integrate(expo_system(), 0.0, np.array([1.0]), U0, 1.0, 0.01)
    assert abs(out[0] - np.e) < 1e-8


def test_integrate_partial_trailing_step():
    # duration not a multiple of h still lands on the endpoint
    out = integrate(expo_system(), 0.0, np.array([1.0]), U0, 0.55, 0.1)
    assert abs(out[0] - np.exp(0.55)) < 1e-6


def test_rk4_order_at_least_3_9():
    errors = []
    for h in (0.1, 0.05, 0.025):
        out = integrate(expo_system(), 0.0, np.array([1.0]), U0, 1.0, h)
        errors.append(abs(out[0] - np.e))
    order1 = np.log2(errors[0] / errors[1])
    order2 = np.log2(errors[1] / errors[2])
    assert order1 >= 3.9 and order2 >= 3.9
    assert errors[0] / errors[1] >= 8.0  # halving h cuts global error >= 8x


def test_dopri_tableau_order_conditions():
    a = np.zeros((7, 7))
    for i, row in enumerate(DOPRI_A, start=1):
        a[i, : len(row)] = row
    c = np.array((0.0,) + DOPRI_C)
    b = np.array(DOPRI_B)
    b_hat = b - np.array(DOPRI_E)  # embedded 4th-order weights
    assert np.allclose(a.sum(axis=1), c, atol=1e-15)
    assert np.array_equal(a[6], b)  # first same as last
    # bushy-tree conditions sum(b c^k) = 1/(k+1), to order 5 and 4
    for k in range(5):
        assert b @ c**k == pytest.approx(1.0 / (k + 1), abs=1e-14)
    for k in range(4):
        assert b_hat @ c**k == pytest.approx(1.0 / (k + 1), abs=1e-14)
    assert b @ (a @ c) == pytest.approx(1.0 / 6.0, abs=1e-14)
    assert b @ (a @ c**3) == pytest.approx(1.0 / 20.0, abs=1e-14)
    assert b @ (a @ (a @ (a @ c))) == pytest.approx(1.0 / 120.0, abs=1e-14)
    assert b_hat @ c**4 != pytest.approx(0.2, abs=1e-6)  # truly embedded


def test_pi_step_factor_clamps_and_orders():
    assert pi_step_factor(0.0, 0.0) == PI_FACTOR_MAX
    assert pi_step_factor(1e-30, 1.0) == PI_FACTOR_MAX
    assert pi_step_factor(1e30, 1e-4) == PI_FACTOR_MIN
    assert pi_step_factor(1.0001, 1.0) < 1.0  # a rejected step shrinks
    errs = [1e-6, 1e-3, 0.1, 1.0, 2.0]
    facs = [pi_step_factor(e, 0.5) for e in errs]
    assert facs == sorted(facs, reverse=True)
    # the PI term: a smaller previous error damps the next growth, down
    # to the floor on the previous error
    assert pi_step_factor(0.1, 1e-3) < pi_step_factor(0.1, 0.5)
    assert pi_step_factor(0.1, 0.0) == pi_step_factor(0.1, PI_ERR_FLOOR)


def test_steady_state_linear_decay():
    sysd = OdeSystem(dim=1, rhs=lambda t, x, u: -x)
    res = solve_steady_state(sysd, U0, np.array([5.0]))
    assert res.converged and abs(res.x_star[0]) <= 1e-10


def test_steady_state_linear_system_oracle():
    a = np.array([[2.0, 0.0], [0.0, 4.0]])
    b = np.array([2.0, 8.0])
    sysl = OdeSystem(dim=2, rhs=lambda t, x, u: a @ x - b)
    expected = np.linalg.solve(a, b)  # independent direct solve
    res = solve_steady_state(sysl, U0, np.array([0.3, -2.0]))
    assert res.converged
    assert np.allclose(res.x_star, expected, atol=1e-9)
    assert res.residual_norm <= 1e-10


def test_steady_state_converged_implies_small_residual():
    sysd = OdeSystem(dim=1, rhs=lambda t, x, u: np.tanh(x) - 0.25)
    res = solve_steady_state(sysd, U0, np.array([2.0]))
    assert res.converged
    # independent re-evaluation of the residual
    assert np.max(np.abs(sysd.rhs(0.0, res.x_star, U0))) <= 1e-10


def test_steady_state_reports_no_convergence():
    hopeless = OdeSystem(dim=1, rhs=lambda t, x, u: np.ones(1))  # no root
    res = solve_steady_state(hopeless, U0, np.zeros(1))
    assert res.converged is False


def test_grid_validation():
    with pytest.raises(ValueError):
        SpatialGrid(2, 1.0)
    with pytest.raises(ValueError):
        SpatialGrid(10, -1.0)
    with pytest.raises(ValueError):
        SpatialGrid(10, 1.0, n_radial=1)
    g = SpatialGrid(10, 2.0, volume=50.0)
    assert g.dz * g.n_axial == pytest.approx(g.length)
    assert g.cell_volume == pytest.approx(5.0)


def test_upwind_constant_field_zero():
    g = SpatialGrid(12, 3.0)
    c = np.full(12, 1.7)
    out = upwind_convection(g, c, 2.0, inlet_value=1.7)
    assert np.max(np.abs(out)) == 0.0


def test_upwind_linear_field_slope():
    g = SpatialGrid(40, 2.0)
    c = 2.0 * g.z_centers
    out = upwind_convection(g, c, 1.0, inlet_value=-2.0 * g.dz / 2.0)
    # first-order upwind differentiates a linear profile exactly
    assert np.allclose(out[1:], -2.0, atol=1e-12)


def test_upwind_pulse_moves_downstream_only():
    g = SpatialGrid(8, 2.0)
    c = np.zeros(8)
    c[3] = 1.0
    out = upwind_convection(g, c, 1.0, inlet_value=0.0)
    assert out[3] < 0.0 and out[4] > 0.0
    mask = np.ones(8, bool)
    mask[[3, 4]] = False
    assert np.max(np.abs(out[mask])) == 0.0


def test_upwind_zero_velocity():
    g = SpatialGrid(10, 1.0)
    out = upwind_convection(g, np.random.default_rng(0).random(10), 0.0, 0.5)
    assert np.max(np.abs(out)) == 0.0


def test_dispersion_linear_field_zero_interior():
    g = SpatialGrid(30, 1.5)
    c = 3.0 * g.z_centers + 1.0
    out = central_dispersion(g, c, 1.0)
    assert np.allclose(out[1:-1], 0.0, atol=1e-10)


def test_dispersion_quadratic_field():
    g = SpatialGrid(50, 1.0)
    c = g.z_centers**2
    out = central_dispersion(g, c, 1.0)
    assert np.allclose(out[1:-1], 2.0, atol=1e-9)


def test_dispersion_zero_coefficient():
    g = SpatialGrid(10, 1.0)
    out = central_dispersion(g, np.random.default_rng(1).random(10), 0.0)
    assert np.max(np.abs(out)) == 0.0


def test_stencils_are_linear_operators():
    g = SpatialGrid(25, 2.0)
    rng = np.random.default_rng(42)
    c1, c2 = rng.random(25), rng.random(25)
    a, b = 1.7, -0.6
    for op in (
        lambda c: upwind_convection(g, c, 1.3, 0.0),
        lambda c: central_dispersion(g, c, 0.8),
    ):
        lhs = op(a * c1 + b * c2)
        rhs = a * op(c1) + b * op(c2)
        assert np.allclose(lhs, rhs, atol=1e-12)


def test_grid_refinement_convergence():
    length = 1.0

    def errors(n):
        g = SpatialGrid(n, length)
        z = g.z_centers
        c = np.sin(2.0 * np.pi * z / length)
        up = upwind_convection(g, c, 1.0, np.sin(-2.0 * np.pi * g.dz / 2.0 / length))
        up_exact = -(2.0 * np.pi / length) * np.cos(2.0 * np.pi * z / length)
        disp = central_dispersion(g, c, 1.0)
        disp_exact = -((2.0 * np.pi / length) ** 2) * c
        interior = slice(2, n - 2)
        return (
            np.max(np.abs(up[interior] - up_exact[interior])),
            np.max(np.abs(disp[interior] - disp_exact[interior])),
        )

    up_coarse, disp_coarse = errors(64)
    up_fine, disp_fine = errors(128)
    assert up_coarse / up_fine >= 1.9      # first order
    assert disp_coarse / disp_fine >= 3.8  # second order
