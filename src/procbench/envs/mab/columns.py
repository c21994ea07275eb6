"""Chromatography column and holdup-loop transport kernels.

Loading of the capture column follows a general rate model: axial
convection-dispersion in the mobile phase, film mass transfer to the bead
surface, pore diffusion in spherical coordinates, and two-site adsorption
(one fast, one slow site).  Elution, cation-exchange and anion-exchange
share a lumped convective-dispersive-adsorption model whose isotherm
strength scales with a modifier (salt) concentration; anion exchange runs
flow-through (zero kinetic constant).  Holdup loops are plain open-tube
dispersive-convective transport.

All stencils are written in flux (finite-volume) form, so the discrete
column inventory changes only through the inlet/outlet fluxes; the mass
audits in the test suite rely on that.

``LoadingStepper`` advances the loading model by second-order exponential
time differencing (ETD2RK): the stiff local terms (film exchange, radial
pore diffusion, linear adsorption) form one constant matrix per axial node
that is applied exactly through cached matrix exponentials, while the axial
transport and the bilinear adsorption terms are stepped explicitly.  Its
substep is therefore set by the slow explicit terms, about 12 substeps per
minute at the env's loading velocity, not by the pore diffusion (about 1e3
per minute).  ``grm_loading_rhs`` is the plain right-hand side it is tested
against.

The purification train takes no explicit transport step.  Velocities and
inlets are frozen over a slice, so the holdup loops, the modifier of every
exchange column and the whole flow-through anion-exchange column are linear
with constant coefficients: ``TransportStepper`` advances them exactly by an
affine matrix exponential cached per unit.  ``ExchangeStepper`` advances the
binding elution and cation-exchange columns by ETD2RK with the transport and
the linear adsorption and desorption applied exactly and only the
salt-modulated remainder of the isotherm explicit, one substep per slice at
the env's operating point.  ``exchange_rhs`` and ``loop_rhs`` are their
reference right-hand sides, and ``etd2_operators`` builds the ETD2RK
operators of both ETD steppers.

Unit conventions follow the parameter tables: lengths cm, volumes mL,
velocities cm/min, concentrations mg/mL, modifier M.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from ...errors import NonFiniteStateError, StiffnessError, ZeroModifierError
from ...kernels import SpatialGrid, central_dispersion, upwind_convection


@dataclass(frozen=True)
class CaptureParams:
    """Protein-A capture column (loading mode)."""

    q_max1: float = 36.45      # mg/mL, fast site capacity
    k_1: float = 0.704         # mL/(mg min)
    q_max2: float = 77.85      # mg/mL, slow site capacity
    k_2: float = 2.1e-2        # mL/(mg min)
    k_eq: float = 15.3         # mL/mg, adsorption equilibrium constant
    d_eff: float = 7.6e-5      # cm^2/min, pore diffusivity
    d_ax_factor: float = 0.55  # D_ax = factor * v (cm^2/min per cm/min)
    k_f_coeff: float = 0.067   # k_f = coeff * v^exp (cm/min)
    k_f_exp: float = 0.58
    r_p: float = 4.25e-3       # cm, bead radius
    length: float = 20.0       # cm
    volume: float = 1.0e5      # mL
    eps_c: float = 0.31        # extra-particle void
    eps_p: float = 0.94        # particle porosity

    @property
    def area(self) -> float:
        return self.volume / self.length


@dataclass(frozen=True)
class ExchangeParams:
    """Lumped adsorption column (capture elution, CEX, AEX).

    ``eps_total`` is the void the interstitial velocity sees; for the
    packed-bead capture column it includes the particle pores, for the
    exchange columns only the extra-particle void is tabulated.
    """

    q_max: float
    k_kin: float               # 1/min; zero means flow-through
    h_0: float                 # M^beta, modifier-scaled Henry coefficient
    beta: float
    d_ax_factor: float
    length: float
    volume: float
    eps_c: float
    eps_total: float

    @property
    def area(self) -> float:
        return self.volume / self.length


@dataclass(frozen=True)
class LoopParams:
    """Open holdup loop for virus inactivation / pH conditioning."""

    d_ax_factor: float = 290.0
    length: float = 600.0      # cm
    volume: float = 5.0e5      # mL

    @property
    def area(self) -> float:
        return self.volume / self.length


def capture_elution_params(cap: CaptureParams | None = None) -> ExchangeParams:
    cap = cap or CaptureParams()
    return ExchangeParams(
        q_max=114.3,
        k_kin=0.64,
        h_0=2.2e-2,
        beta=0.2,
        d_ax_factor=cap.d_ax_factor,
        length=cap.length,
        volume=cap.volume,
        eps_c=cap.eps_c,
        eps_total=cap.eps_c + (1.0 - cap.eps_c) * cap.eps_p,
    )


def cex_params() -> ExchangeParams:
    return ExchangeParams(
        q_max=150.2, k_kin=0.99, h_0=6.9e-4, beta=8.5,
        d_ax_factor=0.11, length=10.0, volume=5.0e4,
        eps_c=0.34, eps_total=0.34,
    )


def aex_params() -> ExchangeParams:
    # flow-through polishing: nothing binds (k = 0)
    return ExchangeParams(
        q_max=150.2, k_kin=0.0, h_0=0.0, beta=0.0,
        d_ax_factor=0.16, length=10.0, volume=5.0e4,
        eps_c=0.34, eps_total=0.34,
    )


# -- capture (general rate model) ----------------------------------------


def radial_shell_volumes(p: CaptureParams, n_radial: int) -> np.ndarray:
    """Shell volumes (over 4*pi) of the uniform radial discretization."""
    faces = np.linspace(0.0, p.r_p, n_radial + 1)
    return np.diff(faces**3) / 3.0


def grm_loading_rhs(
    c: np.ndarray,
    c_p: np.ndarray,
    q1: np.ndarray,
    q2: np.ndarray,
    v: float,
    c_feed: float,
    p: CaptureParams,
    grid: SpatialGrid,
):
    """Time derivatives of (c, c_p, q1, q2) during loading.

    ``c`` is the mobile phase over axial nodes, ``c_p`` the pore liquid over
    (axial, radial) nodes, ``q1``/``q2`` the fast/slow adsorbed phases over
    axial nodes.  Film transfer couples the mobile phase to the outermost
    radial node; the adsorption sink is distributed uniformly over the bead.
    """
    if v < 0.0:
        raise ValueError("superficial velocity must be nonnegative")
    n_r = grid.n_radial
    d_ax = p.d_ax_factor * v
    k_f = p.k_f_coeff * v**p.k_f_exp if v > 0.0 else 0.0

    cp_surf = c_p[:, -1]
    film = k_f * (c - cp_surf)

    dc = (
        central_dispersion(grid, c, d_ax)
        + upwind_convection(grid, c, v / p.eps_c, c_feed)
        - ((1.0 - p.eps_c) / p.eps_c) * (3.0 / p.r_p) * film
    )

    dq1 = p.k_1 * ((p.q_max1 - q1) * cp_surf - q1 / p.k_eq)
    dq2 = p.k_2 * ((p.q_max2 - q2) * cp_surf - q2 / p.k_eq)

    # spherical finite-volume diffusion with the film flux at the surface
    dr = p.r_p / n_r
    faces = np.linspace(0.0, p.r_p, n_r + 1)
    shell_vol = np.diff(faces**3) / 3.0  # (n_r,)
    flux = np.zeros((grid.n_axial, n_r + 1))
    flux[:, 1:-1] = p.d_eff * faces[1:-1] ** 2 * np.diff(c_p, axis=1) / dr
    flux[:, -1] = p.r_p**2 * film
    d_cp = np.diff(flux, axis=1) / shell_vol - (dq1 + dq2)[:, None] / p.eps_p
    return dc, d_cp, dq1, dq2


def capture_holdup(
    c: np.ndarray,
    c_p: np.ndarray,
    q1: np.ndarray,
    q2: np.ndarray,
    p: CaptureParams,
    grid: SpatialGrid,
) -> float:
    """Total antibody mass (mg) held in the column.

    The conserved density implied by the loading equations is
    ``eps_c*c + (1-eps_c)*<c_p> + (1-eps_c)/eps_p * (q1+q2)``
    with <c_p> the bead-volume average.
    """
    shell_vol = radial_shell_volumes(p, grid.n_radial)
    cp_avg = (c_p * shell_vol).sum(axis=1) / shell_vol.sum()
    density = (
        p.eps_c * c
        + (1.0 - p.eps_c) * cp_avg
        + ((1.0 - p.eps_c) / p.eps_p) * (q1 + q2)
    )
    return float(density.sum() * grid.dz * p.area)


# -- elution / ion exchange ------------------------------------------------


def exchange_rhs(
    c: np.ndarray,
    q: np.ndarray,
    c_s: np.ndarray,
    v: float,
    inlet_c: float,
    inlet_cs: float,
    p: ExchangeParams,
    grid: SpatialGrid,
):
    """Time derivatives of (c, q, c_s) for the lumped adsorption model.

    The adsorbed-phase exchange enters the mobile phase with a minus sign:
    adsorption removes mass from the liquid.  A published variant adds it
    with a plus sign, which creates mass in the column, so the code keeps
    the sign that conserves the inventory.  Raises ``ZeroModifierError``
    when the isotherm would be evaluated at a vanishing modifier level.
    """
    if v < 0.0:
        raise ValueError("superficial velocity must be nonnegative")
    d_ax = p.d_ax_factor * v
    if p.k_kin != 0.0:
        if np.any(c_s <= 1e-12):
            raise ZeroModifierError(
                "modifier concentration vanished where the isotherm is evaluated"
            )
        dq = p.k_kin * (p.h_0 * c_s ** (-p.beta) * (1.0 - q / p.q_max) * c - q)
    else:
        dq = np.zeros_like(q)

    dc = (
        central_dispersion(grid, c, d_ax)
        + upwind_convection(grid, c, v / p.eps_total, inlet_c)
        - ((1.0 - p.eps_c) / p.eps_total) * dq
    )
    dcs = central_dispersion(grid, c_s, d_ax) + upwind_convection(
        grid, c_s, v / p.eps_total, inlet_cs
    )
    return dc, dq, dcs


# -- holdup loops ------------------------------------------------------------


def loop_rhs(
    c: np.ndarray, v: float, inlet: float, p: LoopParams, grid: SpatialGrid
) -> np.ndarray:
    """Open-tube dispersive-convective transport (no packing, no voidage)."""
    if v < 0.0:
        raise ValueError("velocity must be nonnegative")
    d_ax = p.d_ax_factor * v
    return central_dispersion(grid, c, d_ax) + upwind_convection(grid, c, v, inlet)


# -- exact operators ---------------------------------------------------------


def etd2_operators(m: np.ndarray, h: float):
    """e^{hM}, h*phi1(hM) and h*phi2(hM) from one matrix exponential.

    phi1(z) = (e^z - 1)/z and phi2(z) = (e^z - 1 - z)/z^2 weight the
    explicit terms of ETD2RK.  The top block row of
    exp([[hM, I, 0], [0, 0, I], [0, 0, 0]]) is (e^{hM}, phi1(hM), phi2(hM))
    (Al-Mohy & Higham, SIAM J. Sci. Comput. 2011).
    """
    a = h * m
    n = a.shape[0]
    block = np.zeros((3 * n, 3 * n))
    block[:n, :n] = a
    block[:n, n : 2 * n] = np.eye(n)
    block[n : 2 * n, 2 * n :] = np.eye(n)
    e = expm(block)
    return e[:n, :n], h * e[:n, n : 2 * n], h * e[:n, 2 * n :]


def transport_operator(grid: SpatialGrid, d_ax: float, speed: float):
    """Matrix A and inlet vector b of the transport stencils.

    ``central_dispersion(grid, c, d_ax) + upwind_convection(grid, c, speed,
    inlet) == A @ c + b * inlet``.  Both are read off the stencils applied
    to unit vectors, so the exact propagators share their arithmetic.
    """
    eye = np.eye(grid.n_axial)
    # row j is the stencil of unit vector j, i.e. column j of A
    a = central_dispersion(grid, eye, d_ax) + upwind_convection(grid, eye, speed, 0.0)
    b = upwind_convection(grid, np.zeros(grid.n_axial), speed, 1.0)
    return np.ascontiguousarray(a.T), b


class LoadingStepper:
    """Exponential time differencing march of the loading equations.

    At every axial node the state u = (c, c_p[0..n_r-1], q1, q2) obeys
    du/dt = M(k_f) u + N(u).  The constant matrix M holds every linear
    local term: film exchange in both directions, the radial
    finite-volume diffusion, and the linear adsorption terms
    k_i*q_max,i*c_p,surf and -k_i*q_i/k_eq (which also leave every shell
    through 1/eps_p).  N holds the axial convection-dispersion with its
    feed inlet and the bilinear adsorption terms -k_i*q_i*c_p,surf.

    Each substep is ETD2RK (Cox & Matthews, J. Comput. Phys. 2002):

        a  = e^{hM} u + h*phi1(hM) N(u)
        u' = a + h*phi2(hM) (N(a) - N(u))

    The three operators come from one matrix exponential of a block
    matrix and are cached per (k_f, h).  The stiff pore diffusion (about
    1e3 per minute on the default grid) is integrated exactly, so the
    substep is set by N alone (``max_substep``): about 12 substeps per
    minute at the env's operating point.  The column-mass weights w satisfy
    w^T M = 0 and the bilinear terms cancel under w as well, so the column
    inventory changes only through the axial inlet/outlet fluxes.  Velocity
    and feed are frozen for the duration of one ``advance``;
    ``grm_loading_rhs`` is the reference right-hand side.
    """

    def __init__(self, p: CaptureParams, grid: SpatialGrid):
        self.p = p
        self.grid = grid
        self.inv_dz = 1.0 / grid.dz
        self.inv_eps_dz = 1.0 / (p.eps_c * grid.dz)
        n_r = grid.n_radial
        self.surf = n_r             # column of c_p[:, -1] in the stacked state
        dr = p.r_p / n_r
        faces = np.linspace(0.0, p.r_p, n_r + 1)
        shell_vol = np.diff(faces**3) / 3.0
        # M without the film terms, which carry the velocity through k_f
        m = np.zeros((n_r + 3, n_r + 3))
        for k, coef in enumerate(p.d_eff * faces[1:-1] ** 2 / dr):
            # diffusive flux coef*(c_p[k+1] - c_p[k]) across interior face k+1
            inner, outer = 1 + k, 2 + k
            m[inner, [inner, outer]] += np.array([-coef, coef]) / shell_vol[k]
            m[outer, [inner, outer]] -= np.array([-coef, coef]) / shell_vol[k + 1]
        m[n_r + 1, [self.surf, n_r + 1]] = p.k_1 * p.q_max1, -p.k_1 / p.k_eq
        m[n_r + 2, [self.surf, n_r + 2]] = p.k_2 * p.q_max2, -p.k_2 / p.k_eq
        m[1 : n_r + 1] -= (m[n_r + 1] + m[n_r + 2]) / p.eps_p
        self._m_static = m
        # film flux k_f*(c - c_p,surf) per unit k_f, as seen by c and by the
        # surface shell
        to_c = (1.0 - p.eps_c) / p.eps_c * 3.0 / p.r_p
        to_surf = p.r_p**2 / shell_vol[-1]
        self._film = np.zeros_like(m)
        self._film[0, [0, self.surf]] = -to_c, to_c
        self._film[self.surf, [0, self.surf]] = to_surf, -to_surf
        self._ops_key = None
        self._ops = None

    def _k_f(self, v: float) -> float:
        p = self.p
        return p.k_f_coeff * v**p.k_f_exp if v > 0.0 else 0.0

    def max_substep(self, v: float) -> float:
        """Stable substep for the explicit part at velocity ``v``.

        The explicit part of ETD2RK advances like Heun's method, which is
        stable for the upwind convection-dispersion stencil while
        h*(2*D_ax/dz^2 + v/(eps_c*dz)) <= 1.  The bilinear adsorption rate
        (k_1*q_max1 + k_2*q_max2)/eps_p, about 29 per minute, is offset by
        the linear adsorption inside M and is held to h*rate <= 2.6.
        """
        p = self.p
        axial = 2.0 * p.d_ax_factor * v * self.inv_dz**2 + v * self.inv_eps_dz
        bilinear = (p.k_1 * p.q_max1 + p.k_2 * p.q_max2) / p.eps_p
        return 1.0 / (axial + bilinear / 2.6)

    def _propagators(self, v: float, h: float):
        """Transposed e^{hM}, h*phi1(hM), h*phi2(hM) for row-stacked states."""
        k_f = self._k_f(v)
        if (k_f, h) != self._ops_key:
            ops = etd2_operators(self._m_static + k_f * self._film, h)
            self._ops = tuple(np.ascontiguousarray(op.T) for op in ops)
            self._ops_key = (k_f, h)
        return self._ops

    def _explicit(self, u, v, d_ax_dz2, c_feed):
        p = self.p
        c = u[:, 0]
        conv = v * self.inv_eps_dz
        out = np.zeros_like(u)
        dc = out[:, 0]
        dc[0] = d_ax_dz2 * (c[1] - c[0]) - conv * (c[0] - c_feed)
        dc[-1] = d_ax_dz2 * (c[-2] - c[-1]) - conv * (c[-1] - c[-2])
        dc[1:-1] = d_ax_dz2 * (c[2:] - 2.0 * c[1:-1] + c[:-2]) - conv * (
            c[1:-1] - c[:-2]
        )
        b1 = p.k_1 * u[:, -2] * u[:, self.surf]
        b2 = p.k_2 * u[:, -1] * u[:, self.surf]
        out[:, 1 : self.surf + 1] = ((b1 + b2) / p.eps_p)[:, None]
        out[:, -2] = -b1
        out[:, -1] = -b2
        return out

    def advance(self, c, cp, q1, q2, v, c_feed, dt, h=None):
        """Advance the loading fields by ``dt`` minutes and return new arrays.

        The substep is ``max_substep(v)``, or ``h`` where that is smaller.
        """
        if v < 0.0:
            raise ValueError("superficial velocity must be nonnegative")
        h_max = self.max_substep(v)
        if h is not None:
            h_max = min(h, h_max)
        n = max(1, int(np.ceil(dt / h_max)))
        h = dt / n
        expo, phi1, phi2 = self._propagators(v, h)
        d_ax_dz2 = self.p.d_ax_factor * v * self.inv_dz**2
        u = np.column_stack([c, cp, q1, q2])
        for _ in range(n):
            n_u = self._explicit(u, v, d_ax_dz2, c_feed)
            a = u @ expo + n_u @ phi1
            u = a + (self._explicit(a, v, d_ax_dz2, c_feed) - n_u) @ phi2
        np.maximum(u, 0.0, out=u)
        if not np.all(np.isfinite(u)):
            raise NonFiniteStateError("loading column integration diverged")
        return (
            u[:, 0].copy(), u[:, 1 : self.surf + 1].copy(),
            u[:, -2].copy(), u[:, -1].copy(),
        )


class TransportStepper:
    """Exact march of convection-dispersion with a frozen inlet.

    With velocity and inlet held over a step of length h, y' = A y + b*inlet
    (``transport_operator``) is affine with constant coefficients, so
    y(h) = E y + g*inlet exactly, where [[E, g], [0, 1]] is the exponential
    of h*[[A, b], [0, 0]].  A is a Metzler matrix and a field equal to the
    inlet everywhere is stationary, so E >= 0 and E*1 + g = 1: each new
    value is a convex combination of the old values and the inlet, and the
    march stays within their range at any step length.  The pair is cached
    per (velocity, h); one instance serves one unit, whose velocity is
    fixed for a control step.  ``void`` divides the velocity (the
    extra-particle void of a packed column, 1 for an open tube).
    """

    def __init__(self, grid: SpatialGrid, d_ax_factor: float, void: float = 1.0):
        self.grid = grid
        self.d_ax_factor = d_ax_factor
        self.void = void
        self._key = None
        self._ops = None

    def operator(self, v: float):
        """``transport_operator`` at superficial velocity ``v``."""
        if v < 0.0:
            raise ValueError("velocity must be nonnegative")
        return transport_operator(self.grid, self.d_ax_factor * v, v / self.void)

    def propagator(self, v: float, h: float):
        """E and g of an exact step of length ``h`` at velocity ``v``."""
        if (v, h) != self._key:
            a, b = self.operator(v)
            n = b.size
            aug = np.zeros((n + 1, n + 1))
            aug[:n, :n] = a
            aug[:n, n] = b
            e = expm(h * aug)
            self._ops = (e[:n, :n], e[:n, n].copy())
            self._key = (v, h)
        return self._ops

    def advance(self, y, v, inlet, dt):
        """Field ``y`` after ``dt`` minutes at velocity ``v``, as a new array."""
        e, g = self.propagator(v, dt)
        return np.maximum(e @ y + g * inlet, 0.0)


# Most ETD2RK substeps ``ExchangeStepper.advance`` takes in one call.  The
# env's default operating point needs 1 per slice and the test suite at
# most 9; a steep isotherm, such as a 0.1 M cation-exchange modifier inlet,
# asks for about a million, which would hang the step instead of failing it.
MAX_EXCHANGE_SUBSTEPS = 1000


class ExchangeStepper:
    """Exponential time differencing march of a lumped adsorption column.

    The modifier c_s is pure transport and advances exactly
    (``TransportStepper``).  For u = (c, q) over the axial nodes the model
    of ``exchange_rhs`` reads du/dt = M u + f*inlet_c + B Y with

        X = k*H(c_s)*(1 - q/q_max)*c,   H(c_s) = h_0*c_s^(-beta),
        Y = X - k*H_in*c,               H_in = H(inlet modifier),

    and B = (-(1-eps_c)/eps_total, 1) spreading the adsorption over
    both phases.  The constant matrix M holds the transport of c, the
    linear desorption -k*q and the linear adsorption k*H_in*c at the
    modifier level the column is driven to, each with its mirror in the
    mobile phase; f is the inlet flux.  Y, the salt-modulated remainder of
    the isotherm, is explicit.  With the linear adsorption exact, the
    coupling of q to the fast transport of c is integrated exactly, and Y
    vanishes wherever the modifier has reached its inlet level and q is
    far from q_max.  Each substep is ETD2RK (Cox & Matthews,
    J. Comput. Phys. 2002):

        a  = e^{hM} u + h*phi1(hM) (B Y(u) + f*inlet_c)
        u' = a + h*phi2(hM) B (Y(a) - Y(u))

    where Y(a) reads c_s at the end of the substep.  The substep is set by
    the rate of Y alone (``max_substep``); a step that needs more than
    ``MAX_EXCHANGE_SUBSTEPS`` of them raises ``StiffnessError`` before
    any operator is built.  The operators are cached per (velocity, inlet
    modifier, h).  With k = 0 (flow-through) nothing binds: q stays as it
    is and c is transport like c_s.  M and B conserve the column inventory
    eps_total*c + (1 - eps_c)*q except for the transport fluxes, as
    ``exchange_rhs`` does.
    """

    def __init__(self, p: ExchangeParams, grid: SpatialGrid):
        self.p = p
        self.grid = grid
        self.transport = TransportStepper(grid, p.d_ax_factor, p.eps_total)
        self.to_c = -(1.0 - p.eps_c) / p.eps_total
        self._ops_key = None
        self._ops: dict = {}

    def _henry(self, c_s):
        if np.any(np.asarray(c_s) <= 1e-12):
            raise ZeroModifierError(
                "modifier concentration vanished where the isotherm is evaluated"
            )
        return self.p.h_0 * c_s ** (-self.p.beta)

    def _remainder(self, u, c_s, h_in):
        """Y = k*(H(c_s)*(1 - q/q_max) - H_in)*c, the explicit term."""
        p = self.p
        n = self.grid.n_axial
        return p.k_kin * (self._henry(c_s) * (1.0 - u[n:] / p.q_max) - h_in) * u[:n]

    def max_substep(self, c, q, c_s, inlet_c: float, inlet_cs: float) -> float:
        """Substep that holds the explicit remainder to h*rate <= 0.5.

        Y has a rank-one Jacobian B (dY/dc, dY/dq).  Over the step the
        modifier stays within the range of its initial values and inlet,
        where H runs from H_lo to H_hi, so the Jacobian's eigenvalue is at
        most k*(|to_c|*(H_hi - H_lo + H_hi*q/q_max) + H_hi*c/q_max) in size.
        """
        p = self.p
        h_hi = self._henry(min(float(np.min(c_s)), inlet_cs))
        h_lo = self._henry(max(float(np.max(c_s)), inlet_cs))
        q_rel = float(np.max(q)) / p.q_max
        c_rel = max(float(np.max(c)), inlet_c) / p.q_max
        rate = p.k_kin * (
            abs(self.to_c) * (abs(h_hi - h_lo) + max(h_hi, h_lo) * q_rel)
            + max(h_hi, h_lo) * c_rel
        )
        return 0.5 / rate if rate > 0.0 else np.inf

    def _linear_part(self, v: float, inlet_cs: float):
        """M and f of the (c, q) system at superficial velocity ``v``."""
        a, b = self.transport.operator(v)
        n, k = b.size, self.p.k_kin
        k_in = k * self._henry(inlet_cs)
        eye = np.eye(n)
        m = np.zeros((2 * n, 2 * n))
        m[:n, :n] = a + self.to_c * k_in * eye
        m[:n, n:] = -self.to_c * k * eye
        m[n:, :n] = k_in * eye
        m[n:, n:] = -k * eye
        return m, np.concatenate([b, np.zeros(n)])

    def _operators(self, v: float, inlet_cs: float, h: float):
        if (v, inlet_cs) != self._ops_key:
            self._ops_key, self._ops = (v, inlet_cs), {}
        ops = self._ops.get(h)
        if ops is None:
            m, f = self._linear_part(v, inlet_cs)
            expo, phi1, phi2 = etd2_operators(m, h)
            n = self.grid.n_axial
            ops = (
                expo,
                self.to_c * phi1[:, :n] + phi1[:, n:],   # h*phi1(hM) B
                self.to_c * phi2[:, :n] + phi2[:, n:],   # h*phi2(hM) B
                phi1 @ f,
                *self.transport.propagator(v, h),
            )
            self._ops[h] = ops
        return ops

    def advance(self, c, q, c_s, v, inlet_c, inlet_cs, dt):
        """Advance (c, q, c_s) by ``dt`` minutes and return new arrays."""
        if self.p.k_kin == 0.0:
            return (
                self.transport.advance(c, v, inlet_c, dt),
                q.copy(),
                self.transport.advance(c_s, v, inlet_cs, dt),
            )
        n_sub = np.ceil(dt / self.max_substep(c, q, c_s, inlet_c, inlet_cs))
        if n_sub > MAX_EXCHANGE_SUBSTEPS:
            raise StiffnessError(
                f"exchange column needs {n_sub:.3g} substeps in {dt:g} min, "
                f"more than {MAX_EXCHANGE_SUBSTEPS}"
            )
        n_sub = max(1, int(n_sub))
        h = dt / n_sub
        expo, phi1_b, phi2_b, g_c, e_s, g_s = self._operators(v, inlet_cs, h)
        h_in = self._henry(inlet_cs)
        u = np.concatenate([c, q])
        for _ in range(n_sub):
            y_u = self._remainder(u, c_s, h_in)
            a = expo @ u + phi1_b @ y_u + g_c * inlet_c
            c_s = e_s @ c_s + g_s * inlet_cs
            u = a + phi2_b @ (self._remainder(a, c_s, h_in) - y_u)
        np.maximum(u, 0.0, out=u)
        np.maximum(c_s, 0.0, out=c_s)
        if not (np.all(np.isfinite(u)) and np.all(np.isfinite(c_s))):
            raise NonFiniteStateError("exchange column integration diverged")
        n = self.grid.n_axial
        return u[:n].copy(), u[n:].copy(), c_s

