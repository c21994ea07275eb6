"""Perfusion bioreactor and microfiltration (cell-retention) unit.

Seventeen states: bioreactor volume, viable/total cells, glucose, glutamine,
lactate, ammonia, antibody titer and temperature, then the same set (minus
temperature) for the separator vessel.  Cells are recycled from the
separator back to the bioreactor with high retention; solutes mostly pass
through to the harvest stream that feeds the capture step.

Inputs (7): fresh-media flow F_in, recycle flow F_r, bioreactor outflow F_1,
harvest flow F_2, jacket temperature T_c, and the fresh-media glucose and
ammonia concentrations.

The env advances these states with ``integrate_fields``: classical RK4
substeps by ``kernels.rk4_step`` on ``upstream_system``, starting from the
stability-limited substep of ``upstream_h0``.  Each stage evaluates the
balances at the state clamped at zero, and each accepted substep is clamped
too, so integrator undershoot near nutrient depletion never reaches the
rates.  A substep whose result is non-finite or exceeds ``GROWTH_CAP``
times the state's scale, max|x| + 1, is halved, up to ``MAX_HALVINGS``
times.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ...errors import DegenerateVolumeError, NonFiniteStateError, ZeroRecycleFlowError
from ...kernels import OdeSystem, rk4_step

N_STATES = 17
N_INPUTS = 7

STATE_NAMES = (
    "v1", "xv1", "xt1", "glc1", "gln1", "lac1", "amm1", "mab1", "temp",
    "v2", "xv2", "xt2", "glc2", "gln2", "lac2", "amm2", "mab2",
)
INPUT_NAMES = ("f_in", "f_r", "f_1", "f_2", "t_c", "glc_in", "amm_in")

AVOGADRO = 6.02214076e23


@dataclass(frozen=True)
class UpstreamParams:
    """Kinetic, yield and heat parameters.

    The growth-heat term pairs a per-mole reaction enthalpy with a growth
    rate expressed in cells per volume per time; ``cells_per_mol`` carries
    the documented conversion (Avogadro's number by default, making the
    term negligible, which matches jacket-dominated thermal behaviour).
    """

    k_d_amm: float = 1.76        # mM
    k_d_gln: float = 0.00016     # 1/min
    k_glc: float = 0.75          # mM
    k_gln: float = 0.038         # mM
    ki_amm: float = 28.48        # mM
    ki_lac: float = 171.76       # mM
    m_glc: float = 8.2e-16       # mmol/(cell min)
    q_mab_max: float = 1.1e-11   # mg/(cell min)
    y_amm_gln: float = 0.45      # mmol/mmol
    y_lac_glc: float = 2.0       # mmol/mmol
    y_x_glc: float = 2.6e8       # cell/mmol
    y_x_gln: float = 8.0e8       # cell/mmol
    alpha1: float = 5.7e-15      # (mM L)/(cell min)
    alpha2: float = 4.0          # mM
    minus_dh: float = 5.0e5      # J/mol
    rho: float = 1560.0          # g/L
    c_p: float = 1.244           # J/(g degC)
    u_heat: float = 4.0e2        # J/(min degC), jacket exchange per volume basis
    t_in: float = 37.0           # degC
    eta_rec: float = 0.92        # cell recycle fraction
    eta_ret: float = 0.20        # solute retention fraction
    n_death: float = 2.0         # ammonia-death steepness, > 1
    ph_opt: float = 7.1          # optimal culture pH (placeholder, see config)
    omega_mab: float = 0.2       # pH sensitivity of productivity (placeholder)
    gln_in: float = 6.0          # mM glutamine in fresh media
    cells_per_mol: float = AVOGADRO

    def __post_init__(self):
        if self.n_death <= 1.0:
            raise ValueError("ammonia-death exponent must exceed 1")
        for name in self.__dataclass_fields__:
            if name in ("ph_opt",):
                continue
            if getattr(self, name) <= 0.0 and name != "gln_in":
                raise ValueError(f"parameter {name} must be strictly positive")


def mu_max_of_temp(temp):
    """Maximum specific growth rate, 1/min (linear fit on 33..37 degC)."""
    return 0.0016 * np.asarray(temp, float) - 0.0308


def mu_death_max_of_temp(temp):
    """Maximum specific death rate, 1/min (linear fit on 33..37 degC)."""
    return -0.0045 * np.asarray(temp, float) + 0.1682


def growth_rates(glc, gln, lac, amm, temp, p: UpstreamParams):
    """Specific growth and death rates (mu, mu_d) in 1/min.

    The linear temperature laws are fitted on 33..37 degC and extrapolated
    outside it: shooting predictions may visit such temperatures, while the
    env's state box holds the culture inside the band after every step.
    Concentrations are floored at zero to tolerate integrator undershoot.
    """
    temp = np.asarray(temp, float)
    glc = np.maximum(np.asarray(glc, float), 0.0)
    gln = np.maximum(np.asarray(gln, float), 0.0)
    lac = np.maximum(np.asarray(lac, float), 0.0)
    amm = np.maximum(np.asarray(amm, float), 0.0)

    f_lim = (glc / (p.k_glc + glc)) * (gln / (p.k_gln + gln))
    f_inh = (p.ki_lac / (p.ki_lac + lac)) * (p.ki_amm / (p.ki_amm + amm))
    mu = mu_max_of_temp(temp) * f_lim * f_inh
    with np.errstate(divide="ignore"):
        ratio = np.where(amm > 0.0, p.k_d_amm / np.where(amm > 0.0, amm, 1.0), np.inf)
    mu_d = mu_death_max_of_temp(temp) / (1.0 + ratio**p.n_death)
    return mu, mu_d


def ph_of_ammonia(amm):
    """Culture pH from the fitted ammonia correlation."""
    return 7.1697 - np.log10(0.074028 * np.maximum(np.asarray(amm, float), 0.0) + 0.968385)


def economic_objective(state, action):
    """Antibody mass flow leaving the bioreactor and the separator, mg/min."""
    state = np.asarray(state, float)
    action = np.asarray(action, float)
    return state[..., 7] * action[..., 2] + state[..., 16] * action[..., 3]


def upstream_rhs(state, action, p: UpstreamParams):
    """Balance equations for all 17 states; accepts batched inputs.

    The bioreactor glutamine recycle term follows the pattern of every
    other solute, drec*(gln_r - gln1).  A published variant couples it to
    the glucose level, -drec*(glc1 - gln1); no other balance has that form,
    so the code reads it as a misprint.
    """
    state = np.asarray(state, float)
    action = np.asarray(action, float)
    (v1, xv1, xt1, glc1, gln1, lac1, amm1, mab1, temp,
     v2, xv2, xt2, glc2, gln2, lac2, amm2, mab2) = (
        state[..., i] for i in range(N_STATES)
    )
    f_in, f_r, f_1, f_2, t_c, glc_in, amm_in = (
        action[..., i] for i in range(N_INPUTS)
    )

    scalar = state.ndim == 1
    if scalar:
        if v1 <= 1e-6 or v2 <= 1e-6:
            raise DegenerateVolumeError("vessel volume below validity floor")
        if f_r == 0.0 and f_1 > 0.0:
            raise ZeroRecycleFlowError(
                "recycle-stream concentrations requested with F_r = 0"
            )
        ratio = f_1 / f_r if f_r > 0.0 else 0.0
    else:
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(
                f_r > 0.0,
                f_1 / np.where(f_r > 0.0, f_r, 1.0),
                np.where(f_1 == 0.0, 0.0, np.inf),
            )

    mu, mu_d = growth_rates(glc1, gln1, lac1, amm1, temp, p)

    # microfiltration retention: what the recycle stream carries back
    xv_r = p.eta_rec * xv1 * ratio
    xt_r = p.eta_rec * xt1 * ratio
    glc_r = p.eta_ret * glc1 * ratio
    gln_r = p.eta_ret * gln1 * ratio
    lac_r = p.eta_ret * lac1 * ratio
    amm_r = p.eta_ret * amm1 * ratio
    mab_r = p.eta_ret * mab1 * ratio

    din = f_in / v1
    drec = f_r / v1

    q_glc = mu / p.y_x_glc + p.m_glc
    m_gln = p.alpha1 * gln1 / (p.alpha2 + gln1)
    q_gln = mu / p.y_x_gln + m_gln
    q_lac = p.y_lac_glc * q_glc
    q_amm = p.y_amm_gln * q_gln
    ph = ph_of_ammonia(amm1)
    q_mab = p.q_mab_max * np.exp(-0.5 * ((ph - p.ph_opt) / p.omega_mab) ** 2)

    d_v1 = f_in + f_r - f_1
    d_xv1 = mu * xv1 - mu_d * xv1 - din * xv1 + drec * (xv_r - xv1)
    d_xt1 = mu * xv1 - din * xt1 + drec * (xt_r - xt1)
    d_glc1 = -q_glc * xv1 + din * (glc_in - glc1) + drec * (glc_r - glc1)
    d_gln1 = (
        -q_gln * xv1 - p.k_d_gln * gln1 + din * (p.gln_in - gln1)
        + drec * (gln_r - gln1)
    )
    d_lac1 = q_lac * xv1 - din * lac1 + drec * (lac_r - lac1)
    d_amm1 = q_amm * xv1 + p.k_d_gln * gln1 - din * amm1 + drec * (amm_r - amm1)
    d_mab1 = q_mab * xv1 - din * mab1 + drec * (mab_r - mab1)
    heat_cap = p.rho * p.c_p
    d_temp = (
        din * (p.t_in - temp)
        + (p.minus_dh / heat_cap) * (mu * xv1 / p.cells_per_mol)
        + (p.u_heat / (v1 * heat_cap)) * (t_c - temp)
    )

    dsep = f_1 / v2
    dsep_r = f_r / v2
    d_v2 = f_1 - f_2 - f_r
    d_xv2 = dsep * (xv1 - xv2) - dsep_r * (xv_r - xv2)
    d_xt2 = dsep * (xt1 - xt2) - dsep_r * (xt_r - xt2)
    d_glc2 = dsep * (glc1 - glc2) - dsep_r * (glc_r - glc2)
    d_gln2 = dsep * (gln1 - gln2) - dsep_r * (gln_r - gln2)
    d_lac2 = dsep * (lac1 - lac2) - dsep_r * (lac_r - lac2)
    d_amm2 = dsep * (amm1 - amm2) - dsep_r * (amm_r - amm2)
    d_mab2 = dsep * (mab1 - mab2) - dsep_r * (mab_r - mab2)

    return np.stack(
        np.broadcast_arrays(
            d_v1, d_xv1, d_xt1, d_glc1, d_gln1, d_lac1, d_amm1, d_mab1, d_temp,
            d_v2, d_xv2, d_xt2, d_glc2, d_gln2, d_lac2, d_amm2, d_mab2,
        ),
        axis=-1,
    )


def upstream_system(p: UpstreamParams) -> OdeSystem:
    """The upstream dynamics as a vectorized ``OdeSystem``: the model the env
    steps and the shooting controllers predict with."""
    return OdeSystem(
        dim=N_STATES,
        rhs=lambda t, x, u: upstream_rhs(x, u, p),
        vectorized=True,
    )


# A candidate substep larger than GROWTH_CAP * (max|x| + 1) is how an
# unstable explicit step announces itself; it is halved up to MAX_HALVINGS
# times before the driver accepts whatever it has.
GROWTH_CAP = 10.0
MAX_HALVINGS = 10


def upstream_h0(x: np.ndarray, p: UpstreamParams) -> float:
    """Stability-limited substep for the nutrient-uptake stiffness.

    Near depletion the Monod terms steepen to slope 1/K, so the fastest
    local rate scales with mu_max * Xv / (K * yield)."""
    xv = max(float(x[1]), 1.0)
    lam = float(mu_max_of_temp(x[8])) * xv * (
        1.0 / (p.k_glc * p.y_x_glc) + 1.0 / (p.k_gln * p.y_x_gln)
    ) + p.alpha1 * xv / p.alpha2 / p.k_gln
    return 2.0 / max(lam, 2.0)


def integrate_fields(
    system: OdeSystem, x: np.ndarray, u: np.ndarray, dt: float, h_start: float
) -> np.ndarray:
    """Advance ``x`` over ``dt`` by RK4 substeps that never leave x >= 0.

    Substeps start at ``h_start`` and grow back to it after a halving;
    accepted substeps are clamped at zero.  Raises ``NonFiniteStateError``
    when a substep stays non-finite after every halving.
    """
    floored = replace(system, rhs=lambda t, y, v: system.rhs(t, np.maximum(y, 0.0), v))
    y = np.asarray(x, dtype=float)
    t = 0.0
    h = min(h_start, dt)
    while t < dt - 1e-12:
        h_try = min(h, dt - t)
        cap = GROWTH_CAP * (float(np.max(np.abs(y))) + 1.0)
        for halvings in range(MAX_HALVINGS + 1):
            cand = rk4_step(floored, t, y, u, h_try, check=False)
            if halvings == MAX_HALVINGS or (
                np.all(np.isfinite(cand)) and float(np.max(np.abs(cand))) <= cap
            ):
                break
            h_try *= 0.5
            h = h_try
        y = np.maximum(cand, 0.0)
        if not np.all(np.isfinite(y)):
            raise NonFiniteStateError("upstream integration diverged")
        t += h_try
        h = min(h * 2.0, h_start)
    return y
