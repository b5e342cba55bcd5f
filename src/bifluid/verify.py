"""Relative-energy evaluation and stability audits between pairs of runs.

The relative energy between a state (alpha, R, Q, u) and a reference
(beta, Rt, Qt, v) on one grid is the sum of four nonnegative parts:

    E_kin   = int (R + Q) |u - v|^2 / 2
    E_alpha = int (alpha - beta)^2 / 2
    E_breg+ = int alpha * B_plus(rho_plus | rho_plus_ref)
    E_breg- = int (1 - alpha) * B_minus(rho_minus | rho_minus_ref)

with B the Bregman distances of the phase Helmholtz potentials.  The
weights come from the first state, the Bregman reference points from the
second; the functional is intentionally asymmetric.  The audits below fit
empirical constants in the energy, weak-strong (Gronwall), volume-fraction
stability, and coercivity inequalities along computed trajectories.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from . import thermo
from .closure import ExponentPair
from .fields import DerivedFields, Grid1D
from .solver import Trajectory, run, velocity_face_gradient

EPS = float(np.finfo(float).eps)
NOISE_FLOOR_FACTOR = 1e3

__all__ = [
    "GridMismatchError",
    "TimeGridMismatchError",
    "VacuumReferenceError",
    "EmptySeriesError",
    "RelativeEntropyRow",
    "GronwallFit",
    "EnergyAudit",
    "AlphaStabilityReport",
    "CoercivityReport",
    "ConvergenceReport",
    "relative_entropy",
    "energy_audit",
    "gronwall_check",
    "alpha_stability_check",
    "coercivity_check",
    "convergence_study",
]


class GridMismatchError(ValueError):
    """The two states do not live on the same grid."""


class TimeGridMismatchError(ValueError):
    """Two runs being compared do not share their snapshot times."""


class VacuumReferenceError(ValueError):
    """The reference state has vacuum cells; it must play the regular solution."""


class EmptySeriesError(ValueError):
    """An audit was asked to fit an empty time series."""


@dataclasses.dataclass(frozen=True)
class RelativeEntropyRow:
    """The relative energy of one snapshot pair and the terms read with it.

    A = int (alpha - beta)^2, twice E_alpha, and w = ||u - v||^2_W12 =
    int (u - v)^2 + int (d(u - v)/dx)^2, on the faces of D's gradient
    (no-slip walls extend the gap by zero), are the fraction audit's terms
    of the pair (alpha_stability_check).
    """

    t: float
    E_kin: float
    E_alpha: float
    E_breg_plus: float
    E_breg_minus: float
    E_total: float
    D: float
    A: float
    w: float

    @property
    def E_reduced(self) -> float:
        """Relative energy without the volume-fraction part."""
        return self.E_kin + self.E_breg_plus + self.E_breg_minus


def relative_entropy(
    state_a: DerivedFields,
    state_b: DerivedFields,
    grid: Grid1D,
    exps: ExponentPair,
    nu_eff: float = 0.0,
    t: float = 0.0,
) -> RelativeEntropyRow:
    """Relative energy of state_a against the reference state_b.

    Both states must share the grid and the reference must be vacuum-free.
    D is the viscous dissipation rate of the velocity gap, nu_eff * int
    (d(u - v)/dx)^2.
    """
    if state_a.n != state_b.n:
        raise GridMismatchError(f"cell counts differ: {state_a.n} vs {state_b.n}")
    if state_b.vacuum.any():
        raise VacuumReferenceError("reference state has vacuum cells")
    dx = grid.dx
    du = state_a.u - state_b.u
    e_kin = float(0.5 * np.sum(state_a.rho * du * du) * dx)
    dal = state_a.alpha - state_b.alpha
    dal_sq = np.sum(dal * dal)
    e_alpha = float(0.5 * dal_sq * dx)
    gap_p = thermo.bregman(state_a.rho_plus, state_b.rho_plus, exps.gamma_plus)
    gap_m = thermo.bregman(state_a.rho_minus, state_b.rho_minus, exps.gamma_minus)
    e_bp = float(np.sum(state_a.alpha * gap_p) * dx)
    e_bm = float(np.sum((1.0 - state_a.alpha) * gap_m) * dx)
    g = velocity_face_gradient(du, grid)
    g_sq = np.sum(g * g)
    return RelativeEntropyRow(
        t=t,
        E_kin=e_kin,
        E_alpha=e_alpha,
        E_breg_plus=e_bp,
        E_breg_minus=e_bm,
        E_total=e_kin + e_alpha + e_bp + e_bm,
        D=float(nu_eff * g_sq * dx),
        A=float(dal_sq * dx),
        w=float((np.sum(du * du) + g_sq) * dx),
    )


@dataclasses.dataclass(frozen=True)
class EnergyAudit:
    passed: bool
    skipped: bool
    eps_E: float
    worst_margin: float


def energy_audit(traj: Trajectory, eps_E: float = 1e-3) -> EnergyAudit:
    """Check E(tau) + cumulative dissipation <= E(0) * (1 + eps_E) at snapshots.

    The energies are the run's own, traj.energies.  Skipped (and flagged)
    for forced runs, where sources inject energy.
    """
    if traj.forced:
        return EnergyAudit(passed=False, skipped=True, eps_E=eps_E, worst_margin=math.nan)
    e0 = traj.energies[0]
    scale = max(e0, EPS)
    worst = max(
        (e + d - e0) / scale for e, d in zip(traj.energies, traj.diss_cum)
    )
    return EnergyAudit(passed=worst <= eps_E, skipped=False, eps_E=eps_E, worst_margin=worst)


@dataclasses.dataclass(frozen=True)
class GronwallFit:
    mode: str  # "ratio" or "identical"
    E0: float
    max_E: float
    at_noise_floor: bool
    C_fit: float | None = None
    c_exp_fit: float | None = None


def _ls_slope(x, y) -> float:
    """Slope of the least-squares line through the points (x, y), from the
    centred sums: a two-parameter fit needs no linear-algebra library."""
    dx = x - np.mean(x)
    return float(np.sum(dx * (y - np.mean(y))) / np.sum(dx * dx))


def gronwall_check(times, E, e0_floor: float, e_scale: float = 1.0) -> GronwallFit:
    """Fit empirical constants in E(tau) <= C * E(0) along a series.

    Ratio mode (E(0) >= e0_floor): C_fit is the smallest admissible constant
    max E(tau) / E(0), and c_exp_fit the least-squares exponential rate of
    log E against t over samples above the noise floor, in closed form.
    Identical-data mode (E(0) < e0_floor): only max E(tau) is reported, to
    be held against a discretisation-error budget.
    """
    times = np.asarray(times, dtype=float)
    E = np.asarray(E, dtype=float)
    if E.size == 0:
        raise EmptySeriesError("no relative-energy samples")
    noise = NOISE_FLOOR_FACTOR * EPS * e_scale
    max_E = float(np.max(E))
    at_floor = max_E < noise
    if E[0] < e0_floor:
        return GronwallFit(
            mode="identical", E0=float(E[0]), max_E=max_E, at_noise_floor=at_floor
        )
    c_fit = max_E / float(E[0])
    keep = E > noise
    c_exp = None
    if int(np.count_nonzero(keep)) >= 2 and float(np.ptp(times[keep])) > 0.0:
        c_exp = _ls_slope(times[keep], np.log(E[keep]))
    return GronwallFit(
        mode="ratio",
        E0=float(E[0]),
        max_E=max_E,
        at_noise_floor=at_floor,
        C_fit=float(c_fit),
        c_exp_fit=c_exp,
    )


@dataclasses.dataclass(frozen=True)
class AlphaStabilityReport:
    delta: float
    C_delta: float
    lhs_max: float
    A0: float
    A: list[float]


def alpha_stability_check(A, w, times, delta: float) -> AlphaStabilityReport:
    """Smallest constant C making the discrete fraction-stability bound hold.

    A and w are the terms A and w of each snapshot pair's
    RelativeEntropyRow.  With W(tau) = int_0^tau w dt and S(tau) =
    int_0^tau A dt (left-endpoint sums on the snapshot grid), reports
    C_delta = max over tau of (A(tau) - A(0) - delta * W(tau)) / S(tau),
    floored at zero, so that A(tau) - A(0) <= delta W(tau) + C_delta S(tau).
    """
    n = len(times)
    if n == 0:
        raise EmptySeriesError("no snapshots to audit")
    if not (len(A) == len(w) == n):
        raise GridMismatchError("series lengths differ")
    A = list(A)
    c_delta = 0.0
    lhs_max = 0.0
    W = 0.0
    S = 0.0
    for k in range(1, n):
        dt = float(times[k]) - float(times[k - 1])
        W += dt * w[k - 1]
        S += dt * A[k - 1]
        lhs = A[k] - A[0]
        lhs_max = max(lhs_max, lhs)
        excess = lhs - delta * W
        if excess > 0.0 and S > 0.0:
            c_delta = max(c_delta, excess / S)
    return AlphaStabilityReport(
        delta=delta, C_delta=c_delta, lhs_max=lhs_max, A0=A[0], A=A
    )


@dataclasses.dataclass(frozen=True)
class CoercivityReport:
    C_lb: float
    E_reduced: float
    I_ess: float
    I_res: float
    n_ess: int
    n_res: int
    c_star: float
    c_star_upper: float


def coercivity_check(
    row: RelativeEntropyRow,
    state_a: DerivedFields,
    state_b: DerivedFields,
    grid: Grid1D,
    exps: ExponentPair,
    c_star: float,
    c_star_upper: float,
) -> CoercivityReport:
    """Largest constant with E_reduced >= C * (quadratic-on-essential + energy-on-residual).

    row is the relative energy of state_a against state_b, as
    relative_entropy gives it; its E_reduced does not depend on nu_eff or t.
    The essential set collects cells where both phase densities of state_a
    lie in the window [c_star, c_star_upper], which needs 0 < c_star <
    c_star_upper; there the comparison functional is the weighted quadratic
    density gap.  On the residual set it is 1 + alpha rho_plus^g+ +
    (1-alpha) rho_minus^g-.  Identical states leave the constant
    unconstrained and report an infinite sentinel.
    """
    if not (0.0 < c_star < c_star_upper):
        raise ValueError("need 0 < c_star < c_star_upper")
    rho_p, rho_m = state_a.rho_plus, state_a.rho_minus
    ess = (rho_p >= c_star) & (rho_p <= c_star_upper)
    ess &= (rho_m >= c_star) & (rho_m <= c_star_upper)
    n_ess = int(np.count_nonzero(ess))
    dx = grid.dx
    dp = state_a.rho_plus - state_b.rho_plus
    dm = state_a.rho_minus - state_b.rho_minus
    quad = state_a.alpha * dp * dp + (1.0 - state_a.alpha) * dm * dm
    i_ess = float(np.sum(np.where(ess, quad, 0.0)) * dx)
    heavy = (
        1.0
        + state_a.alpha * state_a.p  # p = rho_plus**gamma_plus
        + (1.0 - state_a.alpha) * np.power(state_a.rho_minus, exps.gamma_minus)
    )
    i_res = float(np.sum(np.where(ess, 0.0, heavy)) * dx)
    denom = i_ess + i_res
    c_lb = math.inf if denom == 0.0 else row.E_reduced / denom
    return CoercivityReport(
        C_lb=c_lb,
        E_reduced=row.E_reduced,
        I_ess=i_ess,
        I_res=i_res,
        n_ess=n_ess,
        n_res=ess.size - n_ess,
        c_star=c_star,
        c_star_upper=c_star_upper,
    )


@dataclasses.dataclass(frozen=True)
class ConvergenceReport:
    ns: list[int]
    errors: dict
    orders: dict

    def min_order(self) -> float:
        flat = [o for seq in self.orders.values() for o in seq]
        finite = [o for o in flat if math.isfinite(o)]
        if not finite or len(finite) < len(flat):
            return -math.inf
        return min(finite)


def _l2_error(a, b, dx: float) -> float:
    d = a - b
    return float(math.sqrt(np.sum(d * d) * dx))


def convergence_study(cfg, levels: int) -> ConvergenceReport:
    """Run the manufactured-solution problem at n, 2n, 4n, ... and extract orders.

    The configuration must have the manufactured forcing enabled and a
    positive t_end; errors are discrete L2 gaps against the exact fields at
    t_end, per variable.  The levels run without the volume-fraction
    diagnostic, which the study does not read; the states do not depend on
    it.
    """
    if levels < 3:
        raise ValueError("a convergence study needs at least 3 levels")
    if not cfg.mms_enabled:
        raise ValueError("convergence_study requires a manufactured-forcing config")
    if not cfg.t_end > 0.0:
        raise ValueError("a convergence study needs time.t_end > 0")
    ns: list[int] = []
    errors = {"R": [], "Q": [], "u": []}
    last = []  # the level's latest snapshot record

    def keep_last(state, der) -> None:
        last[:] = (der,)

    base_n = cfg.n
    for lev in range(levels):
        n = base_n * 2**lev
        level = cfg.with_resolution(n)  # a copy, so the caller's cfg is untouched
        level.track_alpha = False
        traj = run(level, on_snapshot=keep_last)
        grid = traj.grid
        sol = traj.forcing
        (der,) = last
        t = traj.times[-1]
        x = grid.x
        errors["R"].append(_l2_error(der.R, sol.R(x, t), grid.dx))
        errors["Q"].append(_l2_error(der.Q, sol.Q(x, t), grid.dx))
        errors["u"].append(_l2_error(der.u, sol.u(x, t), grid.dx))
        ns.append(n)
    orders = {}
    with np.errstate(divide="ignore", invalid="ignore"):
        for var, errs in errors.items():
            e = np.asarray(errs)
            orders[var] = [float(v) for v in np.log2(e[:-1] / e[1:])]
    return ConvergenceReport(ns=ns, errors=errors, orders=orders)
