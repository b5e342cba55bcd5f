"""1D grid, simulation state, per-cell derived closure fields, diagnostics.

States are immutable snapshots of the conserved unknowns (R, Q, momentum) at
cell centers.  Integral reductions use numpy's deterministic summation, so
re-evaluation is bit-identical; invariance under index permutation is not
promised.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from . import closure
from . import thermo

PERIODIC = "periodic"
NOSLIP = "noslip"
BOUNDARY_CONDITIONS = (PERIODIC, NOSLIP)
RHO_FLOOR = 1e-12
_TINY = np.finfo(float).smallest_subnormal

SNAPSHOT_COLUMNS = ("i", "x", "R", "Q", "m", "Z", "alpha", "rho_plus", "rho_minus", "p", "u")

__all__ = [
    "PERIODIC",
    "NOSLIP",
    "RHO_FLOOR",
    "Grid1D",
    "FieldState",
    "DerivedFields",
    "EssentialMask",
    "derive",
    "total_mass",
    "total_energy",
    "classify_ess_res",
    "default_ess_window",
    "restrict",
    "write_snapshot",
    "read_snapshot",
]


@dataclasses.dataclass(frozen=True)
class Grid1D:
    """Uniform grid of n cells on [0, length] with periodic or no-slip walls."""

    n: int
    length: float
    bc: str = PERIODIC

    def __post_init__(self):
        if int(self.n) != self.n or self.n < 4:
            raise ValueError("grid needs at least 4 cells")
        object.__setattr__(self, "n", int(self.n))
        if not (math.isfinite(self.length) and self.length > 0.0):
            raise ValueError("domain length must be positive and finite")
        if self.bc not in BOUNDARY_CONDITIONS:
            raise ValueError(f"bc must be one of {BOUNDARY_CONDITIONS}")

    @property
    def dx(self) -> float:
        return self.length / self.n

    @property
    def x(self) -> np.ndarray:
        """Cell-center coordinates."""
        return (np.arange(self.n) + 0.5) * self.dx


def _frozen_array(values) -> np.ndarray:
    arr = np.array(values, dtype=float)
    arr.setflags(write=False)
    return arr


@dataclasses.dataclass(frozen=True)
class FieldState:
    """Conserved unknowns at one time: partial masses R, Q and momentum m."""

    t: float
    R: np.ndarray
    Q: np.ndarray
    m: np.ndarray

    def __post_init__(self):
        for name in ("R", "Q", "m"):
            object.__setattr__(self, name, _frozen_array(getattr(self, name)))
        if not (self.R.ndim == 1 and self.R.shape == self.Q.shape == self.m.shape):
            raise ValueError("R, Q, m must be 1D arrays of equal length")
        for name in ("R", "Q", "m"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"non-finite values in {name}")
        if (self.R < 0.0).any() or (self.Q < 0.0).any():
            raise ValueError("partial masses must be nonnegative")

    @property
    def n(self) -> int:
        return self.R.shape[0]


@dataclasses.dataclass(frozen=True)
class DerivedFields:
    """Closure output per cell plus velocity recovered from momentum."""

    R: np.ndarray
    Q: np.ndarray
    u: np.ndarray
    Z: np.ndarray
    alpha: np.ndarray
    rho_plus: np.ndarray
    rho_minus: np.ndarray
    p: np.ndarray
    vacuum: np.ndarray
    closure_iterations: int = 0

    @property
    def n(self) -> int:
        return self.Z.shape[0]


@dataclasses.dataclass(frozen=True)
class EssentialMask:
    """Cells whose phase densities both lie in the window [c_star, c_star_upper]."""

    ess: np.ndarray
    c_star: float
    c_star_upper: float

    @property
    def n_ess(self) -> int:
        return int(np.count_nonzero(self.ess))

    @property
    def n_res(self) -> int:
        return int(self.ess.size - self.n_ess)


def derive(
    state: FieldState,
    exps: closure.ExponentPair,
    tol: float = closure.CLOSURE_TOL,
    vacuum_alpha: float = closure.VACUUM_ALPHA_DEFAULT,
    rho_floor: float = RHO_FLOOR,
    z0: np.ndarray | None = None,
) -> DerivedFields:
    """Cell-wise closure solve plus floored velocity recovery u = m / (R + Q).

    z0, the Z of a nearby state, warm-starts the closure iteration.
    """
    Z, iters = closure.solve_closure_batch(state.R, state.Q, exps.gamma, tol, z0=z0)
    vac = (state.R == 0.0) & (state.Q == 0.0)
    # Z >= R, so Z == 0 only where R == 0: vacuum, or a root below the
    # smallest float (alpha = 0 there)
    alpha = np.where(vac, float(vacuum_alpha), state.R / np.maximum(Z, _TINY))
    rho_minus = np.power(Z, exps.gamma)
    p = np.power(Z, exps.gamma_plus)
    u = state.m / np.maximum(state.R + state.Q, rho_floor)
    return DerivedFields(
        R=state.R,
        Q=state.Q,
        u=u,
        Z=Z,
        alpha=alpha,
        rho_plus=Z,
        rho_minus=rho_minus,
        p=p,
        vacuum=vac,
        closure_iterations=iters,
    )


def total_mass(state: FieldState, grid: Grid1D) -> tuple[float, float]:
    """Discrete masses (sum R * dx, sum Q * dx) in a fixed reduction order."""
    return float(np.sum(state.R) * grid.dx), float(np.sum(state.Q) * grid.dx)


def total_energy(
    state: FieldState,
    grid: Grid1D,
    exps: closure.ExponentPair,
    derived: DerivedFields | None = None,
) -> float:
    """Kinetic plus weighted Helmholtz energy of the mixture.

    E = sum dx * [ (R+Q) u^2 / 2 + alpha H_plus(rho_plus)
                   + (1-alpha) H_minus(rho_minus) ].
    Vacuum cells contribute zero regardless of the alpha sentinel.
    """
    der = derived if derived is not None else derive(state, exps)
    law_p = thermo.PhaseLaw(exps.gamma_plus)
    law_m = thermo.PhaseLaw(exps.gamma_minus)
    e = (
        0.5 * (state.R + state.Q) * der.u**2
        + der.alpha * thermo.helmholtz(der.rho_plus, law_p)
        + (1.0 - der.alpha) * thermo.helmholtz(der.rho_minus, law_m)
    )
    return float(np.sum(e) * grid.dx)


def classify_ess_res(derived: DerivedFields, c_star: float, c_star_upper: float) -> EssentialMask:
    """Mark cells as essential when both phase densities sit inside the window."""
    if not (0.0 < c_star < c_star_upper):
        raise ValueError("need 0 < c_star < c_star_upper")
    inside_p = (derived.rho_plus >= c_star) & (derived.rho_plus <= c_star_upper)
    inside_m = (derived.rho_minus >= c_star) & (derived.rho_minus <= c_star_upper)
    return EssentialMask(ess=inside_p & inside_m, c_star=c_star, c_star_upper=c_star_upper)


def default_ess_window(derived_series) -> tuple[float, float]:
    """Heuristic window: half the min to twice the max of the reference densities."""
    lo = math.inf
    hi = 0.0
    for der in derived_series:
        lo = min(lo, float(np.min(der.rho_plus)), float(np.min(der.rho_minus)))
        hi = max(hi, float(np.max(der.rho_plus)), float(np.max(der.rho_minus)))
    if not (lo > 0.0 and hi >= lo):
        raise ValueError("reference densities must be positive to set a window")
    return 0.5 * lo, 2.0 * hi


def restrict(state: FieldState, factor: int) -> FieldState:
    """Block-average a fine-grid state onto a grid coarsened by `factor`."""
    if factor < 1 or state.n % factor != 0:
        raise ValueError("coarsening factor must divide the cell count")
    def avg(a):
        return a.reshape(-1, factor).mean(axis=1)
    return FieldState(t=state.t, R=avg(state.R), Q=avg(state.Q), m=avg(state.m))


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def write_snapshot(path, grid: Grid1D, state: FieldState, derived: DerivedFields) -> None:
    """Write one CSV row per cell with 17 significant digits."""
    x = grid.x
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(SNAPSHOT_COLUMNS) + "\n")
        for i in range(grid.n):
            row = (
                str(i),
                _fmt(x[i]),
                _fmt(state.R[i]),
                _fmt(state.Q[i]),
                _fmt(state.m[i]),
                _fmt(derived.Z[i]),
                _fmt(derived.alpha[i]),
                _fmt(derived.rho_plus[i]),
                _fmt(derived.rho_minus[i]),
                _fmt(derived.p[i]),
                _fmt(derived.u[i]),
            )
            fh.write(",".join(row) + "\n")


def read_snapshot(path) -> dict[str, np.ndarray]:
    """Read a snapshot CSV back into column arrays."""
    with open(path, "r") as fh:
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if tuple(header) != SNAPSHOT_COLUMNS:
        raise ValueError(f"unexpected snapshot header {header}")
    return {name: data[:, j].copy() for j, name in enumerate(header)}
