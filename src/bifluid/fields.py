"""1D grid, simulation state, per-cell derived closure fields, diagnostics.

A state is a (3, n) float array of the conserved unknowns (R, Q, momentum)
at cell centers, its time passed beside it.  ``derive`` checks it, solves
its closure root Z and records it with the state as one read-only (4, n)
array, timed: the snapshot record, the one state type a run hands on; p, u,
alpha, rho_minus and the vacuum mask are computed when first read.
Integral reductions use numpy's deterministic summation, so re-evaluation
is bit-identical; invariance under index permutation is not promised.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import warnings

import numpy as np

from . import closure
from . import thermo
from .closure import _HALF_MAX

PERIODIC = "periodic"
NOSLIP = "noslip"
BOUNDARY_CONDITIONS = (PERIODIC, NOSLIP)
RHO_FLOOR = 1e-12  # velocity recovery divides by max(R + Q, RHO_FLOOR)
_TINY = np.finfo(float).smallest_subnormal

SNAPSHOT_COLUMNS = ("i", "x", "R", "Q", "m", "Z", "alpha", "rho_plus", "rho_minus", "p", "u")

__all__ = [
    "PERIODIC",
    "NOSLIP",
    "RHO_FLOOR",
    "Grid1D",
    "DerivedFields",
    "derive",
    "finite_pressure_bound",
    "pressure",
    "total_mass",
    "EnergyOverflowError",
    "total_energy",
    "restrict",
    "snapshot_columns",
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

    @property
    def n_faces(self) -> int:
        """Distinct cell faces: n when periodic (the last one wraps), n + 1 with walls."""
        return self.n if self.bc == PERIODIC else self.n + 1


def _checked_state(U) -> np.ndarray:
    """U as a (3, n) float array of R, Q and m; ValueError, naming the first
    non-finite row, unless every value is finite and both masses are
    nonnegative."""
    U = np.asarray(U, dtype=float)
    if not (U.ndim == 2 and U.shape[0] == 3):
        raise ValueError("U must have shape (3, n)")
    # NaN fails every comparison, so three reductions decide
    if U.size and not (
        -math.inf < np.minimum.reduce(U, axis=None)
        and np.maximum.reduce(U, axis=None) < math.inf
        and np.minimum.reduce(U[:2], axis=None) >= 0.0
    ):
        if not np.isfinite(U).all():
            row = int(np.flatnonzero(~np.isfinite(U).all(axis=1))[0])
            raise ValueError(f"non-finite values in {'RQm'[row]}")
        raise ValueError("partial masses must be nonnegative")
    return U


@dataclasses.dataclass(frozen=True)
class DerivedFields:
    """A state at time t with its closure root: the rows R, Q, m and Z of
    one read-only (4, n) array V, plus the exponents and closure iterations.

    derive solves Z only.  R, Q, m, Z and rho_plus = Z are row views of V;
    p (see pressure), u, alpha, rho_minus and vacuum are computed on their
    first read and then kept, so a record built over the V of another starts
    with none of them.  A vacuum cell's alpha is closure.VACUUM_ALPHA.
    """

    V: np.ndarray
    exps: closure.ExponentPair
    t: float
    closure_iterations: int = 0

    @property
    def n(self) -> int:
        return self.V.shape[1]

    @property
    def R(self) -> np.ndarray:
        return self.V[0]

    @property
    def Q(self) -> np.ndarray:
        return self.V[1]

    @property
    def m(self) -> np.ndarray:
        return self.V[2]

    @property
    def Z(self) -> np.ndarray:
        return self.V[3]

    rho_plus = Z

    @property
    def rho(self) -> np.ndarray:
        """Mixture density R + Q."""
        return self.R + self.Q

    @functools.cached_property
    def p(self) -> np.ndarray:
        return pressure(self.Z, self.R, self.Q, self.exps.gamma_plus)

    @functools.cached_property
    def u(self) -> np.ndarray:
        """Velocity m / (R + Q), the density floored at RHO_FLOOR."""
        return self.m / np.maximum(self.R + self.Q, RHO_FLOOR)

    @functools.cached_property
    def vacuum(self) -> np.ndarray:
        return (self.R == 0.0) & (self.Q == 0.0)

    @functools.cached_property
    def alpha(self) -> np.ndarray:
        # Z >= R, so Z == 0 only where R == 0: vacuum, or a root below the
        # smallest float (alpha = 0 there)
        return np.where(
            self.vacuum, closure.VACUUM_ALPHA, self.R / np.maximum(self.Z, _TINY)
        )

    @functools.cached_property
    def rho_minus(self) -> np.ndarray:
        return np.power(self.Z, self.exps.gamma)


def finite_pressure_bound(exps: closure.ExponentPair) -> float:
    """B = (max / 2)**(1 / g) / 2, g the larger exponent: where the masses
    R and Q lie below B (B > 600 > 1), every p = Z**gamma_plus is finite.

    For gamma >= 1 the closure root is Z <= 2 max(R, Q, 1) < 2 B, so
    p < (2 B)**gamma_plus <= max / 2; for gamma < 1 it is
    Z <= max(2 R, (2 Q)**(1/gamma)), so p <= max((2 R)**gamma_plus,
    (2 Q)**gamma_minus) < max / 2.  Rounding moves Z and p by a few ulps,
    far less than the factor 2 from max / 2 to the largest float.
    """
    return _HALF_MAX ** (1.0 / max(exps.gamma_plus, exps.gamma_minus)) / 2.0


def pressure(Z, R, Q, gamma_plus: float, out=None, finite=False) -> np.ndarray:
    """p = Z**gamma_plus of the closure roots Z of the masses R and Q, into
    out when given; ClosureOverflowError, naming the cells and the masses of
    the first, where p overflows, and no numpy warning.  finite says that
    the caller knows every p to be finite (its masses lie below
    finite_pressure_bound): the overflow check is skipped."""
    # below (max / 2)**(1/gamma_plus) p is finite, and one reduction of Z says so
    if finite or not Z.size or np.maximum.reduce(Z) < _HALF_MAX ** (1.0 / gamma_plus):
        return np.power(Z, gamma_plus, out=out)
    with np.errstate(over="ignore"):
        p = np.power(Z, gamma_plus, out=out)
    if np.maximum.reduce(p) < math.inf:
        return p
    bad = np.flatnonzero(np.isinf(p)).tolist()
    k = bad[0]
    raise closure.ClosureOverflowError(
        f"pressure p = Z**gamma_plus overflows float at cells {bad[:8]} "
        f"(cell {k}: R = {float(R[k])!r}, Q = {float(Q[k])!r})",
        cells=bad,
    )


def derive(
    U, t: float, exps: closure.ExponentPair, z0: np.ndarray | None = None
) -> DerivedFields:
    """The closure root Z of the state U, a (3, n) array of R, Q and m at
    time t, stacked with U into one DerivedFields.

    ValueError, naming the first non-finite row, unless U is finite with
    nonnegative masses.  z0, the Z of a nearby state, warm-starts the
    closure iteration.
    """
    U = _checked_state(U)
    Z, iters = closure.solve_closure_batch(U[0], U[1], exps.gamma, z0)
    V = np.vstack((U, Z))
    V.setflags(write=False)
    return DerivedFields(V, exps, t, iters)


def total_mass(der: DerivedFields, grid: Grid1D) -> tuple[float, float]:
    """Discrete masses (sum R * dx, sum Q * dx) in a fixed reduction order."""
    return float(np.sum(der.R) * grid.dx), float(np.sum(der.Q) * grid.dx)


class EnergyOverflowError(closure.CellError, OverflowError):
    """The total energy of a state exceeds the largest float at cells: those
    whose energy density does, or every cell when each density is finite
    and only their sum overflows."""


def total_energy(der: DerivedFields, grid: Grid1D) -> float:
    """Kinetic plus weighted Helmholtz energy of the mixture, from the record
    der of a state, with its exponents.

    E = sum dx * [ (R+Q) u^2 / 2 + alpha H_plus(rho_plus)
                   + (1-alpha) H_minus(rho_minus) ].
    H_plus(rho_plus) is read from the pressure, p / (gamma_plus - 1).
    Vacuum cells contribute zero regardless of the alpha sentinel.  An E
    that is not finite raises EnergyOverflowError, with no numpy warning.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        e = (
            0.5 * (der.R + der.Q) * der.u**2
            + der.alpha * (der.p / (der.exps.gamma_plus - 1.0))
            + (1.0 - der.alpha) * thermo.helmholtz(der.rho_minus, der.exps.gamma_minus)
        )
        E = float(np.sum(e) * grid.dx)
    if math.isfinite(E):
        return E
    bad = np.flatnonzero(~np.isfinite(e)).tolist()
    if bad:
        message = f"total energy overflows float: the energy density of cells {bad[:8]} does"
    else:
        message = "total energy overflows float in the sum of finite cell energies"
        bad = range(e.size)
    raise EnergyOverflowError(message, cells=bad)


def restrict(der: DerivedFields, factor: int) -> np.ndarray:
    """The state of a fine-grid record, block-averaged row by row onto a
    grid coarsened by `factor`, as a (3, n // factor) array of R, Q and m."""
    if factor < 1 or der.n % factor != 0:
        raise ValueError("coarsening factor must divide the cell count")
    return np.stack([row.reshape(-1, factor).mean(axis=1) for row in der.V[:3]])


SNAPSHOT_BLOCK_ROWS = 4096  # rows per `%` call; bounds the text held in memory


@functools.lru_cache(maxsize=4)
def _snapshot_templates(grid: Grid1D) -> tuple[str, ...]:
    """One `%` template per block of rows, with the i and x columns baked in."""
    values = ",%.17g" * (len(SNAPSHOT_COLUMNS) - 2)
    rows = [f"{i},{x:.17g}{values}\n" for i, x in enumerate(grid.x.tolist())]
    step = SNAPSHOT_BLOCK_ROWS
    return tuple("".join(rows[k : k + step]) for k in range(0, grid.n, step))


def snapshot_columns(derived: DerivedFields) -> np.ndarray:
    """The value columns of a snapshot CSV, R to u, as the rows of one
    C-contiguous (9, n) array."""
    d = derived
    return np.vstack((d.V, d.alpha, d.Z, d.rho_minus, d.p, d.u))


def write_snapshot(path, grid: Grid1D, columns: np.ndarray) -> None:
    """Write one CSV row per cell with 17 significant digits (`%.17g`).

    columns holds the value columns as snapshot_columns gives them.  Each
    block of rows is one `%` format of a cached per-grid template (one block
    up to SNAPSHOT_BLOCK_ROWS cells), so the digits are those of
    format(v, ".17g"), including -0, subnormals, inf and nan.
    """
    table = columns.T
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(SNAPSHOT_COLUMNS) + "\n")
        for k, template in enumerate(_snapshot_templates(grid)):
            block = table[k * SNAPSHOT_BLOCK_ROWS : (k + 1) * SNAPSHOT_BLOCK_ROWS]
            fh.write(template % tuple(block.ravel().tolist()))


def read_snapshot(path) -> dict[str, np.ndarray]:
    """Read a snapshot CSV, as write_snapshot writes it, back into column
    arrays; ValueError, naming the file, for any other header or shape."""
    with open(path, "r") as fh, warnings.catch_warnings():
        header = fh.readline().strip().split(",")
        if tuple(header) != SNAPSHOT_COLUMNS:
            raise ValueError(f"{path}: unexpected snapshot header {header}")
        warnings.simplefilter("ignore", UserWarning)  # an empty table fails below
        try:
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as exc:  # rows of unequal length, or a value that is no number
            raise ValueError(f"{path}: {exc}") from None
    if not (data.size and data.shape[1] == len(header)):
        raise ValueError(f"{path}: rows of {len(header)} values expected after the header")
    return {name: data[:, j].copy() for j, name in enumerate(header)}
