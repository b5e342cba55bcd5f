"""1D grid, simulation state, per-cell derived closure fields, diagnostics.

States are immutable snapshots of the conserved unknowns (R, Q, momentum) at
cell centers, stored as one (3, n) array.  ``derive`` solves the closure
root Z of a state and records it with the state as one read-only (4, n)
array; the pressure, the velocity, the volume fraction, the density of
phase - and the vacuum mask are computed when first read.  Integral
reductions use numpy's deterministic summation, so re-evaluation is
bit-identical; invariance under index permutation is not promised.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import warnings

import numpy as np

from . import closure
from . import thermo

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
    "FieldState",
    "DerivedFields",
    "derive",
    "total_mass",
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


@dataclasses.dataclass(frozen=True, init=False)
class FieldState:
    """Conserved unknowns at one time: partial masses R, Q and momentum m.

    They are stored as the rows of one read-only (3, n) array U; R, Q and m
    are row views of it.  Build a state from the three rows, which are
    copied, or from a stacked U, which is frozen in place without a copy.
    """

    t: float
    U: np.ndarray

    def __init__(self, t, R=None, Q=None, m=None, *, U=None):
        if U is None:
            rows = [np.asarray(a, dtype=float) for a in (R, Q, m)]
            if not (rows[0].ndim == 1 and rows[0].shape == rows[1].shape == rows[2].shape):
                raise ValueError("R, Q, m must be 1D arrays of equal length")
            U = np.stack(rows)
        else:
            U = np.asarray(U, dtype=float)
            if not (U.ndim == 2 and U.shape[0] == 3):
                raise ValueError("U must have shape (3, n)")
        if U.size and not (_finite(U) and np.minimum.reduce(U[:2], axis=None) >= 0.0):
            if not np.isfinite(U).all():
                row = int(np.flatnonzero(~np.isfinite(U).all(axis=1))[0])
                raise ValueError(f"non-finite values in {'RQm'[row]}")
            raise ValueError("partial masses must be nonnegative")
        U.setflags(write=False)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "U", U)

    @property
    def R(self) -> np.ndarray:
        return self.U[0]

    @property
    def Q(self) -> np.ndarray:
        return self.U[1]

    @property
    def m(self) -> np.ndarray:
        return self.U[2]

    @property
    def n(self) -> int:
        return self.U.shape[1]


def _finite(a) -> bool:
    """True when a holds no NaN and no inf."""
    # NaN fails both comparisons, so two reductions decide
    return bool(
        -math.inf < np.minimum.reduce(a, axis=None)
        and np.maximum.reduce(a, axis=None) < math.inf
    )


@dataclasses.dataclass(frozen=True)
class DerivedFields:
    """A state with its closure root: the rows R, Q, m and Z of one
    read-only (4, n) array V, plus the exponents and the closure iterations.

    derive solves Z only.  R, Q, m, Z and rho_plus = Z are row views of V;
    p, u, alpha, rho_minus and vacuum are computed on their first read and
    then kept, so a record built over the V of another starts with none of
    them.  A vacuum cell's alpha is the sentinel closure.VACUUM_ALPHA.
    """

    V: np.ndarray
    exps: closure.ExponentPair
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
        return np.power(self.Z, self.exps.gamma_plus)

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


def derive(
    state: FieldState, exps: closure.ExponentPair, z0: np.ndarray | None = None
) -> DerivedFields:
    """The closure root Z of a state, with the state, as one DerivedFields.

    z0, the Z of a nearby state, warm-starts the closure iteration.
    """
    Z, iters = closure._solve_closure(state.R, state.Q, exps.gamma, z0)
    V = np.vstack((state.U, Z))
    V.setflags(write=False)
    return DerivedFields(V, exps, iters)


def total_mass(state: FieldState, grid: Grid1D) -> tuple[float, float]:
    """Discrete masses (sum R * dx, sum Q * dx) in a fixed reduction order."""
    return float(np.sum(state.R) * grid.dx), float(np.sum(state.Q) * grid.dx)


def total_energy(der: DerivedFields, grid: Grid1D, exps: closure.ExponentPair) -> float:
    """Kinetic plus weighted Helmholtz energy of the mixture, from the derived
    fields der of a state.

    E = sum dx * [ (R+Q) u^2 / 2 + alpha H_plus(rho_plus)
                   + (1-alpha) H_minus(rho_minus) ].
    H_plus(rho_plus) is read from the pressure, p / (gamma_plus - 1).
    Vacuum cells contribute zero regardless of the alpha sentinel.
    """
    e = (
        0.5 * (der.R + der.Q) * der.u**2
        + der.alpha * (der.p / (exps.gamma_plus - 1.0))
        + (1.0 - der.alpha) * thermo.helmholtz(der.rho_minus, exps.gamma_minus)
    )
    return float(np.sum(e) * grid.dx)


def restrict(state: FieldState, factor: int) -> FieldState:
    """Block-average a fine-grid state onto a grid coarsened by `factor`."""
    if factor < 1 or state.n % factor != 0:
        raise ValueError("coarsening factor must divide the cell count")
    def avg(a):
        return a.reshape(-1, factor).mean(axis=1)
    return FieldState(t=state.t, R=avg(state.R), Q=avg(state.Q), m=avg(state.m))


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
