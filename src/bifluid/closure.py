"""Implicit pressure-equilibrium closure for the two-fluid model.

Given the per-cell partial masses R and Q, equality of the two power-law
phase pressures reduces to one scalar equation for a density-like unknown Z:

    (Z - R) * Z**(gamma - 1) = Q,    Z >= R,    gamma = gamma_plus / gamma_minus.

Z is the density of phase +, Z**gamma the density of phase -, Z**gamma_plus
the common pressure, and R / Z the volume fraction of phase +.  The residual
is strictly increasing in Z on [R, oo), so the root is unique.

At gamma = 2 the equation is a quadratic, and its root is the closed form
Z = R + (hypot(R/2, sqrt(Q)) - R/2), which neither overflows nor loses
precision at any float input scale.  For every other gamma, the equation is
invariant under Z -> sZ, R -> sR, Q -> s**gamma Q.
``solve_closure_batch`` uses this to solve for z = Z / s with
s = max(R, Q**(1/gamma)), so every input scale from subnormal to near
overflow becomes an O(1) problem with a closed-form bracket for z.  The
residual is convex (gamma > 1) or concave (gamma < 1) on that bracket, so
Newton from any start inside it, including a warm start from the Z of a
nearby state, converges monotonically after its first step.  A root beyond
float range raises ``ClosureOverflowError`` instead of returning inf or a
wrong finite value.

``solve_closure_batch`` validates its arrays (finite, nonnegative) and then
calls the trusted solver ``_solve_closure``.  Callers whose inputs are finite
and nonnegative by construction call the trusted solver directly:
``fields.derive`` (``FieldState`` checks its arrays, and the solver checks
every stage it builds) and the solver's closure of the manufactured
forcing's face masses, alone or with a stage (checked in
``ManufacturedSolution.__post_init__``).  The scalar argument checks and the
overflow check run on both paths.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

CLOSURE_TOL = 1e-12
CLOSURE_MAX_ITER = 200
VACUUM_ALPHA = 0.5  # the volume fraction reported in a vacuum cell R = Q = 0
_EPS = np.finfo(float).eps
_HALF_MAX = np.finfo(float).max / 2.0

__all__ = [
    "CLOSURE_TOL",
    "CLOSURE_MAX_ITER",
    "VACUUM_ALPHA",
    "NonFiniteInputError",
    "CellError",
    "MaxIterExceededError",
    "ClosureOverflowError",
    "ExponentPair",
    "solve_closure_batch",
    "omega_of_alpha",
]


class NonFiniteInputError(ValueError):
    """An input to the closure is NaN or infinite."""


class CellError(Exception):
    """An error at some cells of a state, which a run can locate.

    cells is the sequence of the offending cells (a range when every cell
    offends) and t the time of the failing update, when the raise knows it.
    A run that meets the error records where it failed (at; solver.run says
    how): step, a step number, and dt, a step size.  Both stay None for an
    error raised outside a run.
    """

    def __init__(self, message: str, t: float | None = None, cells=()):
        super().__init__(message)
        self.t = t
        self.cells = cells
        self.step: int | None = None
        self.dt: float | None = None

    def at(self, t: float, step: int, dt: float | None) -> None:
        """Record where the run failed; a t known at the raise is kept."""
        if self.t is None:
            self.t = t
        self.step, self.dt = step, dt


class MaxIterExceededError(CellError, RuntimeError):
    """Root iteration did not converge within the iteration cap at cells.

    With CLOSURE_TOL this signals a defect, not a missing root: the residual
    is monotone and bracketed.
    """


class ClosureOverflowError(CellError, OverflowError):
    """The closure root exceeds the largest float at cells: Z >= Q**(1/gamma)
    overflows."""


@dataclasses.dataclass(frozen=True)
class ExponentPair:
    """Adiabatic exponents of the two phases, both strictly above 1."""

    gamma_plus: float
    gamma_minus: float

    def __post_init__(self):
        if not (math.isfinite(self.gamma_plus) and math.isfinite(self.gamma_minus)):
            raise NonFiniteInputError("adiabatic exponents must be finite")
        if not (self.gamma_plus > 1.0 and self.gamma_minus > 1.0):
            raise ValueError("adiabatic exponents must be > 1")

    @property
    def gamma(self) -> float:
        """Exponent ratio gamma_plus / gamma_minus, always recomputed."""
        return self.gamma_plus / self.gamma_minus


def _finite_nonneg(a):
    # NaN fails both comparisons, so two reductions check finite and >= 0
    return a.size == 0 or (
        np.minimum.reduce(a, axis=None) >= 0.0
        and np.maximum.reduce(a, axis=None) < math.inf
    )


def _validate_inputs(R, Q):
    if not (_finite_nonneg(R) and _finite_nonneg(Q)):
        if not (np.isfinite(R).all() and np.isfinite(Q).all()):
            raise NonFiniteInputError("R and Q must be finite")
        raise ValueError("R and Q must be nonnegative")


def _check_overflow(a, what):
    # a holds no NaN here, so one reduction finds an inf
    if a.size and not np.maximum.reduce(a) < math.inf:
        bad = np.flatnonzero(np.isinf(a)).tolist()
        raise ClosureOverflowError(
            f"closure root {what} overflows float at cells {bad[:8]}", cells=bad
        )


def _newton(r, q, lo, hi, z, gamma):
    """Newton on the scaled closure for 1-D arrays; returns (z, iterations).

    lo is a scalar or an array like hi.  Converged cells are frozen in
    place: the whole batch is iterated, but a converged cell keeps its z, so
    each cell runs the same iteration whatever else is in the batch.
    """
    tol_q = CLOSURE_TOL * q
    # the subtraction (z - r) bounds the achievable residual at a few ulps
    # of z**gamma, scaled by the local slope factor (1 + gamma)
    f_floor = 4.0 * (1.0 + gamma) * _EPS
    for iterations in range(1, CLOSURE_MAX_ITER + 1):
        zg1 = np.power(z, gamma - 1.0)
        f = (z - r) * zg1 - q
        conv = np.abs(f) <= np.maximum(tol_q, f_floor * zg1 * z)
        n_conv = np.count_nonzero(conv)
        if n_conv == z.size:
            return z, iterations
        fp = zg1 * (gamma - (gamma - 1.0) * (r / z))
        step = np.minimum(np.maximum(z - f / fp, lo), hi)
        z = np.where(conv, z, step) if n_conv else step
    bad = np.flatnonzero(~conv).tolist()
    raise MaxIterExceededError(
        f"closure iteration exceeded {CLOSURE_MAX_ITER} iterations at cells {bad[:8]}",
        cells=bad,
    )


def solve_closure_batch(R, Q, gamma, z0=None):
    """Vectorised closure solve; returns (Z, iterations).

    Scaling.  The closure is invariant under Z -> sZ, R -> sR, Q -> s**gamma Q,
    so outside the exact branches below each cell is solved for z = Z / s
    with s = max(R, Q**(1/gamma)), on r = R / s and
    q = (Q**(1/gamma) / s)**gamma.  Both lie in [0, 1], one of them is 1,
    and the root z >= 1, so the iteration sees O(1) numbers at every input
    scale.  A root beyond float range raises
    ClosureOverflowError; a Q**(1/gamma) that underflows only perturbs Z at
    the underflow scale.

    Exact branches: vacuum R = Q = 0 gives Z = 0, gamma == 1 gives Z = R + Q,
    and gamma == 2 is the unscaled quadratic formula
    Z = R + (hypot(h, sqrt(Q)) - h) with h = R / 2, which never overflows:
    Z <= R + sqrt(Q) rounds to at most the largest float.  Q == 0 gives
    Z = R and R == 0 gives Z = Q**(1/gamma) exactly in every branch.

    Bracket.  r + q >= 1 bounds z from above for gamma > 1 (since
    z**(gamma-1) >= 1) and from below for gamma < 1, so z lies in
    [1, r + q] or [r + q, max(2r, (2q)**(1/gamma))]; no search is needed.
    On the bracket the residual is convex for gamma > 1 and concave for
    gamma < 1, so one Newton step from any point lands on the far side of
    the root, after which the iterates approach it monotonically; every
    iterate is clipped to the bracket.  The cold start is the root of the
    second-order Taylor model at z = 1 for gamma > 1, the lower end r + q
    for gamma < 1.

    Warm start.  z0, an array shaped like R (typically the Z of a nearby
    state), replaces the cold start after clipping to the bracket, and the
    cold start is then not computed; a non-finite entry falls back to a
    bracket end.  The exact branches ignore it.

    Convergence, per cell: |f(z)| <= CLOSURE_TOL * max(q, floor) with the
    floor a few ulps of z**gamma, the round-off scale of the residual
    evaluation; in unscaled terms |f(Z)| <= CLOSURE_TOL * Q or the same floor
    of Z**gamma.  Since f' >= min(1, gamma) * z**(gamma-1) on the bracket,
    this bounds the relative error of Z by about CLOSURE_TOL / min(1, gamma).
    A converged cell is frozen in place, so its result does not depend on
    the other cells of the batch.  The returned iteration count is the
    largest over cells (0 for the exact branches).  The kernel reads
    CLOSURE_TOL and CLOSURE_MAX_ITER when it runs.
    """
    R = np.asarray(R, dtype=float)
    Q = np.asarray(Q, dtype=float)
    _validate_inputs(R, Q)
    if R.shape != Q.shape:
        R, Q = np.broadcast_arrays(R, Q)
    return _solve_closure(R, Q, gamma, z0)


def _solve_closure(R, Q, gamma, z0=None):
    """``solve_closure_batch`` on float arrays R, Q of one shape that hold only
    finite, nonnegative values; the caller guarantees that, nothing checks it."""
    if not (math.isfinite(gamma) and gamma > 0.0):
        raise ValueError("gamma must be a positive finite number")
    shape = R.shape
    R, Q = R.ravel(), Q.ravel()

    if gamma == 2.0:
        # Z = h + sqrt(h**2 + Q) with h = R/2: hypot neither overflows nor
        # underflows, Z <= R + sqrt(Q) rounds to at most the largest float,
        # and the form R + (... - h) gives Z = R at Q = 0 even where R/2 rounds
        h = 0.5 * R
        return (R + (np.hypot(h, np.sqrt(Q)) - h)).reshape(shape), 0
    # every overflow that can occur raises in _check_overflow; np.errstate
    # keeps numpy from also warning of it
    if gamma == 1.0:
        with np.errstate(over="ignore"):
            Z = R + Q
        _check_overflow(Z, "R + Q")
        return Z.reshape(shape), 0
    if gamma < 1.0:
        with np.errstate(over="ignore"):
            t = np.power(Q, 1.0 / gamma)
        _check_overflow(t, "bound Q**(1/gamma)")
    else:  # t <= max(Q, 1) cannot overflow
        t = np.power(Q, 1.0 / gamma)
    s = np.maximum(R, t)
    vac = None if np.logical_and.reduce(s) else s == 0.0
    if vac is not None:
        # a vacuum cell solves the harmless r = 1, q = 0, then gets Z = 0
        s[vac] = 1.0
    r = R / s
    if vac is not None:
        r[vac] = 1.0
    ts = t / s  # q**(1/gamma)

    q = np.power(ts, gamma)
    if gamma > 1.0:
        lo, hi = 1.0, r + q
    else:
        lo, hi = r + q, np.maximum(2.0 * r, np.exp2(1.0 / gamma) * ts)
    if z0 is not None:
        z0 = np.ravel(np.asarray(z0, dtype=float)) / s
        start = np.fmin(np.fmax(z0, lo), hi)
    elif gamma > 1.0:
        # root of the second-order Taylor model of f at z = 1, where
        # f = 1 - r - q, f' = gamma - (gamma-1) r and
        # f'' = (gamma-1) (gamma - (gamma-2) r) need no power
        d1 = gamma - (gamma - 1.0) * r
        d2 = (gamma - 1.0) * (gamma - (gamma - 2.0) * r)
        dz = 2.0 * (hi - 1.0) / (d1 + np.sqrt(d1 * d1 + 2.0 * d2 * (hi - 1.0)))
        start = np.minimum(1.0 + dz, hi)
    else:
        start = lo
    z, iterations = _newton(r, q, lo, hi, start, gamma)

    if gamma < 1.0 or (s.size and np.maximum.reduce(s) > _HALF_MAX):
        with np.errstate(over="ignore"):
            Z = s * z
        _check_overflow(Z, "Z")
    else:  # for gamma > 1, z <= r + q <= 2: s * z is finite
        Z = s * z
    if vac is not None:
        Z[vac] = 0.0
    return Z.reshape(shape), iterations


def omega_of_alpha(a, gamma):
    """Compression coefficient (gamma-1) * a * (1-a) / (gamma*(1-a) + a).

    The denominator is bounded below by min(1, gamma) on [0, 1], so the
    coefficient is bounded: |omega| <= |gamma-1| / (4 * min(1, gamma)).
    """
    b = 1.0 - a
    return (gamma - 1.0) * a * b / (gamma * b + a)
