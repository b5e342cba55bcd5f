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
nearby state, converges monotonically after its first step in exact
arithmetic (``solve_closure_batch`` says where floats fall short).  A root
beyond float range raises ``ClosureOverflowError`` instead of returning inf
or a wrong finite value.

``solve_closure_batch`` is the one closure kernel.  It checks nothing and
converts nothing: callers pass 1-D float arrays R and Q of one shape, finite
and nonnegative, and the gamma of an ``ExponentPair``.  Every caller
guarantees that: ``fields.derive`` checks the state it is given, the solver
admits every stage it builds, ``ManufacturedSolution.__post_init__`` bounds
the forcing's face masses, and the ``closure`` command checks its ranges
(it solves through ``derive``).  Only the overflow checks run on the path.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

CLOSURE_TOL = 1e-12
CLOSURE_MAX_ITER = 200
# the largest adiabatic exponent: the ratio gamma then lies in (1/100, 100),
# where the kernel is checked against a bisection and takes few iterations
EXPONENT_MAX = 100.0
VACUUM_ALPHA = 0.5  # the volume fraction reported in a vacuum cell R = Q = 0
_EPS = np.finfo(float).eps
_HALF_MAX = np.finfo(float).max / 2.0

__all__ = [
    "CLOSURE_TOL",
    "CLOSURE_MAX_ITER",
    "EXPONENT_MAX",
    "VACUUM_ALPHA",
    "CellError",
    "MaxIterExceededError",
    "ClosureOverflowError",
    "ExponentPair",
    "solve_closure_batch",
    "omega_of_alpha",
]


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
    """The closure root Z >= Q**(1/gamma), or its pressure Z**gamma_plus
    (fields.pressure), exceeds the largest float at cells."""


@dataclasses.dataclass(frozen=True)
class ExponentPair:
    """Adiabatic exponents of the two phases, both in (1, EXPONENT_MAX]."""

    gamma_plus: float
    gamma_minus: float

    def __post_init__(self):
        if not (math.isfinite(self.gamma_plus) and math.isfinite(self.gamma_minus)):
            raise ValueError("adiabatic exponents must be finite")
        if not (1.0 < self.gamma_plus <= EXPONENT_MAX and 1.0 < self.gamma_minus <= EXPONENT_MAX):
            raise ValueError(f"adiabatic exponents must lie in (1, {EXPONENT_MAX:g}]")

    @property
    def gamma(self) -> float:
        """Exponent ratio gamma_plus / gamma_minus, always recomputed."""
        return self.gamma_plus / self.gamma_minus


def _check_overflow(a, what):
    # a holds no NaN here, so one reduction finds an inf
    if a.size and not np.maximum.reduce(a) < math.inf:
        bad = np.flatnonzero(np.isinf(a)).tolist()
        raise ClosureOverflowError(
            f"closure root {what} overflows float at cells {bad[:8]}", cells=bad
        )


def _newton(r, q, lo, hi, z, gamma):
    """Newton on the scaled closure for 1-D arrays; returns (z, iterations).

    lo is a scalar or an array like hi.  The first step is taken without
    the convergence test, every later iterate is tested; iterations counts
    the residual evaluations, the untested first one included.  Converged
    cells are frozen in place: the whole batch is iterated, but a converged
    cell keeps its z, so each cell runs the same iteration whatever else is
    in the batch.
    """
    tol_q = CLOSURE_TOL * q
    # the subtraction (z - r) bounds the achievable residual at a few ulps
    # of z**gamma, scaled by the local slope factor (1 + gamma)
    f_floor = 4.0 * (1.0 + gamma) * _EPS
    zg1 = np.power(z, gamma - 1.0)
    f = (z - r) * zg1 - q
    conv, n_conv = None, 0
    for iterations in range(2, CLOSURE_MAX_ITER + 1):
        fp = zg1 * (gamma - (gamma - 1.0) * (r / z))
        step = np.minimum(np.maximum(z - f / fp, lo), hi)
        z = np.where(conv, z, step) if n_conv else step
        zg1 = np.power(z, gamma - 1.0)
        f = (z - r) * zg1 - q
        conv = np.abs(f) <= np.maximum(tol_q, f_floor * zg1 * z)
        n_conv = np.count_nonzero(conv)
        if n_conv == z.size:
            return z, iterations
    # with a cap of 1 no iterate was tested: no cell is known to converge
    bad = list(range(z.size)) if conv is None else np.flatnonzero(~conv).tolist()
    raise MaxIterExceededError(
        f"closure iteration exceeded {CLOSURE_MAX_ITER} iterations at cells {bad[:8]}",
        cells=bad,
    )


def solve_closure_batch(R, Q, gamma, z0=None):
    """Vectorised closure solve; returns (Z, iterations).

    The one closure kernel, for callers that guarantee its inputs: R and Q
    1-D float arrays of one shape, finite and nonnegative, and gamma the
    ratio of an ExponentPair.  Nothing is checked or converted here
    (derive, the solver's stages and the manufactured forcing's faces are
    the callers; see the module docstring).

    Scaling.  The closure is invariant under Z -> sZ, R -> sR, Q -> s**gamma Q,
    so outside the exact branches below each cell is solved for z = Z / s
    with s = max(R, Q**(1/gamma)), on r = R / s and
    q = (Q**(1/gamma) / s)**gamma.  Both lie in [0, 1], one of them is 1,
    and the root z >= 1, so the iteration sees O(1) numbers at every input
    scale.  A root beyond float range raises ClosureOverflowError.  For
    gamma < 1, q is Q / R**gamma where s = R: Q**(1/gamma) can underflow
    where q does not (gamma = 0.01, R = 1, Q = 1e-5).

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
    for gamma < 1.  That is convergence in exact arithmetic only, with a
    step of about z / gamma far from the root.  ExponentPair bounds gamma
    to (1/EXPONENT_MAX, EXPONENT_MAX), where a cold solve takes at most 12
    iterations for R and Q from 0 to 1e300 and the roots agree with a
    bisection (tests/test_closure.py).

    Warm start.  z0, an array shaped like R (the Z of a nearby state, or
    the solver's extrapolation in time of the roots of the last two time
    levels), replaces the cold start after clipping to the bracket, and the
    cold start is then not computed; a non-finite entry falls back to a
    bracket end.  The exact branches ignore it.

    Convergence, per cell: |f(z)| <= CLOSURE_TOL * max(q, floor) with the
    floor a few ulps of z**gamma, the round-off scale of the residual
    evaluation; in unscaled terms |f(Z)| <= CLOSURE_TOL * Q or the same floor
    of Z**gamma.  Since f' >= min(1, gamma) * z**(gamma-1) on the bracket,
    this bounds the relative error of Z by about CLOSURE_TOL / min(1, gamma).
    The first Newton step is taken without the test: a start that was
    moved, cold or warm, almost never passes it.  Every later iterate is
    tested, so every returned root passes it; a start at the root, where
    the step is a few ulps at most (zero where f = 0: vacuum, Q = 0, R = 0),
    converges at the first tested iterate.  A converged cell is frozen in
    place, so its result does not depend on the other cells of the batch.
    The returned iteration count is the number of residual evaluations,
    the untested one included, largest over cells: 2 for a solve that
    converges after one step, 0 for the exact branches.  CLOSURE_MAX_ITER
    caps that count, so a cap of 1 tests no iterate and fails every cell.
    The kernel reads CLOSURE_TOL and CLOSURE_MAX_ITER when it runs.
    """
    if gamma == 2.0:
        # Z = h + sqrt(h**2 + Q) with h = R/2: hypot neither overflows nor
        # underflows, Z <= R + sqrt(Q) rounds to at most the largest float,
        # and the form R + (... - h) gives Z = R at Q = 0 even where R/2 rounds
        h = 0.5 * R
        return R + (np.hypot(h, np.sqrt(Q)) - h), 0
    # every overflow that can occur raises in _check_overflow; np.errstate
    # keeps numpy from also warning of it
    if gamma == 1.0:
        with np.errstate(over="ignore"):
            Z = R + Q
        _check_overflow(Z, "R + Q")
        return Z, 0
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

    if gamma > 1.0:
        q = np.power(ts, gamma)
        lo, hi = 1.0, r + q
    else:
        # where R sets the scale, ts can underflow while q does not
        q = np.where(ts < 1.0, Q / np.power(s, gamma), 1.0)
        lo, hi = r + q, np.maximum(2.0 * r, np.exp2(1.0 / gamma) * ts)
    if z0 is not None:
        start = np.fmin(np.fmax(z0 / s, lo), hi)
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
    return Z, iterations


def omega_of_alpha(a, gamma):
    """Compression coefficient (gamma-1) * a * (1-a) / (gamma*(1-a) + a).

    The denominator is bounded below by min(1, gamma) on [0, 1], so the
    coefficient is bounded: |omega| <= |gamma-1| / (4 * min(1, gamma)).
    """
    b = 1.0 - a
    return (gamma - 1.0) * a * b / (gamma * b + a)
