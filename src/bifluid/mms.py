"""Manufactured smooth solution with matching source terms.

The target fields are

    R(x, t) = a + b * sin(k x - t)
    Q(x, t) = c + d * cos(k x + t)
    u(x, t) = e * sin(k x) * cos(t),        k = 2 pi / length.

The mass sources are the exact transport residuals.  The pressure is NOT
manufactured: the momentum source absorbs the gradient of the true closure
pressure p = Z**gamma_plus of (R, Q).  Its cell average is exact, the
difference of p at the two faces of the cell over dx, so the forcing
needs the closure roots at the n + 1 faces only: ``face_masses`` gives
their R and Q, and ``cell_averages`` takes their roots.  The solver solves
them in the closure call of its SSPRK2 stage, warm-started from the face
roots of the previous time level, so they meet the closure tolerance as
its warm-started cell roots do.  The face difference loses about n * eps
of the pressure term to round-off (a few 1e-12 relative at n = 4096), far
below the scheme's error at any n.

The terms that need no closure are cell-averaged by 3-point Gauss
quadrature, so the forcing is not the accuracy bottleneck of a first-order
scheme.  By angle addition R, Q, u and their derivatives are affine in
s = sin(k x) and c = cos(k x), with coefficients that depend on t alone,
so the mass sources are quadratic in (s, c) and the momentum source,
viscous term included, is cubic.  Every term carries a factor without a
constant, u or a derivative, and every momentum term one of u, u_t and
u_xx, which are multiples of s; so eight monomials s**i * c**j span the
sources, with no constant and no c**3.  Their Gauss-3 cell averages depend
on the grid only and are computed once per wavenumber and grid, as are
sin(k x) and cos(k x) at the faces.  One forcing call builds the (3, 8)
coefficients at t from floats and contracts them with the cached averages
in one ``np.einsum``, which sums over the monomials in order (a BLAS
product could reorder the sum with the memory alignment), so reruns are
bit-identical.  The result is the node-wise quadrature to within a few
ulps.

The solver evaluates the forcing once per time level: an SSPRK2 step hands
its stage forcing at t + dt and its face roots on to the next step, which
starts at that time.  A step that lands on a snapshot time can end a
round-off away from it; t is then set to the snapshot time and the next
step evaluates the forcing afresh, from a cold solve of its face roots, as
a run's first step does.
"""

from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np

from .closure import ExponentPair
from .closure import solve_closure_batch  # noqa: F401  (perfbench/tests checks this binding)
from .fields import Grid1D

_GAUSS3_NODES = np.array([-0.5 * math.sqrt(0.6), 0.0, 0.5 * math.sqrt(0.6)])
_GAUSS3_WEIGHTS = (5.0 / 18.0, 8.0 / 18.0, 5.0 / 18.0)
# the exponents (i, j) of the monomials s**i * c**j that the closure-free
# sources span: s, c, s^2, s c, c^2, s^3, s^2 c and s c^2
_MONOMIALS = ((1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (3, 0), (2, 1), (1, 2))

__all__ = ["ManufacturedSolution"]


@functools.lru_cache(maxsize=4)
def _basis(k: float, grid: Grid1D):
    """Read-only Gauss-3 cell averages of the monomials s**i * c**j of
    _MONOMIALS, s = sin(k x) and c = cos(k x), as (8, n)."""
    kx = k * (grid.x + _GAUSS3_NODES[:, None] * grid.dx)
    s, c = np.sin(kx), np.cos(kx)
    w = _GAUSS3_WEIGHTS
    G = np.empty((len(_MONOMIALS), grid.n))
    for row, (i, j) in zip(G, _MONOMIALS):
        m = s**i * c**j
        row[:] = w[0] * m[0] + w[1] * m[1] + w[2] * m[2]
    G.flags.writeable = False
    return G


@functools.lru_cache(maxsize=4)
def _phases(k: float, grid: Grid1D):
    """Read-only sin(k x) and cos(k x) at the n + 1 cell faces."""
    kf = k * (np.arange(grid.n + 1) * grid.dx)
    phases = np.sin(kf), np.cos(kf)
    for a in phases:
        a.flags.writeable = False
    return phases


@dataclasses.dataclass(frozen=True)
class ManufacturedSolution:
    exps: ExponentPair
    nu_eff: float
    length: float = 1.0
    a: float = 1.5
    b: float = 0.25
    c: float = 1.5
    d: float = 0.25
    e: float = 0.3

    def __post_init__(self):
        # the closure kernel checks nothing, so the face_masses R in
        # [a - |b|, a + |b|] and Q in [c - |d|, c + |d|] must be finite and
        # positive; these checks ensure it
        if not (math.isfinite(self.a + abs(self.b)) and math.isfinite(self.c + abs(self.d))):
            raise ValueError("manufactured partial masses must stay finite")
        if self.a - abs(self.b) <= 0.0 or self.c - abs(self.d) <= 0.0:
            raise ValueError("manufactured partial masses must stay positive")
        if self.length <= 0.0:
            raise ValueError("length must be positive")

    @property
    def k(self) -> float:
        return 2.0 * math.pi / self.length

    # exact fields -------------------------------------------------------

    def R(self, x, t):
        return self.a + self.b * np.sin(self.k * x - t)

    def Q(self, x, t):
        return self.c + self.d * np.cos(self.k * x + t)

    def u(self, x, t):
        return self.e * np.sin(self.k * x) * math.cos(t)

    def m(self, x, t):
        return (self.R(x, t) + self.Q(x, t)) * self.u(x, t)

    def state(self, grid: Grid1D, t: float) -> np.ndarray:
        """The exact fields at the cell centers at time t, as a (3, n) array
        of R, Q and m."""
        x = grid.x
        return np.stack((self.R(x, t), self.Q(x, t), self.m(x, t)))

    # sources ------------------------------------------------------------

    def face_masses(self, grid: Grid1D, t: float):
        """R and Q at the n + 1 cell faces at time t."""
        ct, st = math.cos(t), math.sin(t)
        sin_kf, cos_kf = _phases(self.k, grid)
        return (
            self.a + self.b * (sin_kf * ct - cos_kf * st),
            self.c + self.d * (cos_kf * ct - sin_kf * st),
        )

    def cell_averages(self, grid: Grid1D, t: float, Zf):
        """Cell averages of the three sources at time t, as (3, n).

        Zf holds the closure roots of face_masses(grid, t), (Z - R) *
        Z**(gamma-1) = Q at each face.  The closure-free terms are one
        contraction of their coefficients at t with the cached Gauss-3
        averages of the monomials in sin(k x) and cos(k x); the pressure
        term is the difference of the face pressures Zf**gamma_plus over dx.
        """
        coef = self._coefficients(math.cos(t), math.sin(t))
        avg = np.einsum("ik,kn->in", coef, _basis(self.k, grid), optimize=False)
        pf = np.power(Zf, self.exps.gamma_plus)
        avg[2] += (pf[1:] - pf[:-1]) / grid.dx
        return avg

    def _coefficients(self, ct: float, st: float):
        """The closure-free parts of the three sources at the time t with
        cos t = ct and sin t = st, as polynomials in s = sin(k x) and
        c = cos(k x): their (3, 8) coefficients over _MONOMIALS."""
        k, a, b, c, d = self.k, self.a, self.b, self.c, self.d
        # u = U s, u_t = W s, u_x = K c, u_xx = -k K s and u u_x = X s c;
        # by angle addition R = a + bc s - bs c and Q = c - ds s + dc c
        U, W = self.e * ct, -self.e * st
        K = k * U
        X = U * K
        bs, bc, ds, dc = b * st, b * ct, d * st, d * ct
        # S_R = R_t + R_x u + R u_x and S_Q alike, quadratic
        sR = [-bs, a * K - bc, bs * K, 2.0 * bc * K, -bs * K, 0.0, 0.0, 0.0]
        sQ = [-dc, c * K - ds, -dc * K, -2.0 * ds * K, dc * K, 0.0, 0.0, 0.0]
        # S_m = u (S_R + S_Q) + (R + Q) (u_t + u u_x) - nu_eff u_xx, cubic,
        # with R + Q = r0 + rs s + rc c
        r0, rs, rc = a + c, bc - ds, dc - bs
        sm = [
            r0 * W + self.nu_eff * k * K,
            0.0,
            U * (sR[0] + sQ[0]) + rs * W,
            U * (sR[1] + sQ[1]) + r0 * X + rc * W,
            0.0,
            U * (sR[2] + sQ[2]),
            U * (sR[3] + sQ[3]) + rs * X,
            U * (sR[4] + sQ[4]) + rc * X,
        ]
        return np.array([sR, sQ, sm])
