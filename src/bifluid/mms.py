"""Manufactured smooth solution with matching source terms.

The target fields are

    R(x, t) = a + b * sin(k x - t)
    Q(x, t) = c + d * cos(k x + t)
    u(x, t) = e * sin(k x) * cos(t),        k = 2 pi / length.

The mass sources are the exact transport residuals.  The pressure is NOT
manufactured: the momentum source absorbs the gradient of the true closure
pressure p = Z**gamma_plus of (R, Q).  Its cell average is exact, the
difference of p at the two faces of the cell over dx, so the forcing
solves the closure once, on the n + 1 faces.  The terms that need no
closure are cell-averaged by 3-point Gauss quadrature, so the forcing is not
the accuracy bottleneck of a first-order scheme.  The face difference loses
about n * eps of the pressure term to round-off (a few 1e-12 relative
at n = 4096), far below the scheme's error at any n.

The solver evaluates the forcing once per time level: an SSPRK2 step hands
its stage forcing at t + dt on to the next step, which starts at that time.
A step that lands on a snapshot time can end a round-off away from it; t is
then set to the snapshot time and the next step evaluates the forcing afresh.
The phases sin(k x) and cos(k x) at the nodes and the faces do not depend on
t and are computed once per wavenumber and grid.
"""

from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np

from .closure import CLOSURE_TOL, ExponentPair, _solve_closure
from .closure import solve_closure_batch  # noqa: F401  (perfbench/tests checks this binding)
from .fields import FieldState, Grid1D

_GAUSS3_NODES = np.array([-0.5 * math.sqrt(0.6), 0.0, 0.5 * math.sqrt(0.6)])
_GAUSS3_WEIGHTS = (5.0 / 18.0, 8.0 / 18.0, 5.0 / 18.0)

__all__ = ["ManufacturedSolution"]


@functools.lru_cache(maxsize=4)
def _phases(k: float, grid: Grid1D):
    """Read-only sin(k x) and cos(k x) at the three Gauss nodes of every cell,
    as (3, n), then at the n + 1 cell faces."""
    kx = k * (grid.x + _GAUSS3_NODES[:, None] * grid.dx)
    kf = k * (np.arange(grid.n + 1) * grid.dx)
    phases = np.sin(kx), np.cos(kx), np.sin(kf), np.cos(kf)
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
    closure_tol: float = CLOSURE_TOL

    def __post_init__(self):
        # the forcing's closure solve trusts R in [a - |b|, a + |b|] and Q in
        # [c - |d|, c + |d|] to be finite and positive; these checks ensure it
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

    def state(self, grid: Grid1D, t: float) -> FieldState:
        x = grid.x
        return FieldState(t=t, R=self.R(x, t), Q=self.Q(x, t), m=self.m(x, t))

    # sources ------------------------------------------------------------

    def cell_averages(self, grid: Grid1D, t: float):
        """Cell averages of the three sources at time t, as (3, n).

        The pressure term is the difference of the face pressures over dx;
        Gauss-3 averages the rest, the three nodes of every cell forming one
        (3, n) batch.  The cached sin/cos of k x at the nodes and the faces
        (angle addition gives the phases shifted by t) serve all sources.
        """
        k = self.k
        sin_kx, cos_kx, sin_kf, cos_kf = _phases(k, grid)
        ct, st = math.cos(t), math.sin(t)
        sc, cs = sin_kx * ct, cos_kx * st
        cc, ss = cos_kx * ct, sin_kx * st
        sin_m, sin_p = sc - cs, sc + cs  # sin(kx - t), sin(kx + t)
        cos_m, cos_p = cc + ss, cc - ss  # cos(kx - t), cos(kx + t)

        R = self.a + self.b * sin_m
        Q = self.c + self.d * cos_p
        u = self.e * ct * sin_kx
        dR_dt, dR_dx = -self.b * cos_m, k * self.b * cos_m
        dQ_dt, dQ_dx = -self.d * sin_p, -k * self.d * sin_p
        du_dt = -self.e * st * sin_kx
        du_dx = k * self.e * ct * cos_kx
        du_dxx = -k * k * u

        # sources per (source, node, cell); the momentum source uses the
        # identity (rho u)_t + (rho u^2)_x = u (sR + sQ) + rho (u_t + u u_x)
        S = np.empty((3,) + R.shape)
        np.add(dR_dt + dR_dx * u, R * du_dx, out=S[0])
        np.add(dQ_dt + dQ_dx * u, Q * du_dx, out=S[1])
        np.subtract(
            u * (S[0] + S[1]) + (R + Q) * (du_dt + u * du_dx),
            self.nu_eff * du_dxx,
            out=S[2],
        )
        w = _GAUSS3_WEIGHTS
        avg = w[0] * S[:, 0] + w[1] * S[:, 1] + w[2] * S[:, 2]

        # p = Z**gamma_plus at the faces, with (Z - R) Z**(gamma-1) = Q
        Zf, _ = _solve_closure(
            self.a + self.b * (sin_kf * ct - cos_kf * st),
            self.c + self.d * (cos_kf * ct - sin_kf * st),
            self.exps.gamma,
            self.closure_tol,
        )
        pf = np.power(Zf, self.exps.gamma_plus)
        avg[2] += (pf[1:] - pf[:-1]) / grid.dx
        return avg
