"""Manufactured smooth solution with matching source terms.

The target fields are

    R(x, t) = a + b * sin(k x - t)
    Q(x, t) = c + d * cos(k x + t)
    u(x, t) = e * sin(k x) * cos(t),        k = 2 pi / length.

The mass sources are the exact transport residuals.  The pressure is NOT
manufactured: the momentum source absorbs the gradient of the true closure
pressure of (R, Q), with dZ/dx obtained by implicit differentiation of the
closure equation.  Cell averages of the sources use 3-point Gauss quadrature
so the forcing is not the accuracy bottleneck of a first-order scheme.

The solver evaluates the forcing once per time level: an SSPRK2 step hands
its stage forcing at t + dt on to the next step, which starts at that time.
A step that lands on a snapshot time can end a round-off away from it; t is
then set to the snapshot time and the next step evaluates the forcing afresh.
The node phases sin(k x) and cos(k x) do not depend on t and are computed
once per wavenumber and grid.
"""

from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np

from .closure import ExponentPair, solve_closure_batch, CLOSURE_TOL
from .fields import FieldState, Grid1D

_GAUSS3_NODES = np.array([-0.5 * math.sqrt(0.6), 0.0, 0.5 * math.sqrt(0.6)])
_GAUSS3_WEIGHTS = (5.0 / 18.0, 8.0 / 18.0, 5.0 / 18.0)

__all__ = ["ManufacturedSolution"]


@functools.lru_cache(maxsize=4)
def _node_phases(k: float, grid: Grid1D):
    """Read-only sin(k x) and cos(k x) at the three Gauss nodes of every cell."""
    kx = k * (grid.x + _GAUSS3_NODES[:, None] * grid.dx)
    phases = np.sin(kx), np.cos(kx)
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
        """Gauss-3 cell averages of the three sources at time t, as (3, n).

        The three nodes of every cell form one (3, n) batch: one cached
        sin/cos pair of k x (angle addition gives the phases shifted by t)
        serves all sources, and one closure solve serves the pressure
        gradient.
        """
        k, g = self.k, self.exps.gamma
        sin_kx, cos_kx = _node_phases(k, grid)
        ct, st = math.cos(t), math.sin(t)
        sin_m = sin_kx * ct - cos_kx * st  # sin(kx - t)
        cos_m = cos_kx * ct + sin_kx * st  # cos(kx - t)
        sin_p = sin_kx * ct + cos_kx * st  # sin(kx + t)
        cos_p = cos_kx * ct - sin_kx * st  # cos(kx + t)

        R = self.a + self.b * sin_m
        Q = self.c + self.d * cos_p
        u = self.e * ct * sin_kx
        dR_dt, dR_dx = -self.b * cos_m, k * self.b * cos_m
        dQ_dt, dQ_dx = -self.d * sin_p, -k * self.d * sin_p
        du_dt = -self.e * st * sin_kx
        du_dx = k * self.e * ct * cos_kx
        du_dxx = -k * k * u

        # dp/dx = gamma_plus * Z**(gamma_plus - 1) * dZ/dx with dZ/dx from
        # implicit differentiation of (Z - R) Z**(gamma-1) = Q.
        Z, _ = solve_closure_batch(R, Q, g, self.closure_tol)
        zg1 = np.power(Z, g - 1.0)
        dZ_dx = (zg1 * dR_dx + dQ_dx) / (zg1 * (g + (1.0 - g) * R / Z))
        gp = self.exps.gamma_plus
        dp_dx = gp * np.power(Z, gp - 1.0) * dZ_dx

        rho = R + Q
        sR = dR_dt + dR_dx * u + R * du_dx
        sQ = dQ_dt + dQ_dx * u + Q * du_dx
        sm = (
            (dR_dt + dQ_dt) * u
            + rho * du_dt
            + (dR_dx + dQ_dx) * u * u
            + 2.0 * rho * u * du_dx
            + dp_dx
            - self.nu_eff * du_dxx
        )
        w = _GAUSS3_WEIGHTS
        nodes = np.array((sR, sQ, sm))  # (source, node, cell)
        return w[0] * nodes[:, 0] + w[1] * nodes[:, 1] + w[2] * nodes[:, 2]
