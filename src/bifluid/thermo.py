"""Helmholtz potentials and Bregman distances of power-law phase pressures.

For a power-law phase with exponent g > 1 the pressure is p(rho) = rho**g
and the Helmholtz potential is H(rho) = rho**g / (g - 1), which satisfies
the Legendre identity rho * H'(rho) - H(rho) = p(rho).  The Bregman distance
of H is the convexity gap

    B(rho | ref) = H(rho) - H'(ref) * (rho - ref) - H(ref) >= 0,

the density-discrepancy integrand of the relative-energy functional.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "helmholtz",
    "bregman",
]


def helmholtz(rho, gamma: float):
    """Helmholtz potential rho**gamma / (gamma - 1) of the power law with
    exponent gamma > 1."""
    return np.power(rho, gamma) / (gamma - 1.0)


def _power_gap(rho, rho_ref, gamma):
    # rho**g - ref**g - g*ref**(g-1)*(rho - ref), written as
    # ref**g * (expm1(g*log1p(x)) - g*x) with x = (rho - ref)/ref.  The
    # leading-order cancellation happens inside expm1 - g*x at ~eps*g*x
    # absolute error, so the quadratic gap keeps ~eps/x relative accuracy
    # instead of the ~eps/x**2 of the naive three-term difference.
    rho = np.asarray(rho, dtype=float)
    ref = np.asarray(rho_ref, dtype=float)
    x = (rho - ref) / ref
    with np.errstate(divide="ignore"):
        g = np.expm1(gamma * np.log1p(x)) - gamma * x
    return np.power(ref, gamma) * g


def bregman(rho, rho_ref, gamma: float):
    """Convexity gap H(rho) - H'(ref) * (rho - ref) - H(ref), clamped at 0,
    of the power law with exponent gamma > 1.

    Exactly zero when rho == ref; the clamp removes sub-ulp negative
    round-off, since the gap is nonnegative by convexity.  Requires ref > 0;
    rho = 0 is allowed and gives H'(ref) * ref - H(ref) = p(ref) exactly.
    """
    out = np.maximum(_power_gap(rho, rho_ref, gamma) / (gamma - 1.0), 0.0)
    if out.ndim == 0:
        return float(out)
    return out

