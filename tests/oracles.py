"""Reference code the tests check the program against.

The volume-fraction equation's compression term omega(alpha) * div u is
what the solver evaluates (``closure.omega_of_alpha``).  The sensitivities
d(alpha)/dR and d(alpha)/dQ of the closure's alpha = R / Z check it through
the Euler identity R * d(alpha)/dR + Q * d(alpha)/dQ = omega; no command
needs them, so they live here.
"""

import numpy as np

from bifluid.closure import CLOSURE_TOL, omega_of_alpha, solve_closure_batch


class VacuumCellError(ValueError):
    """Operation undefined on the vacuum set R = Q = 0."""


class DegenerateDenominatorError(ArithmeticError):
    """Sensitivity denominator underflowed (inputs at sub-normal scale)."""


def alpha_partials_batch(R, Q, gamma, tol=CLOSURE_TOL):
    """Vectorised d(alpha)/dR, d(alpha)/dQ and omega for nonvacuum (R, Q).

    The textbook quotients -alpha**gamma / (Q*gamma*alpha**(gamma-1) +
    R**gamma) and gamma*R**(gamma-1)*(1-alpha) / (same) are evaluated with
    numerator and denominator rescaled by alpha**(1-gamma), i.e. as

        d_alpha_dQ = -alpha / (gamma*Q + R*Z**(gamma-1)),
        d_alpha_dR = gamma * Z**(gamma-1) * (1-alpha) / (gamma*Q + R*Z**(gamma-1)),

    which is the analytic one-sided limit form and stays finite down to
    alpha -> 0 where the raw denominator underflows.  Inputs that are not
    finite and nonnegative raise what solve_closure_batch raises.
    """
    R = np.asarray(R, dtype=float)
    Q = np.asarray(Q, dtype=float)
    vac = (R == 0.0) & (Q == 0.0)
    if vac.any():
        raise VacuumCellError(
            f"alpha partials undefined at vacuum cells {np.flatnonzero(vac).tolist()[:8]}"
        )
    Z, _ = solve_closure_batch(R, Q, gamma, tol)
    alpha = R / Z
    zg1 = np.power(Z, gamma - 1.0)
    den = gamma * Q + R * zg1
    if np.any(den == 0.0) or not np.all(np.isfinite(den)):
        raise DegenerateDenominatorError("sensitivity denominator underflowed")
    d_dR = gamma * zg1 * (1.0 - alpha) / den
    d_dQ = -alpha / den
    return d_dR, d_dQ, omega_of_alpha(alpha, gamma)
