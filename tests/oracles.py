"""Reference code the tests check the program against.

The volume-fraction equation's compression term omega(alpha) * div u is
what the solver evaluates (``closure.omega_of_alpha``).  The sensitivities
d(alpha)/dR and d(alpha)/dQ of the closure's alpha = R / Z check it through
the Euler identity R * d(alpha)/dR + Q * d(alpha)/dQ = omega; no command
needs them, so they live here.

The scheme's time derivative, written one equation at a time, checks the
solver's fused stacked rhs bit for bit; with its advection flipped it is the
deliberately inconsistent negative control of the convergence study.
"""

import numpy as np

from bifluid.closure import CLOSURE_TOL, omega_of_alpha, solve_closure_batch
from bifluid.fields import PERIODIC


def _upwind_divergence(phi, u, grid):
    dx = grid.dx
    if grid.bc == PERIODIC:
        u_face = 0.5 * (u + np.roll(u, -1))
        donor = np.where(u_face > 0.0, phi, np.roll(phi, -1))
        flux = u_face * donor
        return (flux - np.roll(flux, 1)) / dx
    u_face = 0.5 * (u[:-1] + u[1:])
    donor = np.where(u_face > 0.0, phi[:-1], phi[1:])
    flux = np.concatenate(([0.0], u_face * donor, [0.0]))
    return (flux[1:] - flux[:-1]) / dx


def _pressure_gradient(p, grid):
    dx = grid.dx
    if grid.bc == PERIODIC:
        return (np.roll(p, -1) - np.roll(p, 1)) / (2.0 * dx)
    ext = np.concatenate(([p[0]], p, [p[-1]]))
    return (ext[2:] - ext[:-2]) / (2.0 * dx)


def _velocity_laplacian(u, grid):
    dx = grid.dx
    if grid.bc == PERIODIC:
        return (np.roll(u, -1) - 2.0 * u + np.roll(u, 1)) / (dx * dx)
    ext = np.concatenate(([-u[0]], u, [-u[-1]]))
    return (ext[2:] - 2.0 * u + ext[:-2]) / (dx * dx)


def per_equation_rhs(R, Q, m, u, p, grid, nu_eff, forcing=None, flux_sign=1.0):
    """(dR, dQ, dm) of the scheme: upwind transport by u, the central
    gradient of the pressure p and the viscous term nu_eff * u_xx, plus the
    (3, n) forcing, if any.  flux_sign = -1 flips the sign with which the
    advective fluxes enter, which makes the scheme inconsistent."""
    s = flux_sign
    dR = -s * _upwind_divergence(R, u, grid)
    dQ = -s * _upwind_divergence(Q, u, grid)
    dm = (
        -s * _upwind_divergence(m, u, grid)
        - _pressure_gradient(p, grid)
        + nu_eff * _velocity_laplacian(u, grid)
    )
    if forcing is not None:
        fR, fQ, fm = forcing
        dR, dQ, dm = dR + fR, dQ + fQ, dm + fm
    return dR, dQ, dm


def flipped_advection_rhs(B, grid, cfg, forcing):
    """A stand-in for ``solver._rhs`` (same arguments: the (5, n + 2) buffer
    of R, Q, m, p, u with one ghost cell at each end, the grid, the
    SimConfig and the forcing) whose advective fluxes enter with the wrong
    sign."""
    R, Q, m, p, u = B[:, 1:-1]
    dU = per_equation_rhs(R, Q, m, u, p, grid, cfg.nu_eff, forcing, flux_sign=-1.0)
    return np.array(dU)


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
