"""Reference code the tests check the program against.

The volume-fraction equation's compression term omega(alpha) * div u is
what the solver evaluates (``closure.omega_of_alpha``).  The sensitivities
d(alpha)/dR and d(alpha)/dQ of the closure's alpha = R / Z check it through
the Euler identity R * d(alpha)/dR + Q * d(alpha)/dQ = omega; no command
needs them, so they live here.

The scheme's time derivative, written one equation at a time, checks the
solver's fused stacked rhs bit for bit; with its advection flipped it is the
deliberately inconsistent negative control of the convergence study.

The closure's Newton iteration with an active set that drops converged
cells checks the frozen-in-place iteration bit for bit.  The manufactured
forcing with every term, the pressure gradient included, Gauss-3 averaged
and dZ/dx from implicit differentiation of the closure checks the forcing
whose pressure term is a difference of face pressures.  The same forcing
with its closure-free sources evaluated at every Gauss node checks the
contraction over the cached monomial averages, and its pressure term bit
for bit.

The fraction audit's terms of one snapshot pair, evaluated on their own,
check the terms A and w that the relative-energy row carries bit for bit.
"""

import math

import numpy as np

from bifluid import closure
from bifluid.closure import omega_of_alpha, solve_closure_batch
from bifluid.fields import PERIODIC, Grid1D
from bifluid.solver import velocity_face_gradient


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


def flipped_advection_rhs(b, ws, forcing):
    """A stand-in for ``solver._rhs`` (same arguments: a run's buffer of R,
    Q, m, p, u with its row views, the run's workspace, which holds the grid
    and nu_eff, and the forcing) whose advective fluxes enter with the wrong
    sign.  Like ``_rhs`` it returns a (3, n + 2) array whose ghost columns
    are -0.0."""
    dU = np.full((3, ws.n + 2), -0.0)
    dU[:, 1:-1] = per_equation_rhs(
        b.R, b.Q, b.m, b.u, b.p, ws.grid, ws.nu_eff, forcing, flux_sign=-1.0
    )
    return dU


class VacuumCellError(ValueError):
    """Operation undefined on the vacuum set R = Q = 0."""


class DegenerateDenominatorError(ArithmeticError):
    """Sensitivity denominator underflowed (inputs at sub-normal scale)."""


def alpha_partials_batch(R, Q, gamma):
    """Vectorised d(alpha)/dR, d(alpha)/dQ and omega for nonvacuum (R, Q).

    The textbook quotients -alpha**gamma / (Q*gamma*alpha**(gamma-1) +
    R**gamma) and gamma*R**(gamma-1)*(1-alpha) / (same) are evaluated with
    numerator and denominator rescaled by alpha**(1-gamma), i.e. as

        d_alpha_dQ = -alpha / (gamma*Q + R*Z**(gamma-1)),
        d_alpha_dR = gamma * Z**(gamma-1) * (1-alpha) / (gamma*Q + R*Z**(gamma-1)),

    which is the analytic one-sided limit form and stays finite down to
    alpha -> 0 where the raw denominator underflows.  R and Q must be finite
    and nonnegative: the closure kernel does not check them.
    """
    R = np.asarray(R, dtype=float)
    Q = np.asarray(Q, dtype=float)
    vac = (R == 0.0) & (Q == 0.0)
    if vac.any():
        raise VacuumCellError(
            f"alpha partials undefined at vacuum cells {np.flatnonzero(vac).tolist()[:8]}"
        )
    Z, _ = solve_closure_batch(R, Q, gamma)
    alpha = R / Z
    zg1 = np.power(Z, gamma - 1.0)
    den = gamma * Q + R * zg1
    if np.any(den == 0.0) or not np.all(np.isfinite(den)):
        raise DegenerateDenominatorError("sensitivity denominator underflowed")
    d_dR = gamma * zg1 * (1.0 - alpha) / den
    d_dQ = -alpha / den
    return d_dR, d_dQ, omega_of_alpha(alpha, gamma)


def compacting_newton(r, q, lo, hi, z, gamma):
    """A stand-in for ``closure._newton`` (same arguments and result) that
    takes its first step untested, as the kernel does, then drops converged
    cells from the active set and iterates the rest."""
    out = np.empty_like(z)
    act = np.arange(z.size)
    tol_q = closure.CLOSURE_TOL * q
    f_floor = 4.0 * (1.0 + gamma) * closure._EPS
    zg1 = np.power(z, gamma - 1.0)
    f = (z - r) * zg1 - q
    for iterations in range(2, closure.CLOSURE_MAX_ITER + 1):
        fp = zg1 * (gamma - (gamma - 1.0) * (r / z))
        z = np.minimum(np.maximum(z - f / fp, lo), hi)
        zg1 = np.power(z, gamma - 1.0)
        f = (z - r) * zg1 - q
        conv = np.abs(f) <= np.maximum(tol_q, f_floor * zg1 * z)
        n_conv = np.count_nonzero(conv)
        if n_conv == z.size:
            out[act] = z
            return out, iterations
        if n_conv:
            out[act[conv]] = z[conv]
            keep = ~conv
            act, z, r, q, hi, tol_q, zg1, f = (
                a[keep] for a in (act, z, r, q, hi, tol_q, zg1, f)
            )
            if np.ndim(lo):
                lo = lo[keep]
    raise closure.MaxIterExceededError(
        f"closure iteration exceeded {closure.CLOSURE_MAX_ITER} iterations at cells {act.tolist()[:8]}"
    )


def gauss3_forcing(sol, grid, t):
    """The (3, n) cell averages of ``ManufacturedSolution`` sol's sources at
    time t, each by 3-point Gauss quadrature, with dp/dx at the nodes from
    implicit differentiation of the closure equation."""
    k, g, gp = sol.k, sol.exps.gamma, sol.exps.gamma_plus
    x = grid.x + np.array([-0.5, 0.0, 0.5])[:, None] * math.sqrt(0.6) * grid.dx
    R, Q, u = sol.R(x, t), sol.Q(x, t), sol.u(x, t)
    dR_dt, dR_dx = -sol.b * np.cos(k * x - t), k * sol.b * np.cos(k * x - t)
    dQ_dt, dQ_dx = -sol.d * np.sin(k * x + t), -k * sol.d * np.sin(k * x + t)
    du_dt = -sol.e * math.sin(t) * np.sin(k * x)
    du_dx = k * sol.e * math.cos(t) * np.cos(k * x)
    du_dxx = -k * k * u

    # dp/dx = gamma_plus Z**(gamma_plus - 1) dZ/dx, with dZ/dx from
    # differentiating (Z - R) Z**(gamma - 1) = Q
    Z = solve_closure_batch(R.ravel(), Q.ravel(), g)[0].reshape(R.shape)
    zg1 = np.power(Z, g - 1.0)
    dZ_dx = (zg1 * dR_dx + dQ_dx) / (zg1 * (g + (1.0 - g) * R / Z))
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
        - sol.nu_eff * du_dxx
    )
    w = np.array([5.0, 8.0, 5.0]) / 18.0
    return np.array([w @ sR, w @ sQ, w @ sm])


_GAUSS3_NODES = np.array([-0.5 * math.sqrt(0.6), 0.0, 0.5 * math.sqrt(0.6)])
_GAUSS3_WEIGHTS = (5.0 / 18.0, 8.0 / 18.0, 5.0 / 18.0)


def nodewise_forcing(self, grid, t):
    """A stand-in for ``ManufacturedSolution.cell_averages`` of cold face
    roots (self is the manufactured solution) that evaluates every
    closure-free source at the three Gauss nodes of every cell and averages
    them there, with the same face-pressure difference."""
    k = self.k
    kx = k * (grid.x + _GAUSS3_NODES[:, None] * grid.dx)
    kf = k * (np.arange(grid.n + 1) * grid.dx)
    sin_kx, cos_kx, sin_kf, cos_kf = np.sin(kx), np.cos(kx), np.sin(kf), np.cos(kf)
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
    Zf, _ = solve_closure_batch(
        self.a + self.b * (sin_kf * ct - cos_kf * st),
        self.c + self.d * (cos_kf * ct - sin_kf * st),
        self.exps.gamma,
    )
    pf = np.power(Zf, self.exps.gamma_plus)
    avg[2] += (pf[1:] - pf[:-1]) / grid.dx
    return avg


def w12_norm_sq(f, grid: Grid1D) -> float:
    """Discrete squared W^{1,2} norm: sum dx (f^2 + (df/dx)^2), forward differences.

    No-slip grids extend f by zero at the walls (valid for velocities and
    their differences, which vanish there).
    """
    f = np.asarray(f, dtype=float)
    g = velocity_face_gradient(f, grid)
    return float((np.sum(f * f) + np.sum(g * g)) * grid.dx)


def fraction_terms(alpha_a, alpha_b, u, v, grid: Grid1D) -> tuple[float, float]:
    """The fraction audit's terms of one snapshot pair: A = int (alpha -
    beta)^2 and w = ||v - u||^2_W12."""
    return float(np.sum((alpha_a - alpha_b) ** 2) * grid.dx), w12_norm_sq(v - u, grid)
