"""Explicit finite-volume time stepping of the reformulated two-fluid system.

Unknowns per cell: partial masses R, Q and mixture momentum m = (R + Q) u.
Masses and momentum are advected by first-order upwind fluxes on averaged
face velocities; the pressure gradient of p = Z**gamma_plus is central; the
viscous term nu_eff * u_xx (nu_eff = 2 mu + lambda in 1D) is an explicit
central second difference.  The closure is re-solved per cell after every
stage, which keeps it inside the verification loop; each solve is
warm-started from the closure root of the previous stage.

A separate diagnostic evolves the volume fraction by its own non-conservative
equation (upwind advection plus the compression source omega * div u); the
gap against the closure-recovered fraction measures the discrete consistency
of the two formulations.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from . import closure
from .fields import (
    PERIODIC,
    RHO_FLOOR,
    DerivedFields,
    FieldState,
    Grid1D,
    derive,
)

FORWARD_EULER = "forward_euler"
SSPRK2 = "ssprk2"
INTEGRATORS = (FORWARD_EULER, SSPRK2)

MAX_STEPS_DEFAULT = 2_000_000

__all__ = [
    "FORWARD_EULER",
    "SSPRK2",
    "ZeroDtError",
    "PositivityLossError",
    "NonFiniteStateError",
    "SchemeConfig",
    "StepReport",
    "Trajectory",
    "compute_dt",
    "step",
    "alpha_diagnostic_step",
    "divergence",
    "velocity_face_gradient",
    "dissipation_rate",
    "run",
]


class ZeroDtError(RuntimeError):
    """No usable time step: the state is entirely vacuum."""


class PositivityLossError(RuntimeError):
    """A partial mass dropped below the positivity tolerance."""


class NonFiniteStateError(RuntimeError):
    """An update produced NaN or infinite values; carries t, step and cells."""

    def __init__(self, t: float, cells: list[int], step: int | None = None):
        self.t = t
        self.cells = cells
        self.step = step
        at_step = f" at step {step}" if step is not None else ""
        super().__init__(
            f"non-finite state at t={t:.6g}{at_step} in cells {cells[:8]}"
        )


@dataclasses.dataclass
class SchemeConfig:
    """Discretisation parameters for one run.

    flux_sign = -1 flips the sign with which the advective fluxes enter the
    update, which makes the discretisation inconsistent by construction; it
    is a negative-control hook for verification tests and must be +1 in any
    physical run.
    """

    mu: float
    lam: float = 0.0
    cfl: float = 0.9
    time_integrator: str = SSPRK2
    flux: str = "upwind"
    forcing: object | None = None
    flux_sign: float = 1.0
    positivity_tol: float = 1e-12
    strict_positivity: bool = True
    allow_inviscid: bool = False
    closure_tol: float = closure.CLOSURE_TOL
    vacuum_alpha: float = closure.VACUUM_ALPHA_DEFAULT
    rho_floor: float = RHO_FLOOR
    max_steps: int = MAX_STEPS_DEFAULT

    def __post_init__(self):
        if not (0.0 < self.cfl <= 1.0):
            raise ValueError("cfl must lie in (0, 1]")
        if self.mu < 0.0:
            raise ValueError("mu must be nonnegative")
        if 2.0 * self.mu + 3.0 * self.lam < 0.0:
            raise ValueError("need 2*mu + 3*lambda >= 0")
        if self.mu == 0.0 and not self.allow_inviscid:
            raise ValueError("mu = 0 requires the inviscid-diagnostic flag")
        if self.time_integrator not in INTEGRATORS:
            raise ValueError(f"integrator must be one of {INTEGRATORS}")
        if self.flux != "upwind":
            raise ValueError("only the upwind flux is implemented")
        if self.flux_sign not in (1.0, -1.0):
            raise ValueError("flux_sign must be +1 or -1")

    @property
    def nu_eff(self) -> float:
        """Effective 1D viscosity 2*mu + lambda of the Newtonian stress."""
        return 2.0 * self.mu + self.lam


@dataclasses.dataclass(frozen=True)
class StepReport:
    """Per-step accounting; stage_Z is the closure root of the step's last
    derived stage, the warm start for deriving the new state."""

    dt: float
    max_wave_speed: float
    positivity_clips: int
    closure_iterations: int
    dissipation: float
    stage_Z: np.ndarray | None = None


def _sound_speed(Z, exps):
    # mixture estimate from p = Z**gamma_plus treating Z as the density
    return np.sqrt(exps.gamma_plus * np.power(Z, exps.gamma_plus - 1.0))


def compute_dt(der: DerivedFields, grid: Grid1D, scheme: SchemeConfig, exps) -> float:
    """Largest stable step: advective dx/(|u|+c) and explicit-viscous dx^2 rho/(2 nu)."""
    rho = der.R + der.Q
    live = rho > scheme.rho_floor
    if not live.any():
        raise ZeroDtError("state is entirely vacuum")
    speed = np.abs(der.u[live]) + _sound_speed(der.Z[live], exps)
    bound = float(np.min(grid.dx / speed))
    if scheme.nu_eff > 0.0:
        visc = float(np.min(grid.dx * grid.dx * rho[live] / (2.0 * scheme.nu_eff)))
        bound = min(bound, visc)
    dt = scheme.cfl * bound
    if not (math.isfinite(dt) and dt > 0.0):
        raise ZeroDtError(f"no positive stable step (got {dt})")
    return dt


def _upwind_divergence(phi, u, grid: Grid1D):
    dx = grid.dx
    if grid.bc == PERIODIC:
        u_face = 0.5 * (u + np.roll(u, -1))  # face i sits between cells i and i+1
        donor = np.where(u_face > 0.0, phi, np.roll(phi, -1))
        flux = u_face * donor
        return (flux - np.roll(flux, 1)) / dx
    # no-slip walls carry zero face velocity, hence exactly zero flux
    u_face = 0.5 * (u[:-1] + u[1:])
    donor = np.where(u_face > 0.0, phi[:-1], phi[1:])
    flux = np.concatenate(([0.0], u_face * donor, [0.0]))
    return (flux[1:] - flux[:-1]) / dx


def _pressure_gradient(p, grid: Grid1D):
    dx = grid.dx
    if grid.bc == PERIODIC:
        return (np.roll(p, -1) - np.roll(p, 1)) / (2.0 * dx)
    ext = np.concatenate(([p[0]], p, [p[-1]]))  # zero-gradient ghosts
    return (ext[2:] - ext[:-2]) / (2.0 * dx)


def _velocity_laplacian(u, grid: Grid1D):
    dx = grid.dx
    if grid.bc == PERIODIC:
        return (np.roll(u, -1) - 2.0 * u + np.roll(u, 1)) / (dx * dx)
    ext = np.concatenate(([-u[0]], u, [-u[-1]]))  # reflection puts u = 0 on walls
    return (ext[2:] - 2.0 * u + ext[:-2]) / (dx * dx)


def divergence(u, grid: Grid1D):
    """Central velocity divergence honouring the boundary condition."""
    dx = grid.dx
    if grid.bc == PERIODIC:
        return (np.roll(u, -1) - np.roll(u, 1)) / (2.0 * dx)
    ext = np.concatenate(([-u[0]], u, [-u[-1]]))
    return (ext[2:] - ext[:-2]) / (2.0 * dx)


def velocity_face_gradient(u, grid: Grid1D):
    """du/dx at faces; no-slip walls contribute their zero velocity."""
    dx = grid.dx
    if grid.bc == PERIODIC:
        return (np.roll(u, -1) - u) / dx
    return np.concatenate(([u[0]], np.diff(u), [-u[-1]])) / dx


def dissipation_rate(u, grid: Grid1D, nu_eff: float) -> float:
    """Instantaneous viscous dissipation integral nu_eff * sum dx (du/dx)^2."""
    g = velocity_face_gradient(u, grid)
    return float(nu_eff * np.sum(g * g) * grid.dx)


def _rhs(R, Q, m, der: DerivedFields, grid: Grid1D, scheme: SchemeConfig, t: float):
    s = scheme.flux_sign
    dR = -s * _upwind_divergence(R, der.u, grid)
    dQ = -s * _upwind_divergence(Q, der.u, grid)
    dm = (
        -s * _upwind_divergence(m, der.u, grid)
        - _pressure_gradient(der.p, grid)
        + scheme.nu_eff * _velocity_laplacian(der.u, grid)
    )
    if scheme.forcing is not None:
        fR, fQ, fm = scheme.forcing.cell_averages(grid, t)
        dR = dR + fR
        dQ = dQ + fQ
        dm = dm + fm
    return dR, dQ, dm


def _enforce_positivity(arr, scheme: SchemeConfig, t: float, label: str):
    neg = arr < 0.0
    if not neg.any():
        return arr, 0
    bad = arr < -scheme.positivity_tol
    clips = int(np.count_nonzero(bad))
    if clips and scheme.strict_positivity:
        cells = np.flatnonzero(bad)
        raise PositivityLossError(
            f"{label} fell below -{scheme.positivity_tol:g} at t={t:.6g} "
            f"in cells {cells.tolist()[:8]} (min {float(arr.min()):.3e})"
        )
    # round-off negatives above the tolerance are zeroed without counting
    return np.where(neg, 0.0, arr), clips


def _state(t, R, Q, m) -> FieldState:
    try:
        return FieldState(t=t, R=R, Q=Q, m=m)
    except ValueError:
        bad = ~(np.isfinite(R) & np.isfinite(Q) & np.isfinite(m))
        if bad.any():
            raise NonFiniteStateError(t, np.flatnonzero(bad).tolist()) from None
        raise


def _derive(state: FieldState, scheme: SchemeConfig, exps, z0=None) -> DerivedFields:
    return derive(
        state, exps, scheme.closure_tol, scheme.vacuum_alpha, scheme.rho_floor, z0=z0
    )


def step(
    state: FieldState,
    grid: Grid1D,
    scheme: SchemeConfig,
    exps,
    dt: float,
    derived: DerivedFields | None = None,
) -> tuple[FieldState, StepReport]:
    """Advance one explicit step of size dt; returns the new state and a report."""
    der0 = derived if derived is not None else _derive(state, scheme, exps)
    t1 = state.t + dt
    dR, dQ, dm = _rhs(state.R, state.Q, state.m, der0, grid, scheme, state.t)
    R1 = state.R + dt * dR
    Q1 = state.Q + dt * dQ
    m1 = state.m + dt * dm
    R1, cR = _enforce_positivity(R1, scheme, t1, "R")
    Q1, cQ = _enforce_positivity(Q1, scheme, t1, "Q")
    clips = cR + cQ
    iters = der0.closure_iterations

    if scheme.time_integrator == SSPRK2:
        stage = _state(t1, R1, Q1, m1)
        der1 = _derive(stage, scheme, exps, z0=der0.Z)
        iters = max(iters, der1.closure_iterations)
        dR1, dQ1, dm1 = _rhs(stage.R, stage.Q, stage.m, der1, grid, scheme, stage.t)
        R2 = 0.5 * (state.R + stage.R + dt * dR1)
        Q2 = 0.5 * (state.Q + stage.Q + dt * dQ1)
        m2 = 0.5 * (state.m + stage.m + dt * dm1)
        R2, cR = _enforce_positivity(R2, scheme, t1, "R")
        Q2, cQ = _enforce_positivity(Q2, scheme, t1, "Q")
        clips += cR + cQ
        new = _state(t1, R2, Q2, m2)
        stage_Z = der1.Z
    else:
        new = _state(t1, R1, Q1, m1)
        stage_Z = der0.Z

    wave = float(np.max(np.abs(der0.u) + _sound_speed(der0.Z, exps)))
    report = StepReport(
        dt=dt,
        max_wave_speed=wave,
        positivity_clips=clips,
        closure_iterations=iters,
        dissipation=dt * dissipation_rate(der0.u, grid, scheme.nu_eff),
        stage_Z=stage_Z,
    )
    return new, report


_CLAMP_EPS = 1e-14


def alpha_diagnostic_step(alpha, u, div_u, gamma, dt, grid: Grid1D):
    """One explicit update of the non-conservative volume-fraction equation.

    Upwind advection by u plus the source -omega(alpha) * div u; the result
    is clamped to [0, 1] and excursions beyond round-off are counted (the
    exact equation preserves the bounds, so persistent clamping flags a
    scheme bug).
    """
    dx = grid.dx
    if grid.bc == PERIODIC:
        gm = (alpha - np.roll(alpha, 1)) / dx
        gp = (np.roll(alpha, -1) - alpha) / dx
    else:
        ext = np.concatenate(([alpha[0]], alpha, [alpha[-1]]))
        gm = (alpha - ext[:-2]) / dx
        gp = (ext[2:] - alpha) / dx
    adv = u * np.where(u > 0.0, gm, gp)
    new = alpha - dt * (adv + closure.omega_of_alpha(alpha, gamma) * div_u)
    clamps = int(np.count_nonzero((new < -_CLAMP_EPS) | (new > 1.0 + _CLAMP_EPS)))
    return np.clip(new, 0.0, 1.0), clamps


@dataclasses.dataclass
class Trajectory:
    """Snapshots at the configured times plus per-run accounting."""

    grid: Grid1D
    exps: object
    scheme: SchemeConfig
    times: list[float]
    states: list[FieldState]
    diss_cum: list[float]
    alpha_diag: list[np.ndarray] | None
    dt_history: np.ndarray
    positivity_clips: int
    alpha_clamps: int
    closure_iterations_max: int
    max_wave_speed: float

    @property
    def n_steps(self) -> int:
        return int(self.dt_history.size)

    @property
    def forced(self) -> bool:
        return self.scheme.forcing is not None

    def derived(self, index: int) -> DerivedFields:
        return _derive(self.states[index], self.scheme, self.exps)


def run(cfg) -> Trajectory:
    """Advance a validated configuration from t = 0 to t_end.

    Snapshots land exactly on the configured times (the step is shortened to
    hit them), so two runs sharing the snapshot grid can be compared without
    interpolation.  The result is deterministic: identical configurations
    produce bit-identical trajectories.
    """
    grid = cfg.grid()
    exps = cfg.exponents()
    scheme = cfg.scheme()
    state = cfg.initial_state(grid)
    snap_times = cfg.snapshot_times()
    track = bool(getattr(cfg, "track_alpha", False))

    states = [state]
    times = [state.t]
    diss = [0.0]
    cum = 0.0
    dt_hist: list[float] = []
    clips = 0
    clamps = 0
    iters_max = 0
    wave_max = 0.0

    a_diag = None
    a_snaps = None
    if track:
        a_diag = _derive(state, scheme, exps).alpha.copy()
        a_snaps = [a_diag.copy()]

    z_prev = None
    for target in snap_times[1:]:
        while state.t < target:
            der = _derive(state, scheme, exps, z0=z_prev)
            dt_stable = compute_dt(der, grid, scheme, exps)
            remaining = target - state.t
            landing = dt_stable >= remaining
            dt = remaining if landing else dt_stable
            try:
                new_state, rep = step(state, grid, scheme, exps, dt, derived=der)
            except NonFiniteStateError as exc:
                raise NonFiniteStateError(exc.t, exc.cells, len(dt_hist) + 1) from None
            z_prev = rep.stage_Z
            if landing:
                new_state = dataclasses.replace(new_state, t=target)
            if track:
                div_u = divergence(der.u, grid)
                a_diag, cl = alpha_diagnostic_step(
                    a_diag, der.u, div_u, exps.gamma, dt, grid
                )
                clamps += cl
            cum += rep.dissipation
            dt_hist.append(dt)
            clips += rep.positivity_clips
            iters_max = max(iters_max, rep.closure_iterations)
            wave_max = max(wave_max, rep.max_wave_speed)
            state = new_state
            if len(dt_hist) > scheme.max_steps:
                raise RuntimeError(f"step budget of {scheme.max_steps} exhausted")
        states.append(state)
        times.append(state.t)
        diss.append(cum)
        if track:
            a_snaps.append(a_diag.copy())

    return Trajectory(
        grid=grid,
        exps=exps,
        scheme=scheme,
        times=times,
        states=states,
        diss_cum=diss,
        alpha_diag=a_snaps,
        dt_history=np.asarray(dt_hist),
        positivity_clips=clips,
        alpha_clamps=clamps,
        closure_iterations_max=iters_max,
        max_wave_speed=wave_max,
    )
