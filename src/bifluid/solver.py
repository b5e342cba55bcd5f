"""Explicit finite-volume time stepping of the reformulated two-fluid system.

Unknowns per cell: partial masses R, Q and mixture momentum m = (R + Q) u,
stored as the rows of one (3, n) array that the stages update as a whole.
Masses and momentum are advected by first-order upwind fluxes on averaged
face velocities, with one donor selection for all three rows; the pressure
gradient of p = Z**gamma_plus is central; the viscous term nu_eff * u_xx
(nu_eff = 2 mu + lambda in 1D) is an explicit central second difference.
Every stencil reads ghost-padded copies built by one helper, the only code
that distinguishes periodic from no-slip boundaries, apart from the
dissipation, which reuses the rhs's ghosted velocity on periodic grids.  The
closure is re-solved per cell after every stage, which keeps it inside the
verification loop; each solve is warm-started from the closure root of the
previous stage.

A run records each snapshot once, with the derived fields it made for it:
the derive of a snapshot state is the one that starts the next step
(warm-started from the stage root), and the final state gets one more warm
derive.  It evaluates the total energy of each snapshot once from those
fields.  It hands each snapshot, as it records it, to a consumer (the CLI's
writers and pair reductions) and keeps only the scalar series, so its memory
does not grow with the number of snapshots.  Outputs and audits derive
nothing again.

A step computes only what it reads.  The SSPRK2 stage stays a raw (3, n)
array: after the positivity clip its masses are nonnegative, so one
finiteness check (NonFiniteStateError with t and cells) makes it valid input
for the trusted closure kernel that ``fields.derive`` is built on, which
gives the stage's Z, p and u without a FieldState, DerivedFields or
StepReport.  A step builds one FieldState, the new state, and one StepReport.
Its ghosted starting velocity also gives the dissipation and the divergence
that the volume-fraction diagnostic reads.  No step reads alpha, rho_minus or
vacuum of a derived state; ``DerivedFields`` computes those on first read.

A manufactured forcing is evaluated once per time level: an SSPRK2 step
hands its stage forcing at t + dt on to the next step, as it hands on the
stage closure root.  A step that lands on a snapshot time can end a
round-off away from it; t is then set to the snapshot time and the next
step evaluates the forcing afresh.

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
    DerivedFields,
    FieldState,
    Grid1D,
    _closure_fields,
    _finite,
    derive,
    total_energy,
)

FORWARD_EULER = "forward_euler"
SSPRK2 = "ssprk2"
INTEGRATORS = (FORWARD_EULER, SSPRK2)

MAX_STEPS = 2_000_000  # the step budget of one run, a stop for runaway runs

__all__ = [
    "FORWARD_EULER",
    "SSPRK2",
    "ZeroDtError",
    "PositivityLossError",
    "NonFiniteStateError",
    "StepReport",
    "Trajectory",
    "compute_dt",
    "step",
    "alpha_diagnostic_step",
    "velocity_face_gradient",
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


@dataclasses.dataclass(frozen=True)
class StepReport:
    """Per-step accounting; stage_Z is the closure root of the step's last
    derived stage, the warm start for deriving the new state.

    stage_forcing is the read-only SSPRK2 stage forcing at the new time, the
    forcing of the next step when it starts there; None for forward Euler
    and for unforced runs.

    div_u is the central divergence of the step's starting velocity, which
    drives the volume-fraction diagnostic.
    """

    dt: float
    max_wave_speed: float
    positivity_clips: int
    closure_iterations: int
    dissipation: float
    stage_Z: np.ndarray | None = None
    stage_forcing: np.ndarray | None = None
    div_u: np.ndarray | None = None


def _wave_speed(der: DerivedFields, exps) -> np.ndarray:
    """Per-cell signal speed |u| + c, shared by the step size and the report.

    c is the mixture estimate from p = Z**gamma_plus treating Z as the density.
    """
    gp = exps.gamma_plus
    return np.abs(der.u) + np.sqrt(gp * np.power(der.Z, gp - 1.0))


def compute_dt(der: DerivedFields, grid: Grid1D, cfg, exps, speed=None) -> float:
    """Largest stable step: advective dx/(|u|+c) and explicit-viscous dx^2 rho/(2 nu).

    cfg is the run's SimConfig; speed, the per-cell |u| + c of der, is
    computed here when not given.
    """
    rho = der.R + der.Q
    if speed is None:
        speed = _wave_speed(der, exps)
    rho_min = np.minimum.reduce(rho)
    if not rho_min > cfg.rho_floor:  # not every cell is live
        live = rho > cfg.rho_floor
        if not np.logical_or.reduce(live):
            raise ZeroDtError("state is entirely vacuum")
        speed, rho = speed[live], rho[live]
        rho_min = np.minimum.reduce(rho)
    # rounding is monotone, so the smallest bound is the bound of the largest
    # speed and of the smallest density, bit for bit
    dx = grid.dx
    bound = float(dx / np.maximum.reduce(speed))
    nu_eff = cfg.nu_eff
    if nu_eff > 0.0:
        visc = float(dx * dx * rho_min / (2.0 * nu_eff))
        bound = min(bound, visc)
    dt = cfg.cfl * bound
    if not (math.isfinite(dt) and dt > 0.0):
        raise ZeroDtError(f"no positive stable step (got {dt})")
    return dt


def _ghosted(a, grid: Grid1D, wall: float):
    """Copy of a (..., n) with one ghost cell at each end of the last axis.

    It is the only stencil code that branches on the boundary condition.
    Periodic ghosts wrap around.  No-slip ghosts are wall times the edge cell:
    -1 mirrors a velocity, so the wall value is zero and a wall face carries
    no flux; +1 gives a zero gradient across the wall; 0 puts the wall
    value itself in the ghost.
    """
    if grid.bc == PERIODIC:
        return np.concatenate((a[..., -1:], a, a[..., :1]), axis=-1)
    return np.concatenate((wall * a[..., :1], a, wall * a[..., -1:]), axis=-1)


def velocity_face_gradient(u, grid: Grid1D):
    """du/dx at the grid's faces; no-slip walls contribute their zero velocity."""
    ug = _ghosted(u, grid, 0.0)
    g = (ug[1:] - ug[:-1]) / grid.dx
    return g[g.size - grid.n_faces :]


def _dissipation_rate(ug, grid: Grid1D, nu_eff: float) -> float:
    """Instantaneous viscous dissipation integral nu_eff * sum dx (du/dx)^2.

    ug is the velocity ghosted for the rhs (wall -1); periodic ghosts do not
    depend on the wall, so periodic faces reuse it.
    """
    if grid.bc == PERIODIC:
        g = (ug[2:] - ug[1:-1]) / grid.dx
    else:
        g = velocity_face_gradient(ug[1:-1], grid)
    return float(nu_eff * np.add.reduce(g * g) * grid.dx)


def _rhs(U, ug, p, grid: Grid1D, cfg, forcing):
    """Time derivative of the stacked state U = (R, Q, m) plus forcing, if any.

    ug is the velocity u of U ghosted with wall -1 and p its pressure.  One
    face velocity, one donor selection and one flux difference serve all
    three rows: first-order upwind transport.  The momentum row adds the
    central pressure gradient and the viscous term nu_eff * u_xx.  Every
    expression keeps the operand order of the scheme written one equation at
    a time, so results are bit-identical to it (tests/test_solver.py); the
    in-place operations only save temporaries (a *= b is b * a, bit for bit).
    """
    dx = grid.dx
    pg = _ghosted(p, grid, 1.0)
    Ug = _ghosted(U, grid, 1.0)
    u_face = ug[:-1] + ug[1:]  # face j sits between ghosted cells j and j+1
    u_face *= 0.5
    flux = np.where(u_face > 0.0, Ug[:, :-1], Ug[:, 1:])
    flux *= u_face
    dU = flux[:, 1:] - flux[:, :-1]
    dU /= -dx  # x / (-dx) is -(x / dx), signed zeros included
    grad_p = pg[2:] - pg[:-2]
    grad_p /= 2.0 * dx
    dU[2] -= grad_p
    lap = ug[2:] - 2.0 * ug[1:-1]
    lap += ug[:-2]
    lap /= dx * dx
    lap *= cfg.nu_eff
    dU[2] += lap
    if forcing is not None:
        dU += forcing
    return dU


def _enforce_positivity(U, cfg, t: float) -> int:
    """Zero the round-off negatives of R and Q in place; returns the clip count."""
    masses = U[:2]
    if np.minimum.reduce(masses, axis=None) >= 0.0:
        return 0
    neg = masses < 0.0
    if not neg.any():
        return 0
    bad = masses < -cfg.positivity_tol
    clips = int(np.count_nonzero(bad))
    if clips and cfg.strict:
        row = 0 if bad[0].any() else 1
        cells = np.flatnonzero(bad[row])
        raise PositivityLossError(
            f"{'RQ'[row]} fell below -{cfg.positivity_tol:g} at t={t:.6g} "
            f"in cells {cells.tolist()[:8]} (min {float(masses[row].min()):.3e})"
        )
    # round-off negatives above the tolerance are zeroed without counting
    masses[neg] = 0.0
    return clips


def _check_finite(t: float, U) -> None:
    """Raise NonFiniteStateError naming the cells where U holds NaN or inf."""
    if not _finite(U):
        bad = ~np.isfinite(U).all(axis=0)
        raise NonFiniteStateError(t, np.flatnonzero(bad).tolist()) from None


def _derive(state: FieldState, cfg, exps, z0=None) -> DerivedFields:
    return derive(state, exps, cfg.closure_tol, cfg.vacuum_alpha, cfg.rho_floor, z0=z0)


def step(
    state: FieldState,
    grid: Grid1D,
    cfg,
    exps,
    dt: float,
    derived: DerivedFields | None = None,
    speed: np.ndarray | None = None,
    forcing0: np.ndarray | None = None,
    forcing=None,
) -> tuple[FieldState, StepReport]:
    """Advance one explicit step of size dt of the SimConfig cfg's scheme;
    returns the new state and a report.

    forcing is the manufactured solution whose cell averages force the step,
    None for an unforced step.  derived (the derived fields of state), speed
    (their per-cell |u| + c) and forcing0 (the forcing at state.t) are
    computed here when not given.
    """
    der0 = derived if derived is not None else _derive(state, cfg, exps)
    if speed is None:
        speed = _wave_speed(der0, exps)
    if forcing0 is None and forcing is not None:
        forcing0 = forcing.cell_averages(grid, state.t)
    t1 = state.t + dt
    U0 = state.U
    ug0 = _ghosted(der0.u, grid, -1.0)
    U1 = _rhs(U0, ug0, der0.p, grid, cfg, forcing0)
    U1 *= dt
    U1 += U0
    clips = _enforce_positivity(U1, cfg, t1)
    iters = der0.closure_iterations

    stage_forcing = None
    if cfg.integrator == SSPRK2:
        # the stage stays a raw array: after the clip its masses are >= 0, so
        # one finiteness check makes it valid input for the trusted closure
        _check_finite(t1, U1)
        stage_Z, p1, u1, iters1 = _closure_fields(
            U1, exps, cfg.closure_tol, cfg.rho_floor, der0.Z
        )
        iters = max(iters, iters1)
        if forcing is not None:
            stage_forcing = forcing.cell_averages(grid, t1)
            stage_forcing.flags.writeable = False
        ug1 = _ghosted(u1, grid, -1.0)
        U2 = _rhs(U1, ug1, p1, grid, cfg, stage_forcing)
        U2 *= dt
        U2 += U0 + U1
        U2 *= 0.5
        clips += _enforce_positivity(U2, cfg, t1)
    else:
        U2 = U1
        stage_Z = der0.Z
    try:
        new = FieldState(t1, U=U2)
    except ValueError:
        _check_finite(t1, U2)  # the clip left no negative mass: a NaN or inf
        raise

    report = StepReport(
        dt=dt,
        max_wave_speed=float(np.maximum.reduce(speed)),
        positivity_clips=clips,
        closure_iterations=iters,
        dissipation=dt * _dissipation_rate(ug0, grid, cfg.nu_eff),
        stage_Z=stage_Z,
        stage_forcing=stage_forcing,
        div_u=(ug0[2:] - ug0[:-2]) / (2.0 * grid.dx),
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
    ag = _ghosted(alpha, grid, 1.0)
    g = (ag[1:] - ag[:-1]) / grid.dx  # one-sided slopes at faces
    adv = u * np.where(u > 0.0, g[:-1], g[1:])
    new = alpha - dt * (adv + closure.omega_of_alpha(alpha, gamma) * div_u)
    # inside [0, 1] the clip changes no bit (it keeps -0.0); NaN fails both tests
    if np.minimum.reduce(new) >= 0.0 and np.maximum.reduce(new) <= 1.0:
        return new, 0
    clamps = int(np.count_nonzero((new < -_CLAMP_EPS) | (new > 1.0 + _CLAMP_EPS)))
    return np.clip(new, 0.0, 1.0), clamps


@dataclasses.dataclass
class Trajectory:
    """The scalar series of a run at its snapshot times, plus accounting.

    energies[k] is fields.total_energy of the derived fields the run handed
    its consumer with the snapshot at times[k], and diss_cum[k] the viscous
    dissipation accumulated up to times[k].  alpha_transported is the
    volume-fraction diagnostic's own transported fraction at the last
    snapshot, or None when the run does not track it.  forcing is the
    manufactured solution that forced the run, None for an unforced run.
    """

    grid: Grid1D
    forcing: object | None
    times: list[float]
    energies: list[float]
    diss_cum: list[float]
    alpha_transported: np.ndarray | None
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
        return self.forcing is not None


def _discard(state: FieldState, derived: DerivedFields) -> None:
    """The snapshot consumer of a run whose caller reads only its scalars."""


def run(cfg, initial: FieldState | None = None, *, on_snapshot=_discard) -> Trajectory:
    """Advance a validated SimConfig from t = 0 to t_end.

    initial is the configuration's initial state when the caller has already
    built it (validation does), so a restart file is not read again.

    The run calls on_snapshot(state, derived) once per snapshot, as it
    records it, with the derived fields it made for that state: warm-started
    with the run's closure settings like every derive of the run, they equal
    a cold derive bit for bit where the closure has a closed form (gamma = 2
    or 1) and to within the closure tolerance otherwise.  The run keeps
    neither and returns only the scalar series and counters.

    Snapshots land exactly on the configured times (the step is shortened to
    hit them), so two runs sharing the snapshot grid can be compared without
    interpolation.  The result is deterministic: identical configurations
    produce bit-identical trajectories.
    """
    grid = cfg.grid()
    exps = cfg.exponents()
    sol = cfg.manufactured() if cfg.mms_enabled else None
    state = cfg.initial_state(grid) if initial is None else initial
    track = cfg.track_alpha

    der = _derive(state, cfg, exps)  # the first step reuses it
    times: list[float] = []
    energies: list[float] = []
    diss: list[float] = []
    cum = 0.0
    dt_hist: list[float] = []
    clips = 0
    clamps = 0
    iters_max = 0
    wave_max = 0.0
    a_diag = der.alpha.copy() if track else None

    z_prev = None
    forcing0 = None  # the forcing at state.t, when a step handed it on
    for target in cfg.snapshot_times():
        while state.t < target:
            if len(dt_hist) >= MAX_STEPS:
                raise RuntimeError(
                    f"step budget of {MAX_STEPS} exhausted at t={state.t:.6g}, "
                    f"before step {len(dt_hist) + 1}"
                )
            if der is None:
                der = _derive(state, cfg, exps, z0=z_prev)
            speed = _wave_speed(der, exps)
            dt_stable = compute_dt(der, grid, cfg, exps, speed)
            remaining = target - state.t
            landing = dt_stable >= remaining
            dt = remaining if landing else dt_stable
            try:
                new_state, rep = step(
                    state, grid, cfg, exps, dt,
                    derived=der, speed=speed, forcing0=forcing0, forcing=sol,
                )
            except NonFiniteStateError as exc:
                raise NonFiniteStateError(exc.t, exc.cells, len(dt_hist) + 1) from None
            z_prev = rep.stage_Z
            forcing0 = rep.stage_forcing
            if landing and new_state.t != target:
                new_state = dataclasses.replace(new_state, t=target)
                forcing0 = None
            if track:
                a_diag, cl = alpha_diagnostic_step(
                    a_diag, der.u, rep.div_u, exps.gamma, dt, grid
                )
                clamps += cl
            cum += rep.dissipation
            dt_hist.append(dt)
            clips += rep.positivity_clips
            iters_max = max(iters_max, rep.closure_iterations)
            wave_max = max(wave_max, rep.max_wave_speed)
            state = new_state
            der = None
        if der is None:  # a later step, if any, starts from this derive
            der = _derive(state, cfg, exps, z0=z_prev)
        times.append(state.t)
        energies.append(total_energy(der, grid, exps))
        diss.append(cum)
        on_snapshot(state, der)

    return Trajectory(
        grid=grid,
        forcing=sol,
        times=times,
        energies=energies,
        diss_cum=diss,
        alpha_transported=a_diag,
        dt_history=np.asarray(dt_hist),
        positivity_clips=clips,
        alpha_clamps=clamps,
        closure_iterations_max=iters_max,
        max_wave_speed=wave_max,
    )
