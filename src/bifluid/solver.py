"""Explicit finite-volume time stepping of the reformulated two-fluid system.

Unknowns per cell: partial masses R, Q and mixture momentum m = (R + Q) u.
Masses and momentum are advected by first-order upwind fluxes on averaged
face velocities, with one donor selection for all three rows; the pressure
gradient of p = Z**gamma_plus is central; the viscous term nu_eff * u_xx
(nu_eff = 2 mu + lambda in 1D) is an explicit central second difference.
The closure is re-solved per cell after every stage, which keeps it inside
the verification loop; each solve is warm-started from the closure root of
the previous stage.

A run steps two ghost-padded (5, n + 2) buffers, the state and its SSPRK2
stage, with rows R, Q, m, p, u.  Each stage updates R, Q and m in place and
admits the result with one per-row minimum and one maximum (zero the
round-off negatives of the masses, raise PositivityLossError or
NonFiniteStateError); the admitted masses are valid input for the trusted
closure kernel, which writes p and u into the buffer; one ghost fill (a
periodic wrap, or no-slip wall factors) then serves every stencil of the
next stage.  The step size reuses the R + Q of that closure solve.  A step
builds no FieldState, DerivedFields or report object.

A run records each snapshot once: it copies the state out of its buffer
into a FieldState, derives it (warm-started from the stage root) and
evaluates its total energy once from those fields; the first snapshot is
the initial state object itself.  It hands each snapshot, as it records it,
to a consumer (the CLI's writers and pair reductions) and keeps only the
scalar series, so its memory does not grow with the number of snapshots.
Outputs and audits derive nothing again.

A manufactured forcing is evaluated once per time level: an SSPRK2 step
hands its stage forcing at t + dt on to the next step, with the closure
roots at the forcing's n + 1 faces it is made from, as it hands on the
stage closure root.  A forced stage solves its closure and the forcing's
face roots at t + dt in one kernel call, each part warm-started from the
roots handed on; the kernel freezes converged points, so the stage's roots
are those of its own solve, bit for bit.  A step that lands on a snapshot
time can end a round-off away from it; t is then set to the snapshot time
and the next step evaluates the forcing afresh, with a cold face solve, as
a run's first step does.

When the configuration asks for it (verification.track_alpha), a diagnostic
evolves the volume fraction by its own non-conservative equation (upwind
advection plus the compression source omega * div u); the gap against the
closure-recovered fraction measures the discrete consistency of the two
formulations.  It reads the state and never changes it.
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
    _closure_fields,
    derive,
    total_energy,
)

SSPRK2 = "ssprk2"  # the one integrator

MAX_STEPS = 2_000_000  # the step budget of one run, a stop for runaway runs
POSITIVITY_TOL = 1e-12  # a stage mass below -POSITIVITY_TOL is a positivity loss

__all__ = [
    "SSPRK2",
    "POSITIVITY_TOL",
    "StepError",
    "ZeroDtError",
    "PositivityLossError",
    "NonFiniteStateError",
    "Trajectory",
    "compute_dt",
    "step",
    "alpha_diagnostic_step",
    "velocity_face_gradient",
    "run",
]


class StepError(closure.CellError, RuntimeError):
    """A run that cannot go on from its state; run records where (see run)."""


class ZeroDtError(StepError):
    """No usable time step: the state is entirely vacuum, or the stable step
    of some cell is not positive and finite."""


class PositivityLossError(StepError):
    """A partial mass dropped below -POSITIVITY_TOL."""


class NonFiniteStateError(StepError):
    """An update produced NaN or infinite values."""

    def __init__(self, t: float, cells):
        super().__init__("non-finite state", t, cells)

    def __str__(self) -> str:
        at_step = f" at step {self.step}" if self.step is not None else ""
        return f"non-finite state at t={self.t:.6g}{at_step} in cells {self.cells[:8]}"


def compute_dt(rho, u, Z, grid: Grid1D, cfg, exps) -> tuple[float, float]:
    """Largest stable step, advective dx/(|u|+c) and explicit-viscous
    dx^2 rho/(2 nu), and the largest signal speed |u| + c over all cells.

    rho, u and Z are the mixture density, velocity and closure root of a
    state and cfg the run's SimConfig.  c is the mixture estimate from
    p = Z**gamma_plus treating Z as the density.  Cells at or below the
    density floor RHO_FLOOR do not bound the step.
    """
    gp = exps.gamma_plus
    speed = np.abs(u) + np.sqrt(gp * np.power(Z, gp - 1.0))
    speed_max = np.maximum.reduce(speed)
    top = speed_max
    rho_min = np.minimum.reduce(rho)
    live = None
    if not rho_min > RHO_FLOOR:  # not every cell is live
        live = rho > RHO_FLOOR
        if not np.logical_or.reduce(live):
            raise ZeroDtError("state is entirely vacuum", cells=range(rho.size))
        top = np.maximum.reduce(speed[live])
        rho_min = np.minimum.reduce(rho[live])
    # rounding is monotone, so the smallest bound is the bound of the largest
    # speed and of the smallest density, bit for bit
    dx = grid.dx
    bound = float(dx / top)
    nu_eff = cfg.nu_eff
    if nu_eff > 0.0:
        visc = float(dx * dx * rho_min / (2.0 * nu_eff))
        bound = min(bound, visc)
    dt = cfg.cfl * bound
    if not (math.isfinite(dt) and dt > 0.0):
        # the offending cells: live cells whose own bound is not positive and finite
        with np.errstate(all="ignore"):
            own = dx / speed
            if nu_eff > 0.0:
                own = np.minimum(own, dx * dx * rho / (2.0 * nu_eff))
            own *= cfg.cfl
            bad = ~(np.isfinite(own) & (own > 0.0))
        if live is not None:
            bad &= live
        raise ZeroDtError(
            f"no positive stable step (got {dt})", cells=np.flatnonzero(bad).tolist()
        )
    return dt, float(speed_max)


# no-slip ghost factors of the buffer rows R, Q, m, p, u: masses, momentum
# and pressure have a zero gradient across the wall; the velocity is
# mirrored, so its wall value is zero and a wall face carries no flux
_WALL = np.array([1.0, 1.0, 1.0, 1.0, -1.0])


def _fill_ghosts(B, grid: Grid1D) -> None:
    """Fill the ghost columns of a (5, n + 2) buffer from its edge cells:
    periodic ghosts wrap around, no-slip ghosts are _WALL times the edge cell.
    """
    if grid.bc == PERIODIC:
        B[:, 0] = B[:, -2]
        B[:, -1] = B[:, 1]
    else:
        np.multiply(B[:, 1], _WALL, out=B[:, 0])
        np.multiply(B[:, -2], _WALL, out=B[:, -1])


def _ghosted(a, grid: Grid1D, wall: float):
    """Copy of a 1D array with one ghost cell at each end, filled as
    _fill_ghosts fills a buffer row whose wall factor is wall."""
    if grid.bc == PERIODIC:
        return np.concatenate((a[-1:], a, a[:1]))
    return np.concatenate((wall * a[:1], a, wall * a[-1:]))


def velocity_face_gradient(u, grid: Grid1D):
    """du/dx at the grid's faces; no-slip walls contribute their zero velocity."""
    ug = _ghosted(u, grid, 0.0)
    g = (ug[1:] - ug[:-1]) / grid.dx
    return g[g.size - grid.n_faces :]


def _dissipation_rate(ug, grid: Grid1D, nu_eff: float) -> float:
    """Instantaneous viscous dissipation integral nu_eff * sum dx (du/dx)^2
    over the faces of velocity_face_gradient.

    ug is the velocity row of a buffer.  At a no-slip wall the velocity is
    zero, so the wall face's difference is the edge velocity, not the
    difference to the mirrored ghost; only the sign of a zero can differ
    from velocity_face_gradient, which the square removes.
    """
    g = ug[1:] - ug[:-1]  # face j sits between buffer cells j and j+1
    if grid.bc == PERIODIC:
        g = g[1:]  # face 0 is face n
    else:
        g[0], g[-1] = ug[1], -ug[-2]
    g /= grid.dx
    return float(nu_eff * np.add.reduce(g * g) * grid.dx)


def _divergence(ug, grid: Grid1D):
    """Central divergence of the velocity row ug of a buffer, per cell."""
    return (ug[2:] - ug[:-2]) / (2.0 * grid.dx)


def _rhs(B, grid: Grid1D, cfg, forcing):
    """Time derivative of the state (R, Q, m) in the buffer B plus forcing, if
    any, as a new (3, n) array.

    One face velocity, one donor selection and one flux difference serve all
    three rows: first-order upwind transport.  The momentum row adds the
    central pressure gradient and the viscous term nu_eff * u_xx.  Every
    expression keeps the operand order of the scheme written one equation at
    a time, so results are bit-identical to it (tests/test_solver.py); the
    in-place operations only save temporaries (a *= b is b * a, bit for bit).
    """
    dx = grid.dx
    ug, pg = B[4], B[3]
    u_face = ug[:-1] + ug[1:]  # face j sits between buffer cells j and j+1
    u_face *= 0.5
    flux = np.where(u_face > 0.0, B[:3, :-1], B[:3, 1:])
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


def _admit(U, t: float) -> None:
    """Admit the update U, a (3, n) state at time t, as a valid state: raise
    PositivityLossError for a mass below -POSITIVITY_TOL, zero the round-off
    negatives of the masses, then raise NonFiniteStateError for a NaN or
    inf.  One per-row minimum and one maximum admit the usual update."""
    r_min, q_min, m_min = np.minimum.reduce(U, axis=1).tolist()
    if r_min >= 0.0 and q_min >= 0.0 and m_min > -math.inf:
        if np.maximum.reduce(U, axis=None) < math.inf:
            return
    masses = U[:2]
    bad = masses < -POSITIVITY_TOL
    if bad.any():
        row = 0 if bad[0].any() else 1
        cells = np.flatnonzero(bad[row])
        raise PositivityLossError(
            f"{'RQ'[row]} fell below -{POSITIVITY_TOL:g} at t={t:.6g} "
            f"in cells {cells.tolist()[:8]} (min {float(masses[row].min()):.3e})",
            t,
            np.flatnonzero(bad.any(axis=0)).tolist(),
        )
    masses[masses < 0.0] = 0.0
    if not np.isfinite(U).all():
        bad = ~np.isfinite(U).all(axis=0)
        raise NonFiniteStateError(t, np.flatnonzero(bad).tolist())


def _close(B, grid: Grid1D, exps, z0):
    """Solve the closure of the state in the buffer B, warm-started from z0,
    into its p and u rows and fill its ghosts; returns (Z, R + Q,
    iterations)."""
    Z, rho, iters = _closure_fields(B[:3, 1:-1], B[3:, 1:-1], exps, z0)
    _fill_ghosts(B, grid)
    return Z, rho, iters


def _close_with_faces(B, grid: Grid1D, exps, z0, Rf, Qf, zf0):
    """_close of the state in the buffer B, with the n + 1 faces of a
    manufactured forcing, masses Rf and Qf, in the same closure solve,
    their roots warm-started from zf0; returns (Z, the face roots,
    iterations), the iterations those of the joint solve.

    The kernel solves each point on its own, so a failing joint solve is
    repeated as the state's and the faces' solves apart: these raise its
    error for the state's cells if any of them failed, otherwise for the
    faces, numbered as faces.
    """
    start = np.concatenate((z0, zf0))
    try:
        Z, _, iters = _closure_fields(B[:3, 1:-1], B[3:, 1:-1], exps, start, (Rf, Qf))
    except closure.CellError:
        _close(B, grid, exps, z0)
        closure._solve_closure(Rf, Qf, exps.gamma, zf0)
        raise
    _fill_ghosts(B, grid)
    return Z[: grid.n], Z[grid.n :], iters


def _forcing_level(forcing, grid: Grid1D, t: float, Zf):
    """The read-only forcing of a step at time t: the cell averages of the
    manufactured solution forcing and the face roots Zf they are made from."""
    averages = forcing.cell_averages(grid, t, Zf)
    averages.flags.writeable = False
    Zf.flags.writeable = False
    return averages, Zf


def _load(W, state: FieldState, der: DerivedFields, grid: Grid1D) -> None:
    """Put a state and its derived fields into the buffer W, ghosts filled."""
    W[:3, 1:-1] = state.U
    W[3, 1:-1] = der.p
    W[4, 1:-1] = der.u
    _fill_ghosts(W, grid)


def step(W, S, grid: Grid1D, cfg, exps, t: float, dt: float, Z, forcing0=None, forcing=None):
    """Advance the state in the buffer W by one SSPRK2 step of size dt of
    the SimConfig cfg's scheme, in place.

    W and S are (5, n + 2) arrays with rows R, Q, m, p, u and one ghost cell
    at each end.  W holds the state at time t with its pressure, velocity
    and ghosts (_load, _close), Z its closure root; S is the SSPRK2 stage.
    On return W holds the new state's R, Q and m, admitted as valid; its
    other rows and ghosts are the old state's until _close.

    forcing is the manufactured solution, of the exponents exps, whose cell
    averages force the step, None for an unforced step.  forcing0 is its
    forcing at t as a step hands it on: the read-only pair (cell averages,
    face roots).  When not given it is computed with a cold face solve.
    The stage's closure solve takes the forcing's faces at t + dt with it,
    warm-started from the face roots at t.

    Returns (stage_Z, stage_forcing, iterations, dissipation): stage_Z is
    the closure root of the stage, the warm start of the new state's
    closure; stage_forcing the forcing at t + dt in the form of forcing0,
    the forcing of the next step when it starts there (None for an unforced
    step); iterations those of the stage's closure solve and dissipation
    the viscous dissipation of the step.
    """
    if forcing0 is None and forcing is not None:
        Zf, _ = closure._solve_closure(*forcing.face_masses(grid, t), exps.gamma)
        forcing0 = _forcing_level(forcing, grid, t, Zf)
    t1 = t + dt
    dissipation = dt * _dissipation_rate(W[4], grid, cfg.nu_eff)
    U0 = W[:3, 1:-1]
    dU = _rhs(W, grid, cfg, None if forcing is None else forcing0[0])
    dU *= dt
    U1 = S[:3, 1:-1]
    np.add(dU, U0, out=U1)
    # admitted, the stage is valid input for the trusted closure kernel
    _admit(U1, t1)
    if forcing is None:
        stage_Z, _, iters = _close(S, grid, exps, Z)
        stage_forcing = None
    else:
        Rf, Qf = forcing.face_masses(grid, t1)
        stage_Z, Zf, iters = _close_with_faces(S, grid, exps, Z, Rf, Qf, forcing0[1])
        stage_forcing = _forcing_level(forcing, grid, t1, Zf)
    dU = _rhs(S, grid, cfg, None if forcing is None else stage_forcing[0])
    dU *= dt
    U0 += U1
    U0 += dU  # (U0 + U1) + dt dU1 is dt dU1 + (U0 + U1), bit for bit
    U0 *= 0.5
    _admit(U0, t1)
    return stage_Z, stage_forcing, iters, dissipation


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
    snapshot and alpha_clamps its clamp count, both None when the run does
    not track it.  forcing is the manufactured solution that forced the
    run, None for an unforced run.
    """

    grid: Grid1D
    forcing: object | None
    times: list[float]
    energies: list[float]
    diss_cum: list[float]
    alpha_transported: np.ndarray | None
    dt_history: np.ndarray
    alpha_clamps: int | None
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


def _derive_at(state: FieldState, exps, z0, step: int, dt: float | None) -> DerivedFields:
    """derive(state, exps, z0) for run, which reaches state before the step
    numbered step, the last step taken having size dt."""
    try:
        return derive(state, exps, z0=z0)
    except closure.CellError as exc:
        exc.at(state.t, step, dt)
        raise


def run(cfg, initial: FieldState | None = None, *, on_snapshot=_discard) -> Trajectory:
    """Advance a validated SimConfig from t = 0 to t_end.

    initial is the configuration's initial state when the caller has already
    built it (validation does), so a restart file is not read again.

    The run calls on_snapshot(state, derived) once per snapshot, as it
    records it, with the derived fields it made for that state: warm-started
    like every closure solve of the run, they equal a cold derive bit for
    bit where the closure has a closed form (gamma = 2 or 1) and to within
    the closure tolerance otherwise.  The first snapshot hands over the
    initial state object itself.  The run keeps neither and returns only
    the scalar series and counters.

    Snapshots land exactly on the configured times (the step is shortened to
    hit them), so two runs sharing the snapshot grid can be compared without
    interpolation.  The result is deterministic: identical configurations
    produce bit-identical trajectories.

    A StepError or closure error (closure.CellError) that stops the run
    records where.  One in a step's update, its stage, forcing or admission,
    gets the number of that step, its size and the time it steps to.  One in
    the closure of a state the run has reached (the initial state, a state
    between steps, a snapshot) or in the size of the next step gets the
    number of that next step, the size of the last step taken (None before
    the first) and the state's time.
    """
    grid = cfg.grid()
    exps = cfg.exponents()
    sol = cfg.manufactured() if cfg.mms_enabled else None
    state = cfg.initial_state(grid) if initial is None else initial
    track = cfg.track_alpha

    W = np.empty((5, grid.n + 2))  # the state, rows R, Q, m, p, u
    S = np.empty_like(W)  # its SSPRK2 stage
    der = _derive_at(state, exps, None, 1, None)  # of the state W is loaded from next
    t = state.t
    times: list[float] = []
    energies: list[float] = []
    diss: list[float] = []
    cum = 0.0
    dt_hist: list[float] = []
    clamps = 0 if track else None
    iters_max = 0
    wave_max = 0.0
    a_diag = der.alpha.copy() if track else None

    z_prev = None
    forcing0 = None  # the forcing at t and its face roots, when a step handed them on
    for target in cfg.snapshot_times():
        while t < target:
            if len(dt_hist) >= MAX_STEPS:
                raise RuntimeError(
                    f"step budget of {MAX_STEPS} exhausted at t={t:.6g}, "
                    f"before step {len(dt_hist) + 1}"
                )
            try:
                if der is not None:  # the step starts from a snapshot
                    _load(W, state, der, grid)
                    Z, rho, iters0 = der.Z, der.rho, der.closure_iterations
                    der = None
                else:  # from the state of the last step
                    Z, rho, iters0 = _close(W, grid, exps, z_prev)
                dt_stable, speed_max = compute_dt(rho, W[4, 1:-1], Z, grid, cfg, exps)
            except closure.CellError as exc:
                exc.at(t, len(dt_hist) + 1, dt_hist[-1] if dt_hist else None)
                raise
            remaining = target - t
            landing = dt_stable >= remaining
            dt = remaining if landing else dt_stable
            if track:
                a_diag, cl = alpha_diagnostic_step(
                    a_diag, W[4, 1:-1], _divergence(W[4], grid), exps.gamma, dt, grid
                )
                clamps += cl
            try:
                z_prev, forcing0, iters1, step_diss = step(
                    W, S, grid, cfg, exps, t, dt, Z, forcing0, sol
                )
            except closure.CellError as exc:
                exc.at(t + dt, len(dt_hist) + 1, dt)
                raise
            t1 = t + dt
            if landing and t1 != target:
                t1 = target
                forcing0 = None
            t = t1
            cum += step_diss
            dt_hist.append(dt)
            iters_max = max(iters_max, iters0, iters1)
            wave_max = max(wave_max, speed_max)
        if der is None:  # stepped since the last snapshot
            state = FieldState(t, U=W[:3, 1:-1].copy())
            der = _derive_at(state, exps, z_prev, len(dt_hist) + 1, dt_hist[-1])
        times.append(t)
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
        alpha_clamps=clamps,
        closure_iterations_max=iters_max,
        max_wave_speed=wave_max,
    )
