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
stage, with rows R, Q, m, p, u.  It binds them once, in one workspace, with
every view of them that the stencils, the closure, the ghost fill, the
dissipation, the step size and the fraction diagnostic read, and with the
run's constants (dx, -dx, 2 dx, dx**2, nu_eff, cfl, the exponents and the
boundary condition); a step reads these instead of slicing the buffers
again.  Each stage updates R, Q and m in place and
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


# no-slip ghost factors of the buffer rows R, Q, m, p, u: masses, momentum
# and pressure have a zero gradient across the wall; the velocity is
# mirrored, so its wall value is zero and a wall face carries no flux
_WALL = np.array([1.0, 1.0, 1.0, 1.0, -1.0])


class _Buffer:
    """The views of a ghost-padded (5, n + 2) array with rows R, Q, m, p, u
    that a step reads, sliced once.

    U is the state (R, Q, m) and R, Q, m, p, u are the rows, all without
    ghosts.  Face j sits between buffer cells j and j + 1: left and right
    are the rows R, Q, m of the cells on either side of every face, u_left
    and u_right their velocities.  u_prev and u_next (p_prev, p_next) are
    the velocities (pressures) of the two neighbours of every cell.
    """

    def __init__(self, n: int):
        B = np.empty((5, n + 2))
        self.U = B[:3, 1:-1]
        self.R, self.Q, self.m, self.p, self.u = B[:, 1:-1]
        self.left, self.right = B[:3, :-1], B[:3, 1:]
        ug, pg = B[4], B[3]
        self.u_left, self.u_right = ug[:-1], ug[1:]
        self.u_prev, self.u_next = ug[:-2], ug[2:]
        self.p_prev, self.p_next = pg[:-2], pg[2:]
        self.ghost_first, self.ghost_last = B[:, 0], B[:, -1]
        self.edge_first, self.edge_last = B[:, 1], B[:, -2]


class _Workspace:
    """What the steps of one run read: the state buffer W, its SSPRK2 stage
    S, and the run's grid, exponents and scheme settings as plain floats."""

    def __init__(self, grid: Grid1D, cfg, exps):
        self.grid, self.n = grid, grid.n
        self.W, self.S = _Buffer(grid.n), _Buffer(grid.n)
        dx = grid.dx
        self.dx, self.neg_dx, self.two_dx, self.dx2 = dx, -dx, 2.0 * dx, dx * dx
        self.nu_eff, self.cfl = cfg.nu_eff, cfg.cfl
        self.gamma, self.gamma_plus = exps.gamma, exps.gamma_plus
        self.periodic = grid.bc == PERIODIC


def compute_dt(rho, u, Z, ws: _Workspace) -> tuple[float, float]:
    """Largest stable step, advective dx/(|u|+c) and explicit-viscous
    dx^2 rho/(2 nu), and the largest signal speed |u| + c over all cells.

    rho, u and Z are the mixture density, velocity and closure root of a
    state and ws the workspace of its run.  c is the mixture estimate from
    p = Z**gamma_plus treating Z as the density.  Cells at or below the
    density floor RHO_FLOOR do not bound the step.
    """
    gp = ws.gamma_plus
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
    dx = ws.dx
    bound = float(dx / top)
    nu_eff = ws.nu_eff
    if nu_eff > 0.0:
        visc = float(ws.dx2 * rho_min / (2.0 * nu_eff))
        bound = min(bound, visc)
    dt = ws.cfl * bound
    if not (math.isfinite(dt) and dt > 0.0):
        # the offending cells: live cells whose own bound is not positive and finite
        with np.errstate(all="ignore"):
            own = dx / speed
            if nu_eff > 0.0:
                own = np.minimum(own, ws.dx2 * rho / (2.0 * nu_eff))
            own *= ws.cfl
            bad = ~(np.isfinite(own) & (own > 0.0))
        if live is not None:
            bad &= live
        raise ZeroDtError(
            f"no positive stable step (got {dt})", cells=np.flatnonzero(bad).tolist()
        )
    return dt, float(speed_max)


def _fill_ghosts(b: _Buffer, ws: _Workspace) -> None:
    """Fill the ghost columns of the buffer b from its edge cells: periodic
    ghosts wrap around, no-slip ghosts are _WALL times the edge cell."""
    if ws.periodic:
        np.copyto(b.ghost_first, b.edge_last)
        np.copyto(b.ghost_last, b.edge_first)
    else:
        np.multiply(b.edge_first, _WALL, out=b.ghost_first)
        np.multiply(b.edge_last, _WALL, out=b.ghost_last)


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


def _dissipation_rate(b: _Buffer, ws: _Workspace) -> float:
    """Instantaneous viscous dissipation integral nu_eff * sum dx (du/dx)^2
    over the faces of velocity_face_gradient, of the velocity in the buffer b.

    At a no-slip wall the velocity is zero, so the wall face's difference is
    the edge velocity, not the difference to the mirrored ghost; only the
    sign of a zero can differ from velocity_face_gradient, which the square
    removes.
    """
    if ws.periodic:
        g = b.u_next - b.u  # face 0 is face n
    else:
        g = b.u_right - b.u_left
        g[0], g[-1] = b.u[0], -b.u[-1]
    g /= ws.dx
    return float(ws.nu_eff * np.add.reduce(g * g) * ws.dx)


def _divergence(b: _Buffer, ws: _Workspace):
    """Central divergence of the velocity in the buffer b, per cell."""
    return (b.u_next - b.u_prev) / ws.two_dx


def _rhs(b: _Buffer, ws: _Workspace, forcing):
    """Time derivative of the state (R, Q, m) in the buffer b plus forcing, if
    any, as a new (3, n) array.

    One face velocity, one donor selection and one flux difference serve all
    three rows: first-order upwind transport.  The momentum row adds the
    central pressure gradient and the viscous term nu_eff * u_xx.  Every
    expression keeps the operand order of the scheme written one equation at
    a time, so results are bit-identical to it (tests/test_solver.py); the
    in-place operations only save temporaries (a *= b is b * a, bit for bit).
    """
    u_face = b.u_left + b.u_right
    u_face *= 0.5
    flux = np.where(u_face > 0.0, b.left, b.right)
    flux *= u_face
    dU = flux[:, 1:] - flux[:, :-1]
    dU /= ws.neg_dx  # x / (-dx) is -(x / dx), signed zeros included
    grad_p = b.p_next - b.p_prev
    grad_p /= ws.two_dx
    dm = dU[2]
    dm -= grad_p
    lap = b.u_next - 2.0 * b.u
    lap += b.u_prev
    lap /= ws.dx2
    lap *= ws.nu_eff
    dm += lap
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


def _closure_fields(b: _Buffer, ws: _Workspace, z0, extra=None):
    """Z, the mixture density R + Q and the closure iterations of the state
    in the buffer b, whose values are finite with nonnegative masses, which
    is not checked here; its pressure and velocity go to the rows p and u of
    b, with the expressions of DerivedFields.p and DerivedFields.u.

    extra, the masses (R, Q) of further points, finite and nonnegative as
    well, joins the one closure solve: z0 then holds their warm start after
    the cells', and Z their roots after the cells'.  R + Q, p and u stay
    the cells'.
    """
    R, Q = b.R, b.Q
    if extra is None:
        Z, iters = closure._solve_closure(R, Q, ws.gamma, z0)
        Zc = Z
    else:
        RQ = np.concatenate((R, extra[0])), np.concatenate((Q, extra[1]))
        Z, iters = closure._solve_closure(*RQ, ws.gamma, z0)
        Zc = Z[: ws.n]
    np.power(Zc, ws.gamma_plus, out=b.p)
    rho = R + Q
    u = b.u
    np.maximum(rho, RHO_FLOOR, out=u)
    np.divide(b.m, u, out=u)
    return Z, rho, iters


def _close(b: _Buffer, ws: _Workspace, z0):
    """Solve the closure of the state in the buffer b, warm-started from z0,
    into its p and u rows and fill its ghosts; returns (Z, R + Q,
    iterations)."""
    Z, rho, iters = _closure_fields(b, ws, z0)
    _fill_ghosts(b, ws)
    return Z, rho, iters


def _close_with_faces(b: _Buffer, ws: _Workspace, z0, Rf, Qf, zf0):
    """_close of the state in the buffer b, with the n + 1 faces of a
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
        Z, _, iters = _closure_fields(b, ws, start, (Rf, Qf))
    except closure.CellError:
        _close(b, ws, z0)
        closure._solve_closure(Rf, Qf, ws.gamma, zf0)
        raise
    _fill_ghosts(b, ws)
    n = ws.n
    return Z[:n], Z[n:], iters


def _forcing_level(forcing, grid: Grid1D, t: float, Zf):
    """The read-only forcing of a step at time t: the cell averages of the
    manufactured solution forcing and the face roots Zf they are made from."""
    averages = forcing.cell_averages(grid, t, Zf)
    averages.flags.writeable = False
    Zf.flags.writeable = False
    return averages, Zf


def _load(ws: _Workspace, state: FieldState, der: DerivedFields) -> None:
    """Put a state and its derived fields into the buffer ws.W, ghosts filled."""
    W = ws.W
    np.copyto(W.U, state.U)
    np.copyto(W.p, der.p)
    np.copyto(W.u, der.u)
    _fill_ghosts(W, ws)


def step(ws: _Workspace, t: float, dt: float, Z, forcing0=None, forcing=None):
    """Advance the state in the buffer ws.W by one SSPRK2 step of size dt,
    in place, with the scheme, grid and exponents the workspace ws holds.

    ws.W holds the state at time t with its pressure, velocity and ghosts
    (_load, _close), Z its closure root; ws.S is the SSPRK2 stage.  On
    return ws.W holds the new state's R, Q and m, admitted as valid; its
    other rows and ghosts are the old state's until _close.

    forcing is the manufactured solution, of the run's exponents, whose cell
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
    W, S, grid = ws.W, ws.S, ws.grid
    if forcing0 is None and forcing is not None:
        Zf, _ = closure._solve_closure(*forcing.face_masses(grid, t), ws.gamma)
        forcing0 = _forcing_level(forcing, grid, t, Zf)
    t1 = t + dt
    dissipation = dt * _dissipation_rate(W, ws)
    U0, U1 = W.U, S.U
    dU = _rhs(W, ws, None if forcing is None else forcing0[0])
    dU *= dt
    np.add(dU, U0, out=U1)
    # admitted, the stage is valid input for the trusted closure kernel
    _admit(U1, t1)
    if forcing is None:
        stage_Z, _, iters = _close(S, ws, Z)
        stage_forcing = None
    else:
        Rf, Qf = forcing.face_masses(grid, t1)
        stage_Z, Zf, iters = _close_with_faces(S, ws, Z, Rf, Qf, forcing0[1])
        stage_forcing = _forcing_level(forcing, grid, t1, Zf)
    dU = _rhs(S, ws, None if forcing is None else stage_forcing[0])
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

    ws = _Workspace(grid, cfg, exps)
    W = ws.W
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
                    _load(ws, state, der)
                    Z, rho, iters0 = der.Z, der.rho, der.closure_iterations
                    der = None
                else:  # from the state of the last step
                    Z, rho, iters0 = _close(W, ws, z_prev)
                dt_stable, speed_max = compute_dt(rho, W.u, Z, ws)
            except closure.CellError as exc:
                exc.at(t, len(dt_hist) + 1, dt_hist[-1] if dt_hist else None)
                raise
            remaining = target - t
            landing = dt_stable >= remaining
            dt = remaining if landing else dt_stable
            if track:
                a_diag, cl = alpha_diagnostic_step(
                    a_diag, W.u, _divergence(W, ws), ws.gamma, dt, grid
                )
                clamps += cl
            try:
                z_prev, forcing0, iters1, step_diss = step(ws, t, dt, Z, forcing0, sol)
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
            state = FieldState(t, U=W.U.copy())
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
