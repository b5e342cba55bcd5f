"""Explicit finite-volume time stepping of the reformulated two-fluid system.

Unknowns per cell: partial masses R, Q and mixture momentum m = (R + Q) u.
Masses and momentum are advected by first-order upwind fluxes on averaged
face velocities, with one donor selection for all three rows; the pressure
gradient of p = Z**gamma_plus is central; the viscous term nu_eff * u_xx
(nu_eff = 2 mu + lambda in 1D) is an explicit central second difference.
The closure is re-solved per cell after every stage, which keeps it inside
the verification loop.  Each solve is warm-started: a state's from the root
of the stage before it, a stage's from the roots at t extrapolated to
t + dt with those of the last time level, Z + r (Z - Z_last) with
r = dt / dt_last, at most 100.  That start is second order in time, so
one Newton step from it mostly converges, where from the roots at t it
took two.  A run's first step, and the step after a landing that moved t,
start from the roots at t; at gamma = 1 and 2 the kernel reads no start,
and nothing is extrapolated.

A run steps two ghost-padded (5, n + 2) buffers, the state and its SSPRK2
stage, with rows R, Q, m, p, u.  It binds them once, in one workspace, with
every view of them that the stencils, the closure, the ghost fill, the
dissipation, the step size and the fraction diagnostic read, and with the
run's constants (dx, -dx, 2 dx, dx**2, nu_eff, cfl, the exponents and the
boundary condition); a step reads these instead of slicing the buffers
again.  Each stage updates R, Q and m in place and
admits the result with one per-row minimum and one maximum (zero the
round-off negatives of the masses, raise PositivityLossError or
NonFiniteStateError); the admitted masses are valid input for the closure
kernel, which checks nothing.  One helper closes every state a run steps
from and every stage: its root gives p and u in the buffer (a p that
overflows raises ClosureOverflowError, as DerivedFields.p does; where the
largest value that admitting the state found lies below
fields.finite_pressure_bound, p is finite and not checked), and one
ghost fill (a periodic wrap, or no-slip wall factors) then serves every
stencil of the next stage.  The step size reuses the R + Q of that closure
solve.  A step builds no state array, DerivedFields or report object.

A run records each snapshot once: it derives the state in its buffer
(warm-started from the stage root) into one timed DerivedFields record and
evaluates the record's total energy and masses once.  The record alone
leaves the run: it hands each one, as it records it, to a consumer (the
CLI's writers and pair reductions) and keeps only the scalar series, so
its memory does not grow with the number of snapshots.  Outputs and
audits derive nothing again.

A manufactured forcing is evaluated once per time level: an SSPRK2 step
hands its stage forcing at t + dt on to the next step, with the closure
roots at the forcing's n + 1 faces it is made from, as it hands on the
stage closure root.  A forced stage solves its closure and the forcing's
face roots at t + dt in one kernel call, each part warm-started from its
extrapolated roots; the kernel freezes converged points, so the stage's
roots are those of its own solve, bit for bit.  A step that lands on a
snapshot time can end a round-off away from it; t is then set to the
snapshot time and the next step evaluates the forcing afresh, with a cold
face solve, as a run's first step does.

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
    Grid1D,
    derive,
    finite_pressure_bound,
    pressure,
    total_energy,
    total_mass,
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
        self.mass_bound = finite_pressure_bound(exps)
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


def _admit(U, t: float) -> float:
    """Admit the update U, a (3, n) state at time t, as a valid state: raise
    PositivityLossError for a mass below -POSITIVITY_TOL, zero the round-off
    negatives of the masses, then raise NonFiniteStateError for a NaN or
    inf.  One per-row minimum and one maximum admit the usual update.
    Returns the largest value of the admitted U, which bounds its masses
    for _close."""
    r_min, q_min, m_min = np.minimum.reduce(U, axis=1).tolist()
    if r_min >= 0.0 and q_min >= 0.0 and m_min > -math.inf:
        top = float(np.maximum.reduce(U, axis=None))
        if top < math.inf:
            return top
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
    return float(np.maximum.reduce(U, axis=None))


def _close(b: _Buffer, ws: _Workspace, z0, top=math.inf, faces=None):
    """Solve the closure of the state in the buffer b, warm-started from z0,
    into its p and u rows, with the expressions of DerivedFields.p and
    DerivedFields.u, and fill its ghosts; returns (Z, R + Q, iterations).
    The state's values are finite with nonnegative masses, which is not
    checked here.  top bounds its masses from above (_admit returns it):
    below ws.mass_bound every p is finite and its overflow check is skipped.

    faces, (Rf, Qf), the masses of the n + 1 faces of a manufactured
    forcing, finite and nonnegative as well, join the one closure solve: z0
    then holds the faces' warm start after the cells', Z the faces' roots
    after the cells', and the iterations are those of the joint solve.  The
    kernel solves each point on its own, so a failing joint solve is
    repeated as the cells' and the faces' solves apart: these raise its
    error for the cells if any of them failed, otherwise for the faces,
    numbered as faces.
    """
    R, Q = b.R, b.Q
    if faces is None:
        Z, iters = closure.solve_closure_batch(R, Q, ws.gamma, z0)
    else:
        Rf, Qf = faces
        RQ = np.concatenate((R, Rf)), np.concatenate((Q, Qf))
        try:
            Z, iters = closure.solve_closure_batch(*RQ, ws.gamma, z0)
        except closure.CellError:
            closure.solve_closure_batch(R, Q, ws.gamma, z0[: ws.n])
            closure.solve_closure_batch(Rf, Qf, ws.gamma, z0[ws.n :])
            raise
    pressure(Z[: ws.n], R, Q, ws.gamma_plus, out=b.p, finite=top < ws.mass_bound)
    rho = R + Q
    u = b.u
    np.maximum(rho, RHO_FLOOR, out=u)
    np.divide(b.m, u, out=u)
    _fill_ghosts(b, ws)
    return Z, rho, iters


def _forcing_level(forcing, grid: Grid1D, t: float, Zf):
    """The read-only forcing of a step at time t: the cell averages of the
    manufactured solution forcing and the face roots Zf they are made from."""
    averages = forcing.cell_averages(grid, t, Zf)
    averages.flags.writeable = False
    Zf.flags.writeable = False
    return averages, Zf


def _cold_forcing(forcing, ws: _Workspace, t: float):
    """The forcing of a step at time t, as _forcing_level gives it, from a
    cold solve of its face roots: a run's first step and the step after a
    landing that moved t start from it."""
    Zf, _ = closure.solve_closure_batch(*forcing.face_masses(ws.grid, t), ws.gamma)
    return _forcing_level(forcing, ws.grid, t, Zf)


def _extrapolated(Z, Z_last, r: float):
    """Z + r (Z - Z_last): the warm start at the next time level of the
    roots Z, finite and nonnegative, whose last level was Z_last, with r in
    [0, _RATIO_MAX] the ratio of the steps.  It is second order in time,
    where Z is first order.  A start beyond float range is inf, without a
    numpy warning; the kernel clips every start into its bracket."""
    with np.errstate(over="ignore"):
        z = Z - Z_last
        z *= r
        z += Z
    return z


def _load(ws: _Workspace, der: DerivedFields) -> None:
    """Put the record der, state and fields, into the buffer ws.W, ghosts filled."""
    W = ws.W
    np.copyto(W.U, der.V[:3])
    np.copyto(W.p, der.p)
    np.copyto(W.u, der.u)
    _fill_ghosts(W, ws)


def step(ws: _Workspace, t: float, dt: float, z0, forcing0=None, forcing=None):
    """Advance the state in the buffer ws.W by one SSPRK2 step of size dt,
    in place, with the scheme, grid and exponents the workspace ws holds.

    ws.W holds the state at time t with its pressure, velocity and ghosts
    (_load, _close); ws.S is the SSPRK2 stage.  On return ws.W holds the
    new state's R, Q and m, admitted as valid; its other rows and ghosts are
    the old state's until _close.

    forcing is the manufactured solution, of the run's exponents, whose cell
    averages force the step, None for an unforced step.  forcing0 is its
    forcing at t as a step hands it on, or as _cold_forcing solves it: the
    read-only pair (cell averages, face roots).  The stage's closure solve
    takes the forcing's faces at t + dt with it.

    z0 is the warm start of the stage's closure solve: the n cells' starts,
    followed for a forced step by the n + 1 faces'.  They are the roots at
    t, the state's and forcing0's, or run's extrapolation of them to t + dt.

    Returns (stage_Z, stage_forcing, iterations, dissipation, top): stage_Z
    is the closure root of the stage, the warm start of the new state's
    closure; stage_forcing the forcing at t + dt in the form of forcing0,
    the forcing of the next step when it starts there (None for an unforced
    step); iterations those of the stage's closure solve, dissipation the
    viscous dissipation of the step and top the largest value of the new
    state, for its _close.
    """
    W, S, grid = ws.W, ws.S, ws.grid
    t1 = t + dt
    dissipation = dt * _dissipation_rate(W, ws)
    U0, U1 = W.U, S.U
    dU = _rhs(W, ws, None if forcing is None else forcing0[0])
    dU *= dt
    np.add(dU, U0, out=U1)
    # admitted, the stage is valid input for the closure kernel
    top = _admit(U1, t1)
    if forcing is None:
        stage_Z, _, iters = _close(S, ws, z0, top)
        stage_forcing = None
    else:
        Rf, Qf = forcing.face_masses(grid, t1)
        Z1, _, iters = _close(S, ws, z0, top, (Rf, Qf))
        stage_Z, Zf = Z1[: ws.n], Z1[ws.n :]
        stage_forcing = _forcing_level(forcing, grid, t1, Zf)
    dU = _rhs(S, ws, None if forcing is None else stage_forcing[0])
    dU *= dt
    U0 += U1
    U0 += dU  # (U0 + U1) + dt dU1 is dt dU1 + (U0 + U1), bit for bit
    U0 *= 0.5
    top = _admit(U0, t1)
    return stage_Z, stage_forcing, iters, dissipation, top


# run extrapolates the roots of the last time level by at most this multiple
# of their change over the last step.  After a short landing step that
# change is mostly the roots' own error, up to about the closure tolerance
# relative; 100 times that stays far below a start error from which one
# Newton step converges.
_RATIO_MAX = 100.0
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

    energies[k] and masses[k] are fields.total_energy and fields.total_mass
    of the record the run handed its consumer at times[k], and diss_cum[k]
    the viscous dissipation accumulated up to times[k].  alpha_transported
    is the volume-fraction diagnostic's own transported fraction at the last
    snapshot and alpha_clamps its clamp count, both None when the run does
    not track it.  forcing is the manufactured solution that forced the
    run, None for an unforced run.
    """

    grid: Grid1D
    forcing: object | None
    times: list[float]
    energies: list[float]
    masses: list[tuple[float, float]]
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


def _discard(der: DerivedFields) -> None:
    """The snapshot consumer of a run whose caller reads only its scalars."""


def run(cfg, initial: np.ndarray | None = None, *, on_snapshot=_discard) -> Trajectory:
    """Advance a validated SimConfig from t = 0 to t_end.

    initial is the configuration's initial state, the (3, n) array of
    SimConfig.initial_state, when the caller has already built it
    (validation does), so a restart file is not read again.

    The run calls on_snapshot(der) once per snapshot, as it records it, with
    the snapshot's one record, a DerivedFields timed at the snapshot:
    warm-started like every closure solve of the run, its fields equal a
    cold derive bit for bit where the closure has a closed form (gamma = 2
    or 1) and to within the closure tolerance otherwise.  The run keeps no
    other form of the snapshot's state and returns only the scalar series
    and counters.

    The run keeps the closure roots of the last time level, cells and
    faces, and passes step the stage's warm start extrapolated with them
    (see the module docstring).

    Snapshots land exactly on the configured times (the step is shortened to
    hit them), so two runs sharing the snapshot grid can be compared without
    interpolation.  The result is deterministic: identical configurations
    produce bit-identical trajectories.

    A StepError or closure error (closure.CellError) that stops the run is
    located by one handler, by three rules; a t known at the raise is
    kept.  In closing a state the run has reached (the initial state, a
    state between steps, a snapshot) and sizing the next step: the state's
    t, the number of the next step and the size of the last (None before
    the first).  In a step, its stage, forcing or admission: the t + dt it
    steps to, its number and its size.  In on_snapshot: nowhere, the
    consumer's error keeps step and dt None.
    """
    grid = cfg.grid()
    exps = cfg.exponents()
    sol = cfg.manufactured() if cfg.mms_enabled else None
    track = cfg.track_alpha

    ws = _Workspace(grid, cfg, exps)
    W = ws.W
    times: list[float] = []
    energies: list[float] = []
    masses: list[tuple[float, float]] = []
    diss: list[float] = []
    cum = 0.0
    dt_hist: list[float] = []
    clamps = 0 if track else None
    iters_max = 0
    wave_max = 0.0
    # the last stage's closure root, and the largest value of the state
    # its step left, for the close of that state
    z_prev, top = None, math.inf
    forcing0 = None  # the forcing at t and its face roots, when a step handed them on
    # the closure roots of the last time level, the cells' followed for a
    # forced run by the faces', once a step has been taken from it: they
    # extrapolate the stage's warm start, at a gamma whose kernel reads one
    # (not 1 or 2)
    extrapolate = ws.gamma not in (1.0, 2.0)
    level = None

    # where a closure.CellError stops the run, (t, step, dt) as CellError.at
    # takes it; None leaves the error as it was raised
    where = (0.0, 1, None)
    try:
        # the record W is loaded from next, from here on the state's one form
        der = derive(cfg.initial_state(grid) if initial is None else initial, 0.0, exps)
        del initial
        t = der.t
        a_diag = der.alpha.copy() if track else None
        for target in cfg.snapshot_times():
            while t < target:
                if len(dt_hist) >= MAX_STEPS:
                    raise RuntimeError(
                        f"step budget of {MAX_STEPS} exhausted at t={t:.6g}, "
                        f"before step {len(dt_hist) + 1}"
                    )
                where = (t, len(dt_hist) + 1, dt_hist[-1] if dt_hist else None)
                if der is not None:  # the step starts from a snapshot
                    _load(ws, der)
                    Z, rho, iters0 = der.Z, der.rho, der.closure_iterations
                    der = None
                else:  # from the state of the last step
                    Z, rho, iters0 = _close(W, ws, z_prev, top)
                dt_stable, speed_max = compute_dt(rho, W.u, Z, ws)
                remaining = target - t
                landing = dt_stable >= remaining
                dt = remaining if landing else dt_stable
                if track:
                    a_diag, cl = alpha_diagnostic_step(
                        a_diag, W.u, _divergence(W, ws), ws.gamma, dt, grid
                    )
                    clamps += cl
                where = (t + dt, len(dt_hist) + 1, dt)
                roots = Z  # at t: the cells', then a forced run's faces'
                if sol is not None:
                    if forcing0 is None:
                        forcing0 = _cold_forcing(sol, ws, t)
                    roots = np.concatenate((Z, forcing0[1]))
                z0 = roots
                if level is not None:
                    z0 = _extrapolated(roots, level, min(dt / dt_hist[-1], _RATIO_MAX))
                z_prev, forcing0, iters1, step_diss, top = step(ws, t, dt, z0, forcing0, sol)
                if extrapolate:
                    level = roots
                t1 = t + dt
                if landing and t1 != target:
                    t1 = target
                    forcing0 = level = None
                t = t1
                cum += step_diss
                dt_hist.append(dt)
                iters_max = max(iters_max, iters0, iters1)
                wave_max = max(wave_max, speed_max)
            if der is None:  # stepped since the last snapshot
                where = (t, len(dt_hist) + 1, dt_hist[-1])
                # the record holds a copy of the state, which is bound nowhere
                der = derive(W.U.copy(), t, exps, z0=z_prev)
            times.append(t)
            energies.append(total_energy(der, grid))
            masses.append(total_mass(der, grid))
            diss.append(cum)
            where = None
            on_snapshot(der)
    except closure.CellError as exc:
        if where is not None:
            exc.at(*where)
        raise

    return Trajectory(
        grid=grid,
        forcing=sol,
        times=times,
        energies=energies,
        masses=masses,
        diss_cum=diss,
        alpha_transported=a_diag,
        dt_history=np.asarray(dt_hist),
        alpha_clamps=clamps,
        closure_iterations_max=iters_max,
        max_wave_speed=wave_max,
    )
