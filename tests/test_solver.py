import dataclasses
import math
import weakref
from collections import Counter

import numpy as np
import pytest

from bifluid import closure, solver
from bifluid.closure import CLOSURE_TOL, ExponentPair, omega_of_alpha, solve_closure_batch
from bifluid.config import ProfileSpec, SimConfig, ValidationError, validate_config
from bifluid.fields import NOSLIP, PERIODIC, Grid1D, derive, finite_pressure_bound, total_mass
from bifluid.mms import ManufacturedSolution
from bifluid.solver import (
    NonFiniteStateError,
    PositivityLossError,
    ZeroDtError,
    alpha_diagnostic_step,
    compute_dt,
    run,
    step,
    velocity_face_gradient,
)
from oracles import flipped_advection_rhs, per_equation_rhs

EXPS = ExponentPair(3.0, 1.5)


def scheme(**kw):
    """The SimConfig a step reads: these tests' scheme settings, updated by kw."""
    base = dict(mu=0.1, lam=0.0, cfl=0.9)
    base.update(kw)
    return SimConfig(**base)


def make_state(n, R, Q, u):
    R = np.asarray(R, float) * np.ones(n)
    Q = np.asarray(Q, float) * np.ones(n)
    u = np.asarray(u, float) * np.ones(n)
    return np.array((R, Q, (R + Q) * u))


def stable_dt(d, grid, sch, exps=EXPS):
    """compute_dt of the derived fields d: the step size alone."""
    return compute_dt(d.rho, d.u, d.Z, solver._Workspace(grid, sch, exps))[0]


def loaded(d, grid, sch, exps=EXPS):
    """A run's workspace for the scheme sch, its buffer W loaded with the
    record d."""
    ws = solver._Workspace(grid, sch, exps)
    solver._load(ws, d)
    return ws


def step_from(st, grid, sch, dt, derived=None, forcing=None, exps=EXPS, forcing0=None, t=0.0):
    """One solver.step from the state st at time t, in the buffers a run
    steps (d, the derived fields of st, is derived here when not given, and
    a forced step's forcing0 solved cold, as a run's first step's is; the
    stage starts from the roots at t); returns the new state, at t + dt,
    and what the step returns: (stage_Z, stage_forcing, iterations,
    dissipation, top)."""
    d = derived if derived is not None else derive(st, t, exps)
    ws = loaded(d, grid, sch, exps)
    z0 = d.Z
    if forcing is not None:
        if forcing0 is None:
            forcing0 = solver._cold_forcing(forcing, ws, t)
        z0 = np.concatenate((d.Z, forcing0[1]))
    rep = step(ws, t, dt, z0, forcing0, forcing)
    return ws.W.U.copy(), rep


def sine_state(grid, base=1.5, amp=0.3, uamp=0.2):
    x = grid.x
    R = base + amp * np.sin(2 * np.pi * x / grid.length)
    Q = base - amp * np.cos(2 * np.pi * x / grid.length)
    u = uamp * np.sin(2 * np.pi * x / grid.length)
    return np.array((R, Q, (R + Q) * u))


# scheme config ------------------------------------------------------------


def test_scheme_validation():
    with pytest.raises(ValidationError):
        scheme(cfl=0.0).validate()
    with pytest.raises(ValidationError):
        scheme(cfl=1.5).validate()
    with pytest.raises(ValidationError):
        scheme(mu=-0.1).validate()
    with pytest.raises(ValidationError):
        scheme(mu=1.0, lam=-1.0).validate()  # 2mu + 3lam < 0
    with pytest.raises(ValidationError):
        scheme(mu=0.0).validate()  # inviscid needs the flag
    scheme(mu=0.0, allow_inviscid=True).validate()
    with pytest.raises(ValidationError):
        scheme(integrator="rk4").validate()
    cfg = scheme(mu=0.2, lam=0.1)
    assert cfg.nu_eff == pytest.approx(0.5)
    with pytest.raises(AttributeError):  # read-only: mu and lam define it
        cfg.nu_eff = 1.0


# compute_dt ----------------------------------------------------------------


def test_compute_dt_advective_example():
    # uniform Z = 2, u = 1, gamma+ = 3, dx = 0.01, inviscid, cfl = 0.5
    grid = Grid1D(100, 1.0)
    st = make_state(100, 1.0, 2.0, 1.0)
    d = derive(st, 0.0, EXPS)
    sch = scheme(mu=0.0, allow_inviscid=True, cfl=0.5)
    want = 0.5 * 0.01 / (1.0 + math.sqrt(12.0))
    assert stable_dt(d, grid, sch) == pytest.approx(want, rel=1e-12)


def test_compute_dt_cfl_linearity():
    grid = Grid1D(64, 1.0)
    d = derive(make_state(64, 1.0, 2.0, 0.5), 0.0, EXPS)
    dt1 = stable_dt(d, grid, scheme(cfl=0.4))
    dt2 = stable_dt(d, grid, scheme(cfl=0.8))
    assert dt2 == pytest.approx(2.0 * dt1, rel=1e-14)


def test_compute_dt_viscous_scaling():
    # viscous-dominated bound scales like dx^2
    sch = scheme(mu=5.0)
    d1 = derive(make_state(64, 1.0, 2.0, 0.0), 0.0, EXPS)
    d2 = derive(make_state(128, 1.0, 2.0, 0.0), 0.0, EXPS)
    dt1 = stable_dt(d1, Grid1D(64, 1.0), sch)
    dt2 = stable_dt(d2, Grid1D(128, 1.0), sch)
    assert dt1 == pytest.approx(4.0 * dt2, rel=1e-12)


def test_compute_dt_vacuum():
    d = derive(make_state(16, 0.0, 0.0, 0.0), 0.0, EXPS)
    with pytest.raises(ZeroDtError) as exc:
        stable_dt(d, Grid1D(16, 1.0), scheme())
    assert list(exc.value.cells) == list(range(16))  # every cell is vacuum
    assert exc.value.t is exc.value.step is exc.value.dt is None  # run adds them


def test_compute_dt_names_the_cells_without_a_stable_step():
    # cells 3 and 9 are vacuum, cell 5's sound speed overflows: only the
    # live cell 5 bounds the step to 0
    R = np.ones(16)
    R[3] = R[9] = 0.0
    R[5] = 1e160
    st = np.array((R, np.where(R > 0.0, 1.0, 0.0), np.zeros(16)))
    with np.errstate(over="ignore"), pytest.raises(ZeroDtError, match="no positive") as exc:
        stable_dt(derive(st, 0.0, EXPS), Grid1D(16, 1.0), scheme())
    assert exc.value.cells == [5]


# step ------------------------------------------------------------------------


def test_constant_state_is_exact_fixed_point_periodic():
    grid = Grid1D(32, 1.0)
    st = make_state(32, 1.0, 2.0, 0.7)
    new, _ = step_from(st, grid, scheme(), 1e-3)
    assert np.array_equal(new[0], st[0])
    assert np.array_equal(new[1], st[1])
    assert np.array_equal(new[2], st[2])


def test_zero_velocity_masses_frozen_momentum_gets_pressure_push():
    grid = Grid1D(32, 1.0)
    x = grid.x
    R = 1.0 + 0.3 * np.sin(2 * np.pi * x)
    Q = 1.2 + 0.2 * np.cos(2 * np.pi * x)
    st = np.array((R, Q, np.zeros(32)))
    d = derive(st, 0.0, EXPS)
    ws = loaded(d, grid, scheme())
    dU = solver._rhs(ws.W, ws, None)
    assert not dU[:2].any()
    grad_p = (np.roll(d.p, -1) - np.roll(d.p, 1)) / (2 * grid.dx)
    assert np.array_equal(dU[2], -grad_p)


def test_step_report_fields():
    grid = Grid1D(32, 1.0)
    st = sine_state(grid)
    d = derive(st, 0.0, EXPS)
    sch = scheme()
    dt, speed_max = compute_dt(d.rho, d.u, d.Z, solver._Workspace(grid, sch, EXPS))
    assert speed_max == pytest.approx(float(np.max(np.abs(d.u) + np.sqrt(3.0 * d.Z**2))), rel=1e-12)
    new, (stage_Z, stage_forcing, iters, dissipation, top) = step_from(st, grid, sch, dt, d)
    assert stage_Z.shape == (32,) and stage_forcing is None
    assert iters == 0  # gamma = 2 has a closed form
    assert dissipation >= 0.0
    assert top == np.max(new)  # the new state's largest value, for its close


def test_positivity_strict_raises_exploratory_clips():
    # no policy clips a real positivity loss any more: it always raises
    grid = Grid1D(8, 1.0)
    R = np.ones(8)
    Q = np.ones(8)
    u = np.zeros(8)
    u[2], u[4] = -2.0, 2.0  # both faces of cell 3 drain it
    st = np.array((R, Q, (R + Q) * u))
    # dt far beyond the advective limit empties the cell past zero
    with pytest.raises(PositivityLossError) as exc:
        step_from(st, grid, scheme(), 0.5)
    assert "cells [3]" in str(exc.value)  # the failure record names the cell
    assert "t=0.5" in str(exc.value)
    assert exc.value.cells == [3] and exc.value.t == 0.5
    assert exc.value.step is exc.value.dt is None  # run adds them


def test_stage_positivity_loss_raises_before_its_closure_solve(monkeypatch):
    grid = Grid1D(8, 1.0)
    R, Q, u = np.ones(8), np.ones(8), np.zeros(8)
    u[2], u[4] = -2.0, 2.0  # both faces of cell 3 drain it
    st = np.array((R, Q, (R + Q) * u))
    solved = []
    real = solver._close

    def spy(b, *args):
        # the stage closure trusts its input: finite, with masses >= 0
        assert np.isfinite(b.U).all() and (b.U[:2] >= 0.0).all()
        solved.append(b)
        return real(b, *args)

    monkeypatch.setattr(solver, "_close", spy)
    with pytest.raises(PositivityLossError, match=r"t=0\.5 in cells \[3\]"):
        step_from(st, grid, scheme(), 0.5)
    assert solved == []


def test_close_raises_where_the_pressure_overflows():
    # the roots are finite, but p = Z**3 of the 1e300 cell is not; the
    # cells near the bound take the checked path and stay finite
    grid = Grid1D(8, 1.0)
    ws = solver._Workspace(grid, scheme(), EXPS)
    ws.W.U[...] = make_state(8, 1.0, 2.0, 0.5)
    ws.W.R[5] = ws.W.Q[5] = 5e102
    Z, _, _ = solver._close(ws.W, ws, None)
    assert np.isfinite(ws.W.p).all() and ws.W.p[5] == pytest.approx(Z[5] ** 3, rel=1e-15)
    ws.W.R[2] = ws.W.Q[2] = 1e300
    with pytest.raises(closure.ClosureOverflowError, match=r"cells \[2\] \(cell 2: R = 1e\+300"):
        solver._close(ws.W, ws, None)


def test_close_checks_the_pressure_only_above_the_mass_bound(monkeypatch):
    # the largest value _admit finds, momentum included, decides: a stage
    # whose momentum is above the bound takes the checked path, with the
    # same p, though its masses are small
    checked = []
    real = solver.pressure

    def spy(*args, finite=False, **kwargs):
        checked.append(not finite)
        return real(*args, finite=finite, **kwargs)

    monkeypatch.setattr(solver, "pressure", spy)
    grid = Grid1D(16, 1.0)
    bound = finite_pressure_bound(EXPS)
    st = sine_state(grid)
    step_from(st, grid, scheme(), 1e-4)
    assert checked == [False]
    st[2, 3] = 10.0 * bound  # u = O(1e102)
    d = derive(st, 0.0, EXPS)
    ws = loaded(d, grid, scheme())
    checked.clear()
    *_, top = step(ws, 0.0, 1e-110, d.Z)
    assert checked == [True] and top > bound
    assert ws.S.p.tobytes() == np.power(derive(ws.S.U.copy(), 0.0, EXPS).Z, 3.0).tobytes()
    # masses above the bound: p is checked, and where it overflows it raises
    ws.W.U[...] = make_state(16, 1.0, 2.0, 0.5)
    ws.W.R[5] = ws.W.Q[5] = 2.0 * bound
    checked.clear()
    solver._close(ws.W, ws, None, float(np.max(ws.W.U)))
    assert checked == [True] and np.isfinite(ws.W.p).all()
    ws.W.R[5] = ws.W.Q[5] = 10.0 * bound
    with pytest.raises(closure.ClosureOverflowError, match=r"cells \[5\]"):
        solver._close(ws.W, ws, None, float(np.max(ws.W.U)))


def test_admit_zeroes_round_off_negatives_and_rejects_the_rest():
    assert solver.POSITIVITY_TOL == 1e-12
    U = np.ones((3, 6))
    U[0, 2], U[1, 4], U[2, 1] = -1e-13, -0.0, -5.0
    solver._admit(U, 0.5)
    assert U[0, 2] == 0.0 and U[2, 1] == -5.0  # momentum keeps its sign
    U[1, 3] = -1e-9
    with pytest.raises(PositivityLossError, match=r"Q fell below -1e-12 at t=0\.5 in cells \[3\]"):
        solver._admit(U, 0.5)
    U[1, 3], U[2, 5] = 1.0, np.nan
    with pytest.raises(NonFiniteStateError) as exc:
        solver._admit(U, 0.5)
    assert exc.value.cells == [5]


@pytest.mark.parametrize("integrator", [solver.SSPRK2])
def test_stage_blow_up_names_time_and_cells(integrator):
    # the momentum flux out of cell 5 overflows; only cells 5 and 6 see it
    grid = Grid1D(16, 1.0)
    R, Q, u = np.ones(16), np.ones(16), np.zeros(16)
    u[5] = 1e155
    st = np.array((R, Q, (R + Q) * u))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFiniteStateError) as exc:
        step_from(st, grid, scheme(integrator=integrator), 1e-160, t=0.25)
    assert exc.value.t == 0.25 + 1e-160
    assert exc.value.cells == [5, 6]
    assert exc.value.step is None  # run adds the step number


def test_conservation_short_run_periodic():
    grid = Grid1D(64, 1.0)
    st = sine_state(grid)
    sch = scheme()
    masses0 = total_mass(derive(st, 0.0, EXPS), grid)
    for _ in range(50):
        d = derive(st, 0.0, EXPS)
        st, _ = step_from(st, grid, sch, stable_dt(d, grid, sch), d)
    mr, mq = total_mass(derive(st, 0.0, EXPS), grid)
    assert mr == pytest.approx(masses0[0], rel=1e-13)
    assert mq == pytest.approx(masses0[1], rel=1e-13)


def test_conservation_noslip_zero_flux_walls():
    grid = Grid1D(64, 1.0, bc=NOSLIP)
    st = sine_state(grid)
    sch = scheme()
    masses0 = total_mass(derive(st, 0.0, EXPS), grid)
    for _ in range(50):
        d = derive(st, 0.0, EXPS)
        st, _ = step_from(st, grid, sch, stable_dt(d, grid, sch), d)
    mr, mq = total_mass(derive(st, 0.0, EXPS), grid)
    assert mr == pytest.approx(masses0[0], rel=1e-13)
    assert mq == pytest.approx(masses0[1], rel=1e-13)


def test_translation_equivariance_bitexact():
    grid = Grid1D(64, 1.0)
    st = sine_state(grid)
    sch = scheme()
    k = 17

    def advance(state, nsteps):
        for _ in range(nsteps):
            d = derive(state, 0.0, EXPS)
            state, _ = step_from(state, grid, sch, stable_dt(d, grid, sch), d)
        return state

    shifted = np.roll(st, k, axis=1)
    a = advance(shifted, 20)
    b = advance(st, 20)
    assert np.array_equal(a[0], np.roll(b[0], k))
    assert np.array_equal(a[1], np.roll(b[1], k))
    assert np.array_equal(a[2], np.roll(b[2], k))


# fused stencils against the per-equation formulas ------------------------------
#
# The reference is the scheme written one equation at a time with np.roll /
# np.concatenate boundaries (its rhs is oracles.per_equation_rhs).  The fused
# stacked RHS and the shared ghost-cell helper must reproduce it bit for bit,
# signed zeros included.


def _ref_divergence(u, grid):
    dx = grid.dx
    if grid.bc == PERIODIC:
        return (np.roll(u, -1) - np.roll(u, 1)) / (2.0 * dx)
    ext = np.concatenate(([-u[0]], u, [-u[-1]]))
    return (ext[2:] - ext[:-2]) / (2.0 * dx)


def _ref_velocity_face_gradient(u, grid):
    dx = grid.dx
    if grid.bc == PERIODIC:
        return (np.roll(u, -1) - u) / dx
    return np.concatenate(([u[0]], np.diff(u), [-u[-1]])) / dx


def _ref_alpha_step(alpha, u, div_u, gamma, dt, grid):
    dx = grid.dx
    if grid.bc == PERIODIC:
        gm = (alpha - np.roll(alpha, 1)) / dx
        gp = (np.roll(alpha, -1) - alpha) / dx
    else:
        ext = np.concatenate(([alpha[0]], alpha, [alpha[-1]]))
        gm = (alpha - ext[:-2]) / dx
        gp = (ext[2:] - alpha) / dx
    adv = u * np.where(u > 0.0, gm, gp)
    new = alpha - dt * (adv + omega_of_alpha(alpha, gamma) * div_u)
    return np.clip(new, 0.0, 1.0)


def _ref_face_roots(sol, grid, t, z0=None):
    """The closure roots of sol's face masses at time t, solved on their own
    and warm-started from z0 (cold when None)."""
    return solve_closure_batch(*sol.face_masses(grid, t), sol.exps.gamma, z0)[0]


def _ref_rhs(R, Q, m, der, grid, sch, forcing, flux_sign):
    return per_equation_rhs(R, Q, m, der.u, der.p, grid, sch.nu_eff, forcing, flux_sign)


def _ref_clip(arr):
    """arr with its round-off negatives zeroed."""
    return np.where(arr < 0.0, 0.0, arr)


def _ref_step(st, t, grid, sch, sol, dt, flux_sign, zf=None):
    """One SSPRK2 step of the per-equation scheme from the state st at time
    t, forced by sol, if not None, with advection entering with flux_sign;
    returns (R, Q, m) and the forcing's face roots at the stage time.  zf,
    the face roots at t that a step handed on, is solved cold when None; the
    stage's face roots are warm-started from it, as the stage's cell roots
    are from der0.Z."""
    R, Q, m = st
    der0 = derive(st, t, EXPS)
    forcing0 = forcing1 = zf1 = None
    if sol is not None:
        zf0 = _ref_face_roots(sol, grid, t) if zf is None else zf
        forcing0 = sol.cell_averages(grid, t, zf0)
    dR, dQ, dm = _ref_rhs(R, Q, m, der0, grid, sch, forcing0, flux_sign)
    R1, Q1 = _ref_clip(R + dt * dR), _ref_clip(Q + dt * dQ)
    m1 = m + dt * dm
    der1 = derive(np.array((R1, Q1, m1)), t + dt, EXPS, z0=der0.Z)
    if sol is not None:
        zf1 = _ref_face_roots(sol, grid, t + dt, zf0)
        forcing1 = sol.cell_averages(grid, t + dt, zf1)
    dR1, dQ1, dm1 = _ref_rhs(R1, Q1, m1, der1, grid, sch, forcing1, flux_sign)
    R2, Q2 = (_ref_clip(0.5 * (a + a1 + dt * da)) for a, a1, da in ((R, R1, dR1), (Q, Q1, dQ1)))
    return (R2, Q2, 0.5 * (m + m1 + dt * dm1)), zf1


def _tricky_state(grid):
    # velocities of both signs, negative wall momentum, a resting patch and a
    # face where opposite velocities cancel to an exact zero
    x = grid.x
    R = 1.5 + 0.3 * np.sin(2 * np.pi * x)
    Q = 1.2 + 0.2 * np.cos(4 * np.pi * x)
    u = 0.4 * np.sin(2 * np.pi * x + 3.5)
    u[10:14] = 0.0
    u[20], u[21] = 0.3, -0.3
    return np.array((R, Q, (R + Q) * u))


def _same_bits(a, b):
    return np.array_equal(a, b) and np.asarray(a).tobytes() == np.asarray(b).tobytes()


@pytest.mark.parametrize("integrator", [solver.SSPRK2])
@pytest.mark.parametrize("forced", [False, True])
@pytest.mark.parametrize("flux_sign", [1.0, -1.0])
@pytest.mark.parametrize("bc", [PERIODIC, NOSLIP])
def test_fused_step_is_bit_identical_to_per_equation_reference(
    monkeypatch, bc, flux_sign, forced, integrator
):
    # flux_sign = -1 steps with the negative control of acceptance criterion
    # 5 in place of the fused rhs: the step around it must give the
    # per-equation scheme with its advection flipped
    if flux_sign < 0.0:
        monkeypatch.setattr(solver, "_rhs", flipped_advection_rhs)
    grid = Grid1D(32, 1.0, bc=bc)
    st = _tricky_state(grid)
    sch = scheme(integrator=integrator)
    sol = ManufacturedSolution(EXPS, nu_eff=0.2) if forced else None
    d = derive(st, 0.0, EXPS)
    dt, speed_max = compute_dt(d.rho, d.u, d.Z, solver._Workspace(grid, sch, EXPS))
    dt *= 0.5
    new, (_, _, _, dissipation, _) = step_from(st, grid, sch, dt, d, forcing=sol)
    (R, Q, m), _ = _ref_step(st, 0.0, grid, sch, sol, dt, flux_sign)
    assert _same_bits(new[0], R)
    assert _same_bits(new[1], Q)
    assert _same_bits(new[2], m)
    g = _ref_velocity_face_gradient(d.u, grid)
    assert dissipation == dt * float(sch.nu_eff * np.sum(g * g) * grid.dx)
    assert speed_max == float(np.max(np.abs(d.u) + np.sqrt(3.0 * np.power(d.Z, 2.0))))


def _ref_snapshots(cfg, dts):
    """The snapshots of the per-equation scheme stepped from cfg's initial
    state with the step sizes dts, as (t, state) pairs; a step of exactly
    the time left to a snapshot lands on it.  Each step hands its stage's
    face roots on to the next, except across a landing that moved t."""
    grid = cfg.grid()
    sol = cfg.manufactured() if cfg.mms_enabled else None
    st, t = cfg.initial_state(grid), 0.0
    snaps, targets = [(t, st)], iter(cfg.snapshot_times()[1:])
    target = next(targets)
    zf = None
    for dt in dts:
        rows, zf = _ref_step(st, t, grid, cfg, sol, dt, 1.0, zf)
        t1 = t + dt
        if dt == target - t and t1 != target:
            t1, zf = target, None
        st, t = np.array(rows), t1
        if t == target:
            snaps.append((t, st))
            target = next(targets, None)
    return snaps


@pytest.mark.parametrize("integrator", [solver.SSPRK2])
@pytest.mark.parametrize("forced", [False, True])
@pytest.mark.parametrize("bc", [PERIODIC, NOSLIP])
def test_run_snapshots_are_bit_identical_to_per_equation_steps(
    run_collecting, bc, forced, integrator
):
    # the run's buffers, ghost fills, admission checks and handed-on stage
    # roots and forcings give the per-equation scheme, step after step
    cfg = base_cfg(bc=bc, integrator=integrator, t_end=0.1, n_snapshots=7, mms_enabled=forced)
    traj, records = run_collecting(cfg)
    assert traj.n_steps > 60
    want = _ref_snapshots(cfg, traj.dt_history.tolist())
    assert [d.t for d in records] == [t for t, _ in want] == cfg.snapshot_times()
    assert [d.t for d in records] == traj.times
    for k, (got, (_, ref)) in enumerate(zip(records, want, strict=True)):
        assert _same_bits(got.V[:3], ref)
        assert traj.masses[k] == total_mass(got, traj.grid)


@pytest.mark.parametrize("bc", [PERIODIC, NOSLIP])
def test_ghost_cell_stencils_are_bit_identical_to_reference(bc):
    grid = Grid1D(32, 1.0, bc=bc)
    st = _tricky_state(grid)
    d = derive(st, 0.0, EXPS)
    u = d.u
    # the divergence that drives the fraction diagnostic, from a loaded buffer
    ws = loaded(d, grid, scheme())
    div_u = solver._divergence(ws.W, ws)
    assert _same_bits(div_u, _ref_divergence(u, grid))
    g, g_ref = velocity_face_gradient(u, grid), _ref_velocity_face_gradient(u, grid)
    assert g.shape == g_ref.shape == (grid.n_faces,)
    assert np.array_equal(g, g_ref)  # a zero wall gradient may differ in sign only
    a = np.clip(d.alpha + 0.05 * np.cos(6 * np.pi * grid.x), 0.0, 1.0)
    new, _ = alpha_diagnostic_step(a, u, div_u, 2.0, 1e-3, grid)
    assert _same_bits(new, _ref_alpha_step(a, u, div_u, 2.0, 1e-3, grid))


# alpha diagnostic -------------------------------------------------------------


def test_alpha_diagnostic_fixed_points():
    grid = Grid1D(32, 1.0)
    u = np.sin(2 * np.pi * grid.x)
    div_u = _ref_divergence(u, grid)
    for a0 in (0.0, 1.0):
        a = np.full(32, a0)
        new, clamps = alpha_diagnostic_step(a, u, div_u, 2.0, 1e-3, grid)
        assert np.array_equal(new, a)
        assert clamps == 0


def test_alpha_diagnostic_divergence_free_uniform():
    grid = Grid1D(32, 1.0)
    a = np.full(32, 0.37)
    u = np.full(32, 0.9)  # constant velocity: div u = 0
    new, clamps = alpha_diagnostic_step(a, u, _ref_divergence(u, grid), 2.0, 1e-3, grid)
    assert np.allclose(new, a, atol=1e-16)
    assert clamps == 0


def test_alpha_diagnostic_clamps_counted():
    grid = Grid1D(32, 1.0)
    a = np.full(32, 0.6)  # near the maximum of the compression coefficient
    u = np.zeros(32)
    div_u = np.full(32, -50.0)  # strong compression pushes alpha above 1
    new, clamps = alpha_diagnostic_step(a, u, div_u, 2.0, 0.1, grid)
    assert clamps > 0
    assert np.all(new <= 1.0)


def test_alpha_diagnostic_clip_matches_reference_bitwise():
    grid = Grid1D(32, 1.0)
    a = np.full(32, 0.4)
    a[3] = -0.0  # np.clip keeps a negative zero, so the in-range path must too
    u = np.zeros(32)
    still = np.zeros(32)
    expand = still.copy()
    expand[10:12] = 50.0  # strong expansion drives alpha below 0 in two cells
    for div_u, want_clamps in ((still, 0), (expand, 2)):
        new, clamps = alpha_diagnostic_step(a, u, div_u, 2.0, 0.1, grid)
        assert clamps == want_clamps
        assert _same_bits(new, _ref_alpha_step(a, u, div_u, 2.0, 0.1, grid))
    assert np.signbit(new[3]) and new.min() == 0.0


# run ---------------------------------------------------------------------------


def base_cfg(**kw):
    d = dict(
        n=64,
        gamma_plus=3.0,
        gamma_minus=1.5,
        mu=0.1,
        t_end=0.02,
        n_snapshots=3,
        r_init=ProfileSpec(preset="sine", base=1.5, amplitude=0.3),
        q_init=ProfileSpec(preset="sine", base=1.5, amplitude=-0.2, waves=2.0),
        u_init=ProfileSpec(preset="sine", base=0.0, amplitude=0.2),
    )
    d.update(kw)
    return SimConfig(**d)


def test_run_zero_t_end_single_snapshot(run_collecting):
    traj, states = run_collecting(base_cfg(t_end=0.0))
    assert traj.times == [0.0]
    assert len(states) == 1
    assert traj.n_steps == 0


def test_run_snapshot_times_exact(run_collecting):
    traj, states = run_collecting(base_cfg())
    want = [0.02 * i / 2 for i in range(3)]
    assert traj.times == want
    assert [s.t for s in states] == want


def test_run_deterministic_repeat(run_collecting):
    t1, states1 = run_collecting(base_cfg())
    t2, states2 = run_collecting(base_cfg())
    for s1, s2 in zip(states1, states2):
        assert np.array_equal(s1.R, s2.R)
        assert np.array_equal(s1.Q, s2.Q)
        assert np.array_equal(s1.m, s2.m)
    assert np.array_equal(t1.dt_history, t2.dt_history)


def test_run_mass_conservation_gaussian_bump(run_collecting):
    cfg = base_cfg(
        t_end=0.05,
        r_init=ProfileSpec(preset="gaussian_bump", base=1.0, amplitude=0.5, center=0.5, width=0.1),
        q_init=ProfileSpec(preset="gaussian_bump", base=1.0, amplitude=0.3, center=0.4, width=0.12),
        u_init=ProfileSpec(preset="uniform", value=0.0),
    )
    traj, states = run_collecting(cfg)
    m0 = total_mass(states[0], traj.grid)
    for s in states[1:]:
        m = total_mass(s, traj.grid)
        assert m[0] == pytest.approx(m0[0], rel=1e-13)
        assert m[1] == pytest.approx(m0[1], rel=1e-13)


def test_run_all_vacuum_raises_zero_dt():
    cfg = base_cfg(
        r_init=ProfileSpec(preset="uniform", value=0.0),
        q_init=ProfileSpec(preset="uniform", value=0.0),
        u_init=ProfileSpec(preset="uniform", value=0.0),
    )
    with pytest.raises(ZeroDtError):
        run(cfg)


def test_run_tracks_alpha_diagnostic(run_collecting):
    # with t_end = 0 the only snapshot is the initial state, so the
    # transported fraction is the closure fraction it started from
    traj, derived = run_collecting(base_cfg(track_alpha=True, t_end=0.0))
    assert traj.alpha_transported is not None
    assert len(derived) == 1
    a0 = derived[0].alpha
    assert np.array_equal(traj.alpha_transported, a0)


@pytest.mark.parametrize("track", [True, False])
def test_run_derives_each_snapshot_state_once(monkeypatch, run_collecting, track):
    # a run derives the states it hands on as snapshots, once each; every
    # other state and every stage stays in its buffers and never goes
    # through derive, and the diagnostic reuses the initial derive
    calls, made = [], []
    real = solver.derive

    def spy(U, t, *args, **kwargs):
        calls.append((U, t))
        made.append(real(U, t, *args, **kwargs))
        return made[-1]

    monkeypatch.setattr(solver, "derive", spy)
    traj, derived = run_collecting(base_cfg(track_alpha=track))
    assert traj.n_steps > len(derived) == 3
    assert len(calls) == len(derived)
    assert len({id(U) for U, _ in calls}) == len(calls)  # no state is derived twice
    # the consumer receives the run's own derives of its snapshot states,
    # in snapshot order, each once
    assert all(m is d for m, d in zip(made, derived))
    for (U, t), der in zip(calls, derived):
        assert t == der.t and _same_bits(U, der.V[:3])
    assert (traj.alpha_transported is not None) == track
    assert (traj.alpha_clamps is not None) == track
    # tracking the diagnostic leaves the trajectory bit-identical
    monkeypatch.undo()
    _, other = run_collecting(base_cfg(track_alpha=not track))
    for d1, d2 in zip(derived, other, strict=True):
        assert _same_bits(d1.V[:3], d2.V[:3])


def test_run_keeps_no_snapshot_state_while_its_consumer_runs(monkeypatch):
    # a snapshot leaves the run as its record alone: the state array the
    # run derives the record from (the initial state, then a copy out of its
    # buffer) is gone before the consumer sees the record
    built = []
    real = solver.derive

    def spy(U, *args, **kwargs):
        built.append(weakref.ref(U))
        return real(U, *args, **kwargs)

    monkeypatch.setattr(solver, "derive", spy)
    alive = []
    traj = run(
        base_cfg(n_snapshots=4),
        on_snapshot=lambda der: alive.append(sum(r() is not None for r in built)),
    )
    assert len(built) == len(traj.times) == 4  # one per snapshot
    assert alive == [0, 0, 0, 0]


@pytest.mark.parametrize("gamma_minus", [1.5, 1.4])
def test_run_derived_fields_match_a_cold_derive(run_collecting, gamma_minus):
    # the run's derives are warm-started; gamma = 2 has a closed form that
    # ignores the start, other exponents converge to within the tolerance
    cfg = base_cfg(gamma_minus=gamma_minus, n_snapshots=5)
    traj, derived = run_collecting(cfg)
    exps = cfg.exponents()
    assert len(derived) == 5
    for der in derived:
        cold = derive(der.V[:3], der.t, exps)
        if exps.gamma == 2.0:
            for name in ("Z", "p", "u", "alpha", "rho_minus"):
                assert _same_bits(getattr(der, name), getattr(cold, name)), name
        else:
            assert np.max(np.abs(der.Z - cold.Z) / cold.Z) <= CLOSURE_TOL
            assert _same_bits(der.u, cold.u)


def test_run_stage_blow_up_names_the_step():
    cfg = base_cfg(
        mu=0.0,
        allow_inviscid=True,
        t_end=1e-150,
        n_snapshots=2,
        u_init=ProfileSpec(preset="sine", base=0.0, amplitude=1e155),
    )
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFiniteStateError) as exc:
        run(cfg)
    assert exc.value.step == 1
    assert 0.0 < exc.value.t <= 1e-150
    assert exc.value.cells and all(0 <= c < cfg.n for c in exc.value.cells)


def test_run_stops_at_the_step_budget_before_stepping_past_it(monkeypatch):
    calls = []
    real_step = solver.step

    def spy(*args, **kwargs):
        calls.append(args)
        return real_step(*args, **kwargs)

    monkeypatch.setattr(solver, "step", spy)
    monkeypatch.setattr(solver, "MAX_STEPS", 5)
    with pytest.raises(RuntimeError, match=r"step budget of 5 exhausted at t=\S+, before step 6"):
        run(base_cfg())
    assert len(calls) == 5


def test_run_starts_from_a_given_initial_state(run_collecting, spy_calls):
    cfg = base_cfg()
    initial = cfg.initial_state(cfg.grid())
    derives = spy_calls(solver.derive)
    _, states = run_collecting(cfg, initial=initial)
    assert derives[0][0] is initial
    for s1, s2 in zip(states, run_collecting(cfg)[1], strict=True):
        assert _same_bits(s1.V[:3], s2.V[:3])


def test_run_noslip_end_to_end(run_collecting):
    cfg = base_cfg(
        bc=NOSLIP,
        u_init=ProfileSpec(preset="uniform", value=0.0),
        r_init=ProfileSpec(preset="gaussian_bump", base=1.0, amplitude=0.4, center=0.5, width=0.1),
        q_init=ProfileSpec(preset="uniform", value=1.0),
    )
    traj, states = run_collecting(cfg)
    m0 = total_mass(states[0], traj.grid)
    mE = total_mass(states[-1], traj.grid)
    assert mE[0] == pytest.approx(m0[0], rel=1e-13)
    assert mE[1] == pytest.approx(m0[1], rel=1e-13)


MEMORY_N = 512


def _run_peak_bytes(snapshots):
    """tracemalloc peak of a run at MEMORY_N cells whose consumer keeps nothing."""
    import tracemalloc

    cfg = base_cfg(n=MEMORY_N, t_end=0.002, n_snapshots=snapshots, track_alpha=True)
    tracemalloc.start()
    try:
        run(cfg, on_snapshot=lambda der: None)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_run_memory_does_not_grow_with_its_snapshots():
    # the run keeps only scalars per snapshot; collecting each snapshot's
    # state and derived fields grew by about 8 arrays per snapshot
    _run_peak_bytes(3)  # first-call caches out of the measurement
    growth = _run_peak_bytes(51) - _run_peak_bytes(11)
    assert growth < 5 * 8 * MEMORY_N


# manufactured forcing handed on between steps -----------------------------------


@dataclasses.dataclass
class UnevenSnapshots(SimConfig):
    """A config with an explicit snapshot grid."""

    snaps: tuple = ()

    def snapshot_times(self):
        return list(self.snaps)


def mms_cfg(**kw):
    d = dict(n=32, gamma_minus=1.4, mu=0.02, t_end=0.01, n_snapshots=4, mms_enabled=True)
    d.update(kw)
    return (UnevenSnapshots if "snaps" in kw else SimConfig)(**d)


# 0.0011 + (0.0031 - 0.0011) != 0.0031: the one step from the first snapshot
# to the second lands at a time that differs from the snapshot time
SHIFTING_SNAPS = (0.0, 0.0011, 0.0031, 0.01)


def _ref_run(cfg):
    """run with every step evaluating its own forcing at its start time from
    the face roots the last step handed on (cold after a landing that moved
    t), and with its stage's closure and face roots warm-started from the
    roots at its start time extrapolated with those of the last time level
    (Z + r (Z - Z_last), r = min(dt / dt_last, 100); not extrapolated on the
    first step and after a landing that moved t); returns (trajectory (t,
    state) pairs, dt history, landings that moved t)."""
    grid, exps, sol = cfg.grid(), cfg.exponents(), cfg.manufactured()
    t, state = 0.0, cfg.initial_state(grid)
    snaps, dts, shifted, z, zf, last = [(t, state)], [], 0, None, None, None
    for target in cfg.snapshot_times()[1:]:
        while t < target:
            d = derive(state, t, exps, z0=z)
            remaining = target - t
            dt = min(stable_dt(d, grid, cfg, exps), remaining)
            if zf is None:
                zf, _ = solve_closure_batch(*sol.face_masses(grid, t), exps.gamma)
            roots = np.concatenate((d.Z, zf))
            z0 = roots
            if last is not None:
                r = min(dt / dts[-1], solver._RATIO_MAX)
                z0 = roots + r * (roots - last)
            ws = loaded(d, grid, cfg, exps)
            rep = step(ws, t, dt, z0, (sol.cell_averages(grid, t, zf), zf), sol)
            state, last = ws.W.U.copy(), roots
            z, zf = rep[0], rep[1][1]  # the stage's closure roots, cells and faces
            dts.append(dt)
            t += dt
            if dt == remaining:
                shifted += t != target
                if t != target:
                    zf = last = None
                t = target
        snaps.append((t, state))
    return snaps, dts, shifted


@pytest.mark.parametrize(
    "kw", [dict(bc=PERIODIC), dict(bc=NOSLIP), dict(bc=PERIODIC, snaps=SHIFTING_SNAPS)]
)
def test_forced_run_is_bit_identical_to_fresh_forcing_every_step(run_collecting, kw):
    cfg = mms_cfg(**kw)
    traj, got_states = run_collecting(cfg)
    states, dts, shifted = _ref_run(cfg)
    assert shifted == ("snaps" in kw)  # a landing that moved t: its successor recomputes
    assert _same_bits(traj.dt_history, np.asarray(dts))
    assert [s.t for s in got_states] == [t for t, _ in states]
    for got, (_, want) in zip(got_states, states, strict=True):
        assert _same_bits(got.V[:3], want)


def _spy_cell_averages(monkeypatch):
    calls = []
    real = ManufacturedSolution.cell_averages

    def spy(self, grid, t, Zf):
        calls.append((grid, t))
        return real(self, grid, t, Zf)

    monkeypatch.setattr(ManufacturedSolution, "cell_averages", spy)
    return calls


def test_forced_ssprk2_run_evaluates_the_forcing_once_per_time_level(monkeypatch):
    calls = _spy_cell_averages(monkeypatch)
    traj = run(mms_cfg(snaps=SHIFTING_SNAPS))
    assert max(Counter(calls).values()) == 1
    # the landing's stage time and the snapshot time it was moved to
    a, b = SHIFTING_SNAPS[1:3]
    assert {a + (b - a), b} <= {t for _, t in calls}
    # one evaluation per step, the first, and at most one after each landing
    assert traj.n_steps < len(calls) <= traj.n_steps + len(traj.times) - 1


def _spy_closure_kernel(monkeypatch):
    """The sizes of the batches that the closure kernel solves."""
    sizes = []
    real = closure.solve_closure_batch

    def spy(R, *args):
        sizes.append(R.size)
        return real(R, *args)

    monkeypatch.setattr(closure, "solve_closure_batch", spy)
    return sizes


NEWTON_EXPS = ExponentPair(3.0, 1.4)  # gamma ~ 2.14: every closure root is a Newton root


@pytest.mark.parametrize("bc", [PERIODIC, NOSLIP])
def test_forced_step_solves_stage_and_faces_in_one_call_as_apart(monkeypatch, bc):
    grid = Grid1D(32, 1.0, bc=bc)
    sol = ManufacturedSolution(NEWTON_EXPS, nu_eff=0.2)
    t = 0.3
    d = derive(sol.state(grid, t), t, NEWTON_EXPS)
    sch = scheme()
    dt = 0.5 * stable_dt(d, grid, sch, NEWTON_EXPS)
    zf0, _ = solve_closure_batch(*sol.face_masses(grid, t), NEWTON_EXPS.gamma)
    ws = loaded(d, grid, sch, NEWTON_EXPS)
    sizes = _spy_closure_kernel(monkeypatch)
    forcing0 = (sol.cell_averages(grid, t, zf0), zf0)
    z0 = np.concatenate((d.Z, zf0))
    stage_Z, (forcing1, zf1), iters, _, _ = step(ws, t, dt, z0, forcing0, sol)
    assert sizes == [2 * grid.n + 1]  # one kernel call: the n cells and n + 1 faces
    monkeypatch.undo()
    # the stage's roots, pressure and velocity are those of its own solve
    apart = derive(ws.S.U.copy(), t + dt, NEWTON_EXPS, z0=d.Z)
    assert _same_bits(stage_Z, apart.Z)
    assert _same_bits(ws.S.p, apart.p) and _same_bits(ws.S.u, apart.u)
    # the face roots are those of their own solve from the handed-on roots,
    # and within the closure tolerance of a cold solve
    Rf, Qf = sol.face_masses(grid, apart.t)
    warm, warm_iters = solve_closure_batch(Rf, Qf, NEWTON_EXPS.gamma, zf0)
    assert _same_bits(zf1, warm)
    assert iters == max(apart.closure_iterations, warm_iters)
    cold, cold_iters = solve_closure_batch(Rf, Qf, NEWTON_EXPS.gamma)
    assert np.max(np.abs(zf1 - cold) / cold) <= 2.0 * CLOSURE_TOL
    assert warm_iters < cold_iters
    assert _same_bits(forcing1, sol.cell_averages(grid, apart.t, zf1))


# the benchmark's mms_newton workload, input variant 0, at n = 16
MMS_NEWTON_16 = """\
[exponents]
gamma_plus = 3.0
gamma_minus = 1.4
[viscosity]
mu = 0.02
[grid]
n = 16
[time]
t_end = 0.05
n_snapshots = 2
[mms]
enabled = true
b = 0.245
d = 0.245
"""


def test_forced_run_solves_the_closure_once_per_stage(monkeypatch):
    cfg, _ = validate_config(MMS_NEWTON_16)
    sizes = _spy_closure_kernel(monkeypatch)
    traj = run(cfg)
    assert traj.n_steps == 4
    # the initial state, the first step's cold faces, then per step the
    # stage with the faces and the state after it (the last one a snapshot);
    # solved apart, the stages and forcings took 14 calls
    n = 16
    assert sizes == [n, n + 1] + [2 * n + 1, n] * 4


@pytest.mark.parametrize(
    "cfg",
    [mms_cfg(n=256, t_end=0.05), base_cfg(n=256, gamma_minus=1.4)],
    ids=["forced", "unforced"],
)
def test_stage_solve_with_a_two_level_history_takes_two_evaluations(monkeypatch, cfg):
    # the stage's warm start extrapolates the roots of the last two time
    # levels: one untested Newton step and one tested iterate converge.
    # From the roots at t alone (the first step) the solve takes three.
    # The iterations are the kernel's, of the one call each step makes
    kernel, stages = [], []
    real_kernel, real_step = closure.solve_closure_batch, solver.step

    def kernel_spy(*args):
        Z, iters = real_kernel(*args)
        kernel.append(iters)
        return Z, iters

    def step_spy(ws, t, dt, *args):
        calls = len(kernel)
        out = real_step(ws, t, dt, *args)
        assert len(kernel) == calls + 1
        stages.append((t, dt, kernel[-1]))
        return out

    monkeypatch.setattr(closure, "solve_closure_batch", kernel_spy)
    monkeypatch.setattr(solver, "step", step_spy)
    run(cfg)
    iters = [it for _, _, it in stages]
    # a step has a two-level history unless it is the first or follows a
    # landing that moved t
    history = [False] + [t0 + dt0 == t for (t0, dt0, _), (t, _, _) in zip(stages, stages[1:])]
    assert iters[0] == 3 and not history[0]
    assert all(it <= 2 for it, h in zip(iters, history) if h)
    # the step after a landing step, longer than it, is among them
    assert any(h and stages[k][1] > stages[k - 1][1] for k, h in enumerate(history))


def _huge_roots_cfg(gamma_minus, snaps):
    """An unforced run whose closure roots lie near 1e100, at gamma_plus =
    1.1: the sound speed is about 1e5 and a step about 5e-7 long."""
    gamma = 1.1 / gamma_minus
    return UnevenSnapshots(
        n=16,
        gamma_plus=1.1,
        gamma_minus=gamma_minus,
        mu=0.1,
        t_end=snaps[-1],
        r_init=ProfileSpec(preset="sine", base=5e99, amplitude=1e99),
        q_init=ProfileSpec(preset="sine", base=5e99**gamma, amplitude=-(1e99**gamma), waves=2.0),
        u_init=ProfileSpec(preset="sine", base=0.0, amplitude=1e4),
        snaps=snaps,
    )


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("gamma_minus", [1.05, 1.5])
def test_step_after_a_short_landing_extrapolates_huge_roots_cleanly(
    monkeypatch, run_collecting, gamma_minus
):
    # three full steps, a landing step of 1e-13 on a snapshot, then full
    # steps about 5e6 times as long, which clamp their extrapolation
    dts = run(_huge_roots_cfg(gamma_minus, (0.0, 1e-5))).dt_history
    t3 = (dts[0] + dts[1]) + dts[2]
    # t_land - t3 is exact (Sterbenz), so t3 + (t_land - t3) is t_land:
    # the landing keeps t, and the next step extrapolates
    t_land = t3 + 1e-13
    cfg = _huge_roots_cfg(gamma_minus, (0.0, t_land, t_land + 1e-5))
    worst = []
    real = closure.solve_closure_batch

    def spy(R, Q, gamma, z0=None):
        Z, iters = real(R, Q, gamma, z0)
        if z0 is not None:
            cold, _ = real(R, Q, gamma)
            worst.append(float(np.max(np.abs(Z - cold) / cold)))
        return Z, iters

    monkeypatch.setattr(closure, "solve_closure_batch", spy)
    traj, records = run_collecting(cfg)
    dts = traj.dt_history
    assert dts[3] == pytest.approx(1e-13, rel=1e-3) and dts[4] > 1e6 * dts[3]
    assert traj.times == [0.0, t_land, t_land + 1e-5]
    assert 1e99 < min(float(np.min(d.Z)) for d in records)
    assert max(float(np.max(d.Z)) for d in records) < 1e101
    assert worst and max(worst) <= 2.0 * CLOSURE_TOL


# MMS_NEWTON_16 calls the closure kernel for the initial derive (call 1),
# the first step's cold faces (2), then per step the stage with its faces
# (3, 5, 7, 9) and the state after it (4, 6, 8), the last one the snapshot's
# derive (10); compute_dt once before each step.  A located error reached
# the state after k steps ("reached", k) or was taking step k ("step", k).
@pytest.mark.parametrize(
    "fails, call, where",
    [
        ("kernel", 1, ("reached", 0)),  # the initial derive
        ("kernel", 4, ("reached", 1)),  # the close between steps
        ("compute_dt", 3, ("reached", 2)),  # ZeroDtError
        ("kernel", 2, ("step", 1)),  # the forcing's faces
        ("kernel", 5, ("step", 2)),  # a stage, with the forcing's faces
        ("kernel", 10, ("reached", 4)),  # the snapshot's derive
        ("consumer", 2, None),  # the consumer's own error is not located
    ],
)
def test_run_locates_a_cell_error_where_it_stops(monkeypatch, fails, call, where):
    cfg, _ = validate_config(MMS_NEWTON_16)
    dts = run(cfg).dt_history.tolist()
    ts = [0.0]
    for dt in dts:
        ts.append(ts[-1] + dt)
    ts[-1] = cfg.t_end  # the last step lands on the snapshot
    calls = []

    def failing(real, error):
        def spy(*args, **kwargs):
            calls.append(None)
            if len(calls) == call:
                raise error("injected", cells=[0])
            return real(*args, **kwargs)

        return spy

    on_snapshot = solver._discard
    if fails == "kernel":
        spy = failing(closure.solve_closure_batch, closure.MaxIterExceededError)
        monkeypatch.setattr(closure, "solve_closure_batch", spy)
    elif fails == "compute_dt":
        monkeypatch.setattr(solver, "compute_dt", failing(solver.compute_dt, ZeroDtError))
    else:
        on_snapshot = failing(solver._discard, closure.CellError)
    with pytest.raises(closure.CellError, match="^injected$") as exc:
        run(cfg, on_snapshot=on_snapshot)
    got = (exc.value.t, exc.value.step, exc.value.dt)
    if where is None:
        assert got == (None, None, None)
    elif where[0] == "reached":
        k = where[1]
        assert got == (ts[k], k + 1, dts[k - 1] if k else None)
    else:  # the step's own t + dt, not moved onto the snapshot time
        k = where[1]
        assert got == (ts[k - 1] + dts[k - 1], k, dts[k - 1])


@pytest.mark.parametrize("stage_fails", [True, False])
def test_joint_closure_error_names_the_stage_cells_first_then_the_faces(
    monkeypatch, stage_fails
):
    grid = Grid1D(16, 1.0)
    sol = ManufacturedSolution(NEWTON_EXPS, nu_eff=0.2)
    st = sol.state(grid, 0.0)
    d = derive(st, 0.0, NEWTON_EXPS)
    ws = loaded(d, grid, scheme(), NEWTON_EXPS)
    Rf, Qf = sol.face_masses(grid, 0.2)
    zf0 = np.full(grid.n + 1, 1e3)  # a poor start, clipped to the bracket
    # from their own roots the cells converge at the first tested iterate,
    # the second evaluation; from a poor start they cannot
    z0 = np.full(grid.n, 1e3) if stage_fails else d.Z
    monkeypatch.setattr(closure, "CLOSURE_MAX_ITER", 2)
    with pytest.raises(closure.MaxIterExceededError) as joint:
        solver._close(ws.W, ws, np.concatenate((z0, zf0)), faces=(Rf, Qf))
    with pytest.raises(closure.MaxIterExceededError) as apart:
        if stage_fails:
            solve_closure_batch(st[0], st[1], NEWTON_EXPS.gamma, z0)
        else:
            solve_closure_batch(Rf, Qf, NEWTON_EXPS.gamma, zf0)
    assert joint.value.cells == apart.value.cells
    assert str(joint.value) == str(apart.value)
    assert max(joint.value.cells) == (grid.n - 1 if stage_fails else grid.n)


@pytest.mark.parametrize("kw", [dict(a=np.inf), dict(d=np.nan), dict(c=1e308, d=1e308)])
def test_manufactured_masses_must_stay_finite(kw):
    # the forcing's closure solve trusts R and Q to be finite
    with pytest.raises(ValueError, match="finite"):
        ManufacturedSolution(EXPS, nu_eff=0.2, **kw)


def test_handed_on_forcing_is_read_only():
    grid = Grid1D(32, 1.0)
    sol = ManufacturedSolution(EXPS, nu_eff=0.2)
    st = sol.state(grid, 0.0)
    _, (_, (averages, face_Z), _, _, _) = step_from(st, grid, scheme(), 1e-4, forcing=sol)
    assert averages.shape == (3, 32) and face_Z.shape == (33,)
    with pytest.raises(ValueError):
        averages[2, 0] += 1.0
    with pytest.raises(ValueError):
        face_Z[0] += 1.0
    assert step_from(st, grid, scheme(), 1e-4)[1][1] is None  # unforced
