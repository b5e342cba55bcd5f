import dataclasses
import math
from collections import Counter

import numpy as np
import pytest

from bifluid.closure import ExponentPair, omega_of_alpha
from bifluid.config import ProfileSpec, SimConfig
from bifluid.fields import NOSLIP, PERIODIC, FieldState, Grid1D, derive, total_mass
from bifluid.mms import ManufacturedSolution
from bifluid.solver import (
    NonFiniteStateError,
    PositivityLossError,
    SchemeConfig,
    ZeroDtError,
    alpha_diagnostic_step,
    compute_dt,
    run,
    step,
    velocity_face_gradient,
)

EXPS = ExponentPair(3.0, 1.5)


def scheme(**kw):
    base = dict(mu=0.1, lam=0.0, cfl=0.9)
    base.update(kw)
    return SchemeConfig(**base)


def make_state(n, R, Q, u, t=0.0):
    R = np.asarray(R, float) * np.ones(n)
    Q = np.asarray(Q, float) * np.ones(n)
    u = np.asarray(u, float) * np.ones(n)
    return FieldState(t=t, R=R, Q=Q, m=(R + Q) * u)


def sine_state(grid, base=1.5, amp=0.3, uamp=0.2):
    x = grid.x
    R = base + amp * np.sin(2 * np.pi * x / grid.length)
    Q = base - amp * np.cos(2 * np.pi * x / grid.length)
    u = uamp * np.sin(2 * np.pi * x / grid.length)
    return FieldState(t=0.0, R=R, Q=Q, m=(R + Q) * u)


# scheme config ------------------------------------------------------------


def test_scheme_validation():
    with pytest.raises(ValueError):
        scheme(cfl=0.0)
    with pytest.raises(ValueError):
        scheme(cfl=1.5)
    with pytest.raises(ValueError):
        scheme(mu=-0.1)
    with pytest.raises(ValueError):
        scheme(mu=1.0, lam=-1.0)  # 2mu + 3lam < 0
    with pytest.raises(ValueError):
        scheme(mu=0.0)  # inviscid needs the flag
    scheme(mu=0.0, allow_inviscid=True)
    with pytest.raises(ValueError):
        scheme(time_integrator="rk4")
    with pytest.raises(ValueError):
        scheme(flux_sign=0.5)
    assert scheme(mu=0.2, lam=0.1).nu_eff == pytest.approx(0.5)


# compute_dt ----------------------------------------------------------------


def test_compute_dt_advective_example():
    # uniform Z = 2, u = 1, gamma+ = 3, dx = 0.01, inviscid, cfl = 0.5
    grid = Grid1D(100, 1.0)
    st = make_state(100, 1.0, 2.0, 1.0)
    d = derive(st, EXPS)
    sch = scheme(mu=0.0, allow_inviscid=True, cfl=0.5)
    want = 0.5 * 0.01 / (1.0 + math.sqrt(12.0))
    assert compute_dt(d, grid, sch, EXPS) == pytest.approx(want, rel=1e-12)


def test_compute_dt_cfl_linearity():
    grid = Grid1D(64, 1.0)
    d = derive(make_state(64, 1.0, 2.0, 0.5), EXPS)
    dt1 = compute_dt(d, grid, scheme(cfl=0.4), EXPS)
    dt2 = compute_dt(d, grid, scheme(cfl=0.8), EXPS)
    assert dt2 == pytest.approx(2.0 * dt1, rel=1e-14)


def test_compute_dt_viscous_scaling():
    # viscous-dominated bound scales like dx^2
    sch = scheme(mu=5.0)
    d1 = derive(make_state(64, 1.0, 2.0, 0.0), EXPS)
    d2 = derive(make_state(128, 1.0, 2.0, 0.0), EXPS)
    dt1 = compute_dt(d1, Grid1D(64, 1.0), sch, EXPS)
    dt2 = compute_dt(d2, Grid1D(128, 1.0), sch, EXPS)
    assert dt1 == pytest.approx(4.0 * dt2, rel=1e-12)


def test_compute_dt_vacuum():
    d = derive(make_state(16, 0.0, 0.0, 0.0), EXPS)
    with pytest.raises(ZeroDtError):
        compute_dt(d, Grid1D(16, 1.0), scheme(), EXPS)


# step ------------------------------------------------------------------------


def test_constant_state_is_exact_fixed_point_periodic():
    grid = Grid1D(32, 1.0)
    st = make_state(32, 1.0, 2.0, 0.7)
    for integ in ("forward_euler", "ssprk2"):
        new, rep = step(st, grid, scheme(time_integrator=integ), EXPS, dt=1e-3)
        assert np.array_equal(new.R, st.R)
        assert np.array_equal(new.Q, st.Q)
        assert np.array_equal(new.m, st.m)
        assert rep.positivity_clips == 0


def test_zero_velocity_masses_frozen_momentum_gets_pressure_push():
    grid = Grid1D(32, 1.0)
    x = grid.x
    R = 1.0 + 0.3 * np.sin(2 * np.pi * x)
    Q = 1.2 + 0.2 * np.cos(2 * np.pi * x)
    st = FieldState(0.0, R, Q, np.zeros(32))
    sch = scheme(time_integrator="forward_euler")
    dt = 1e-4
    new, _ = step(st, grid, sch, EXPS, dt)
    assert np.array_equal(new.R, st.R)
    assert np.array_equal(new.Q, st.Q)
    d = derive(st, EXPS)
    grad_p = (np.roll(d.p, -1) - np.roll(d.p, 1)) / (2 * grid.dx)
    assert np.allclose(new.m, -dt * grad_p, rtol=0, atol=1e-18)


def test_step_report_fields():
    grid = Grid1D(32, 1.0)
    st = sine_state(grid)
    d = derive(st, EXPS)
    sch = scheme()
    dt = compute_dt(d, grid, sch, EXPS)
    new, rep = step(st, grid, sch, EXPS, dt, derived=d)
    assert rep.dt == dt
    assert rep.max_wave_speed == pytest.approx(float(np.max(np.abs(d.u) + np.sqrt(3.0 * d.Z**2))), rel=1e-12)
    assert rep.dissipation >= 0.0
    assert new.t == pytest.approx(st.t + dt)


def test_positivity_strict_raises_exploratory_clips():
    grid = Grid1D(8, 1.0)
    R = np.ones(8)
    Q = np.ones(8)
    u = np.zeros(8)
    u[2], u[4] = -2.0, 2.0  # both faces of cell 3 drain it
    st = FieldState(0.0, R, Q, (R + Q) * u)
    # dt far beyond the advective limit empties the cell past zero
    with pytest.raises(PositivityLossError) as exc:
        step(st, grid, scheme(time_integrator="forward_euler"), EXPS, dt=0.5)
    assert "cells [3]" in str(exc.value)  # the failure record names the cell
    assert "t=0.5" in str(exc.value)
    sch = scheme(time_integrator="forward_euler", strict_positivity=False)
    new, rep = step(st, grid, sch, EXPS, dt=0.5)
    assert rep.positivity_clips > 0
    assert (new.R >= 0.0).all()


def test_stage_positivity_loss_raises_before_its_closure_solve(monkeypatch):
    from bifluid import solver

    grid = Grid1D(8, 1.0)
    R, Q, u = np.ones(8), np.ones(8), np.zeros(8)
    u[2], u[4] = -2.0, 2.0  # both faces of cell 3 drain it
    st = FieldState(0.0, R, Q, (R + Q) * u)
    solved = []
    real = solver._closure_fields

    def spy(U, *args):
        # the stage closure trusts its input: finite, with masses >= 0
        assert np.isfinite(U).all() and (U[:2] >= 0.0).all()
        solved.append(U)
        return real(U, *args)

    monkeypatch.setattr(solver, "_closure_fields", spy)
    with pytest.raises(PositivityLossError, match=r"t=0\.5 in cells \[3\]"):
        step(st, grid, scheme(), EXPS, dt=0.5)
    assert solved == []
    _, rep = step(st, grid, scheme(strict_positivity=False), EXPS, dt=0.5)
    assert len(solved) == 1 and rep.positivity_clips > 0


@pytest.mark.parametrize("integrator", ["forward_euler", "ssprk2"])
def test_stage_blow_up_names_time_and_cells(integrator):
    # the momentum flux out of cell 5 overflows; only cells 5 and 6 see it
    grid = Grid1D(16, 1.0)
    R, Q, u = np.ones(16), np.ones(16), np.zeros(16)
    u[5] = 1e155
    st = FieldState(0.25, R, Q, (R + Q) * u)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFiniteStateError) as exc:
        step(st, grid, scheme(time_integrator=integrator), EXPS, dt=1e-160)
    assert exc.value.t == 0.25 + 1e-160
    assert exc.value.cells == [5, 6]
    assert exc.value.step is None  # run adds the step number


def test_conservation_short_run_periodic():
    grid = Grid1D(64, 1.0)
    st = sine_state(grid)
    sch = scheme()
    masses0 = total_mass(st, grid)
    for _ in range(50):
        d = derive(st, EXPS)
        dt = compute_dt(d, grid, sch, EXPS)
        st, _ = step(st, grid, sch, EXPS, dt, derived=d)
    mr, mq = total_mass(st, grid)
    assert mr == pytest.approx(masses0[0], rel=1e-13)
    assert mq == pytest.approx(masses0[1], rel=1e-13)


def test_conservation_noslip_zero_flux_walls():
    grid = Grid1D(64, 1.0, bc=NOSLIP)
    st = sine_state(grid)
    sch = scheme()
    masses0 = total_mass(st, grid)
    for _ in range(50):
        d = derive(st, EXPS)
        dt = compute_dt(d, grid, sch, EXPS)
        st, _ = step(st, grid, sch, EXPS, dt, derived=d)
    mr, mq = total_mass(st, grid)
    assert mr == pytest.approx(masses0[0], rel=1e-13)
    assert mq == pytest.approx(masses0[1], rel=1e-13)


def test_translation_equivariance_bitexact():
    grid = Grid1D(64, 1.0)
    st = sine_state(grid)
    sch = scheme()
    k = 17

    def advance(state, nsteps):
        for _ in range(nsteps):
            d = derive(state, EXPS)
            dt = compute_dt(d, grid, sch, EXPS)
            state, _ = step(state, grid, sch, EXPS, dt, derived=d)
        return state

    shifted = FieldState(0.0, np.roll(st.R, k), np.roll(st.Q, k), np.roll(st.m, k))
    a = advance(shifted, 20)
    b = advance(st, 20)
    assert np.array_equal(a.R, np.roll(b.R, k))
    assert np.array_equal(a.Q, np.roll(b.Q, k))
    assert np.array_equal(a.m, np.roll(b.m, k))


# fused stencils against the per-equation formulas ------------------------------
#
# The reference below is the scheme written one equation at a time with
# np.roll / np.concatenate boundaries.  The fused stacked RHS and the shared
# ghost-cell helper must reproduce it bit for bit, signed zeros included.


def _ref_upwind_divergence(phi, u, grid):
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


def _ref_pressure_gradient(p, grid):
    dx = grid.dx
    if grid.bc == PERIODIC:
        return (np.roll(p, -1) - np.roll(p, 1)) / (2.0 * dx)
    ext = np.concatenate(([p[0]], p, [p[-1]]))
    return (ext[2:] - ext[:-2]) / (2.0 * dx)


def _ref_velocity_laplacian(u, grid):
    dx = grid.dx
    if grid.bc == PERIODIC:
        return (np.roll(u, -1) - 2.0 * u + np.roll(u, 1)) / (dx * dx)
    ext = np.concatenate(([-u[0]], u, [-u[-1]]))
    return (ext[2:] - 2.0 * u + ext[:-2]) / (dx * dx)


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


def _ref_rhs(R, Q, m, der, grid, sch, t):
    s = sch.flux_sign
    dR = -s * _ref_upwind_divergence(R, der.u, grid)
    dQ = -s * _ref_upwind_divergence(Q, der.u, grid)
    dm = (
        -s * _ref_upwind_divergence(m, der.u, grid)
        - _ref_pressure_gradient(der.p, grid)
        + sch.nu_eff * _ref_velocity_laplacian(der.u, grid)
    )
    if sch.forcing is not None:
        fR, fQ, fm = sch.forcing.cell_averages(grid, t)
        dR, dQ, dm = dR + fR, dQ + fQ, dm + fm
    return dR, dQ, dm


def _ref_clip(arr, tol):
    neg = arr < 0.0
    return np.where(neg, 0.0, arr), int(np.count_nonzero(arr < -tol))


def _ref_step(st, grid, sch, dt):
    """One step of the per-equation scheme; returns (R, Q, m, clips)."""
    der0 = derive(st, EXPS)
    dR, dQ, dm = _ref_rhs(st.R, st.Q, st.m, der0, grid, sch, st.t)
    (R1, cR), (Q1, cQ) = (
        _ref_clip(a, sch.positivity_tol) for a in (st.R + dt * dR, st.Q + dt * dQ)
    )
    m1 = st.m + dt * dm
    clips = cR + cQ
    if sch.time_integrator == "forward_euler":
        return R1, Q1, m1, clips
    stage = FieldState(st.t + dt, R1, Q1, m1)
    der1 = derive(stage, EXPS, z0=der0.Z)
    dR1, dQ1, dm1 = _ref_rhs(R1, Q1, m1, der1, grid, sch, stage.t)
    (R2, cR), (Q2, cQ) = (
        _ref_clip(0.5 * (a + a1 + dt * da), sch.positivity_tol)
        for a, a1, da in ((st.R, R1, dR1), (st.Q, Q1, dQ1))
    )
    return R2, Q2, 0.5 * (st.m + m1 + dt * dm1), clips + cR + cQ


def _tricky_state(grid):
    # velocities of both signs, negative wall momentum, a resting patch and a
    # face where opposite velocities cancel to an exact zero
    x = grid.x
    R = 1.5 + 0.3 * np.sin(2 * np.pi * x)
    Q = 1.2 + 0.2 * np.cos(4 * np.pi * x)
    u = 0.4 * np.sin(2 * np.pi * x + 3.5)
    u[10:14] = 0.0
    u[20], u[21] = 0.3, -0.3
    return FieldState(0.0, R, Q, (R + Q) * u)


def _same_bits(a, b):
    return np.array_equal(a, b) and np.asarray(a).tobytes() == np.asarray(b).tobytes()


@pytest.mark.parametrize("integrator", ["forward_euler", "ssprk2"])
@pytest.mark.parametrize("forced", [False, True])
@pytest.mark.parametrize("flux_sign", [1.0, -1.0])
@pytest.mark.parametrize("bc", [PERIODIC, NOSLIP])
def test_fused_step_is_bit_identical_to_per_equation_reference(bc, flux_sign, forced, integrator):
    grid = Grid1D(32, 1.0, bc=bc)
    st = _tricky_state(grid)
    sch = scheme(
        time_integrator=integrator,
        flux_sign=flux_sign,
        strict_positivity=False,
        forcing=ManufacturedSolution(EXPS, nu_eff=0.2) if forced else None,
    )
    d = derive(st, EXPS)
    dt = 0.5 * compute_dt(d, grid, sch, EXPS)
    new, rep = step(st, grid, sch, EXPS, dt, derived=d)
    R, Q, m, clips = _ref_step(st, grid, sch, dt)
    assert _same_bits(new.R, R)
    assert _same_bits(new.Q, Q)
    assert _same_bits(new.m, m)
    assert rep.positivity_clips == clips
    g = _ref_velocity_face_gradient(d.u, grid)
    assert rep.dissipation == dt * float(sch.nu_eff * np.sum(g * g) * grid.dx)
    assert rep.max_wave_speed == float(np.max(np.abs(d.u) + np.sqrt(3.0 * np.power(d.Z, 2.0))))


@pytest.mark.parametrize("bc", [PERIODIC, NOSLIP])
def test_ghost_cell_stencils_are_bit_identical_to_reference(bc):
    grid = Grid1D(32, 1.0, bc=bc)
    st = _tricky_state(grid)
    d = derive(st, EXPS)
    u = d.u
    # the step reports the divergence of its starting velocity
    div_u = step(st, grid, scheme(), EXPS, 1e-4, derived=d)[1].div_u
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


def test_run_zero_t_end_single_snapshot():
    traj = run(base_cfg(t_end=0.0))
    assert traj.times == [0.0]
    assert len(traj.states) == 1
    assert traj.n_steps == 0


def test_run_snapshot_times_exact():
    traj = run(base_cfg())
    want = [0.02 * i / 2 for i in range(3)]
    assert traj.times == want
    assert [s.t for s in traj.states] == want


def test_run_deterministic_repeat():
    t1 = run(base_cfg())
    t2 = run(base_cfg())
    for s1, s2 in zip(t1.states, t2.states):
        assert np.array_equal(s1.R, s2.R)
        assert np.array_equal(s1.Q, s2.Q)
        assert np.array_equal(s1.m, s2.m)
    assert np.array_equal(t1.dt_history, t2.dt_history)


def test_run_mass_conservation_gaussian_bump():
    cfg = base_cfg(
        t_end=0.05,
        r_init=ProfileSpec(preset="gaussian_bump", base=1.0, amplitude=0.5, center=0.5, width=0.1),
        q_init=ProfileSpec(preset="gaussian_bump", base=1.0, amplitude=0.3, center=0.4, width=0.12),
        u_init=ProfileSpec(preset="uniform", value=0.0),
    )
    traj = run(cfg)
    m0 = total_mass(traj.states[0], traj.grid)
    for s in traj.states[1:]:
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


def test_run_tracks_alpha_diagnostic():
    traj = run(base_cfg(track_alpha=True))
    assert traj.alpha_diag is not None
    assert len(traj.alpha_diag) == len(traj.states)
    a0 = traj.derived(0).alpha
    assert np.array_equal(traj.alpha_diag[0], a0)


@pytest.mark.parametrize("track", [True, False])
def test_run_derives_once_per_ssprk2_step(monkeypatch, track):
    # each step derives the state it starts from; its stage is a raw array
    # that never goes through derive, and the diagnostic reuses the first
    from bifluid import solver

    calls = []
    real = solver.derive

    def spy(state, *args, **kwargs):
        calls.append(state)
        return real(state, *args, **kwargs)

    monkeypatch.setattr(solver, "derive", spy)
    traj = run(base_cfg(track_alpha=track))
    assert traj.n_steps > 0
    assert len(calls) == traj.n_steps
    assert calls[0] is traj.states[0]
    assert (traj.alpha_diag is not None) == track
    # tracking the diagnostic leaves the trajectory bit-identical
    monkeypatch.undo()
    other = run(base_cfg(track_alpha=not track))
    for s1, s2 in zip(traj.states, other.states, strict=True):
        assert _same_bits(s1.U, s2.U)


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
    from bifluid import solver

    calls = []
    real_step, real_scheme = solver.step, SimConfig.scheme

    def spy(*args, **kwargs):
        calls.append(args[0].t)
        return real_step(*args, **kwargs)

    monkeypatch.setattr(solver, "step", spy)
    monkeypatch.setattr(
        SimConfig, "scheme", lambda cfg: dataclasses.replace(real_scheme(cfg), max_steps=5)
    )
    with pytest.raises(RuntimeError, match=r"step budget of 5 exhausted at t=\S+, before step 6"):
        run(base_cfg())
    assert len(calls) == 5


def test_run_starts_from_a_given_initial_state():
    cfg = base_cfg()
    initial = cfg.initial_state(cfg.grid())
    traj = run(cfg, initial=initial)
    assert traj.states[0] is initial
    for s1, s2 in zip(traj.states, run(cfg).states, strict=True):
        assert _same_bits(s1.U, s2.U)


def test_run_noslip_end_to_end():
    cfg = base_cfg(
        bc=NOSLIP,
        u_init=ProfileSpec(preset="uniform", value=0.0),
        r_init=ProfileSpec(preset="gaussian_bump", base=1.0, amplitude=0.4, center=0.5, width=0.1),
        q_init=ProfileSpec(preset="uniform", value=1.0),
    )
    traj = run(cfg)
    m0 = total_mass(traj.states[0], traj.grid)
    mE = total_mass(traj.states[-1], traj.grid)
    assert mE[0] == pytest.approx(m0[0], rel=1e-13)
    assert mE[1] == pytest.approx(m0[1], rel=1e-13)
    assert traj.positivity_clips == 0


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
    """run with every step evaluating its own forcing; returns (trajectory
    states, dt history, landings that moved t)."""
    grid, exps, sch = cfg.grid(), cfg.exponents(), cfg.scheme()
    state = cfg.initial_state(grid)
    states, dts, shifted, z = [state], [], 0, None
    for target in cfg.snapshot_times()[1:]:
        while state.t < target:
            d = derive(state, exps, sch.closure_tol, sch.vacuum_alpha, sch.rho_floor, z0=z)
            remaining = target - state.t
            dt = min(compute_dt(d, grid, sch, exps), remaining)
            state, rep = step(state, grid, sch, exps, dt, derived=d)
            z = rep.stage_Z
            dts.append(dt)
            if dt == remaining:
                shifted += state.t != target
                state = dataclasses.replace(state, t=target)
        states.append(state)
    return states, dts, shifted


@pytest.mark.parametrize(
    "kw", [dict(bc=PERIODIC), dict(bc=NOSLIP), dict(bc=PERIODIC, snaps=SHIFTING_SNAPS)]
)
def test_forced_run_is_bit_identical_to_fresh_forcing_every_step(kw):
    cfg = mms_cfg(**kw)
    traj = run(cfg)
    states, dts, shifted = _ref_run(cfg)
    assert shifted == ("snaps" in kw)  # a landing that moved t: its successor recomputes
    assert _same_bits(traj.dt_history, np.asarray(dts))
    assert [s.t for s in traj.states] == [s.t for s in states]
    for got, want in zip(traj.states, states, strict=True):
        assert _same_bits(got.U, want.U)


def _spy_cell_averages(monkeypatch):
    calls = []
    real = ManufacturedSolution.cell_averages

    def spy(self, grid, t):
        calls.append((grid, t))
        return real(self, grid, t)

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


def test_forced_forward_euler_evaluates_the_forcing_once_per_step(monkeypatch):
    calls = _spy_cell_averages(monkeypatch)
    traj = run(mms_cfg(integrator="forward_euler", cfl=0.5))
    assert len(calls) == traj.n_steps


@pytest.mark.parametrize("kw", [dict(a=np.inf), dict(d=np.nan), dict(c=1e308, d=1e308)])
def test_manufactured_masses_must_stay_finite(kw):
    # the forcing's closure solve trusts R and Q to be finite
    with pytest.raises(ValueError, match="finite"):
        ManufacturedSolution(EXPS, nu_eff=0.2, **kw)


def test_handed_on_forcing_is_read_only():
    grid = Grid1D(32, 1.0)
    sol = ManufacturedSolution(EXPS, nu_eff=0.2)
    st = sol.state(grid, 0.0)
    _, rep = step(st, grid, scheme(forcing=sol), EXPS, 1e-4)
    assert rep.stage_forcing.shape == (3, 32)
    with pytest.raises(ValueError):
        rep.stage_forcing[2, 0] += 1.0
    for sch in (scheme(forcing=sol, time_integrator="forward_euler"), scheme()):
        assert step(st, grid, sch, EXPS, 1e-4)[1].stage_forcing is None
