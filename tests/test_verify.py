import math

import mpmath
import numpy as np
import pytest

from bifluid.closure import ExponentPair, solve_closure_batch
from bifluid.config import ProfileSpec, SimConfig
from bifluid.fields import NOSLIP, PERIODIC, Grid1D, derive
from bifluid.solver import run
from bifluid.verify import (
    EmptySeriesError,
    GridMismatchError,
    VacuumReferenceError,
    alpha_stability_check,
    coercivity_check,
    convergence_study,
    energy_audit,
    gronwall_check,
    relative_entropy,
)
from oracles import fraction_terms

EXPS = ExponentPair(3.0, 1.5)
GRID = Grid1D(16, 1.0)


def state(R, Q, u, n=16):
    R = np.asarray(R, float) * np.ones(n)
    Q = np.asarray(Q, float) * np.ones(n)
    u = np.asarray(u, float) * np.ones(n)
    return np.array((R, Q, (R + Q) * u))


def der(R, Q, u, n=16):
    return derive(state(R, Q, u, n), 0.0, EXPS)


# relative entropy -----------------------------------------------------------


def test_identical_states_give_exact_zero():
    a = der(1.3, 0.9, 0.4)
    row = relative_entropy(a, a, GRID)
    assert row.E_kin == 0.0
    assert row.E_alpha == 0.0
    assert row.E_breg_plus == 0.0
    assert row.E_breg_minus == 0.0
    assert row.E_total == 0.0


def test_velocity_only_gap():
    a = der(1.0, 2.0, 1.0)
    b = der(1.0, 2.0, 0.0)
    row = relative_entropy(a, b, GRID, nu_eff=0.2)
    assert row.E_kin == pytest.approx(1.5, rel=1e-12)
    assert row.E_alpha == 0.0
    assert row.E_breg_plus == 0.0
    assert row.E_breg_minus == 0.0
    assert row.E_total == pytest.approx(1.5, rel=1e-12)
    assert row.D == 0.0  # u - v is spatially constant


def test_mass_gap_closed_form():
    # (R, Q) = (1, 2) against reference (2, 2): Z = 2 vs Z = 1 + sqrt(3)
    a = der(1.0, 2.0, 0.0)
    b = der(2.0, 2.0, 0.0)
    row = relative_entropy(a, b, GRID)
    zt = 1.0 + math.sqrt(3.0)
    beta = 2.0 / zt
    assert row.E_alpha == pytest.approx(0.5 * (0.5 - beta) ** 2, rel=1e-12)
    # Bregman_plus(2 | 1 + sqrt(3)) = 2 exactly for the cubic potential
    assert row.E_breg_plus == pytest.approx(0.5 * 2.0, rel=1e-12)
    # independent high-precision oracle for the minus-phase part
    mpmath.mp.dps = 40
    g = mpmath.mpf(1.5)
    rho, ref = mpmath.mpf(4.0), mpmath.mpf(zt) ** 2
    H = lambda r: r**g / (g - 1)
    dH = lambda r: g * r ** (g - 1) / (g - 1)
    want = float((1 - mpmath.mpf(0.5)) * (H(rho) - dH(ref) * (rho - ref) - H(ref)))
    assert row.E_breg_minus == pytest.approx(want, rel=1e-12)
    assert row.E_total == pytest.approx(
        row.E_kin + row.E_alpha + row.E_breg_plus + row.E_breg_minus, rel=1e-12
    )


def test_asymmetry_and_mutual_nullity():
    a = der(1.0, 2.0, 0.1)
    b = der(1.5, 1.8, 0.0)
    rab = relative_entropy(a, b, GRID)
    rba = relative_entropy(b, a, GRID)
    assert rab.E_total != rba.E_total
    assert rab.E_total > 0.0 and rba.E_total > 0.0
    # randomized pairs: both directions vanish only for equal states
    rng = np.random.default_rng(8)
    for _ in range(5):
        Ra, Qa, ua = rng.uniform(0.5, 3.0, 3)
        Rb, Qb, ub = rng.uniform(0.5, 3.0, 3)
        da, db = der(Ra, Qa, ua), der(Rb, Qb, ub)
        assert relative_entropy(da, db, GRID).E_total > 0.0
        assert relative_entropy(db, da, GRID).E_total > 0.0
        assert relative_entropy(da, da, GRID).E_total == 0.0


def test_reference_must_be_vacuum_free_and_grids_match():
    a = der(1.0, 2.0, 0.0)
    vac = der(0.0, 0.0, 0.0)
    with pytest.raises(VacuumReferenceError):
        relative_entropy(a, vac, GRID)
    # vacuum on the weak side is fine
    relative_entropy(vac, a, GRID)
    with pytest.raises(GridMismatchError):
        relative_entropy(a, der(1.0, 2.0, 0.0, n=8), GRID)


def test_quadratic_scaling_in_perturbation_size():
    rng = np.random.default_rng(4)
    n = 32
    grid = Grid1D(n, 1.0)
    base_R = 1.2 + 0.1 * np.sin(2 * np.pi * grid.x)
    base_Q = 1.8 + 0.1 * np.cos(2 * np.pi * grid.x)
    dR = rng.uniform(-1, 1, n)
    dQ = rng.uniform(-1, 1, n)
    du = rng.uniform(-1, 1, n)
    ref = derive(np.array((base_R, base_Q, (base_R + base_Q) * 0.1)), 0.0, EXPS)
    ratios = []
    for eps in (1e-2, 5e-3, 2.5e-3):
        R = base_R + eps * dR
        Q = base_Q + eps * dQ
        u = 0.1 + eps * du
        a = derive(np.array((R, Q, (R + Q) * u)), 0.0, EXPS)
        row = relative_entropy(a, ref, grid)
        ratios.append(row.E_total / eps**2)
    assert ratios[0] == pytest.approx(ratios[1], rel=0.1)
    assert ratios[1] == pytest.approx(ratios[2], rel=0.1)


# gronwall --------------------------------------------------------------------


def test_gronwall_constant_series():
    times = [0.0, 0.5, 1.0]
    fit = gronwall_check(times, [2.0, 2.0, 2.0])
    assert fit.mode == "ratio"
    assert fit.C_fit == pytest.approx(1.0)
    assert fit.c_exp_fit == pytest.approx(0.0, abs=1e-12)


def test_gronwall_exponential_series():
    times = np.linspace(0.0, 1.0, 11)
    E = 3.0 * np.exp(2.0 * times)
    fit = gronwall_check(times, E)
    assert fit.C_fit == pytest.approx(math.exp(2.0), rel=1e-12)
    assert fit.c_exp_fit == pytest.approx(2.0, rel=1e-9)


def test_gronwall_rate_is_the_least_squares_slope_of_polyfit():
    # numpy's least-squares line fit is the oracle of the closed-form slope,
    # on noisy exponential series sampled at non-uniform times
    rng = np.random.default_rng(20261018)
    for _ in range(200):
        k = int(rng.integers(2, 40))
        times = np.sort(rng.uniform(0.0, 2.0, k))
        rate = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 10.0)
        E = np.exp(rng.uniform(-5.0, 5.0) + rate * times + rng.normal(0.0, 0.05, k))
        fit = gronwall_check(times, E)
        want = np.polyfit(times, np.log(E), 1)[0]
        assert fit.c_exp_fit == pytest.approx(want, rel=1e-12)


def test_gronwall_identical_data_mode():
    fit = gronwall_check([0.0, 1.0], [0.0, 3e-15], e_scale=1.0)
    assert fit.mode == "identical"
    assert fit.C_fit is None
    assert fit.max_E == pytest.approx(3e-15)
    assert fit.at_noise_floor


def test_gronwall_empty_series():
    with pytest.raises(EmptySeriesError):
        gronwall_check([], [])


# alpha stability ----------------------------------------------------------------


def test_w12_norm_includes_gradient():
    # a velocity gap f between states of equal fractions: A = 0, and w =
    # int f^2 + int (f')^2 = 1/2 + 2 pi^2 at this resolution
    grid = Grid1D(64, 1.0)
    f = np.sin(2 * np.pi * grid.x)
    row = relative_entropy(der(1.0, 2.0, f, 64), der(1.0, 2.0, 0.0, 64), grid)
    assert row.A == 0.0
    assert row.w == pytest.approx(0.5 + 2 * math.pi**2, rel=1e-2)


@pytest.mark.parametrize("bc", [PERIODIC, NOSLIP])
def test_row_fraction_terms_equal_the_oracle_bit_for_bit(bc):
    # run_a's side with vacuum cells (alpha = VACUUM_ALPHA, u = 0 there)
    # against a vacuum-free reference, on a grid of either boundary
    n = 32
    grid = Grid1D(n, 1.0, bc)
    x = grid.x
    R = 1.0 + 0.5 * np.sin(2 * np.pi * x)
    Q = 1.2 + 0.3 * np.cos(4 * np.pi * x)
    R[3:6] = Q[3:6] = 0.0
    u = 0.3 * np.sin(np.pi * x) ** 2
    a = derive(np.array((R, Q, (R + Q) * u)), 0.0, EXPS)
    assert a.vacuum.any()
    b = der(1.1 + 0.2 * np.cos(2 * np.pi * x), 1.3, 0.1 * np.sin(2 * np.pi * x), n)
    row = relative_entropy(a, b, grid, nu_eff=0.05)
    assert (row.A, row.w) == fraction_terms(a.alpha, b.alpha, a.u, b.u, grid)
    assert row.A > 0.0 and row.w > 0.0


def _stability(alpha_a, alpha_b, us, vs, times, grid, delta):
    terms = [fraction_terms(a, b, u, v, grid) for a, b, u, v in zip(alpha_a, alpha_b, us, vs)]
    return alpha_stability_check([A for A, _ in terms], [w for _, w in terms], times, delta)


def test_alpha_stability_trivial_cases():
    n = 16
    grid = Grid1D(n, 1.0)
    times = [0.0, 0.1, 0.2]
    same = [np.full(n, 0.4)] * 3
    zeros = [np.zeros(n)] * 3
    rep = _stability(same, same, zeros, zeros, times, grid, delta=0.5)
    assert rep.C_delta == 0.0
    # constant-in-time gap, identical velocities: LHS = 0, C = 0 suffices
    other = [np.full(n, 0.6)] * 3
    rep2 = _stability(same, other, zeros, zeros, times, grid, delta=0.5)
    assert rep2.C_delta == 0.0
    assert rep2.A0 == pytest.approx(0.04, rel=1e-12)


def test_alpha_stability_fits_known_growth():
    # A(t) = 1 + t with u = v, computed against a scalar reimplementation
    n = 4
    grid = Grid1D(n, 1.0)
    times = [0.0, 0.5, 1.0]
    gaps = [math.sqrt((1.0 + t) / n / grid.dx) for t in times]
    alpha_a = [np.full(n, g) for g in gaps]
    alpha_b = [np.zeros(n)] * 3
    zeros = [np.zeros(n)] * 3
    delta = 0.1
    rep = _stability(alpha_a, alpha_b, zeros, zeros, times, grid, delta)
    A = [1.0, 1.5, 2.0]
    best = 0.0
    S = 0.0
    for k in (1, 2):
        S += (times[k] - times[k - 1]) * A[k - 1]
        best = max(best, (A[k] - A[0]) / S)
    assert rep.C_delta == pytest.approx(best, rel=1e-12)


def test_alpha_stability_empty():
    with pytest.raises(EmptySeriesError):
        alpha_stability_check([], [], [], delta=0.1)


# coercivity -----------------------------------------------------------------------


def test_coercivity_identical_states_unconstrained():
    a = der(1.0, 2.0, 0.0)
    rep = coercivity_check(relative_entropy(a, a, GRID), a, a, GRID, 1.0, 5.0)
    assert rep.C_lb == math.inf
    assert rep.I_ess == 0.0 and rep.I_res == 0.0


def test_coercivity_essential_perturbation_positive():
    a = der(1.05, 2.0, 0.0)
    b = der(1.0, 2.0, 0.0)
    rep = coercivity_check(relative_entropy(a, b, GRID), a, b, GRID, 1.0, 8.0)
    assert rep.n_res == 0
    assert 0.0 < rep.C_lb < math.inf
    # for small gaps the ratio approaches a weighted second-derivative scale
    assert 0.05 < rep.C_lb < 10.0


def test_coercivity_uniform_windows():
    a = der(1.0, 2.0, 0.0)  # rho+ = 2, rho- = 4
    b = der(1.05, 2.0, 0.0)
    row = relative_entropy(a, b, GRID)
    rep = coercivity_check(row, a, b, GRID, 1.0, 5.0)
    assert rep.n_ess == 16 and rep.n_res == 0
    assert rep.I_ess > 0.0 and rep.I_res == 0.0
    rep2 = coercivity_check(row, a, b, GRID, 1.0, 3.0)
    assert rep2.n_ess == 0 and rep2.n_res == 16
    assert rep2.I_ess == 0.0 and rep2.I_res > 0.0
    with pytest.raises(ValueError):
        coercivity_check(row, a, b, GRID, 2.0, 1.0)


def test_coercivity_window_matches_predicate_exactly():
    rng = np.random.default_rng(11)
    n = 64
    grid = Grid1D(n, 1.0)
    a = derive(np.array((rng.uniform(0.2, 4.0, n), rng.uniform(0.2, 4.0, n), np.zeros(n))), 0.0, EXPS)
    b = der(1.2, 2.0, 0.0, n)
    rep = coercivity_check(relative_entropy(a, b, grid), a, b, grid, 0.8, 2.5)
    want = (
        (a.rho_plus >= 0.8)
        & (a.rho_plus <= 2.5)
        & (a.rho_minus >= 0.8)
        & (a.rho_minus <= 2.5)
    )
    assert 0 < rep.n_ess < n  # both sets are populated
    assert rep.n_ess == int(np.count_nonzero(want)) and rep.n_res == n - rep.n_ess
    dp = a.rho_plus - b.rho_plus
    dm = a.rho_minus - b.rho_minus
    quad = a.alpha * dp * dp + (1.0 - a.alpha) * dm * dm
    heavy = (
        1.0
        + a.alpha * np.power(a.rho_plus, EXPS.gamma_plus)
        + (1.0 - a.alpha) * np.power(a.rho_minus, EXPS.gamma_minus)
    )
    assert rep.I_ess == float(np.sum(np.where(want, quad, 0.0)) * grid.dx)
    assert rep.I_res == float(np.sum(np.where(want, 0.0, heavy)) * grid.dx)


def test_coercivity_residual_state_positive():
    a = der(8.0, 2.0, 0.0)  # densities far outside the window
    b = der(1.0, 2.0, 0.0)
    rep = coercivity_check(relative_entropy(a, b, GRID), a, b, GRID, 1.0, 4.0)
    assert rep.n_ess == 0
    assert rep.C_lb > 0.0


# energy audit ------------------------------------------------------------------------


def cfg_smooth(**kw):
    d = dict(
        n=64,
        t_end=0.02,
        n_snapshots=3,
        mu=0.1,
        r_init=ProfileSpec(preset="sine", base=1.5, amplitude=0.3),
        q_init=ProfileSpec(preset="sine", base=1.5, amplitude=-0.2, waves=2.0),
        u_init=ProfileSpec(preset="sine", base=0.0, amplitude=0.2),
    )
    d.update(kw)
    return SimConfig(**d)


def test_energy_audit_frozen_state_passes():
    cfg = cfg_smooth(u_init=ProfileSpec(preset="uniform", value=0.0), t_end=0.0)
    aud = energy_audit(run(cfg))
    assert aud.passed and not aud.skipped
    assert aud.worst_margin == 0.0


def test_energy_audit_diffusing_shear_monotone_decay():
    cfg = cfg_smooth(
        r_init=ProfileSpec(preset="uniform", value=1.5),
        q_init=ProfileSpec(preset="uniform", value=1.5),
        u_init=ProfileSpec(preset="sine", base=0.0, amplitude=0.3),
        t_end=0.05,
        n_snapshots=6,
    )
    traj = run(cfg)
    assert energy_audit(traj).passed
    E = traj.energies  # the series the audit reads
    assert all(e2 < e1 for e1, e2 in zip(E, E[1:]))


def test_energy_audit_forced_run_flagged():
    cfg = cfg_smooth(mms_enabled=True, mu=0.02)
    aud = energy_audit(run(cfg))
    assert aud.skipped and not aud.passed


# manufactured forcing ------------------------------------------------------------------


def _cold_forcing(sol, grid, t):
    """sol.cell_averages at time t from a cold closure solve of the face masses."""
    Zf, _ = solve_closure_batch(*sol.face_masses(grid, t), sol.exps.gamma)
    return sol.cell_averages(grid, t, Zf)


def test_mms_forcing_is_the_pde_residual_of_the_exact_fields():
    # independent reference: central differences of the exact fields and of
    # the closure pressure, averaged over the same Gauss-3 nodes
    from bifluid.mms import ManufacturedSolution

    mms = ManufacturedSolution(ExponentPair(3.0, 1.4), nu_eff=0.2, length=1.3)
    grid = Grid1D(24, 1.3)
    t = 0.37
    gp, g = mms.exps.gamma_plus, mms.exps.gamma

    def conserved(x, t):
        R, Q, u = mms.R(x, t), mms.Q(x, t), mms.u(x, t)
        p = solve_closure_batch(R, Q, g)[0] ** gp
        m = (R + Q) * u
        return np.array([R, Q, m]), np.array([R * u, Q * u, m * u + p])

    def residual(x):
        h = 1e-5
        dt = (conserved(x, t + h)[0] - conserved(x, t - h)[0]) / (2 * h)
        dx = (conserved(x + h, t)[1] - conserved(x - h, t)[1]) / (2 * h)
        hh = 1e-4
        u_xx = (mms.u(x + hh, t) - 2 * mms.u(x, t) + mms.u(x - hh, t)) / hh**2
        res = dt + dx
        res[2] -= mms.nu_eff * u_xx
        return res

    offsets = np.array([-0.5, 0.0, 0.5]) * math.sqrt(0.6) * grid.dx
    weights = np.array([5.0, 8.0, 5.0]) / 18.0
    ref = sum(w * residual(grid.x + o) for w, o in zip(weights, offsets))
    got = _cold_forcing(mms, grid, t)
    assert np.max(np.abs(got - ref)) <= 1e-5 * np.max(np.abs(ref))


@pytest.mark.parametrize("exps", [ExponentPair(3.0, 1.4), ExponentPair(3.0, 1.5), ExponentPair(1.4, 3.0)])
@pytest.mark.parametrize("bc", [PERIODIC, NOSLIP])
@pytest.mark.parametrize("length", [1.0, 1.3])
def test_mms_forcing_matches_gauss3_with_implicit_differentiation(exps, bc, length):
    from bifluid.mms import ManufacturedSolution
    from oracles import gauss3_forcing

    # Gauss-3's error on the pressure term is below 1e-11 relative from
    # n = 64, and the face difference's round-off grows like n * eps
    sol = ManufacturedSolution(exps, nu_eff=0.2, length=length)
    for n in (64, 256, 1024):
        grid = Grid1D(n, length, bc)
        for t in (0.0, 0.37, 2.5, 11.0):
            got = _cold_forcing(sol, grid, t)
            ref = gauss3_forcing(sol, grid, t)
            gap = np.max(np.abs(got - ref), axis=1)
            assert np.all(gap <= 1e-11 * np.max(np.abs(ref), axis=1))


@pytest.mark.parametrize("exps", [ExponentPair(3.0, 1.4), ExponentPair(3.0, 1.5), ExponentPair(1.4, 3.0)])
@pytest.mark.parametrize("bc", [PERIODIC, NOSLIP])
@pytest.mark.parametrize("length", [1.0, 1.3])
def test_mms_forcing_matches_the_nodewise_quadrature(exps, bc, length):
    from bifluid.mms import ManufacturedSolution
    from oracles import nodewise_forcing

    # the contraction over the cached monomial averages reorders the
    # node-wise sums, which moves each source by a few ulps of its scale
    sol = ManufacturedSolution(exps, nu_eff=0.2, length=length)
    for n in (64, 256, 1024):
        grid = Grid1D(n, length, bc)
        for t in (0.0, 0.37, 2.5, 11.0):
            got = _cold_forcing(sol, grid, t)
            ref = nodewise_forcing(sol, grid, t)
            gap = np.max(np.abs(got - ref), axis=1)
            assert np.all(gap <= 1e-14 * np.max(np.abs(ref), axis=1))


@pytest.mark.parametrize("exps", [ExponentPair(3.0, 1.4), ExponentPair(3.0, 1.5), ExponentPair(1.4, 3.0)])
@pytest.mark.parametrize("length", [1.0, 1.3])
def test_mms_forcing_pressure_term_is_the_nodewise_one_bit_for_bit(exps, length, monkeypatch):
    import oracles
    from bifluid import mms

    # with the quadrature of the closure-free terms zeroed on both sides,
    # each forcing is its face-pressure difference alone
    sol = mms.ManufacturedSolution(exps, nu_eff=0.2, length=length)
    monkeypatch.setattr(mms, "_basis", lambda k, grid: np.zeros((8, grid.n)))
    monkeypatch.setattr(oracles, "_GAUSS3_WEIGHTS", (0.0, 0.0, 0.0))
    for n in (64, 256, 1024):
        grid = Grid1D(n, length, PERIODIC)
        for t in (0.0, 0.37, 2.5, 11.0):
            got = _cold_forcing(sol, grid, t)
            ref = oracles.nodewise_forcing(sol, grid, t)
            assert not got[:2].any() and not ref[:2].any() and np.any(got[2] != 0.0)
            assert got[2].tobytes() == ref[2].tobytes()


# convergence study ---------------------------------------------------------------------


def test_convergence_study_needs_three_levels_and_forcing():
    cfg = cfg_smooth(mms_enabled=True, mu=0.02)
    with pytest.raises(ValueError):
        convergence_study(cfg, 2)
    with pytest.raises(ValueError):
        convergence_study(cfg_smooth(), 3)


def test_convergence_study_needs_a_positive_t_end(spy_calls):
    # with no time step there is no order to observe; the run itself is exact
    cfg = cfg_smooth(mms_enabled=True, mu=0.02, t_end=0.0, n=32)
    runs = spy_calls(run)
    with pytest.raises(ValueError, match=r"time\.t_end > 0"):
        convergence_study(cfg, 3)
    assert runs == []
    final = []
    traj = run(cfg, on_snapshot=final.append)
    (der,) = final
    sol, x = traj.forcing, traj.grid.x
    assert traj.times == [0.0] and traj.n_steps == 0
    for got, want in ((der.R, sol.R(x, 0.0)), (der.Q, sol.Q(x, 0.0)), (der.u, sol.u(x, 0.0))):
        assert np.max(np.abs(got - want)) < 1e-13


def test_convergence_study_first_order():
    cfg = cfg_smooth(mms_enabled=True, mu=0.02, t_end=0.04, n=32, n_snapshots=2)
    rep = convergence_study(cfg, 3)
    assert rep.ns == [32, 64, 128]
    for var in ("R", "Q", "u"):
        for order in rep.orders[var]:
            assert order > 0.7
    assert rep.min_order() > 0.7


def test_convergence_order_robust_to_halved_time():
    cfg = cfg_smooth(mms_enabled=True, mu=0.02, t_end=0.04, n=32, n_snapshots=2)
    r1 = convergence_study(cfg, 3)
    import dataclasses

    r2 = convergence_study(dataclasses.replace(cfg, t_end=0.02), 3)
    for var in ("R", "Q", "u"):
        assert r1.orders[var][-1] == pytest.approx(r2.orders[var][-1], abs=0.2)


def test_convergence_study_skips_the_fraction_diagnostic(monkeypatch):
    from bifluid import solver, verify

    cfg = cfg_smooth(
        mms_enabled=True, mu=0.02, t_end=0.04, n=32, n_snapshots=2, track_alpha=True
    )
    calls = []
    real_step, real_run = solver.alpha_diagnostic_step, verify.run

    def spy_step(*args, **kwargs):
        calls.append(1)
        return real_step(*args, **kwargs)

    monkeypatch.setattr(solver, "alpha_diagnostic_step", spy_step)
    rep = convergence_study(cfg, 3)
    assert calls == []
    assert cfg.track_alpha  # the caller's config is untouched

    # the same study with the diagnostic forced on reports the same numbers
    def tracked_run(level, **kwargs):
        level.track_alpha = True
        return real_run(level, **kwargs)

    monkeypatch.setattr(verify, "run", tracked_run)
    assert convergence_study(cfg, 3) == rep
    assert calls
