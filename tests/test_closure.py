import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

from bifluid.closure import (
    CLOSURE_TOL,
    EXPONENT_MAX,
    VACUUM_ALPHA,
    ClosureOverflowError,
    ExponentPair,
    MaxIterExceededError,
    omega_of_alpha,
    solve_closure_batch,
)
from bifluid.fields import derive
from oracles import VacuumCellError, alpha_partials_batch

GAMMAS = [0.5, 0.8, 1.0, 1.5, 2.0, 3.0, 4.0]

positive_masses = st.floats(1e-4, 50.0)
gammas = st.floats(0.25, 4.0)


# residual -----------------------------------------------------------------


def closure_residual(Z, R, Q, gamma):
    """Residual f(Z) = (Z - R) * Z**(gamma - 1) - Q of the closure equation.

    The oracle of the bisection tests.  f is strictly increasing in Z on
    [R, oo): its derivative factors as Z**(gamma - 2) * (gamma * Z +
    (1 - gamma) * R), which is positive there.  0**0 == 1, and 0**negative is
    taken as 0, since (Z - R) vanishes whenever Z == 0 lies in the bracket.
    """
    Z = np.asarray(Z, dtype=float)
    if gamma >= 1.0:
        zg1 = np.power(Z, gamma - 1.0)
    else:
        with np.errstate(divide="ignore"):
            zg1 = np.where(Z == 0.0, 0.0, np.power(Z, gamma - 1.0))
    return float((Z - R) * zg1 - Q)


def test_residual_closed_forms():
    assert closure_residual(2.0, 1.0, 2.0, 2.0) == 0.0
    assert closure_residual(3.0, 1.0, 2.0, 2.0) == 4.0
    # f(R) = -Q identically, so a Q = 0 root sits at Z = R
    assert closure_residual(1.0, 1.0, 0.0, 1.7) == 0.0


def test_residual_zero_conventions():
    # 0**0 == 1 and the (Z - R) * Z**(gamma-1) product vanishes at vacuum
    assert closure_residual(0.0, 0.0, 0.0, 0.5) == 0.0
    assert closure_residual(0.0, 0.0, 0.0, 1.0) == 0.0
    assert closure_residual(0.0, 0.0, 0.0, 2.0) == 0.0


@given(
    R=positive_masses,
    Q=positive_masses,
    gamma=gammas,
    lam=st.floats(1e-3, 0.999),
)
def test_residual_strictly_increasing(R, Q, gamma, lam):
    Z1 = R + lam * 10.0
    Z2 = Z1 + 0.5
    assert closure_residual(Z2, R, Q, gamma) > closure_residual(Z1, R, Q, gamma)


# solve_closure_batch ------------------------------------------------------


def _root(R, Q, gamma, **kw):
    """Z of one cell."""
    Z, _ = solve_closure_batch(np.array([R]), np.array([Q]), gamma, **kw)
    return float(Z[0])


def test_solve_closed_form_examples():
    R, Q = np.array([1.0, 0.0, 2.0]), np.array([2.0, 4.0, 2.0])
    Z, iterations = solve_closure_batch(R, Q, 2.0)
    assert Z == pytest.approx([2.0, 2.0, 1.0 + math.sqrt(3.0)], rel=1e-12)
    assert iterations == 0  # gamma = 2 is the quadratic formula
    assert _root(0.3, 0.5, 1.0) == pytest.approx(0.8, rel=1e-15)


def test_solve_special_branches():
    assert _root(0.0, 0.0, 1.7) == 0.0
    assert _root(5.0, 0.0, 3.0) == 5.0
    assert _root(0.0, 8.0, 3.0) == pytest.approx(2.0, rel=1e-14)


def test_solve_iteration_cap(monkeypatch):
    from bifluid import closure

    monkeypatch.setattr(closure, "CLOSURE_MAX_ITER", 2)
    with pytest.raises(MaxIterExceededError):
        solve_closure_batch(np.array([1.0]), np.array([2.0]), 1.5)


def test_solve_reads_the_tolerance_when_called(monkeypatch):
    # the tolerance is a constant, not an argument; a test that needs
    # another one patches it, and every kernel call sees the patch
    from bifluid import closure

    R, Q = np.linspace(0.1, 3.0, 50), np.linspace(3.0, 0.1, 50)
    Z, tight = solve_closure_batch(R, Q, 1.5)
    monkeypatch.setattr(closure, "CLOSURE_TOL", 1e-3)
    Z_loose, loose = solve_closure_batch(R, Q, 1.5)
    assert loose < tight
    assert np.max(np.abs(Z_loose - Z) / Z) <= 1e-3


@given(R=positive_masses, Q=positive_masses, gamma=gammas)
def test_solve_root_is_bracketed_with_small_residual(R, Q, gamma):
    Z = _root(R, Q, gamma)
    assert Z >= R
    f = closure_residual(Z, R, Q, gamma)
    floor = 4.0 * (1.0 + gamma) * np.finfo(float).eps * Z**gamma
    assert abs(f) <= max(1e-12 * Q, floor)


@given(R=positive_masses, Q=positive_masses, gamma=gammas, bump=st.floats(1e-3, 5.0))
def test_solve_monotone_in_R_and_Q(R, Q, gamma, bump):
    Z, _ = solve_closure_batch(np.array([R, R + bump, R]), np.array([Q, Q, Q + bump]), gamma)
    assert Z[1] >= Z[0] * (1.0 - 1e-10)
    assert Z[2] >= Z[0] * (1.0 - 1e-10)


@given(R=positive_masses, Q=positive_masses, gamma=gammas)
def test_solve_matches_bisection(R, Q, gamma):
    Z = _root(R, Q, gamma)
    lo, hi = R, max(R, Q ** (1.0 / gamma), 1e-30)
    while closure_residual(hi, R, Q, gamma) < 0.0:
        lo, hi = hi, 2.0 * hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if closure_residual(mid, R, Q, gamma) < 0.0:
            lo = mid
        else:
            hi = mid
    assert Z == pytest.approx(0.5 * (lo + hi), rel=1e-10)


def test_batch_matches_scalar():
    # each cell's root is the root of its own one-cell batch
    rng = np.random.default_rng(3)
    R = rng.uniform(0.0, 10.0, 64)
    Q = rng.uniform(0.0, 10.0, 64)
    Z, _ = solve_closure_batch(R, Q, 1.5)
    for i in range(64):
        assert Z[i] == _root(R[i], Q[i], 1.5)


def test_solve_deterministic():
    a = solve_closure_batch(np.array([3.7]), np.array([1.9]), 2.6)
    b = solve_closure_batch(np.array([3.7]), np.array([1.9]), 2.6)
    assert a[0][0] == b[0][0] and a[1] == b[1]


# extreme scales and warm starts -------------------------------------------

LOG_FLOAT_MAX = math.log(np.finfo(float).max)


def _scaled_bisection_log_root(R, Q, gamma):
    """log Z by bisection on z = Z / s, s = max(R, Q**(1/gamma)) taken in logs."""
    log_s = max(math.log(R), math.log(Q) / gamma)
    r = math.exp(math.log(R) - log_s)
    q = math.exp(math.log(Q) - gamma * log_s)
    lo, hi = 1.0, max(2.0 * r, (2.0 * q) ** (1.0 / gamma))
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if (mid - r) * mid ** (gamma - 1.0) < q:
            lo = mid
        else:
            hi = mid
    return math.log(0.5 * (lo + hi)) + log_s


@pytest.mark.parametrize("gamma", [1.3, 2.14])
def test_solve_huge_R_unit_Q(gamma):
    # the root exceeds R by a relative Q / R**gamma, far below one ulp
    Z, _ = solve_closure_batch(np.array([1e300]), np.array([1.0]), gamma)
    assert Z[0] == pytest.approx(1e300, rel=1e-14)


def _gamma_two_ulps(Z, R, Q):
    """The error of a computed gamma = 2 root Z in ulps of the exact root
    R/2 + sqrt((R/2)**2 + Q), which mpmath evaluates at 40 digits."""
    with mpmath.workdps(40):
        h = mpmath.mpf(float(R)) / 2
        exact = h + mpmath.sqrt(h * h + mpmath.mpf(float(Q)))
        return float(abs(mpmath.mpf(float(Z)) - exact) / np.spacing(float(exact)))


def test_solve_gamma_two_extreme_scales():
    big = np.finfo(float).max
    odd = 3 * np.finfo(float).smallest_subnormal  # its half rounds
    R = np.array([1e200, 5e-324, 1e-300, 0.0, big, odd, odd])
    Q = np.array([1.0, 0.0, 1e-300, 1e300, 1e308, 0.0, 5e-324])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no floating-point warning either
        Z, _ = solve_closure_batch(R, Q, 2.0)
    assert Z[0] == pytest.approx(1e200, rel=1e-15)
    assert Z[1] == 5e-324
    assert Z[2] == pytest.approx(1e-150, rel=1e-14)
    assert Z[3] == pytest.approx(1e150, rel=1e-15)
    assert Z[4] == big  # rounds to the largest float: no ClosureOverflowError
    assert Z[5] == odd
    assert _gamma_two_ulps(Z[6], R[6], Q[6]) <= 2.0
    # within 2 ulps of the exact root over the whole float range
    rng = np.random.default_rng(27)
    R, Q = np.exp(rng.uniform(math.log(1e-320), math.log(1e308), (2, 2000)))
    Z, _ = solve_closure_batch(R, Q, 2.0)
    assert max(map(_gamma_two_ulps, Z, R, Q)) <= 2.0


@pytest.mark.parametrize("gamma", [0.5, 1.0, 1.5, 2.0, 3.0])
def test_solve_zero_Q_gives_R_exactly(gamma):
    R = np.array([5e-324, 1e-300, 0.7, 3.0, 1e300, np.finfo(float).max])
    Z, _ = solve_closure_batch(R, np.zeros_like(R), gamma)
    assert np.array_equal(Z, R)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("R", [0.0, 1.0])
def test_solve_overflowing_root_raises(R):
    # Z >= Q**(1/gamma) = 1e616 is beyond float range
    with pytest.raises(ClosureOverflowError):
        solve_closure_batch(np.array([R]), np.array([1e308]), 0.5)
    with pytest.raises(ClosureOverflowError):
        big = np.array([np.finfo(float).max])
        solve_closure_batch(big, big, 1.0)


@pytest.mark.parametrize(
    "R, Q, exps",
    [
        (0.0, 1e308, ExponentPair(1.5, 3.0)),  # the bound Q**(1/gamma)
        (1.7e308, 1.7e308, ExponentPair(2.0, 2.0)),  # R + Q
        (1.7e308, 1.7e308, ExponentPair(2.002, 2.0)),  # Z = s * z
    ],
)
def test_derive_overflowing_root_raises(R, Q, exps, recwarn):
    # derive's closure solve keeps the kernel's overflow check: the
    # overflow raises and does not also warn
    s = np.array(([1.0, R], [1.0, Q], [0.0, 0.0]))
    with pytest.raises(ClosureOverflowError, match=r"cells \[1\]"):
        derive(s, 0.0, exps)
    assert [str(w.message) for w in recwarn if issubclass(w.category, RuntimeWarning)] == []


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
# at a small gamma, Q**(1/gamma) underflows (R = 1) or is subnormal
# (R = 1e-300) while the scaled q is not small
@example(log10_R=0.0, log10_Q=-5.0, gamma=0.01)
@example(log10_R=-300.0, log10_Q=-3.2, gamma=0.01)
@given(
    log10_R=st.floats(-300.0, 300.0),
    log10_Q=st.floats(-300.0, 300.0),
    # the ratios that exponents in (1, EXPONENT_MAX] allow, corners included
    gamma=st.one_of(st.sampled_from([1.0, 2.0, 0.01, 100.0]), st.floats(0.01, 100.0)),
)
def test_solve_matches_scaled_bisection_over_float_range(log10_R, log10_Q, gamma):
    R, Q = 10.0**log10_R, 10.0**log10_Q
    log_Z = _scaled_bisection_log_root(R, Q, gamma)
    assume(abs(log_Z - LOG_FLOAT_MAX) > 1e-6)
    if log_Z > LOG_FLOAT_MAX:
        with pytest.raises(ClosureOverflowError):
            solve_closure_batch(np.array([R]), np.array([Q]), gamma)
        return
    Z, iterations = solve_closure_batch(np.array([R]), np.array([Q]), gamma)
    assert abs(math.log(Z[0]) - log_Z) <= 1e-10
    assert iterations <= 12  # a cold solve, far below CLOSURE_MAX_ITER


@pytest.mark.parametrize("gamma", [0.5, 1.5, 3.0 / 1.4, 3.0])
def test_warm_start_converges_to_cold_root(gamma):
    rng = np.random.default_rng(11)
    R = rng.uniform(0.0, 10.0, 256)
    Q = rng.uniform(0.0, 10.0, 256)
    R[:4] = 0.0
    Q[2:6] = 0.0
    Z, iters = solve_closure_batch(R, Q, gamma)
    near = Z * (1.0 + 1e-6 * rng.standard_normal(Z.size))
    Zw, iters_w = solve_closure_batch(R, Q, gamma, z0=near)
    assert iters_w < iters
    assert np.max(np.abs(Zw - Z) / np.maximum(Z, 1e-300)) <= 1e-11
    # any start converges: it is clipped into the bracket first
    for bad in (np.nan, np.inf, -1.0, 0.0, 1e300):
        Zb, _ = solve_closure_batch(R, Q, gamma, z0=np.full(Z.size, bad))
        assert np.max(np.abs(Zb - Z) / np.maximum(Z, 1e-300)) <= 1e-11
    # a warm-started cell does not depend on the other cells of the batch
    for i in (0, 3, 7, 100):
        Zi, _ = solve_closure_batch(R[i : i + 1], Q[i : i + 1], gamma, z0=near[i : i + 1])
        assert Zi[0] == Zw[i]


def _newton_batch(rng, gamma, n=200):
    """R, Q over many decades with vacuum and one-phase cells, and a warm
    start near the root with non-finite and out-of-bracket entries."""
    R = 10.0 ** rng.uniform(-6.0, 6.0, n)
    Q = 10.0 ** rng.uniform(-6.0, 6.0, n)
    R[rng.random(n) < 0.05] = 0.0
    Q[rng.random(n) < 0.05] = 0.0
    Z, _ = solve_closure_batch(R, Q, gamma)
    z0 = Z * (1.0 + 10.0 ** rng.uniform(-12.0, -1.0, n) * rng.standard_normal(n))
    z0[rng.integers(0, n, 8)] = rng.choice([np.nan, np.inf, -np.inf, -1.0, 0.0, 1e300], 8)
    return R, Q, z0


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("gamma", [0.5, 1.3, 2.14, 3.0, 7.0])
def test_frozen_newton_is_bit_identical_to_active_set_compaction(gamma, monkeypatch):
    from bifluid import closure
    from oracles import compacting_newton

    rng = np.random.default_rng(int(gamma * 100))
    cases = []
    for _ in range(20):
        R, Q, z0 = _newton_batch(rng, gamma)
        cases += [(R, Q, None), (R, Q, z0)]
    # a start at the root: the first step is taken untested there too
    cases.append((R, Q, solve_closure_batch(R, Q, gamma)[0]))
    got = [solve_closure_batch(R, Q, gamma, z0=z0) for R, Q, z0 in cases]
    monkeypatch.setattr(closure, "_newton", compacting_newton)
    for (R, Q, z0), (Z, iters) in zip(cases, got):
        Z_ref, iters_ref = solve_closure_batch(R, Q, gamma, z0=z0)
        assert iters == iters_ref > 0
        assert Z.tobytes() == Z_ref.tobytes()


# starts a relative 1e-12 off the root, half and one and a half of it, and
# a decade above and below it
WARM_FACTORS = (1.0 - 1e-12, 1.0 + 1e-12, 0.5, 1.5, 10.0, 0.1)


@example(log10_R=0.0, log10_Q=-5.0, gamma=0.01)
@example(log10_R=-300.0, log10_Q=-3.2, gamma=0.01)
@given(
    log10_R=st.floats(-300.0, 300.0),
    log10_Q=st.floats(-300.0, 300.0),
    gamma=st.one_of(st.sampled_from([1.0, 2.0, 0.01, 100.0]), st.floats(0.01, 100.0)),
)
def test_warm_solve_matches_scaled_bisection_over_float_range(log10_R, log10_Q, gamma):
    # every start gives the root, or ClosureOverflowError for a root beyond
    # float range, without a numpy warning (pyproject.toml makes one an
    # error); the starts share one batch, where near ones can take the warm
    # path beside far ones that fall back, and each must equal its own solve
    R, Q = 10.0**log10_R, 10.0**log10_Q
    log_Z = _scaled_bisection_log_root(R, Q, gamma)
    assume(abs(log_Z - LOG_FLOAT_MAX) > 1e-6)
    with np.errstate(over="ignore"):  # a start beyond float range is inf
        z0 = np.exp(log_Z + np.log(WARM_FACTORS))
    k = z0.size
    R, Q = np.full(k, R), np.full(k, Q)
    if log_Z > LOG_FLOAT_MAX:
        with pytest.raises(ClosureOverflowError):
            solve_closure_batch(R, Q, gamma, z0=z0)
        return
    Z, _ = solve_closure_batch(R, Q, gamma, z0=z0)
    assert np.max(np.abs(np.log(Z) - log_Z)) <= 1e-10
    for i in range(k):
        Zi, _ = solve_closure_batch(R[i : i + 1], Q[i : i + 1], gamma, z0=z0[i : i + 1])
        assert Zi.tobytes() == Z[i : i + 1].tobytes()


@pytest.mark.parametrize("gamma", [0.5, 1.3, 2.14, 3.0, 7.0])
def test_warm_started_point_does_not_depend_on_its_batch(gamma):
    # batches over 12 decades with vacuum and one-phase points and bad
    # starts: each point solved alone gives its batch value bit for bit,
    # whichever path it takes
    rng = np.random.default_rng(int(gamma * 1000))
    for _ in range(3):
        R, Q, z0 = _newton_batch(rng, gamma)
        Z, _ = solve_closure_batch(R, Q, gamma, z0=z0)
        for i in range(R.size):
            Zi, _ = solve_closure_batch(R[i : i + 1], Q[i : i + 1], gamma, z0=z0[i : i + 1])
            assert Zi.tobytes() == Z[i : i + 1].tobytes(), i


@pytest.mark.parametrize("gamma", [0.5, 1.3, 2.14, 3.0, 7.0])
def test_start_at_the_root_converges_at_the_first_tested_iterate(gamma, monkeypatch):
    # the untested first step, then one tested iterate: two evaluations,
    # which a cap of 2 allows; vacuum, Q = 0 and R = 0 stay exact
    from bifluid import closure

    R, Q, _ = _newton_batch(np.random.default_rng(11), gamma)
    Z, _ = solve_closure_batch(R, Q, gamma)
    monkeypatch.setattr(closure, "CLOSURE_MAX_ITER", 2)
    Z_warm, iters = solve_closure_batch(R, Q, gamma, z0=Z)
    assert iters == 2
    assert np.all(np.abs(Z_warm - Z) <= 2.0 * CLOSURE_TOL * Z)
    exact = (R == 0.0) | (Q == 0.0)
    assert exact.any() and Z_warm[exact].tobytes() == Z[exact].tobytes()
    assert (Z_warm[(R == 0.0) & (Q == 0.0)] == 0.0).all()
    assert (Z_warm[Q == 0.0] == R[Q == 0.0]).all()


@pytest.mark.parametrize("gamma", [0.5, 1.3, 2.14, 3.0, 7.0])
def test_frozen_newton_names_the_same_unconverged_cells(gamma, monkeypatch):
    from bifluid import closure
    from oracles import compacting_newton

    R, Q, z0 = _newton_batch(np.random.default_rng(7), gamma, n=64)
    monkeypatch.setattr(closure, "CLOSURE_MAX_ITER", 2)
    for start in (None, z0):
        with pytest.raises(MaxIterExceededError) as frozen:
            solve_closure_batch(R, Q, gamma, z0=start)
        with monkeypatch.context() as m:
            m.setattr(closure, "_newton", compacting_newton)
            with pytest.raises(MaxIterExceededError) as compacted:
                solve_closure_batch(R, Q, gamma, z0=start)
        assert str(frozen.value) == str(compacted.value)
        assert "at cells [" in str(frozen.value)


# state recovery (fields.derive) ---------------------------------------------


def _recover(R, Q, exps):
    """The derived fields of one cell at rest."""
    return derive(np.array(([R], [Q], [0.0])), 0.0, exps)


def test_recover_state_example():
    d = _recover(1.0, 2.0, ExponentPair(3.0, 1.5))
    assert d.Z[0] == pytest.approx(2.0, rel=1e-12)
    assert d.alpha[0] == pytest.approx(0.5, rel=1e-12)
    assert d.rho_plus[0] == pytest.approx(2.0, rel=1e-12)
    assert d.rho_minus[0] == pytest.approx(4.0, rel=1e-12)
    assert d.p[0] == pytest.approx(8.0, rel=1e-12)
    assert not d.vacuum[0]


def test_recover_state_vacuum():
    d = _recover(0.0, 0.0, ExponentPair(3.0, 1.5))
    assert d.vacuum[0]
    assert d.Z[0] == 0.0 and d.p[0] == 0.0
    assert d.alpha[0] == VACUUM_ALPHA == 0.5


def test_recover_state_pure_plus_phase():
    d = _recover(5.0, 0.0, ExponentPair(2.0, 2.0))
    assert d.Z[0] == 5.0 and d.alpha[0] == 1.0 and d.p[0] == 25.0


@given(
    R=positive_masses,
    Q=positive_masses,
    gp=st.floats(1.1, 5.0),
    gm=st.floats(1.1, 5.0),
)
def test_recover_state_invariants(R, Q, gp, gm):
    exps = ExponentPair(gp, gm)
    d = _recover(R, Q, exps)
    Z, alpha, p = float(d.Z[0]), float(d.alpha[0]), float(d.p[0])
    assert R <= Z * (1.0 + 1e-12)
    assert 0.0 <= alpha <= 1.0
    # the defining constraint: both phase pressures agree
    assert abs(float(d.rho_plus[0]) ** gp - float(d.rho_minus[0]) ** gm) <= 1e-9 * max(p, 1.0)
    # pressure-equality identity rewritten in the partial masses
    g = exps.gamma
    lhs = R**g * (1.0 - alpha)
    rhs = Q * alpha**g
    assert abs(lhs - rhs) <= 1e-9 * max(R**g, Q, 1e-300)


# sensitivities --------------------------------------------------------------


def _partials(R, Q, gamma):
    """(d_alpha_dR, d_alpha_dQ, omega) of one cell."""
    return tuple(float(v[0]) for v in alpha_partials_batch([R], [Q], gamma))


def test_alpha_partials_example():
    d_dR, d_dQ, omega = _partials(1.0, 2.0, 2.0)
    assert d_dR == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert d_dQ == pytest.approx(-1.0 / 12.0, rel=1e-12)
    assert omega == pytest.approx(1.0 / 6.0, rel=1e-12)
    # Euler-type identity at the example point
    assert d_dR * 1.0 + d_dQ * 2.0 == pytest.approx(omega, abs=1e-15)


def test_alpha_partials_pure_phase_and_vacuum():
    d_dR, _, omega = _partials(5.0, 0.0, 2.7)
    assert d_dR == 0.0
    assert omega == 0.0
    # unit exponent ratio kills the compression coefficient identically
    assert _partials(1.7, 2.9, 1.0)[2] == 0.0
    with pytest.raises(VacuumCellError):
        _partials(0.0, 0.0, 2.0)
    with pytest.raises(VacuumCellError):
        alpha_partials_batch(np.array([1.0, 0.0]), np.array([1.0, 0.0]), 2.0)


@given(R=positive_masses, Q=positive_masses, gamma=gammas)
def test_alpha_partials_signs_and_euler_identity(R, Q, gamma):
    d_dR, d_dQ, omega = _partials(R, Q, gamma)
    assert d_dR >= 0.0
    assert d_dQ <= 0.0
    assert abs(d_dR * R + d_dQ * Q - omega) <= 1e-9 * max(1.0, abs(omega))
    assert abs(omega) <= (gamma + 1.0) / min(1.0, gamma)


@given(
    R=st.floats(1e-2, 50.0),  # the 1e-6 step needs room below R and Q
    Q=st.floats(1e-2, 50.0),
    gamma=st.floats(0.3, 3.5),
)
def test_alpha_partials_match_finite_differences(R, Q, gamma):
    d_dR, d_dQ, _ = _partials(R, Q, gamma)
    hR = 1e-6 * (1.0 + abs(R))
    hQ = 1e-6 * (1.0 + abs(Q))

    def alpha(r, q):
        return r / _root(r, q, gamma)

    fdR = (alpha(R + hR, Q) - alpha(R - hR, Q)) / (2.0 * hR)
    fdQ = (alpha(R, Q + hQ) - alpha(R, Q - hQ)) / (2.0 * hQ)
    assert fdR == pytest.approx(d_dR, rel=1e-5, abs=1e-8)
    assert fdQ == pytest.approx(d_dQ, rel=1e-5, abs=1e-8)


def test_alpha_partials_tiny_alpha_stays_finite():
    # raw quotient denominators underflow here; the rescaled form must not
    d_dR, d_dQ, omega = _partials(1e-200, 1.0, 3.0)
    assert math.isfinite(d_dR) and d_dR > 0.0
    assert math.isfinite(d_dQ)
    assert omega == pytest.approx(0.0, abs=1e-100)


# omega ----------------------------------------------------------------------


def test_omega_examples():
    assert omega_of_alpha(0.5, 2.0) == pytest.approx(1.0 / 6.0, rel=1e-15)
    assert omega_of_alpha(0.0, 3.0) == 0.0
    assert omega_of_alpha(1.0, 3.0) == 0.0
    assert omega_of_alpha(0.3, 1.0) == 0.0


def _omega_bound(gamma: float) -> float:
    """Sharp uniform bound on |omega_of_alpha| over alpha in [0, 1]."""
    return abs(gamma - 1.0) / (4.0 * min(1.0, gamma))


@pytest.mark.parametrize("gamma", GAMMAS)
def test_omega_bound_on_fine_grid(gamma):
    alphas = np.linspace(0.0, 1.0, 20001)
    w = omega_of_alpha(alphas, gamma)
    assert np.all(np.abs(w) <= _omega_bound(gamma) + 1e-15)
    assert np.all(np.abs(w) < (gamma + 1.0) / min(1.0, gamma))


# domain types ----------------------------------------------------------------


def test_exponent_pair_validation_and_ratio():
    exps = ExponentPair(3.0, 1.5)
    assert exps.gamma == 2.0
    with pytest.raises(ValueError):
        ExponentPair(1.0, 2.0)
    with pytest.raises(ValueError):
        ExponentPair(2.0, 0.9)
    with pytest.raises(ValueError, match="must be finite"):
        ExponentPair(float("nan"), 2.0)
    assert ExponentPair(EXPONENT_MAX, EXPONENT_MAX).gamma == 1.0
    for pair in ((1e5, 1.5), (3.0, 100.5)):
        with pytest.raises(ValueError, match=r"must lie in \(1, 100\]"):
            ExponentPair(*pair)

