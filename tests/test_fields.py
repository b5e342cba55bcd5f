import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from bifluid.closure import ExponentPair
from bifluid.fields import (
    FieldState,
    Grid1D,
    classify_ess_res,
    default_ess_window,
    derive,
    read_snapshot,
    restrict,
    total_energy,
    total_mass,
    write_snapshot,
)

EXPS = ExponentPair(3.0, 1.5)


def uniform_state(n, R, Q, u, t=0.0):
    Ra = np.full(n, R)
    Qa = np.full(n, Q)
    return FieldState(t=t, R=Ra, Q=Qa, m=(Ra + Qa) * u)


# grid and state containers ---------------------------------------------------


def test_grid_validation():
    g = Grid1D(8, 2.0)
    assert g.dx == 0.25
    assert g.x[0] == pytest.approx(0.125)
    with pytest.raises(ValueError):
        Grid1D(3, 1.0)
    with pytest.raises(ValueError):
        Grid1D(8, -1.0)
    with pytest.raises(ValueError):
        Grid1D(8, 1.0, bc="reflecting")


def test_field_state_validation_and_immutability():
    s = uniform_state(8, 1.0, 2.0, 0.5)
    assert s.n == 8
    with pytest.raises(ValueError):
        s.R[0] = 5.0  # arrays are frozen snapshots
    with pytest.raises(ValueError):
        FieldState(0.0, np.ones(8), np.ones(7), np.zeros(8))
    with pytest.raises(ValueError):
        FieldState(0.0, -np.ones(8), np.ones(8), np.zeros(8))
    with pytest.raises(ValueError):
        FieldState(0.0, np.full(8, np.nan), np.ones(8), np.zeros(8))


# derive -----------------------------------------------------------------------


def test_derive_uniform_example():
    s = uniform_state(8, 1.0, 2.0, 1.0)
    d = derive(s, EXPS)
    assert np.allclose(d.Z, 2.0, rtol=1e-12)
    assert np.allclose(d.alpha, 0.5, rtol=1e-12)
    assert np.allclose(d.p, 8.0, rtol=1e-12)
    assert np.allclose(d.u, 1.0, rtol=1e-14)
    assert not d.vacuum.any()


def test_derive_all_vacuum():
    s = uniform_state(8, 0.0, 0.0, 0.0)
    d = derive(s, EXPS)
    assert d.vacuum.all()
    assert np.all(d.u == 0.0)
    assert np.all(d.Z == 0.0)
    assert np.all(d.alpha == 0.5)  # sentinel


def test_derive_locality():
    s = uniform_state(8, 1.0, 2.0, 1.0)
    R2 = s.R.copy()
    R2[3] = 1.5
    s2 = FieldState(s.t, R2, s.Q, s.m)
    d, d2 = derive(s, EXPS), derive(s2, EXPS)
    changed = d.Z != d2.Z
    assert changed[3] and np.count_nonzero(changed) == 1


def test_derive_subnormal_pure_phase():
    # Q = 0 must give Z = R exactly, so alpha = 1 even for a subnormal R
    d = derive(uniform_state(8, 5e-324, 0.0, 0.0), EXPS)
    assert np.all(d.Z == 5e-324)
    assert np.all(d.alpha == 1.0)


def test_derive_underflowing_root_gives_pure_minus_phase():
    # gamma = 0.5: Z = Q**2 = 1e-400 underflows to 0 in a cell that is not vacuum
    d = derive(uniform_state(8, 0.0, 1e-200, 0.0), ExponentPair(1.5, 3.0))
    assert np.all(d.Z == 0.0) and not d.vacuum.any()
    assert np.all(d.alpha == 0.0)


def test_derive_gamma_one_scaling():
    # with gamma = 1 the root is R + Q, so scaling (R, Q) scales Z linearly
    exps = ExponentPair(2.0, 2.0)
    s = uniform_state(8, 1.0, 2.0, 0.0)
    s2 = uniform_state(8, 3.0, 6.0, 0.0)
    assert np.allclose(3.0 * derive(s, exps).Z, derive(s2, exps).Z, rtol=1e-14)


# integrals ----------------------------------------------------------------------


def test_total_mass_uniform():
    g = Grid1D(16, 1.0)
    s = uniform_state(16, 1.0, 2.5, 0.0)
    mr, mq = total_mass(s, g)
    assert mr == pytest.approx(1.0, rel=1e-14)
    assert mq == pytest.approx(2.5, rel=1e-14)


def test_total_mass_linearity_and_reproducibility():
    g = Grid1D(32, 2.0)
    rng = np.random.default_rng(5)
    R = rng.uniform(0.1, 2.0, 32)
    s = FieldState(0.0, R, R, np.zeros(32))
    s2 = FieldState(0.0, 2.0 * R, 2.0 * R, np.zeros(32))
    mr, _ = total_mass(s, g)
    mr2, _ = total_mass(s2, g)
    assert mr2 == pytest.approx(2.0 * mr, rel=1e-14)
    assert total_mass(s, g) == total_mass(s, g)  # bit-identical re-evaluation


def test_total_energy_uniform_example():
    g = Grid1D(8, 1.0)
    s = uniform_state(8, 1.0, 2.0, 1.0)
    # kinetic 3/2 + alpha H+ = 0.5 * 4 + (1-alpha) H- = 0.5 * 16
    assert total_energy(s, g, EXPS) == pytest.approx(11.5, rel=1e-12)


def test_total_energy_vacuum_and_velocity_sign():
    g = Grid1D(8, 1.0)
    assert total_energy(uniform_state(8, 0.0, 0.0, 0.0), g, EXPS) == 0.0
    e1 = total_energy(uniform_state(8, 1.0, 2.0, 1.3), g, EXPS)
    e2 = total_energy(uniform_state(8, 1.0, 2.0, -1.3), g, EXPS)
    assert e1 == e2


@given(
    R=st.floats(0.0, 5.0),
    Q=st.floats(0.0, 5.0),
    u=st.floats(-3.0, 3.0),
)
@example(R=5e-324, Q=0.0, u=0.0)
def test_total_energy_nonnegative(R, Q, u):
    g = Grid1D(8, 1.0)
    assert total_energy(uniform_state(8, R, Q, u), g, EXPS) >= 0.0


# essential / residual classification ---------------------------------------------


def test_classify_uniform_windows():
    g = Grid1D(8, 1.0)
    d = derive(uniform_state(8, 1.0, 2.0, 0.0), EXPS)  # rho+ = 2, rho- = 4
    m = classify_ess_res(d, 1.0, 5.0)
    assert m.ess.all() and m.n_ess == 8 and m.n_res == 0
    m2 = classify_ess_res(d, 1.0, 3.0)
    assert not m2.ess.any()
    with pytest.raises(ValueError):
        classify_ess_res(d, 2.0, 1.0)


def test_classify_matches_predicate_exactly():
    rng = np.random.default_rng(11)
    R = rng.uniform(0.2, 4.0, 64)
    Q = rng.uniform(0.2, 4.0, 64)
    d = derive(FieldState(0.0, R, Q, np.zeros(64)), EXPS)
    m = classify_ess_res(d, 0.8, 2.5)
    want = (
        (d.rho_plus >= 0.8)
        & (d.rho_plus <= 2.5)
        & (d.rho_minus >= 0.8)
        & (d.rho_minus <= 2.5)
    )
    assert np.array_equal(m.ess, want)


def test_default_ess_window():
    d = derive(uniform_state(8, 1.0, 2.0, 0.0), EXPS)
    lo, hi = default_ess_window([d])
    assert lo == pytest.approx(1.0)  # half of min(2, 4)
    assert hi == pytest.approx(8.0)  # twice max(2, 4)


# restriction ----------------------------------------------------------------------


def test_restrict_block_average():
    R = np.arange(8, dtype=float) + 1.0
    s = FieldState(0.5, R, 2.0 * R, 3.0 * R)
    c = restrict(s, 2)
    assert c.n == 4 and c.t == 0.5
    assert np.allclose(c.R, [1.5, 3.5, 5.5, 7.5])
    assert np.allclose(c.Q, 2.0 * c.R)
    with pytest.raises(ValueError):
        restrict(s, 3)


def test_restrict_preserves_mass():
    g_f = Grid1D(64, 1.0)
    g_c = Grid1D(16, 1.0)
    rng = np.random.default_rng(2)
    s = FieldState(0.0, rng.uniform(0.5, 2, 64), rng.uniform(0.5, 2, 64), rng.uniform(-1, 1, 64))
    c = restrict(s, 4)
    assert total_mass(s, g_f)[0] == pytest.approx(total_mass(c, g_c)[0], rel=1e-14)


# snapshots -------------------------------------------------------------------------


def test_snapshot_round_trip(tmp_path):
    g = Grid1D(8, 1.0)
    rng = np.random.default_rng(9)
    s = FieldState(0.0, rng.uniform(0.5, 2, 8), rng.uniform(0.5, 2, 8), rng.uniform(-1, 1, 8))
    d = derive(s, EXPS)
    p = tmp_path / "snap.csv"
    write_snapshot(p, g, s, d)
    data = read_snapshot(p)
    assert np.array_equal(data["R"], s.R)  # 17 significant digits round-trip exactly
    assert np.array_equal(data["Q"], s.Q)
    assert np.array_equal(data["m"], s.m)
    assert np.array_equal(data["Z"], d.Z)
    assert np.array_equal(data["u"], d.u)


def test_snapshot_bytes_deterministic(tmp_path):
    g = Grid1D(8, 1.0)
    s = uniform_state(8, 1.0, 2.0, 0.25)
    d = derive(s, EXPS)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_snapshot(p1, g, s, d)
    write_snapshot(p2, g, s, d)
    assert p1.read_bytes() == p2.read_bytes()
    header = p1.read_text().splitlines()[0]
    assert header == "i,x,R,Q,m,Z,alpha,rho_plus,rho_minus,p,u"
