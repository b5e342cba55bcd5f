import dataclasses
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from bifluid import closure, solver
from bifluid.cli import compare_runs
from bifluid.closure import VACUUM_ALPHA, ClosureOverflowError, ExponentPair
from bifluid.config import ProfileSpec, SimConfig, ValidationError, validate_config
from bifluid.fields import (
    RHO_FLOOR,
    SNAPSHOT_BLOCK_ROWS,
    DerivedFields,
    Grid1D,
    derive,
    finite_pressure_bound,
    pressure,
    read_snapshot,
    restrict,
    snapshot_columns,
    total_energy,
    total_mass,
    write_snapshot,
)
from bifluid.verify import relative_entropy

EXPS = ExponentPair(3.0, 1.5)


def uniform_state(n, R, Q, u):
    Ra = np.full(n, R)
    Qa = np.full(n, Q)
    return np.array((Ra, Qa, (Ra + Qa) * u))


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


def test_field_state_validation_and_immutability(tmp_path):
    # a config's initial state is a read-only (3, n) array
    _, _, s = validate_config("[grid]\nn = 8\n[initial]\nu_value = 0.5\n", with_state=True)
    assert s.shape == (3, 8)
    with pytest.raises(ValueError):
        s[0, 0] = 5.0  # arrays are frozen snapshots
    # derive checks the state it is given
    with pytest.raises(ValueError):
        derive([np.ones(8), np.ones(7), np.zeros(8)], 0.0, EXPS)
    with pytest.raises(ValueError, match=r"shape \(3, n\)"):
        derive(np.ones((2, 8)), 0.0, EXPS)
    with pytest.raises(ValueError, match="partial masses must be nonnegative"):
        derive(np.array((-np.ones(8), np.ones(8), np.zeros(8))), 0.0, EXPS)
    with pytest.raises(ValueError, match="non-finite values in R"):
        derive(np.array((np.full(8, np.nan), np.ones(8), np.zeros(8))), 0.0, EXPS)
    # and validation checks the initial state before any solve
    with pytest.raises(ValidationError, match="nonnegative pointwise"):
        validate_config("[grid]\nn = 8\n[initial]\nR_value = -1.0\n")
    snap = tmp_path / "nan.csv"
    rows = "".join(f"{i},0.5,nan,1,0,1,0.5,1,1,1,0\n" for i in range(8))
    snap.write_text("i,x,R,Q,m,Z,alpha,rho_plus,rho_minus,p,u\n" + rows)
    text = f"[grid]\nn = 8\n[initial]\nR_preset = from_file\nR_path = {snap}\n"
    with pytest.raises(ValidationError, match="initial data: non-finite values in R"):
        validate_config(text)


# derive -----------------------------------------------------------------------


def test_derive_uniform_example():
    s = uniform_state(8, 1.0, 2.0, 1.0)
    d = derive(s, 0.0, EXPS)
    assert np.allclose(d.Z, 2.0, rtol=1e-12)
    assert np.allclose(d.alpha, 0.5, rtol=1e-12)
    assert np.allclose(d.p, 8.0, rtol=1e-12)
    assert np.allclose(d.u, 1.0, rtol=1e-14)
    assert not d.vacuum.any()


def test_derive_all_vacuum():
    s = uniform_state(8, 0.0, 0.0, 0.0)
    d = derive(s, 0.0, EXPS)
    assert d.vacuum.all()
    assert np.all(d.u == 0.0)
    assert np.all(d.Z == 0.0)
    assert np.all(d.alpha == 0.5)  # sentinel


def test_derive_locality():
    s = uniform_state(8, 1.0, 2.0, 1.0)
    s2 = s.copy()
    s2[0, 3] = 1.5
    d, d2 = derive(s, 0.0, EXPS), derive(s2, 0.0, EXPS)
    changed = d.Z != d2.Z
    assert changed[3] and np.count_nonzero(changed) == 1


def test_derive_subnormal_pure_phase():
    # Q = 0 must give Z = R exactly, so alpha = 1 even for a subnormal R
    d = derive(uniform_state(8, 5e-324, 0.0, 0.0), 0.0, EXPS)
    assert np.all(d.Z == 5e-324)
    assert np.all(d.alpha == 1.0)


def test_derive_underflowing_root_gives_pure_minus_phase():
    # gamma = 0.5: Z = Q**2 = 1e-400 underflows to 0 in a cell that is not vacuum
    d = derive(uniform_state(8, 0.0, 1e-200, 0.0), 0.0, ExponentPair(1.5, 3.0))
    assert np.all(d.Z == 0.0) and not d.vacuum.any()
    assert np.all(d.alpha == 0.0)


def test_derive_gamma_one_scaling():
    # with gamma = 1 the root is R + Q, so scaling (R, Q) scales Z linearly
    exps = ExponentPair(2.0, 2.0)
    s = uniform_state(8, 1.0, 2.0, 0.0)
    s2 = uniform_state(8, 3.0, 6.0, 0.0)
    assert np.allclose(3.0 * derive(s, 0.0, exps).Z, derive(s2, 0.0, exps).Z, rtol=1e-14)


@pytest.mark.parametrize("exps", [EXPS, ExponentPair(3.0, 1.4)])
def test_lazy_derived_fields_equal_the_eager_formulas(exps):
    # gamma = 2 and gamma != 2; regular, vacuum, subnormal pure-plus and
    # pure-minus cells
    R = np.array([1.3, 0.0, 5e-324, 0.0, 2.0])
    Q = np.array([0.4, 0.0, 0.0, 2.0, 1e-3])
    m = np.array([0.1, 0.0, -0.0, 0.5, -2.0])
    s = np.array((R, Q, m))
    d = derive(s, 0.0, exps)
    # one read-only (4, n) record: the state's rows, bit for bit, and Z
    assert d.V.shape == (4, 5) and not d.V.flags.writeable
    assert d.V[:3].tobytes() == s.tobytes()
    assert d.Z.tobytes() == closure.solve_closure_batch(R, Q, exps.gamma)[0].tobytes()
    assert all(a.base is d.V for a in (d.R, d.Q, d.m, d.Z, d.rho_plus))
    vac = (R == 0.0) & (Q == 0.0)
    tiny = np.finfo(float).smallest_subnormal
    alpha = np.where(vac, VACUUM_ALPHA, R / np.maximum(d.Z, tiny))
    # the run's buffer gets p and u from the closure of its stage
    ws = solver._Workspace(Grid1D(5, 1.0), SimConfig(), exps)
    ws.W.U[...] = s
    solver._close(ws.W, ws, None)
    for got, want in (
        (d.vacuum, vac),
        (d.alpha, alpha),
        (d.rho_minus, np.power(d.Z, exps.gamma)),
        (d.p, np.power(d.Z, exps.gamma_plus)),
        (d.u, m / np.maximum(R + Q, RHO_FLOOR)),
        (d.p, ws.W.p),
        (d.u, ws.W.u),
    ):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert d.alpha[2] == 1.0 and d.alpha[3] == 0.0 and d.u[1] == 0.0
    # a second read returns the array of the first, and the record stays frozen
    for name in ("alpha", "rho_minus", "vacuum", "p", "u"):
        assert getattr(d, name) is getattr(d, name)
    for name in ("alpha", "rho_minus", "vacuum", "p", "u", "Z", "V"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(d, name, np.zeros(5))
    # a reference re-wrapped over the V of a record whose columns were read
    # starts with none of them and reduces to the same row
    grid = Grid1D(5, 1.0, "noslip")
    own = derive(np.array((R + 0.5, Q + 0.25, m)), 0.0, exps)
    total_energy(own, grid)
    again = dataclasses.replace(own)
    assert again.V is own.V and set(vars(again)) == {"V", "exps", "t", "closure_iterations"}
    rows = [relative_entropy(d, ref, grid, nu_eff=0.3) for ref in (own, again)]
    assert rows[0] == rows[1]


@pytest.mark.parametrize(
    "gamma_plus, gamma_minus",
    [(3.0, 1.5), (3.0, 1.4), (1.4, 3.0), (2.5, 2.5), (100.0, 1.0001), (1.0001, 100.0), (100.0, 100.0)],
)
def test_every_pressure_is_finite_below_the_mass_bound(gamma_plus, gamma_minus):
    # gamma = 2, > 1, < 1, = 1 and the extremes of the exponent range: with
    # R and Q up to the largest float below the bound, p stays at most
    # max / 2 up to rounding, and the unchecked p is the checked one
    exps = ExponentPair(gamma_plus, gamma_minus)
    bound = finite_pressure_bound(exps)
    assert bound > 600.0
    masses = [0.0, 1e-300, 1.0, 600.0, np.nextafter(bound, 0.0)]
    R, Q = (a.ravel() for a in np.meshgrid(masses, masses))
    d = derive(np.array((R, Q, np.zeros(R.size))), 0.0, exps)
    assert (d.p <= np.finfo(float).max / 2.0 * (1.0 + 1e-12)).all()
    assert pressure(d.Z, R, Q, gamma_plus, finite=True).tobytes() == d.p.tobytes()


# integrals ----------------------------------------------------------------------


def test_total_mass_uniform():
    g = Grid1D(16, 1.0)
    s = derive(uniform_state(16, 1.0, 2.5, 0.0), 0.0, EXPS)
    mr, mq = total_mass(s, g)
    assert mr == pytest.approx(1.0, rel=1e-14)
    assert mq == pytest.approx(2.5, rel=1e-14)


def test_total_mass_linearity_and_reproducibility():
    g = Grid1D(32, 2.0)
    rng = np.random.default_rng(5)
    R = rng.uniform(0.1, 2.0, 32)
    s = derive(np.array((R, R, np.zeros(32))), 0.0, EXPS)
    s2 = derive(np.array((2.0 * R, 2.0 * R, np.zeros(32))), 0.0, EXPS)
    mr, _ = total_mass(s, g)
    mr2, _ = total_mass(s2, g)
    assert mr2 == pytest.approx(2.0 * mr, rel=1e-14)
    assert total_mass(s, g) == total_mass(s, g)  # bit-identical re-evaluation


def test_total_energy_uniform_example():
    g = Grid1D(8, 1.0)
    s = uniform_state(8, 1.0, 2.0, 1.0)
    # kinetic 3/2 + alpha H+ = 0.5 * 4 + (1-alpha) H- = 0.5 * 16
    assert total_energy(derive(s, 0.0, EXPS), g) == pytest.approx(11.5, rel=1e-12)


def test_total_energy_vacuum_and_velocity_sign():
    g = Grid1D(8, 1.0)
    assert total_energy(derive(uniform_state(8, 0.0, 0.0, 0.0), 0.0, EXPS), g) == 0.0
    e1 = total_energy(derive(uniform_state(8, 1.0, 2.0, 1.3), 0.0, EXPS), g)
    e2 = total_energy(derive(uniform_state(8, 1.0, 2.0, -1.3), 0.0, EXPS), g)
    assert e1 == e2


@given(
    R=st.floats(0.0, 5.0),
    Q=st.floats(0.0, 5.0),
    u=st.floats(-3.0, 3.0),
)
@example(R=5e-324, Q=0.0, u=0.0)
def test_total_energy_nonnegative(R, Q, u):
    g = Grid1D(8, 1.0)
    assert total_energy(derive(uniform_state(8, R, Q, u), 0.0, EXPS), g) >= 0.0


# essential window ------------------------------------------------------------------


def test_default_ess_window(tmp_path):
    # compare's coercivity window runs from half the minimum to twice
    # the maximum of the reference phase densities
    cfg = SimConfig(
        n=8, t_end=0.0, r_init=ProfileSpec(value=1.0), q_init=ProfileSpec(value=2.0)
    )
    _, payload = compare_runs(cfg, cfg, "twin", tmp_path)
    lo, hi = payload["ess_window"]
    assert lo == pytest.approx(1.0)  # half of min(2, 4)
    assert hi == pytest.approx(8.0)  # twice max(2, 4)


# restriction ----------------------------------------------------------------------


def test_restrict_block_average():
    R = np.arange(8, dtype=float) + 1.0
    d = derive(np.array((R, 2.0 * R, 3.0 * R)), 0.5, EXPS)
    c = restrict(d, 2)
    assert c.shape == (3, 4)
    assert np.allclose(c[0], [1.5, 3.5, 5.5, 7.5])
    assert np.allclose(c[1], 2.0 * c[0])
    # each row is the per-row block average, bit for bit
    for row, fine in zip(c, d.V[:3]):
        assert row.tobytes() == fine.reshape(-1, 2).mean(axis=1).tobytes()
    with pytest.raises(ValueError):
        restrict(d, 3)


def test_restrict_preserves_mass():
    g_f = Grid1D(64, 1.0)
    g_c = Grid1D(16, 1.0)
    rng = np.random.default_rng(2)
    s = np.array((rng.uniform(0.5, 2, 64), rng.uniform(0.5, 2, 64), rng.uniform(-1, 1, 64)))
    d = derive(s, 0.0, EXPS)
    c = derive(restrict(d, 4), 0.0, EXPS)
    assert total_mass(d, g_f)[0] == pytest.approx(total_mass(c, g_c)[0], rel=1e-14)


# snapshots -------------------------------------------------------------------------


def test_snapshot_round_trip(tmp_path):
    g = Grid1D(8, 1.0)
    rng = np.random.default_rng(9)
    s = np.array((rng.uniform(0.5, 2, 8), rng.uniform(0.5, 2, 8), rng.uniform(-1, 1, 8)))
    d = derive(s, 0.0, EXPS)
    p = tmp_path / "snap.csv"
    write_snapshot(p, g, snapshot_columns(d))
    data = read_snapshot(p)
    assert np.array_equal(data["R"], s[0])  # 17 significant digits round-trip exactly
    assert np.array_equal(data["Q"], s[1])
    assert np.array_equal(data["m"], s[2])
    assert np.array_equal(data["Z"], d.Z)
    assert np.array_equal(data["u"], d.u)


def test_snapshot_bytes_deterministic(tmp_path):
    g = Grid1D(8, 1.0)
    s = uniform_state(8, 1.0, 2.0, 0.25)
    d = derive(s, 0.0, EXPS)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_snapshot(p1, g, snapshot_columns(d))
    write_snapshot(p2, g, snapshot_columns(d))
    assert p1.read_bytes() == p2.read_bytes()
    header = p1.read_text().splitlines()[0]
    assert header == "i,x,R,Q,m,Z,alpha,rho_plus,rho_minus,p,u"


def _reference_write_snapshot(path, grid, derived):
    """The per-cell writer the template writer replaced: one format() per value."""

    def fmt(v):
        return format(float(v), ".17g")

    x = grid.x
    d = derived
    with open(path, "w", newline="\n") as fh:
        fh.write("i,x,R,Q,m,Z,alpha,rho_plus,rho_minus,p,u\n")
        for i in range(grid.n):
            row = [str(i), fmt(x[i])] + [
                fmt(a[i])
                for a in (d.R, d.Q, d.m, d.Z, d.alpha, d.rho_plus, d.rho_minus, d.p, d.u)
            ]
            fh.write(",".join(row) + "\n")


def _assert_same_bytes(tmp_path, grid, derived):
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    write_snapshot(got, grid, snapshot_columns(derived))
    _reference_write_snapshot(want, grid, derived)
    assert got.read_bytes() == want.read_bytes()


def test_snapshot_bytes_match_per_cell_reference_on_edge_values(tmp_path):
    g = Grid1D(8, 1.0, "noslip")
    R = np.array([5e-324, 1.0, 0.0, 1e300, 2.0, 1e-310, 0.5, 1.0])
    Q = np.array([5e-324, 0.0, 0.0, 1e300, 1.0, 0.0, 1e-300, 3.0])
    m = np.array([-0.0, -0.0, 0.0, 1e300, -1.5, 1e300, -1e-320, 0.1])
    s = np.array((R, Q, m))
    # Z = O(1e300) overflows p = Z**3 on first read, which raises
    with pytest.raises(ClosureOverflowError, match=r"at cells \[3\] \(cell 3: R = 1e\+300, Q = 1e\+300\)"):
        derive(s, 0.0, EXPS).p
    s[:2, 3] = 1e100  # Z = O(1e100): p is finite
    with np.errstate(over="ignore"):  # u = m / RHO_FLOOR overflows on first read
        d = derive(s, 0.0, EXPS)
        assert np.isinf(d.u[5]) and np.isfinite(d.p).all()
    assert d.vacuum[2] and d.alpha[2] == VACUUM_ALPHA == 0.5  # vacuum cell with the sentinel
    assert np.signbit(d.u[0]) and d.Q[0] == 5e-324
    _assert_same_bytes(tmp_path, g, d)
    text = (tmp_path / "got.csv").read_text()
    assert ",-0," in text and ",4.9406564584124654e-324," in text and ",inf\n" in text


def test_snapshot_bytes_match_reference_on_non_finite_derived_fields(tmp_path):
    g = Grid1D(6, 2.0)
    s = uniform_state(6, 1.0, 2.0, -0.25)
    odd = np.array([np.inf, -np.inf, np.nan, -0.0, 5e-324, 1.7976931348623157e308])
    # Z as small as a float goes, and as large as a finite pressure Z**3 allows
    Z = np.array([0.0, -0.0, 5e-324, 1e-300, 1e100, 5.6e102])
    d = DerivedFields(np.vstack((s[:2], odd[::-1], Z)), EXPS, 0.0)
    with np.errstate(all="ignore"):  # the computed columns follow the odd m and Z
        _assert_same_bytes(tmp_path, g, d)


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=1e300),
            st.floats(min_value=0.0, max_value=1e300),
            st.floats(allow_nan=False, allow_infinity=False),
        ),
        min_size=4,
        max_size=12,
    )
)
def test_snapshot_bytes_match_reference_for_any_state(cells):
    R, Q, m = (np.array(c) for c in zip(*cells))
    s = np.array((R, Q, m))
    g = Grid1D(len(cells), 3.0)
    # alpha and rho_minus are derived on first read, by the writer
    with np.errstate(all="ignore"), tempfile.TemporaryDirectory() as tmp:
        d = derive(s, 0.0, EXPS)
        if np.isinf(np.power(d.Z, EXPS.gamma_plus)).any():
            with pytest.raises(ClosureOverflowError):
                d.p  # a record whose pressure overflows is never written
            return
        _assert_same_bytes(Path(tmp), g, d)


def test_snapshot_bytes_match_reference_across_row_blocks(tmp_path):
    n = SNAPSHOT_BLOCK_ROWS + 5
    rng = np.random.default_rng(4)
    s = np.array((rng.uniform(0.5, 2, n), rng.uniform(0.5, 2, n), rng.uniform(-1, 1, n)))
    _assert_same_bytes(tmp_path, Grid1D(n, 1.0), derive(s, 0.0, EXPS))


def test_snapshot_template_is_keyed_by_the_whole_grid(tmp_path):
    # same n, different length or bc, written one after the other: a
    # template cached by n alone would repeat the first grid's x column
    s = uniform_state(8, 1.0, 2.0, 0.25)
    d = derive(s, 0.0, EXPS)
    for g in (Grid1D(8, 1.0), Grid1D(8, 2.5), Grid1D(8, 2.5, "noslip"), Grid1D(8, 1.0)):
        _assert_same_bytes(tmp_path, g, d)
        assert np.array_equal(read_snapshot(tmp_path / "got.csv")["x"], g.x)
