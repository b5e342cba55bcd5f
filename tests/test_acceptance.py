"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line.  Run with `pytest -s tests/test_acceptance.py` to see the
lines; all tolerances are fixed here, not calibrated at runtime."""

import json
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from bifluid.cli import main
from bifluid import solver
from bifluid.closure import ClosureOverflowError, MaxIterExceededError, solve_closure_batch
from bifluid.config import ProfileSpec, SimConfig
from bifluid.fields import derive, restrict, total_mass
from bifluid.solver import NonFiniteStateError, PositivityLossError, ZeroDtError
from bifluid.verify import (
    alpha_stability_check,
    coercivity_check,
    convergence_study,
    energy_audit,
    relative_entropy,
)
from oracles import alpha_partials_batch, flipped_advection_rhs, fraction_terms

# the runtime errors of a solve that blows up; any other error is a fault of
# the test, not a diverged negative control
CONTROL_BLOW_UPS = (
    ZeroDtError,
    PositivityLossError,
    NonFiniteStateError,
    MaxIterExceededError,
    ClosureOverflowError,
)

SEED = 20260810
GAMMA_PAIRS = {0.5: (1.5, 3.0), 1.0: (2.0, 2.0), 1.5: (3.0, 2.0), 2.0: (3.0, 1.5), 3.0: (4.5, 1.5)}


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _sample(gamma, size=2000):
    rng = np.random.default_rng(SEED + int(10 * gamma))
    return rng.uniform(0.0, 10.0, size), rng.uniform(0.0, 10.0, size)


def _bisection_oracle(R, Q, gamma, halvings=200):
    # independent of the production solver: pure bisection on a doubled bracket
    R = np.asarray(R, float)
    Q = np.asarray(Q, float)

    def f(z):
        zp = np.where(z > 0.0, np.power(np.where(z > 0.0, z, 1.0), gamma - 1.0), 0.0)
        return (z - R) * zp - Q

    lo = R.copy()
    hi = np.maximum(np.maximum(R, np.power(Q, 1.0 / gamma)), 1e-30)
    for _ in range(200):
        neg = f(hi) < 0.0
        if not neg.any():
            break
        lo = np.where(neg, hi, lo)
        hi = np.where(neg, 2.0 * hi, hi)
    for _ in range(halvings):
        mid = 0.5 * (lo + hi)
        neg = f(mid) < 0.0
        lo = np.where(neg, mid, lo)
        hi = np.where(neg, hi, mid)
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------- criterion 1


def test_criterion_1_closure_oracle_equivalence():
    t0 = time.perf_counter()
    worst = 0.0
    total = 0
    for gamma in GAMMA_PAIRS:
        R, Q = _sample(gamma)
        Z, _ = solve_closure_batch(R, Q, gamma)
        Z_oracle = _bisection_oracle(R, Q, gamma)
        rel = float(np.max(np.abs(Z - Z_oracle) / np.maximum(Z_oracle, 1e-300)))
        worst = max(worst, rel)
        total += R.size
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 5.0 and total == 10000
    _report(1, ok, f"{total} samples, worst rel gap {worst:.3e}, {elapsed:.2f}s")


# ---------------------------------------------------------------- criterion 2


def test_criterion_2_closure_identities():
    worst_press = worst_rel = worst_euler = worst_fd = 0.0
    for gamma, (gp, gm) in GAMMA_PAIRS.items():
        R, Q = _sample(gamma)
        Z, _ = solve_closure_batch(R, Q, gamma)
        alpha = np.where(Z > 0.0, R / np.where(Z > 0.0, Z, 1.0), 0.0)
        p = np.power(Z, gp)
        press = np.abs(np.power(Z, gp) - np.power(np.power(Z, gamma), gm))
        worst_press = max(worst_press, float(np.max(press / np.maximum(p, 1.0))))
        lhs = np.power(R, gamma) * (1.0 - alpha)
        rhs = Q * np.power(alpha, gamma)
        scale = np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), 1e-300)
        live = (R > 0.0) | (Q > 0.0)
        worst_rel = max(worst_rel, float(np.max(np.abs(lhs - rhs)[live] / scale[live])))

        dR, dQ, om = alpha_partials_batch(R, Q, gamma)
        worst_euler = max(worst_euler, float(np.max(np.abs(dR * R + dQ * Q - om))))

        # finite differences need room around the sample point
        Rb, Qb = np.maximum(R, 1e-3), np.maximum(Q, 1e-3)
        dRb, dQb, _ = alpha_partials_batch(Rb, Qb, gamma)
        hR = 1e-6 * (1.0 + np.abs(Rb))
        hQ = 1e-6 * (1.0 + np.abs(Qb))

        def alpha_of(r, q):
            z, _ = solve_closure_batch(r, q, gamma)
            return r / z

        fdR = (alpha_of(Rb + hR, Qb) - alpha_of(Rb - hR, Qb)) / (2.0 * hR)
        fdQ = (alpha_of(Rb, Qb + hQ) - alpha_of(Rb, Qb - hQ)) / (2.0 * hQ)
        worst_fd = max(
            worst_fd,
            float(np.max(np.abs(fdR - dRb) / (np.abs(dRb) + 1e-8))),
            float(np.max(np.abs(fdQ - dQb) / (np.abs(dQb) + 1e-8))),
        )
    ok = worst_press <= 1e-9 and worst_rel <= 1e-9 and worst_euler <= 1e-9 and worst_fd <= 1e-5
    _report(
        2,
        ok,
        f"pressure {worst_press:.2e}, mass identity {worst_rel:.2e}, "
        f"euler {worst_euler:.2e}, finite-diff {worst_fd:.2e}",
    )


# ---------------------------------------------------------------- criteria 3, 4


@pytest.fixture(scope="module")
def bump_run(run_collecting):
    cfg = SimConfig(
        n=512,
        gamma_plus=3.0,
        gamma_minus=1.5,
        mu=0.1,
        lam=0.0,
        t_end=0.2,
        n_snapshots=11,
        cfl=0.9,
        r_init=ProfileSpec(preset="gaussian_bump", base=1.0, amplitude=0.5, center=0.5, width=0.08),
        q_init=ProfileSpec(preset="gaussian_bump", base=1.0, amplitude=0.3, center=0.4, width=0.1),
        u_init=ProfileSpec(preset="uniform", value=0.0),
    )
    t0 = time.perf_counter()
    traj, states = run_collecting(cfg)
    return traj, states, time.perf_counter() - t0


def test_criterion_3_conservation(bump_run):
    traj, states, elapsed = bump_run
    m0 = total_mass(states[0], traj.grid)
    drift_r = max(abs(total_mass(s, traj.grid)[0] - m0[0]) for s in states) / m0[0]
    drift_q = max(abs(total_mass(s, traj.grid)[1] - m0[1]) for s in states) / m0[1]
    ok = drift_r <= 1e-12 and drift_q <= 1e-12 and elapsed < 30.0
    _report(
        3,
        ok,
        f"n=512 bump run: drift R {drift_r:.2e}, Q {drift_q:.2e}, "
        f"{traj.n_steps} steps in {elapsed:.1f}s",
    )


def test_criterion_4_energy_inequality(bump_run):
    traj, _, _ = bump_run
    aud = energy_audit(traj, eps_E=1e-3)
    ok = aud.passed and not aud.skipped  # positivity loss would have raised
    _report(4, ok, f"worst margin {aud.worst_margin:.3e} against budget 1e-3")


# ---------------------------------------------------------------- criterion 5


def _mms_cfg(**kw):
    d = dict(n=128, gamma_plus=3.0, gamma_minus=1.5, mu=0.02, t_end=0.05, n_snapshots=2, mms_enabled=True)
    d.update(kw)
    return SimConfig(**d)


def test_criterion_5_mms_convergence_and_negative_control(monkeypatch):
    rep = convergence_study(_mms_cfg(), levels=3)
    min_order = rep.min_order()
    # the negative control: the same study with the advective fluxes
    # entering with the wrong sign, an inconsistent scheme by construction
    broken_calls = []

    def broken_rhs(*args):
        broken_calls.append(1)
        return flipped_advection_rhs(*args)

    monkeypatch.setattr(solver, "_rhs", broken_rhs)
    try:
        with np.errstate(all="ignore"):  # the broken scheme is expected to overflow
            broken = convergence_study(_mms_cfg(), levels=3)
        control_fails = broken.min_order() < 0.8
        control_note = f"control min order {broken.min_order():.2f}"
    except CONTROL_BLOW_UPS as exc:  # blow-up counts as failing the control
        control_fails = True
        control_note = f"control diverged ({type(exc).__name__})"
    assert broken_calls, "the negative control never ran its broken rhs"
    ok = min_order >= 0.8 and control_fails
    orders = {v: [round(o, 3) for o in rep.orders[v]] for v in rep.orders}
    _report(5, ok, f"orders {orders} (min {min_order:.3f}); {control_note}")


# ---------------------------------------------------------------- criterion 6


def _smooth_cfg(n, **kw):
    d = dict(
        n=n,
        gamma_plus=3.0,
        gamma_minus=1.5,
        mu=0.1,
        t_end=0.1,
        n_snapshots=6,
        r_init=ProfileSpec(preset="sine", base=1.5, amplitude=0.3),
        q_init=ProfileSpec(preset="sine", base=1.5, amplitude=-0.2, waves=2.0),
        u_init=ProfileSpec(preset="sine", base=0.0, amplitude=0.2),
    )
    d.update(kw)
    return SimConfig(**d)


def test_criterion_6_alpha_evolution_consistency(run_collecting):
    gaps = []
    for n in (32, 64, 128, 256):
        traj, derived = run_collecting(_smooth_cfg(n, track_alpha=True, n_snapshots=2))
        a_transport = traj.alpha_transported
        a_closure = derived[-1].alpha
        gaps.append(float(np.sum(np.abs(a_transport - a_closure)) * traj.grid.dx))
    ok = all(g1 > g2 for g1, g2 in zip(gaps, gaps[1:]))
    _report(6, ok, "L1 gaps " + ", ".join(f"{g:.3e}" for g in gaps))


# ---------------------------------------------------------------- criterion 7


def _rows(traj, cfg, derived_a, derived_b):
    """Relative energy of each snapshot pair, with the run's nu_eff."""
    return [
        relative_entropy(da, db, traj.grid, nu_eff=cfg.nu_eff)
        for da, db in zip(derived_a, derived_b, strict=True)
    ]


@pytest.fixture(scope="module")
def fine_reference(run_collecting):
    return run_collecting(_smooth_cfg(512))


def test_criterion_7_weak_strong_stability(fine_reference, run_collecting):
    _, states_f = fine_reference
    max_es = []
    for nc in (32, 64, 128, 256):  # three coarse-grid doublings
        cfg = _smooth_cfg(nc)
        exps = cfg.exponents()
        tc, da = run_collecting(cfg)
        factor = 512 // nc
        db = [derive(restrict(s, factor), s.t, exps) for s in states_f]
        rows = _rows(tc, cfg, da, db)
        max_es.append(max(r.E_total for r in rows))
    decreasing = all(a > b for a, b in zip(max_es, max_es[1:]))

    # quadratic response to initial-data perturbations of size eps, eps/2, eps/4
    _, db = run_collecting(_smooth_cfg(128))
    peaks = []
    for eps in (0.08, 0.04, 0.02):
        cfg = _smooth_cfg(128, perturb_epsilon=eps, perturb_seed=SEED, perturb_modes=3)
        ta, da = run_collecting(cfg)
        rows = _rows(ta, cfg, da, db)
        peaks.append(max(r.E_total for r in rows))
    ratios = [peaks[0] / peaks[1], peaks[1] / peaks[2]]
    quad = all(3.2 <= r <= 5.0 for r in ratios)
    ok = decreasing and quad
    _report(
        7,
        ok,
        "max E " + ", ".join(f"{e:.3e}" for e in max_es)
        + "; perturbation ratios " + ", ".join(f"{r:.2f}" for r in ratios),
    )


# ---------------------------------------------------------------- criterion 8


def _velocity_pair(run_collecting, n):
    # same masses, velocity amplitudes 0.25 vs 0.2: the fraction gap starts
    # at zero and is generated by the run, which exercises the fitted term
    ta, da = run_collecting(
        _smooth_cfg(n, u_init=ProfileSpec(preset="sine", base=0.0, amplitude=0.25))
    )
    _, db = run_collecting(_smooth_cfg(n))
    return ta, da, db


def test_criterion_8_alpha_stability_constant(run_collecting):
    cs = []
    for n in (128, 256):
        ta, da, db = _velocity_pair(run_collecting, n)
        terms = [fraction_terms(a.alpha, b.alpha, a.u, b.u, ta.grid) for a, b in zip(da, db)]
        rep = alpha_stability_check(
            [A for A, _ in terms], [w for _, w in terms], ta.times, delta=1e-4
        )
        cs.append(rep.C_delta)
    finite = all(math.isfinite(c) for c in cs)
    positive = all(c > 0.0 for c in cs)
    stable = max(cs) <= 2.0 * min(cs)
    ok = finite and positive and stable
    _report(8, ok, f"C_delta {cs[0]:.4g} (n=128) vs {cs[1]:.4g} (n=256)")


# ---------------------------------------------------------------- criterion 9


def test_criterion_9_coercivity_constant():
    rng = np.random.default_rng(SEED)
    n = 128
    cfg = _smooth_cfg(n)
    grid, exps = cfg.grid(), cfg.exponents()
    Rb = np.full(n, 1.2)
    Qb = np.full(n, 2.0)
    ref = derive(np.array((Rb, Qb, np.zeros(n))), 0.0, exps)
    x = grid.x
    cs = []
    for _ in range(8):
        k1, k2 = rng.integers(1, 4, 2)
        pr = 0.05 * np.sin(2 * np.pi * k1 * x + rng.uniform(0, 2 * np.pi))
        pq = 0.05 * np.cos(2 * np.pi * k2 * x + rng.uniform(0, 2 * np.pi))
        da = derive(np.array((Rb + pr, Qb + pq, np.zeros(n))), 0.0, exps)
        row = relative_entropy(da, ref, grid)
        rep = coercivity_check(row, da, ref, grid, c_star=0.5, c_star_upper=8.0)
        assert rep.n_res == 0  # perturbations stay inside the window
        cs.append(rep.C_lb)
    positive = all(0.0 < c < math.inf for c in cs)
    stable = max(cs) <= 2.0 * min(cs)
    ok = positive and stable
    _report(9, ok, f"C_lb in [{min(cs):.4f}, {max(cs):.4f}] over 8 samples")


# ---------------------------------------------------------------- criterion 10


TWIN_CFG = """
[exponents]
gamma_plus = 3.0
gamma_minus = 1.5

[grid]
n = 64

[time]
t_end = 0.02
n_snapshots = 3

[initial]
R_preset = gaussian_bump
R_base = 1.0
R_amplitude = 0.5
Q_preset = gaussian_bump
Q_base = 1.0
Q_amplitude = 0.3
Q_center = 0.4
"""


def test_criterion_10_determinism(tmp_path):
    cfg_path = tmp_path / "twin.ini"
    cfg_path.write_text(TWIN_CFG)
    out1, out2 = str(tmp_path / "o1"), str(tmp_path / "o2")
    assert main(["run", "--config", str(cfg_path), "--out", out1]) == 0
    assert main(["run", "--config", str(cfg_path), "--out", out2]) == 0
    identical = True
    for name in sorted(os.listdir(out1)):
        b1 = Path(os.path.join(out1, name)).read_bytes()
        b2 = Path(os.path.join(out2, name)).read_bytes()
        identical = identical and b1 == b2

    out_cmp = str(tmp_path / "cmp")
    argv = ["compare", "--config", str(cfg_path), "--config-b", str(cfg_path), "--out", out_cmp]
    assert main(argv + ["--ref-mode", "twin"]) == 0
    payload = json.loads(Path(os.path.join(out_cmp, "verify.json")).read_text())
    at_floor = payload["gronwall"]["at_noise_floor"]
    max_e = payload["gronwall"]["max_E"]
    noise = payload["noise_floor"]
    ok = identical and at_floor and max_e < noise
    _report(10, ok, f"twin outputs byte-identical={identical}, max E {max_e:.1e} < noise {noise:.1e}")
