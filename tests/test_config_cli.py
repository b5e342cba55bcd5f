import dataclasses
import json
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import bifluid
from bifluid import cli, closure, config, solver, verify
from bifluid.cli import main
from bifluid.closure import VACUUM_ALPHA, ExponentPair, solve_closure_batch
from bifluid.config import ParseError, ValidationError, _uniform_draws, validate_config
from bifluid.fields import derive
from oracles import flipped_advection_rhs, fraction_terms

MINIMAL = """
[exponents]
gamma_plus = 3.0
gamma_minus = 1.5
"""


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def _argv(command, config, *rest):
    """The argv of command on the config file config; a compare takes it as
    both of its configs, a twin of itself."""
    argv = [command, "--config", config, *rest]
    return argv + ["--config-b", config] if command == "compare" else argv


# parsing and validation -------------------------------------------------------


def test_minimal_config_accepted_no_warnings():
    cfg, warnings = validate_config(MINIMAL)
    assert cfg.gamma_plus == 3.0 and cfg.gamma_minus == 1.5
    assert warnings == []
    assert cfg.n == 256  # defaulted


def test_gamma_minus_one_rejected():
    with pytest.raises(ValidationError, match="gamma_minus"):
        validate_config("[exponents]\ngamma_plus = 3.0\ngamma_minus = 1.0\n")


def test_low_gamma_plus_warns():
    cfg, warnings = validate_config("[exponents]\ngamma_plus = 1.7\ngamma_minus = 1.2\n")
    assert any("9/5" in w for w in warnings)


def test_comparability_warning_when_R_vanishes_under_Q():
    text = MINIMAL + "\n[initial]\nR_preset = uniform\nR_value = 0.0\n"
    cfg, warnings = validate_config(text)
    assert any("comparability" in w for w in warnings)


def test_unknown_section_and_key_rejected():
    with pytest.raises(ValidationError, match="unknown config section"):
        validate_config(MINIMAL + "\n[turbulence]\nmodel = k-epsilon\n")
    with pytest.raises(ValidationError, match="unknown key"):
        validate_config(MINIMAL + "\n[grid]\ncells = 32\n")


def test_cli_tolerances_section_is_a_config_error(tmp_path, capsys):
    # the closure tolerance, the positivity tolerance, the vacuum sentinel and
    # the density floor are constants of the program, not settings of a run
    path = write(tmp_path, "tol.ini", MINIMAL + "\n[tolerances]\nclosure_tol = 1e-12\n")
    out = tmp_path / "o"
    assert main(["run", "--config", path, "--out", str(out)]) == 2
    assert capsys.readouterr().err == "config error: unknown config section [tolerances]\n"
    assert not out.exists()


def test_every_config_field_has_exactly_one_ini_key():
    # a field that no key sets is a dead knob; a key that sets no field, or
    # a field that two keys set, is one value with two spellings
    schema = config._schema()
    keys = [(section, key) for section, items in schema for key, _ in items]
    targets = [attr for _, items in schema for _, attr in items]
    defaults = config.SimConfig()
    fields = []  # a ProfileSpec's fields as (profile, field) pairs
    for f in dataclasses.fields(defaults):
        if isinstance(getattr(defaults, f.name), config.ProfileSpec):
            fields += [(f.name, g.name) for g in dataclasses.fields(config.ProfileSpec)]
        else:
            fields.append(f.name)
    assert len(set(keys)) == len(keys) == len(set(targets)) == len(targets) == 48
    assert set(targets) == set(fields) and len(fields) == 48


def test_parse_error_carries_line():
    with pytest.raises(ParseError, match="line"):
        validate_config("gamma_plus = 3.0\n")  # key before any section


def test_type_errors_name_the_field():
    with pytest.raises(ValidationError, match="grid.*n|n.*integer"):
        validate_config(MINIMAL + "\n[grid]\nn = many\n")
    with pytest.raises(ValidationError, match="boolean"):
        validate_config(MINIMAL + "\n[verification]\ntrack_alpha = maybe\n")


@pytest.mark.parametrize(
    "section, key", [("exponents", "gamma_plus"), ("time", "t_end"), ("initial", "R_amplitude")]
)
@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
def test_non_finite_floats_rejected(tmp_path, section, key, value):
    text = f"[{section}]\n{key} = {value}\n"
    with pytest.raises(ValidationError, match="finite"):
        validate_config(text)
    assert main(["validate", "--config", write(tmp_path, "nf.ini", text)]) == 2


def test_constraint_errors():
    with pytest.raises(ValidationError, match="cfl"):
        validate_config(MINIMAL + "\n[time]\ncfl = 1.5\n")
    with pytest.raises(ValidationError, match="time.cfl"):
        validate_config(MINIMAL + "\n[time]\ncfl = 0\n")
    with pytest.raises(ValidationError, match="viscosity.mu"):
        validate_config(MINIMAL + "\n[viscosity]\nmu = -0.1\n")
    with pytest.raises(ValidationError, match="time.integrator"):
        validate_config(MINIMAL + "\n[time]\nintegrator = rk4\n")
    with pytest.raises(ValidationError, match="lambda"):
        validate_config(MINIMAL + "\n[viscosity]\nmu = 0.1\nlambda = -1.0\n")
    with pytest.raises(ValidationError, match="allow_inviscid"):
        validate_config(MINIMAL + "\n[viscosity]\nmu = 0.0\n")
    with pytest.raises(ValidationError, match="nonnegative pointwise"):
        validate_config(
            MINIMAL + "\n[initial]\nR_preset = sine\nR_base = 0.1\nR_amplitude = 0.5\n"
        )


def test_manufactured_amplitudes_validated():
    with pytest.raises(ValidationError, match="initial data"):
        validate_config(MINIMAL + "\n[mms]\nenabled = true\na = 0.1\nb = 0.5\n")


def test_perturbation_deterministic_and_grid_independent():
    cfg, _ = validate_config(MINIMAL + "\n[perturbation]\nepsilon = 0.05\nseed = 3\n")
    s1 = cfg.initial_state(cfg.grid())
    s2 = cfg.initial_state(cfg.grid())
    assert np.array_equal(s1[0], s2[0])
    # same smooth function on a 3x refined grid, where cell centers coincide
    fine = cfg.with_resolution(768)
    sf = fine.initial_state(fine.grid())
    assert np.allclose(sf[0, 1::3], s1[0], rtol=0, atol=1e-12)


# the benchmark's compare_dense seeds, the edges of one and of two 32-bit
# seed words, a 30-digit seed and seeds of more than the 4 words of numpy's
# entropy pool
NOISE_SEEDS = (
    list(range(280))
    + list(range(20260810, 20260818))
    + [2**32 - 1, 2**32, 2**64 - 1, 2**64 + 5, 10**29 + 123456789, 2**128 + 3, 3**200]
    + [(7919 * j) ** 5 for j in range(1, 16)]
)


def test_noise_draws_are_numpys_default_rng_uniform_stream():
    for seed in NOISE_SEEDS:
        k = 1 + seed % 30
        want = np.random.default_rng(seed).uniform(-1.0, 1.0, k)
        got = np.array(_uniform_draws(seed, k))
        assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist(), seed
    for k in range(1, 31):  # every length, and each a prefix of the next
        want = np.random.default_rng(20260810).uniform(-1.0, 1.0, k)
        assert _uniform_draws(20260810, k) == want.tolist()
    with pytest.raises(ValueError, match="nonnegative"):
        _uniform_draws(-1, 1)  # not the words of 2**32 - 1


def test_perturbation_is_numpys_draw_order_for_r_q_u():
    # per field, modes sine weights then modes cosine weights, from one stream
    cfg = validate_config(MINIMAL + "\n[perturbation]\nepsilon = 0.05\nseed = 11\nmodes = 4\n")[0]
    x = cfg.grid().x
    rng = np.random.default_rng(11)
    phase = 2.0 * np.pi * np.outer(np.arange(1, 5), x) / cfg.length
    for got in cfg._perturbations(x):
        cs, cc = rng.uniform(-1.0, 1.0, 4), rng.uniform(-1.0, 1.0, 4)
        norm = np.sqrt(np.sum(cs * cs + cc * cc))
        assert np.array_equal(got, (cs @ np.sin(phase) + cc @ np.cos(phase)) / norm)


def test_perturbation_modes_above_half_the_grid_fail_fast(monkeypatch):
    # a mode above n // 2 aliases onto a lower one on the grid; the check
    # comes before the draws and the (modes, n) tables, which grow with modes
    draws = []
    monkeypatch.setattr(config, "_uniform_draws", lambda *a: draws.append(a))
    text = MINIMAL + "\n[grid]\nn = 64\n[perturbation]\nepsilon = 0.01\nmodes = {}\n"
    t0 = time.perf_counter()
    for modes in (33, 2_000_000):
        with pytest.raises(ValidationError, match=r"^perturbation\.modes: must be at most n // 2 = 32"):
            validate_config(text.format(modes))
    assert time.perf_counter() - t0 < 1.0
    assert draws == []
    monkeypatch.undo()
    validate_config(text.format(32))
    validate_config(text.format(2_000_000).replace("epsilon = 0.01", "epsilon = 0.0"))


def test_perturbation_memory_does_not_grow_with_modes_times_cells():
    # the modes are summed in blocks; (modes, n) tables took 192 MB here
    import tracemalloc

    text = MINIMAL + "\n[grid]\nn = 4096\n[perturbation]\nepsilon = 0.01\nmodes = 2048\n"
    tracemalloc.start()
    try:
        validate_config(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32e6


def test_from_file_preset(tmp_path):
    cfg, _ = validate_config(MINIMAL + "\n[grid]\nn = 16\n[time]\nt_end = 0.0\n")
    from bifluid.fields import derive, snapshot_columns, write_snapshot

    grid = cfg.grid()
    state = cfg.initial_state(grid)
    snap = tmp_path / "init.csv"
    write_snapshot(snap, grid, snapshot_columns(derive(state, 0.0, cfg.exponents())))
    text = (
        MINIMAL
        + "\n[grid]\nn = 16\n[time]\nt_end = 0.0\n"
        + f"[initial]\nR_preset = from_file\nR_path = {snap}\n"
    )
    cfg2, _ = validate_config(text)
    s2 = cfg2.initial_state(cfg2.grid())
    assert np.array_equal(s2[0], state[0])


def test_validate_config_reads_a_from_file_snapshot_once(tmp_path, monkeypatch):
    from bifluid import config
    from bifluid.fields import derive, snapshot_columns, write_snapshot

    cfg, _ = validate_config(MINIMAL + "\n[grid]\nn = 16\n[time]\nt_end = 0.0\n")
    state = cfg.initial_state(cfg.grid())
    snap = tmp_path / "init.csv"
    write_snapshot(snap, cfg.grid(), snapshot_columns(derive(state, 0.0, cfg.exponents())))
    reads = []

    def counting_read(path):
        reads.append(path)
        return real_read(path)

    real_read = config.read_snapshot
    monkeypatch.setattr(config, "read_snapshot", counting_read)
    # gamma_plus below 9/5 gives warnings, which must not rebuild the state;
    # R, Q and u restart from one file, which is read once
    text = (
        MINIMAL.replace("gamma_plus = 3.0", "gamma_plus = 1.6")
        + "\n[grid]\nn = 16\n[time]\nt_end = 0.0\n[initial]\n"
        + "".join(f"{f}_preset = from_file\n{f}_path = {snap}\n" for f in "RQu")
    )
    cfg2, warnings = validate_config(text)
    assert reads == [str(snap)]
    restart = cfg2.initial_state(cfg2.grid())
    assert warnings and warnings == cfg2.admissibility_warnings(restart)
    assert np.array_equal(restart, state)


def test_snapshot_times_and_resolution_helpers():
    cfg, _ = validate_config(MINIMAL + "\n[time]\nt_end = 1.0\nn_snapshots = 5\n")
    assert cfg.snapshot_times() == [0.0, 0.25, 0.5, 0.75, 1.0]
    assert cfg.with_resolution(128).n == 128
    cfg0, _ = validate_config(MINIMAL + "\n[time]\nt_end = 0.0\n")
    assert cfg0.snapshot_times() == [0.0]


# CLI ---------------------------------------------------------------------------


RUN_CFG = (
    MINIMAL
    + """
[grid]
n = 32

[time]
t_end = 0.01
n_snapshots = 3

[initial]
R_preset = sine
R_base = 1.5
R_amplitude = 0.3
Q_preset = sine
Q_base = 1.5
Q_amplitude = -0.2
"""
)

# all-vacuum initial data cannot produce a stable step
VACUUM_CFG = (
    RUN_CFG.replace("R_base = 1.5", "R_base = 0.0")
    .replace("R_amplitude = 0.3", "R_amplitude = 0.0")
    .replace("Q_base = 1.5", "Q_base = 0.0")
    .replace("Q_amplitude = -0.2", "Q_amplitude = 0.0")
)


def test_cli_validate(tmp_path, capsys):
    path = write(tmp_path, "ok.ini", RUN_CFG)
    assert main(["validate", "--config", path]) == 0
    assert "config ok" in capsys.readouterr().out
    bad = write(tmp_path, "bad.ini", "[exponents]\ngamma_plus = 0.5\n")
    assert main(["validate", "--config", bad]) == 2
    big = write(tmp_path, "big.ini", "[exponents]\ngamma_plus = 1e5\n")
    capsys.readouterr()
    assert main(["validate", "--config", big]) == 2
    assert capsys.readouterr().err == "config error: exponents.gamma_plus: must lie in (1, 100]\n"
    assert main(["validate", "--config", str(tmp_path / "missing.ini")]) == 2


@pytest.mark.parametrize("epsilon", ["0.05", "0.0"])
@pytest.mark.parametrize("command", ["validate", "run"])
def test_cli_negative_perturbation_seed_is_a_config_error(tmp_path, capsys, command, epsilon):
    # numpy's own message once leaked through: "initial data: expected
    # non-negative integer"
    text = RUN_CFG + f"\n[perturbation]\nepsilon = {epsilon}\nseed = -1\n"
    out = tmp_path / "out"
    argv = [command, "--config", write(tmp_path, "neg.ini", text)]
    if command == "run":
        argv += ["--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == "config error: perturbation.seed: must be nonnegative\n"
    assert not out.exists()


_RESTART_ROWS = "".join(
    f"{i},{(i + 0.5) / 8!r},{'inf' if i == 3 else 1.0},1,0,1,0.5,1,1,1,0\n" for i in range(8)
)
# initial data that is not finite once built, and whose profiles or momentum
# overflow on the way (numpy warned before the config error was reported)
NON_FINITE_INITIAL = {
    "restart-with-inf": ("[initial]\nR_preset = from_file\nR_path = {snap}\n", "R"),
    "overflowing-momentum": ("[initial]\nR_value = 1e308\nQ_value = 1e308\nu_value = 2\n", "m"),
    "overflowing-bump": (
        "[initial]\nR_preset = gaussian_bump\nR_base = 1e308\nR_amplitude = 1e308\n",
        "R",
    ),
}


@pytest.mark.parametrize("case", sorted(NON_FINITE_INITIAL))
@pytest.mark.parametrize("command", ["validate", "run"])
def test_cli_non_finite_initial_data_is_one_config_error(tmp_path, capsys, command, case):
    snap = tmp_path / "restart.csv"
    snap.write_text("i,x,R,Q,m,Z,alpha,rho_plus,rho_minus,p,u\n" + _RESTART_ROWS)
    initial, row = NON_FINITE_INITIAL[case]
    text = MINIMAL + "[grid]\nn = 8\n" + initial.format(snap=snap)
    out = tmp_path / "out"
    argv = [command, "--config", write(tmp_path, "bad.ini", text)]
    if command == "run":
        argv += ["--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"config error: initial data: non-finite values in {row}\n"
    assert not out.exists()


def test_cli_run_outputs_and_determinism(tmp_path):
    path = write(tmp_path, "run.ini", RUN_CFG)
    out1, out2 = str(tmp_path / "o1"), str(tmp_path / "o2")
    assert main(["run", "--config", path, "--out", out1]) == 0
    assert main(["run", "--config", path, "--out", out2]) == 0
    names = sorted(os.listdir(out1))
    assert names == ["report.json", "snapshot_0000.csv", "snapshot_0001.csv", "snapshot_0002.csv"]
    for name in names:
        b1 = Path(os.path.join(out1, name)).read_bytes()
        b2 = Path(os.path.join(out2, name)).read_bytes()
        assert b1 == b2
    report = json.loads(Path(os.path.join(out1, "report.json")).read_text())
    assert report["energy_audit"]["passed"] is True and report["energy_audit"]["skipped"] is False
    assert report["counters"] == {"alpha_clamps": None}
    assert report["conservation"]["drift_R_rel"] < 1e-13
    assert report["config"]["n"] == 32


def test_cli_run_zero_time(tmp_path):
    path = write(tmp_path, "z.ini", RUN_CFG.replace("t_end = 0.01", "t_end = 0.0"))
    out = str(tmp_path / "oz")
    assert main(["run", "--config", path, "--out", out]) == 0
    assert sorted(os.listdir(out)) == ["report.json", "snapshot_0000.csv"]


def test_cli_run_failure_writes_record(tmp_path):
    path = write(tmp_path, "vac.ini", VACUUM_CFG)
    out = str(tmp_path / "fail")
    assert main(["run", "--config", path, "--out", out]) == 3
    rec = json.loads(Path(os.path.join(out, "failure.json")).read_text())
    assert rec["error"] == "ZeroDtError"
    # the first step finds no stable size: every cell is vacuum, and no
    # step has been taken to give a last size
    assert (rec["t"], rec["step"], rec["dt"]) == (0.0, 1, None)
    assert rec["cells"] == list(range(32)) and rec["n_cells"] == 32


# manufactured R = 1 + 0.99 sin(kx - t) nearly empties; on 8 cells the
# scheme's R falls below zero before t = 1
POSITIVITY_LOSS_CFG = MINIMAL + (
    "\n[viscosity]\nmu = 0.01\n[grid]\nn = 8\n[time]\nt_end = 1.0\nn_snapshots = 2\n"
    "[mms]\nenabled = true\na = 1.0\nb = 0.99\n"
)


def test_cli_run_positivity_loss_writes_record(tmp_path, capsys):
    path = write(tmp_path, "loss.ini", POSITIVITY_LOSS_CFG)
    out = str(tmp_path / "fail")
    assert main(["run", "--config", path, "--out", out]) == 3
    assert "Traceback" not in capsys.readouterr().err
    rec = json.loads(Path(os.path.join(out, "failure.json")).read_text())
    assert rec["error"] == "PositivityLossError"
    assert rec["step"] > 1 and 0.0 < rec["dt"] < rec["t"] < 1.0
    assert f"at t={rec['t']:.6g} in cells [" in rec["message"]
    assert rec["cells"] and all(0 <= c < 8 for c in rec["cells"])
    assert rec["n_cells"] == len(rec["cells"])


def test_cli_run_non_finite_state_writes_record(tmp_path, capsys):
    # the momentum flux difference of (R + Q) u^2 overflows in the first
    # step; the initial kinetic energy, 16 cells of at most 1.6e307, does not
    text = MINIMAL + (
        "\n[viscosity]\nmu = 0.0\n[grid]\nn = 16\n[time]\nt_end = 1e-150\n"
        "n_snapshots = 2\n[initial]\nu_preset = sine\nu_amplitude = 4e153\n"
        "[verification]\nallow_inviscid = true\n"
    )
    path = write(tmp_path, "blowup.ini", text)
    out = str(tmp_path / "fail")
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["run", "--config", path, "--out", out]) == 3
    assert "Traceback" not in capsys.readouterr().err
    rec = json.loads(Path(os.path.join(out, "failure.json")).read_text())
    assert rec["error"] == "NonFiniteStateError"
    assert rec["step"] == 1
    assert 0.0 < rec["t"] <= 1e-150
    assert rec["dt"] == rec["t"]  # the first step starts at t = 0
    assert rec["cells"] and all(0 <= c < 16 for c in rec["cells"])
    assert rec["n_cells"] == len(rec["cells"])


# gamma = 3/1.4 takes the closure's Newton iteration, here with a forcing
NEWTON_MMS_CFG = (
    "[exponents]\ngamma_plus = 3.0\ngamma_minus = 1.4\n[viscosity]\nmu = 0.01\n"
    "[grid]\nn = 16\n[time]\nt_end = 0.05\nn_snapshots = 2\n[mms]\nenabled = true\n"
)


@pytest.mark.parametrize("capped_from", [0, 3])
def test_cli_run_closure_iteration_failure_writes_located_record(
    tmp_path, capsys, monkeypatch, capped_from
):
    # the Newton cap drops to two evaluations, the untested first step and
    # one tested iterate, before the run (the cold solve of the initial
    # state fails) or as step 3 starts (the warm solve of its stage, from
    # the extrapolated roots of this coarse grid, fails)
    taken = []
    real_step = solver.step

    def spy(ws, t, dt, *args):
        taken.append((t, dt))
        if len(taken) == capped_from:
            monkeypatch.setattr(closure, "CLOSURE_MAX_ITER", 2)
        return real_step(ws, t, dt, *args)

    monkeypatch.setattr(solver, "step", spy)
    if capped_from == 0:
        monkeypatch.setattr(closure, "CLOSURE_MAX_ITER", 2)
    path = write(tmp_path, "newton.ini", NEWTON_MMS_CFG)
    out = str(tmp_path / "fail")
    assert main(["run", "--config", path, "--out", out]) == 3
    assert "Traceback" not in capsys.readouterr().err
    rec = json.loads(Path(os.path.join(out, "failure.json")).read_text())
    assert rec["error"] == "MaxIterExceededError"
    assert rec["message"].startswith("closure iteration exceeded 2 iterations at cells [")
    if capped_from == 0:
        assert (rec["t"], rec["step"], rec["dt"]) == (0.0, 1, None)
    else:
        t, dt = taken[2]
        assert (rec["t"], rec["step"], rec["dt"]) == (t + dt, 3, dt)
    assert rec["cells"] and all(0 <= c < 17 for c in rec["cells"])  # cells, or faces
    assert rec["n_cells"] == len(rec["cells"])


def test_cli_run_closure_overflow_writes_located_record(tmp_path, capsys, recwarn):
    # gamma = 1.4/3 < 1: the root Z >= Q**(3/1.4) of Q = 1e150 overflows,
    # which raises and does not also warn, nor leaves a file open
    text = (
        "[exponents]\ngamma_plus = 1.4\ngamma_minus = 3.0\n[grid]\nn = 16\n"
        "[time]\nt_end = 0.01\nn_snapshots = 2\n[initial]\nQ_value = 1e150\n"
    )
    path = write(tmp_path, "overflow.ini", text)
    out = str(tmp_path / "fail")
    assert main(["run", "--config", path, "--out", out]) == 3
    assert "Traceback" not in capsys.readouterr().err
    rec = json.loads(Path(os.path.join(out, "failure.json")).read_text())
    assert rec == {
        "error": "ClosureOverflowError",
        "message": "closure root bound Q**(1/gamma) overflows float at cells "
        "[0, 1, 2, 3, 4, 5, 6, 7]",
        "t": 0.0,
        "step": 1,
        "dt": None,
        "cells": list(range(16)),
        "n_cells": 16,
    }
    assert [str(w.message) for w in recwarn] == []


def test_cli_run_pressure_overflow_writes_located_record(tmp_path, capsys):
    # the root Z = O(1e200) is finite, but p = Z**3 overflows: one named
    # error at the first snapshot, no numpy warning and no stable-step error
    text = "[initial]\nR_value = 1e200\nQ_value = 1e200\n[time]\nt_end = 0.001\n"
    path = write(tmp_path, "pressure.ini", text)
    out = tmp_path / "fail"
    assert main(["run", "--config", path, "--out", str(out)]) == 3
    message = (
        "pressure p = Z**gamma_plus overflows float at cells [0, 1, 2, 3, 4, 5, 6, 7] "
        "(cell 0: R = 1e+200, Q = 1e+200)"
    )
    assert capsys.readouterr().err == f"run failed: {message}\n"
    assert json.loads((out / "failure.json").read_text()) == {
        "error": "ClosureOverflowError",
        "message": message,
        "t": 0.0,
        "step": 1,
        "dt": None,
        "cells": list(range(64)),
        "n_cells": 256,
    }


@pytest.mark.parametrize(
    "initial, key",
    [
        ("u_value = 1e200", "initial.u_value"),
        ("u_preset = sine\nu_amplitude = 1e154", "initial.u_base, initial.u_amplitude"),
    ],
)
def test_cli_huge_initial_velocity_is_a_config_error(tmp_path, capsys, initial, key):
    # u**2 of u = 1e200 overflows float, and so does the sum of the sine's
    # cells, each finite: validation says so before a run meets it in the
    # energy of its first snapshot
    text = f"[grid]\nn = 16\n[time]\nt_end = 0.001\n[initial]\n{initial}\n"
    path = write(tmp_path, "fast.ini", text)
    out = tmp_path / "fast"
    message = (
        f"config error: {key}: the initial kinetic energy, "
        "of density (R + Q) u**2 / 2, overflows float\n"
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for argv in (["validate", "--config", path], ["run", "--config", path, "--out", str(out)]):
            assert main(argv) == 2
            assert capsys.readouterr().err == message
    assert not out.exists()


def test_failure_record_of_a_closure_error_outside_a_run_has_no_location(tmp_path):
    exc = closure.ClosureOverflowError("closure root Z overflows float at cells [1]", cells=[1])
    cli._write_failure(str(tmp_path), exc)
    assert json.loads((tmp_path / "failure.json").read_text()) == {
        "error": "ClosureOverflowError",
        "message": "closure root Z overflows float at cells [1]",
    }


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_cli_closure_overflow_is_runtime_failure(capsys):
    argv = ["closure", "--gamma-plus", "1.5", "--gamma-minus", "3.0", "--q-max", "1e308"]
    assert main(argv + ["--steps", "1"]) == 3
    assert "overflows" in capsys.readouterr().err


def test_cli_compare_twin_noise_floor(tmp_path):
    path = write(tmp_path, "run.ini", RUN_CFG)
    out = str(tmp_path / "cmp")
    assert main(_argv("compare", path, "--out", out, "--ref-mode", "twin")) == 0
    rows = Path(os.path.join(out, "re_report.csv")).read_text().splitlines()
    assert rows[0] == "t,E_kin,E_alpha,E_breg_plus,E_breg_minus,E_total,D"
    for line in rows[1:]:
        parts = [float(v) for v in line.split(",")]
        assert all(v == 0.0 for v in parts[1:])
    payload = json.loads(Path(os.path.join(out, "verify.json")).read_text())
    assert payload["gronwall"]["at_noise_floor"] is True
    assert payload["gronwall"]["mode"] == "identical"


def test_cli_compare_outputs_reproducible(tmp_path):
    path = write(tmp_path, "run.ini", RUN_CFG)
    outs = []
    for name in ("c1", "c2"):
        out = str(tmp_path / name)
        assert main(_argv("compare", path, "--out", out, "--ref-mode", "twin")) == 0
        outs.append(out)
    for rel in ("re_report.csv", "verify.json", os.path.join("run_a", "report.json")):
        b1 = Path(os.path.join(outs[0], rel)).read_bytes()
        b2 = Path(os.path.join(outs[1], rel)).read_bytes()
        assert b1 == b2


def _spy_snapshot_derives(monkeypatch):
    """Derive calls per state id: (per run of cli.run, the records it handed
    its snapshot consumer and the derives made inside that consumer; all
    derives of the process; the state each record was derived from, by the
    record's id)."""
    from collections import Counter

    from bifluid import fields, solver

    runs, active, every, source = [], [], Counter(), {}
    real_derive, real_run = fields.derive, cli.run

    def spy_derive(state, *args, **kwargs):
        every[id(state)] += 1
        if active:
            active[-1][id(state)] += 1
        der = real_derive(state, *args, **kwargs)
        source[id(der)] = state  # kept, so no later state takes its id
        return der

    def spy_run(cfg, *args, on_snapshot, **kwargs):
        snaps, inside = [], Counter()

        def consumer(der):
            snaps.append(der)
            active.append(inside)
            try:
                on_snapshot(der)
            finally:
                active.pop()

        runs.append((snaps, inside))
        return real_run(cfg, *args, on_snapshot=consumer, **kwargs)

    for module in (fields, solver, cli):
        monkeypatch.setattr(module, "derive", spy_derive)
    monkeypatch.setattr(cli, "run", spy_run)
    return runs, every, source


def test_cli_run_derives_each_snapshot_once_for_csv_and_energy(tmp_path, monkeypatch):
    runs, every, source = _spy_snapshot_derives(monkeypatch)
    path = write(tmp_path, "run.ini", RUN_CFG)
    assert main(["run", "--config", path, "--out", str(tmp_path / "o")]) == 0
    (snaps, counts), = runs
    assert len(snaps) == 3
    assert counts == {}  # the CSVs and energies read the run's own derived fields
    states = [source[id(d)] for d in snaps]
    assert [every[id(s)] for s in states] == [1, 1, 1]  # each derived once, in the run
    # of that state
    assert all(d.V[:3].tobytes() == s.tobytes() for s, d in zip(states, snaps))


def test_cli_run_computes_the_fraction_diagnostic_only_when_asked(tmp_path, spy_calls):
    # the diagnostic only reads the state: a default run skips it, and its
    # snapshots are byte-identical to those of the same run with it on
    from bifluid import solver

    calls = spy_calls(solver.alpha_diagnostic_step)
    plain = write(tmp_path, "plain.ini", RUN_CFG)
    tracked = write(tmp_path, "tracked.ini", RUN_CFG + "\n[verification]\ntrack_alpha = true\n")
    assert main(["run", "--config", plain, "--out", str(tmp_path / "plain")]) == 0
    assert calls == []
    assert main(["run", "--config", tracked, "--out", str(tmp_path / "tracked")]) == 0
    assert calls
    reports = []
    for name in ("plain", "tracked"):
        snaps = sorted(p.name for p in (tmp_path / name).glob("snapshot_*.csv"))
        assert len(snaps) == 3
        reports.append(json.loads((tmp_path / name / "report.json").read_text()))
    for snap in snaps:
        plain_bytes = (tmp_path / "plain" / snap).read_bytes()
        assert plain_bytes == (tmp_path / "tracked" / snap).read_bytes()
    # the reports differ in the echo of the key and in the clamp counter,
    # which an untracked run does not have
    assert [r["counters"]["alpha_clamps"] for r in reports] == [None, 0]
    assert [r["config"]["track_alpha"] for r in reports] == [False, True]
    for r in reports:
        del r["counters"]["alpha_clamps"], r["config"]["track_alpha"]
    assert reports[0] == reports[1]


def _same_dir_bytes(d1, d2):
    names = sorted(os.listdir(d1))
    assert names == sorted(os.listdir(d2))
    for name in names:
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name


def _compare_twin_run_b(tmp_path, monkeypatch, base=RUN_CFG):
    """run_b's snapshots in a twin compare of `base` and the derives made in
    its consumer; checks its bytes against a plain run of the same config."""
    runs, every, source = _spy_snapshot_derives(monkeypatch)
    a = write(tmp_path, "a.ini", base + "\n[perturbation]\nepsilon = 0.01\n")
    b = write(tmp_path, "b.ini", base)
    assert main(["compare", "--config", a, "--config-b", b, "--out", str(tmp_path / "c")]) == 0
    (snaps_a, counts_a), (snaps_b, counts_b) = runs
    assert counts_a == {}  # run_a writes the fields its run derived
    # every snapshot state of both runs is derived once, in its run
    assert [every[id(source[id(d)])] for d in snaps_a + snaps_b] == [1] * 6
    assert main(["run", "--config", b, "--out", str(tmp_path / "plain")]) == 0
    _same_dir_bytes(tmp_path / "c" / "run_b", tmp_path / "plain")
    return snaps_b, counts_b


def test_cli_compare_derives_each_written_snapshot_at_most_once(tmp_path, monkeypatch):
    snaps_b, counts_b = _compare_twin_run_b(tmp_path, monkeypatch)
    assert counts_b == {}
    assert len(snaps_b) == 3


def test_cli_compare_run_b_with_own_closure_settings_derives_once(tmp_path, monkeypatch):
    # gamma = 3 / 1.4 takes the Newton closure, where run_b's warm-started
    # fields differ from a cold derive: its CSVs hold its own derived fields,
    # so its consumer derives nothing
    base = RUN_CFG.replace("gamma_minus = 1.5", "gamma_minus = 1.4")
    snaps_b, counts_b = _compare_twin_run_b(tmp_path, monkeypatch, base)
    assert counts_b == {}
    assert len(snaps_b) == 3


def _serial_snapshots(traj, derived, out):
    """The CSVs of a run's snapshots written in this process, one by one."""
    from bifluid.fields import snapshot_columns, write_snapshot

    out.mkdir()
    for k, der in enumerate(derived):
        write_snapshot(out / f"snapshot_{k:04d}.csv", traj.grid, snapshot_columns(der))


def _snapshot_bytes(d):
    return {p.name: p.read_bytes() for p in sorted(d.glob("snapshot_*.csv"))}


def test_cli_run_csvs_equal_a_serial_in_process_write(tmp_path, run_collecting):
    path = write(tmp_path, "run.ini", RUN_CFG.replace("n_snapshots = 3", "n_snapshots = 5"))
    assert main(["run", "--config", path, "--out", str(tmp_path / "o")]) == 0
    traj, derived = run_collecting(validate_config(Path(path).read_text())[0])
    _serial_snapshots(traj, derived, tmp_path / "serial")
    got = _snapshot_bytes(tmp_path / "o")
    assert len(got) == 5 and got == _snapshot_bytes(tmp_path / "serial")


def test_cli_run_writes_inline_where_fork_is_missing(tmp_path, monkeypatch):
    path = write(tmp_path, "run.ini", RUN_CFG)
    assert main(["run", "--config", path, "--out", str(tmp_path / "forked")]) == 0
    monkeypatch.delattr(os, "fork")
    assert main(["run", "--config", path, "--out", str(tmp_path / "inline")]) == 0
    _same_dir_bytes(tmp_path / "forked", tmp_path / "inline")


def test_cli_run_without_a_spare_process_is_a_runtime_failure(tmp_path, monkeypatch, capfd):
    real_fork, forks = os.fork, []

    def fork_once():
        if forks:
            raise BlockingIOError(11, "Resource temporarily unavailable")
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", fork_once)
    path = write(tmp_path, "run.ini", RUN_CFG)
    out = tmp_path / "o"
    assert main(["run", "--config", path, "--out", str(out)]) == 3
    assert "Traceback" not in capfd.readouterr().err
    rec = json.loads((out / "failure.json").read_text())
    assert rec["error"] == "RuntimeError"
    assert "cannot start a snapshot writer" in rec["message"]


def test_cli_twin_compare_csvs_equal_a_serial_in_process_write(tmp_path, run_collecting):
    text_a = PAIR_BASE + "\n[perturbation]\nepsilon = 0.05\nseed = 7\n"
    a, b = write(tmp_path, "a.ini", text_a), write(tmp_path, "b.ini", PAIR_BASE)
    out = tmp_path / "cmp"
    assert main(["compare", "--config", a, "--config-b", b, "--out", str(out)]) == 0
    for side, text in (("run_a", text_a), ("run_b", PAIR_BASE)):
        traj, derived = run_collecting(validate_config(text)[0])
        serial = tmp_path / f"serial_{side}"
        _serial_snapshots(traj, derived, serial)
        got = _snapshot_bytes(out / side)
        assert len(got) == 6 and got == _snapshot_bytes(serial)


def _failing_write_snapshot(monkeypatch, name="snapshot_0001.csv"):
    """Make cli's write_snapshot raise OSError on one file (in a writer)."""
    real = cli.write_snapshot

    def write_or_fail(path, *args):
        if os.path.basename(path) == name:
            raise OSError(f"no space left on device: {path}")
        return real(path, *args)

    monkeypatch.setattr(cli, "write_snapshot", write_or_fail)


@pytest.mark.parametrize("command", ["run", "compare"])
def test_cli_failed_snapshot_writer_is_a_runtime_failure(tmp_path, monkeypatch, capfd, command):
    _failing_write_snapshot(monkeypatch)
    path = write(tmp_path, "run.ini", RUN_CFG)
    out = tmp_path / "o"
    assert main(_argv(command, path, "--out", str(out))) == 3
    err = capfd.readouterr().err
    assert "Traceback" not in err
    assert "snapshot writer failed: no space left on device" in err
    rec = json.loads((out / "failure.json").read_text())
    assert rec["error"] == "RuntimeError"
    assert "snapshot_0001.csv" in rec["message"]
    assert "snapshot_0000.csv" not in rec["message"]  # the other writer's file


def test_cli_run_whose_writer_dies_is_a_runtime_failure(tmp_path, monkeypatch, capfd):
    # the odd-index writer exits without reading: the run's next send to it
    # breaks its pipe, or the close finds its exit status
    real = cli._writer_main

    def die_if_odd(fd, out_dir, grid, first):
        if first == 1:
            os._exit(1)
        real(fd, out_dir, grid, first)

    monkeypatch.setattr(cli, "_writer_main", die_if_odd)
    path = write(tmp_path, "run.ini", RUN_CFG.replace("n_snapshots = 3", "n_snapshots = 11"))
    out = tmp_path / "o"
    assert main(["run", "--config", path, "--out", str(out)]) == 3
    assert "Traceback" not in capfd.readouterr().err
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    rec = json.loads((out / "failure.json").read_text())
    assert rec["error"] == "RuntimeError"
    assert "snapshot_0001.csv" in rec["message"]
    assert "snapshot_0000.csv" not in rec["message"]


@pytest.mark.parametrize("writer_fails", [False, True])
def test_cli_compare_whose_run_a_fails_reaps_run_b_writers(tmp_path, monkeypatch, writer_fails):
    if writer_fails:
        _failing_write_snapshot(monkeypatch)
    a, b = write(tmp_path, "a.ini", VACUUM_CFG), write(tmp_path, "b.ini", RUN_CFG)
    out = tmp_path / "cmp"
    assert main(["compare", "--config", a, "--config-b", b, "--out", str(out)]) == 3
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    # run_a's failure is reported, never masked by a writer's
    assert json.loads((out / "failure.json").read_text())["error"] == "ZeroDtError"
    # the reference run_b runs to the end first; run_a's writers start with
    # run_a: it recorded its initial snapshot before its first step failed,
    # and wrote no report
    assert sorted(os.listdir(out)) == ["failure.json", "run_a", "run_b"]
    assert os.listdir(out / "run_a") == ["snapshot_0000.csv"]
    if not writer_fails:
        assert main(["run", "--config", b, "--out", str(tmp_path / "plain")]) == 0
        _same_dir_bytes(out / "run_b", tmp_path / "plain")


def _bump_pair_cfg(base):
    """gamma 3/1.5 Gaussian bumps of width 0.005 in R and Q on top of base:
    at base 0, exp underflows and R = Q = 0 exactly away from the centre."""
    return MINIMAL + (
        "\n[grid]\nn = 64\n[time]\nt_end = 1e-7\nn_snapshots = 5\n[initial]\n"
        f"R_preset = gaussian_bump\nR_base = {base}\nR_amplitude = 1.0\nR_width = 0.005\n"
        f"Q_preset = gaussian_bump\nQ_base = {base}\nQ_amplitude = 1.0\nQ_width = 0.005\n"
    )


def test_cli_compare_with_a_vacuum_reference_stops_at_its_first_snapshot(tmp_path, capfd):
    # the reference must stay away from vacuum: its first snapshot fails the
    # compare, before run_b steps on (and fails later for another reason)
    # and before run_a starts
    a = write(tmp_path, "a.ini", _bump_pair_cfg(1.0))
    b = write(tmp_path, "b.ini", _bump_pair_cfg(0.0))
    out = tmp_path / "cmp"
    assert main(["compare", "--config", a, "--config-b", b, "--out", str(out)]) == 3
    assert capfd.readouterr().err == "compare failed: reference state has vacuum cells\n"
    rec = json.loads((out / "failure.json").read_text())
    assert rec["error"] == "VacuumReferenceError"
    assert os.listdir(out / "run_b") == ["snapshot_0000.csv"]
    assert os.listdir(out / "run_a") == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_cli_compare_whose_pair_reduction_fails_stops_run_a_there(tmp_path, monkeypatch, capfd):
    real, calls = verify.relative_entropy, []

    def fail_second(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise verify.GridMismatchError("cell counts differ: 32 vs 16")
        return real(*args, **kwargs)

    monkeypatch.setattr(verify, "relative_entropy", fail_second)
    path = write(tmp_path, "run.ini", RUN_CFG)
    out = tmp_path / "cmp"
    assert main(_argv("compare", path, "--out", str(out))) == 3
    assert capfd.readouterr().err == "compare failed: cell counts differ: 32 vs 16\n"
    assert json.loads((out / "failure.json").read_text())["error"] == "GridMismatchError"
    assert len(calls) == 2
    assert sorted(os.listdir(out / "run_a")) == ["snapshot_0000.csv", "snapshot_0001.csv"]
    assert len(os.listdir(out / "run_b")) == 4  # run_b ran to the end first
    assert not (out / "verify.json").exists()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _restart_config(tmp_path, monkeypatch):
    """A config whose R, Q and u restart from one snapshot file, the file,
    and the list of paths config.read_snapshot reads from now on."""
    from bifluid import config
    from bifluid.fields import derive, snapshot_columns, write_snapshot

    cfg, _ = validate_config(MINIMAL + "\n[grid]\nn = 16\n[time]\nt_end = 0.0\n")
    state = cfg.initial_state(cfg.grid())
    snap = tmp_path / "init.csv"
    write_snapshot(snap, cfg.grid(), snapshot_columns(derive(state, 0.0, cfg.exponents())))
    reads = []
    real_read = config.read_snapshot

    def counting_read(path):
        reads.append(path)
        return real_read(path)

    monkeypatch.setattr(config, "read_snapshot", counting_read)
    text = (
        MINIMAL
        + "\n[grid]\nn = 16\n[time]\nt_end = 0.001\nn_snapshots = 2\n[initial]\n"
        + "".join(f"{f}_preset = from_file\n{f}_path = {snap}\n" for f in "RQu")
    )
    return text, snap, reads


def test_cli_run_reads_a_from_file_snapshot_once(tmp_path, monkeypatch):
    text, snap, reads = _restart_config(tmp_path, monkeypatch)
    path = write(tmp_path, "restart.ini", text)
    out = tmp_path / "o"
    assert main(["run", "--config", path, "--out", str(out)]) == 0
    assert reads == [str(snap)]
    assert (out / "snapshot_0000.csv").read_bytes() == snap.read_bytes()


@pytest.mark.parametrize("with_b", [False, True])
def test_cli_compare_reads_a_from_file_snapshot_once_per_config(tmp_path, monkeypatch, with_b):
    # with_b: config-b restarts from the file too; otherwise it starts from
    # the same grid without it
    text, snap, reads = _restart_config(tmp_path, monkeypatch)
    text_b = text if with_b else text[: text.index("[initial]")]
    argv = ["compare", "--config", write(tmp_path, "a.ini", text), "--out", str(tmp_path / "c")]
    argv += ["--config-b", write(tmp_path, "b.ini", text_b)]
    assert main(argv) == 0
    assert reads == [str(snap)] * (2 if with_b else 1)
    for side in ("run_a", "run_b") if with_b else ("run_a",):
        assert (tmp_path / "c" / side / "snapshot_0000.csv").read_bytes() == snap.read_bytes()


@pytest.mark.parametrize(
    "rows",
    [
        [],
        ["0,0.0625,1,1,0"] * 8,
        ["0,0.0625" + ",1" * 11] * 8,
        ["0,0.0625" + ",1" * 9] * 4 + ["0,0.0625,1,1,0"] * 4,
    ],
    ids=["header_only", "short_rows", "long_rows", "mixed_rows"],
)
@pytest.mark.parametrize("command", ["validate", "run", "compare"])
def test_cli_restart_file_of_another_shape_is_a_config_error(tmp_path, capfd, command, rows):
    # a restart file is an 11-column snapshot CSV of n rows; any other shape
    # is one config error naming the file, without a warning or a traceback
    snap = tmp_path / "init.csv"
    snap.write_text("\n".join(["i,x,R,Q,m,Z,alpha,rho_plus,rho_minus,p,u", *rows]) + "\n")
    grid = "\n[grid]\nn = 8\n"
    good = write(tmp_path, "good.ini", MINIMAL + grid)
    bad = write(tmp_path, "bad.ini", MINIMAL + grid + f"[initial]\nR_preset = from_file\nR_path = {snap}\n")
    out = tmp_path / "out"
    argv = {
        "validate": ["validate", "--config", bad],
        "run": ["run", "--config", bad, "--out", str(out)],
        "compare": ["compare", "--config", good, "--config-b", bad, "--out", str(out)],
    }[command]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 2
    captured = capfd.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: ") and captured.err.count("\n") == 1
    assert str(snap) in captured.err
    assert not out.exists()


def test_cli_compare_report_energy_is_the_energy_audit_series(tmp_path):
    from bifluid.solver import run

    text_a = PAIR_BASE + "\n[perturbation]\nepsilon = 0.05\nseed = 7\n"
    a, b = write(tmp_path, "a.ini", text_a), write(tmp_path, "b.ini", PAIR_BASE)
    out = tmp_path / "cmp"
    assert main(["compare", "--config", a, "--config-b", b, "--out", str(out)]) == 0
    for side, text in (("run_a", text_a), ("run_b", PAIR_BASE)):
        report = json.loads((out / side / "report.json").read_text())
        traj = run(validate_config(text)[0])  # energy_audit reads traj.energies
        assert report["energy"]["E"] == traj.energies  # exact: JSON floats round-trip
    payload = json.loads((out / "verify.json").read_text())
    assert payload["energy_audit"]["passed"] is True


def test_twin_compare_evaluates_each_integral_once(tmp_path):
    # the coercivity constants read the relative energy of re_report.csv, and
    # run_a's report and energy audit read the energies the run evaluated
    cfg_a = validate_config(PAIR_BASE + "\n[perturbation]\nepsilon = 0.05\nseed = 7\n")[0]
    cfg_b = validate_config(PAIR_BASE)[0]
    out = tmp_path / "cmp"
    cli.compare_runs(cfg_a, cfg_b, "twin", out)
    lines = (out / "re_report.csv").read_text().splitlines()[1:]
    rows = [[float(v) for v in line.split(",")] for line in lines]
    coer = json.loads((out / "verify.json").read_text())["coercivity"]
    assert len(coer) == len(rows) == 6
    for c, (_, e_kin, _, e_bp, e_bm, _, _) in zip(coer, rows):
        assert c["E_reduced"] == e_kin + e_bp + e_bm  # exact: %.17g and JSON round-trip
    assert any(c["E_reduced"] > 0.0 for c in coer)
    traj_a = solver.run(cfg_a)
    report = json.loads((out / "run_a" / "report.json").read_text())
    assert report["energy"]["E"] == traj_a.energies  # the series energy_audit reads


PAIR_BASE = """
[exponents]
gamma_plus = 3.0
gamma_minus = 1.5

[grid]
n = 64

[time]
t_end = 0.1
n_snapshots = 6

[initial]
R_preset = sine
R_base = 1.5
R_amplitude = 0.3
Q_preset = sine
Q_base = 1.5
Q_amplitude = -0.2
Q_waves = 2.0
u_preset = sine
u_amplitude = 0.2
"""


def test_cli_twin_compare_reads_run_b_with_its_own_closure_settings(tmp_path, run_collecting):
    # gamma = 3 / 1.4 takes the Newton closure, where run_b's warm-started
    # fields differ from a cold derive: the reference fields are run_b's own,
    # the ones its CSVs hold
    base = PAIR_BASE.replace("gamma_minus = 1.5", "gamma_minus = 1.4")
    text_a = base + "\n[perturbation]\nepsilon = 0.05\nseed = 7\n"
    text_b = base
    a, b = write(tmp_path, "a.ini", text_a), write(tmp_path, "b.ini", text_b)
    out = tmp_path / "cmp"
    assert main(["compare", "--config", a, "--config-b", b, "--out", str(out)]) == 0
    cfg_a = validate_config(text_a)[0]
    traj_a, derived_a = run_collecting(cfg_a)
    _, derived_b = run_collecting(validate_config(text_b)[0])
    rows = [
        verify.relative_entropy(da, db, traj_a.grid, nu_eff=cfg_a.nu_eff)
        for da, db in zip(derived_a, derived_b, strict=True)
    ]
    want = out / "want.csv"
    cli.write_re_report(want, rows)
    assert (out / "re_report.csv").read_bytes() == want.read_bytes()
    # and run_b's CSVs carry the same Z
    for k, der in enumerate(derived_b):
        got = np.loadtxt(out / "run_b" / f"snapshot_{k:04d}.csv", delimiter=",", skiprows=1)
        assert np.array_equal(got[:, 5], der.Z)


def _max_E(path):
    rows = Path(path).read_text().splitlines()[1:]
    return max(float(line.split(",")[5]) for line in rows)


def test_cli_compare_perturbation_scaling(tmp_path):
    ref = write(tmp_path, "ref.ini", PAIR_BASE)
    peaks = []
    for eps in ("0.08", "0.04"):
        pert = write(
            tmp_path,
            f"pert{eps}.ini",
            PAIR_BASE + f"\n[perturbation]\nepsilon = {eps}\nseed = 7\n",
        )
        out = str(tmp_path / f"cmp{eps}")
        assert main(["compare", "--config", pert, "--config-b", ref, "--out", out]) == 0
        peaks.append(_max_E(os.path.join(out, "re_report.csv")))
    ratio = peaks[0] / peaks[1]
    assert 3.2 <= ratio <= 5.0


def test_cli_compare_rejects_mismatched_configs(tmp_path):
    a = write(tmp_path, "a.ini", RUN_CFG)
    b = write(tmp_path, "b.ini", RUN_CFG.replace("gamma_minus = 1.5", "gamma_minus = 1.2"))
    assert main(["compare", "--config", a, "--config-b", b, "--out", str(tmp_path / "x")]) == 2


@pytest.mark.parametrize(
    "mode, text_b",
    [
        ("twin", RUN_CFG.replace("gamma_minus = 1.5", "gamma_minus = 1.2")),
        ("fine", RUN_CFG.replace("n = 32", "n = 48")),  # does not nest
        ("mms", None),  # the config has no manufactured solution
    ],
)
def test_cli_compare_checks_the_pair_before_it_creates_out(
    tmp_path, capsys, spy_calls, mode, text_b
):
    runs = spy_calls(solver.run)
    argv = ["compare", "--config", write(tmp_path, "a.ini", RUN_CFG), "--ref-mode", mode]
    if text_b is not None:
        argv += ["--config-b", write(tmp_path, "b.ini", text_b)]
    out = tmp_path / "x"
    assert main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error: ")
    assert not out.exists()
    assert runs == []


INVISCID = RUN_CFG + (
    "\n[viscosity]\nmu = 0.0\n\n[verification]\nallow_inviscid = true\nenergy_eps = 1e-12\n"
)


def test_cli_compare_whose_energy_audit_fails_exits_4_after_every_output(
    tmp_path, capfd, monkeypatch
):
    # advection of the wrong sign without viscosity gains energy far beyond
    # 1e-12 (a margin of about 3.4e-4), without blowing up
    monkeypatch.setattr(solver, "_rhs", flipped_advection_rhs)
    path = write(tmp_path, "inviscid.ini", INVISCID)
    out = tmp_path / "cmp"
    assert main(_argv("compare", path, "--out", str(out))) == 4
    err = capfd.readouterr().err
    assert "Traceback" not in err
    audit = json.loads((out / "verify.json").read_text())["energy_audit"]
    assert audit["passed"] is False and audit["skipped"] is False
    assert audit["worst_margin"] > audit["eps_E"] == 1e-12
    assert err == (
        f"verification failure: energy audit worst margin {audit['worst_margin']:.6g} "
        "exceeds energy_eps 1e-12\n"
    )
    assert sorted(os.listdir(out)) == ["re_report.csv", "run_a", "run_b", "verify.json"]
    for side in ("run_a", "run_b"):
        names = ["report.json"] + [f"snapshot_{k:04d}.csv" for k in range(3)]
        assert sorted(os.listdir(out / side)) == names
    _same_dir_bytes(out / "run_a", out / "run_b")
    assert json.loads((out / "run_a" / "report.json").read_text())["energy_audit"] == audit


def test_cli_run_whose_energy_audit_fails_exits_4_after_every_output(tmp_path, capfd, monkeypatch):
    monkeypatch.setattr(solver, "_rhs", flipped_advection_rhs)
    path = write(tmp_path, "inviscid.ini", INVISCID)
    out = tmp_path / "run"
    assert main(["run", "--config", path, "--out", str(out)]) == 4
    captured = capfd.readouterr()
    assert captured.out.startswith("run complete: ")
    audit = json.loads((out / "report.json").read_text())["energy_audit"]
    assert audit["passed"] is False and audit["skipped"] is False
    assert audit["worst_margin"] > audit["eps_E"] == 1e-12
    assert captured.err == (
        f"verification failure: energy audit worst margin {audit['worst_margin']:.6g} "
        "exceeds energy_eps 1e-12\n"
    )
    names = ["report.json"] + [f"snapshot_{k:04d}.csv" for k in range(3)]
    assert sorted(os.listdir(out)) == names


MEMORY_N = 512


def _compare_peak_bytes(tmp_path, snapshots):
    """tracemalloc peak of a twin compare with --out at MEMORY_N cells."""
    import tracemalloc

    text = PAIR_BASE.replace("n = 64", f"n = {MEMORY_N}").replace("t_end = 0.1", "t_end = 0.002")
    text = text.replace("n_snapshots = 6", f"n_snapshots = {snapshots}")
    a = write(tmp_path, f"a{snapshots}.ini", text + "\n[perturbation]\nepsilon = 0.05\nseed = 7\n")
    b = write(tmp_path, f"b{snapshots}.ini", text)
    argv = ["compare", "--config", a, "--config-b", b, "--out", str(tmp_path / f"o{snapshots}")]
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_cli_compare_memory_grows_by_a_few_arrays_per_snapshot_pair(tmp_path):
    # the reference pass keeps one (4, n) record per snapshot, 4 arrays, and
    # run_a none: keeping a reference's computed columns as well would add
    # 5 more, keeping 6 arrays of each run_a snapshot until the reference
    # arrived grew by about 6.7 over 3 kept, storing every state and derived
    # field of both runs by about 20
    _compare_peak_bytes(tmp_path, 3)  # first-call caches out of the measurement
    growth = _compare_peak_bytes(tmp_path, 51) - _compare_peak_bytes(tmp_path, 11)
    arrays_per_pair = growth / (51 - 11) / (8 * MEMORY_N)
    assert arrays_per_pair <= 5


def test_cli_compare_fine_mode(tmp_path):
    a = write(tmp_path, "a.ini", RUN_CFG)
    b = write(tmp_path, "b.ini", RUN_CFG.replace("n = 32", "n = 64"))
    out = str(tmp_path / "fine")
    assert main(["compare", "--config", a, "--config-b", b, "--out", out, "--ref-mode", "fine"]) == 0
    payload = json.loads(Path(os.path.join(out, "verify.json")).read_text())
    assert payload["ref_mode"] == "fine"
    assert payload["gronwall"]["max_E"] > 0.0
    # refinement must nest
    c = write(tmp_path, "c.ini", RUN_CFG.replace("n = 32", "n = 48"))
    assert main(["compare", "--config", a, "--config-b", c, "--out", str(tmp_path / "y"), "--ref-mode", "fine"]) == 2


MMS_CFG = (
    MINIMAL
    + """
[viscosity]
mu = 0.02

[grid]
n = 64

[time]
t_end = 0.05
n_snapshots = 2

[mms]
enabled = true
"""
)


def test_cli_mms_passes_and_usage_error(tmp_path):
    path = write(tmp_path, "mms.ini", MMS_CFG)
    assert main(["mms", "--config", path, "--levels", "3"]) == 0
    assert main(["mms", "--config", path, "--levels", "2"]) == 2
    plain = write(tmp_path, "plain.ini", RUN_CFG)
    assert main(["mms", "--config", plain, "--levels", "3"]) == 2


def test_cli_mms_with_zero_t_end_is_a_config_error_before_any_solve(tmp_path, capsys, spy_calls):
    # a study with no time step observes no order; it once ran three levels
    # and exited 4 on NaN orders
    runs = spy_calls(solver.run)
    path = write(tmp_path, "mms.ini", MMS_CFG.replace("t_end = 0.05", "t_end = 0"))
    out = tmp_path / "o"
    assert main(["mms", "--config", path, "--levels", "3", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "config error: time.t_end must be positive for the mms command\n"
    )
    assert runs == [] and not out.exists()


def test_cli_mms_outputs_reproducible(tmp_path):
    # the forced run hands each stage forcing on to the next step
    path = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "mms.ini")
    outs = [tmp_path / name for name in ("m1", "m2")]
    for out in outs:
        assert main(["mms", "--config", path, "--levels", "3", "--out", str(out)]) == 0
    assert os.listdir(outs[0]) == ["verify.json"]
    _same_dir_bytes(*outs)


def test_cli_mms_ref_mode_compare(tmp_path):
    path = write(tmp_path, "mms.ini", MMS_CFG)
    out = str(tmp_path / "mcmp")
    assert main(["compare", "--config", path, "--out", out, "--ref-mode", "mms"]) == 0
    payload = json.loads(Path(os.path.join(out, "verify.json")).read_text())
    assert payload["ref_mode"] == "mms"
    assert payload["energy_audit"]["skipped"] is True  # forced run


def test_cli_mms_ref_mode_with_a_config_b_is_a_config_error_before_out(tmp_path, capsys, spy_calls):
    # the exact solution is the reference: a second config would go unread;
    # a twin is the run of a second config, so it needs one
    runs = spy_calls(solver.run)
    path, other = (write(tmp_path, name, MMS_CFG) for name in ("a.ini", "b.ini"))
    out = tmp_path / "o"
    cases = [
        (
            ["--config-b", other, "--ref-mode", "mms"],
            "mms reference mode takes no second config (--config-b)",
        ),
        (["--ref-mode", "twin"], "twin reference mode needs a second config (--config-b)"),
    ]
    for args, message in cases:
        assert main(["compare", "--config", path, *args, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists() and runs == []


def test_cli_mms_ref_mode_compare_removes_the_run_files_of_an_earlier_run_b(tmp_path):
    path = write(tmp_path, "mms.ini", MMS_CFG)
    out = tmp_path / "o"
    argv = ["compare", "--config", path, "--out", str(out)]
    assert main(argv + ["--config-b", path]) == 0  # a twin compare fills run_b
    (out / "run_b" / "notes.txt").write_text("not a run file\n")
    assert main(argv + ["--ref-mode", "mms"]) == 0
    assert os.listdir(out / "run_b") == ["notes.txt"]
    # into a fresh --out it creates only the side it writes
    fresh = tmp_path / "fresh"
    assert main(["compare", "--config", path, "--out", str(fresh), "--ref-mode", "mms"]) == 0
    assert sorted(os.listdir(fresh)) == ["re_report.csv", "run_a", "verify.json"]


def _ess_window(derived_series):
    """The coercivity window of a whole reference series: half the minimum
    to twice the maximum of its phase densities."""
    lo = min(float(np.min(rho)) for d in derived_series for rho in (d.rho_plus, d.rho_minus))
    hi = max(float(np.max(rho)) for d in derived_series for rho in (d.rho_plus, d.rho_minus))
    return 0.5 * lo, 2.0 * hi


def _compare_oracle(run_collecting, cfg_a, cfg_b, ref_mode):
    """compare_runs' rows and payload, from the audits evaluated on the full
    snapshot series of both sides."""
    from bifluid.fields import derive, restrict, total_energy

    traj_a, series_a = run_collecting(cfg_a)
    grid, exps, times = traj_a.grid, cfg_a.exponents(), traj_a.times

    if ref_mode == "mms":
        sol = cfg_a.manufactured()
        series_b = [derive(sol.state(grid, t), t, exps) for t in times]
        e_scale = total_energy(series_b[0], grid)
    elif ref_mode == "fine":
        _, records_b = run_collecting(cfg_b)
        series_b = [derive(restrict(d, cfg_b.n // cfg_a.n), d.t, exps) for d in records_b]
        e_scale = total_energy(series_b[0], grid)
    else:
        traj_b, series_b = run_collecting(cfg_b)
        e_scale = traj_b.energies[0]
    pairs = list(zip(series_a, series_b, strict=True))
    nu_eff = cfg_a.nu_eff
    rows = [verify.relative_entropy(a, b, grid, nu_eff=nu_eff) for a, b in pairs]
    window = _ess_window(series_b)
    coer = [
        verify.coercivity_check(row, a, b, grid, *window)
        for row, (a, b) in zip(rows, pairs)
    ]
    terms = [fraction_terms(a.alpha, b.alpha, a.u, b.u, grid) for a, b in pairs]
    noise_floor = verify.NOISE_FLOOR_FACTOR * verify.EPS * max(e_scale, 1.0)
    fit = verify.gronwall_check(
        times, [r.E_total for r in rows], e0_floor=noise_floor, e_scale=max(e_scale, 1.0)
    )
    stab = verify.alpha_stability_check(
        [A for A, _ in terms], [w for _, w in terms], times, cfg_a.stability_delta
    )
    payload = {
        "ref_mode": ref_mode,
        "times": times,
        "e_scale": e_scale,
        "noise_floor": noise_floor,
        "gronwall": dataclasses.asdict(fit),
        "alpha_stability": dataclasses.asdict(stab),
        "ess_window": list(window),
        "coercivity": [dataclasses.asdict(c) for c in coer],
        "energy_audit": verify.energy_audit(traj_a, cfg_a.energy_eps),
    }
    return rows, payload


PERTURBED = PAIR_BASE + "\n[perturbation]\nepsilon = 0.05\nseed = 7\n"
COMPARE_MODES = {
    "twin": (PERTURBED, PAIR_BASE),
    "fine": (PERTURBED, PAIR_BASE.replace("n = 64", "n = 128")),
    "mms": (MMS_CFG.replace("n_snapshots = 2", "n_snapshots = 4"), None),
}


@pytest.mark.parametrize("window", ["default"])
@pytest.mark.parametrize("mode", sorted(COMPARE_MODES))
def test_compare_runs_equals_the_audits_of_the_full_series(tmp_path, run_collecting, mode, window):
    # compare_runs keeps a few arrays of each reference snapshot and none of
    # run_a; its results are those of the audits on every snapshot of both
    # sides, the window being that of the whole reference series
    text_a, text_b = COMPARE_MODES[mode]
    cfg_a = validate_config(text_a)[0]
    cfg_b = validate_config(text_b)[0] if text_b else None
    rows, payload = cli.compare_runs(cfg_a, cfg_b, mode, tmp_path)
    want_rows, want_payload = _compare_oracle(run_collecting, cfg_a, cfg_b, mode)
    assert rows == want_rows
    # exact: _jsonable keeps every finite float and maps inf and nan to None
    assert cli._jsonable(payload) == cli._jsonable(want_payload)


def test_cli_closure_table(capsys):
    assert (
        main(
            [
                "closure",
                "--gamma-plus", "3.0",
                "--gamma-minus", "1.5",
                "--r-min", "1.0", "--r-max", "1.0",
                "--q-min", "2.0", "--q-max", "2.0",
                "--steps", "1",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "R,Q,Z,alpha,rho_minus,p,vacuum"
    assert len(out) == 1 + 4  # (steps + 1)^2 rows
    row = out[1].split(",")
    assert float(row[2]) == pytest.approx(2.0, rel=1e-12)
    assert float(row[3]) == pytest.approx(0.5, rel=1e-12)
    assert float(row[5]) == pytest.approx(8.0, rel=1e-12)


def test_cli_closure_table_degenerate_R_zero(capsys):
    # the table prints the snapshot record's columns: a vacuum row is R = Q = 0,
    # not a row whose root underflows to 0 (gamma = 0.5, Q = 1e-200)
    cases = [  # (gamma_plus, gamma_minus, q_min, q_max, steps), rows, vacuum rows, Z = 0 rows
        (("3.0", "1.5", "0.0", "4.0", "2"), 9, 3, 3),  # the Q = 0 rows are vacuum
        (("1.5", "3.0", "1e-200", "1e-200", "1"), 4, 0, 4),
    ]
    for (gp, gm, q_min, q_max, steps), n_rows, n_vacuum, n_zero in cases:
        argv = [
            "closure", "--gamma-plus", gp, "--gamma-minus", gm,
            "--r-min", "0.0", "--r-max", "0.0", "--q-min", q_min, "--q-max", q_max,
            "--steps", steps,
        ]
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()[1:]
        assert len(lines) == n_rows
        vac_rows = [l for l in lines if l.endswith(",1")]
        assert len(vac_rows) == n_vacuum
        assert sum(float(l.split(",")[2]) == 0.0 for l in lines) == n_zero
        for line in lines:
            R, Q, alpha = (float(line.split(",")[j]) for j in (0, 1, 3))
            assert R == 0.0 and (line in vac_rows) == (Q == 0.0)
            # alpha is zero on the pure-minus rows, the snapshots' sentinel on vacuum
            assert alpha == (VACUUM_ALPHA if line in vac_rows else 0.0)


@pytest.mark.parametrize("r", ["1e300", "1e200"])
def test_cli_closure_overflowing_pressure_exits_3_without_traceback(r):
    # Z is finite, but Z**gamma_plus (and at 1e300 Z**gamma) overflows
    argv = [
        "closure", "--gamma-plus", "3", "--gamma-minus", "1.5",
        "--r-min", r, "--r-max", r, "--q-min", "1", "--q-max", "1", "--steps", "1",
    ]
    src = os.path.dirname(os.path.dirname(bifluid.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "bifluid.cli", *argv], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("closure failed: pressure p = Z**gamma_plus overflows float")
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stdout == "R,Q,Z,alpha,rho_minus,p,vacuum\n"


def _recover_state(R, Q, exps):
    """(Z, alpha, rho_minus, p, vacuum) of one cell, the columns of its own
    snapshot record: the digit-for-digit oracle of the closure table."""
    d = derive(np.array(([R], [Q], [0.0])), 0.0, exps)
    return float(d.Z[0]), float(d.alpha[0]), float(d.rho_minus[0]), float(d.p[0]), bool(d.vacuum[0])


def test_cli_closure_table_matches_scalar_recovery_in_any_batch_size(
    capsys, monkeypatch, spy_calls
):
    argv = [
        "closure", "--gamma-plus", "3.0", "--gamma-minus", "1.4",
        "--r-max", "2", "--q-max", "3", "--steps", "10",
    ]
    assert main(argv) == 0
    table = capsys.readouterr().out
    # a batch smaller than a row of 11 cells: the batches split the rows
    monkeypatch.setattr(cli, "CLOSURE_BATCH_CELLS", 7)
    batches = spy_calls(solve_closure_batch)
    assert main(argv) == 0
    assert capsys.readouterr().out == table
    assert [R.size for R, *_ in batches] == [7] * 17 + [2]  # 121 cells
    exps = ExponentPair(3.0, 1.4)
    for line in table.splitlines()[1:]:
        r, q = (float(v) for v in line.split(",")[:2])
        Z, alpha, rho_minus, p, vacuum = _recover_state(r, q, exps)
        want = (r, q, Z, alpha, rho_minus, p)
        assert line == ",".join(format(v, ".17g") for v in want) + (",1" if vacuum else ",0")


def _closure_vacuum_alpha_usage_error(capsys, value):
    argv = ["closure", "--gamma-plus", "3.0", "--gamma-minus", "1.5", f"--vacuum-alpha={value}"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: bifluid closure ")
    assert "unrecognized arguments: --vacuum-alpha" in captured.err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-0.5", "7", "1.0000001"])
def test_cli_closure_rejects_vacuum_alpha_outside_unit_interval(capsys, value):
    _closure_vacuum_alpha_usage_error(capsys, value)


@pytest.mark.parametrize("value", ["0", "0.25", "1"])
def test_cli_closure_rejects_the_removed_vacuum_alpha_flag(capsys, value):
    # the vacuum rows print the sentinel of the snapshot CSVs; no flag sets it
    _closure_vacuum_alpha_usage_error(capsys, value)
    assert main(["closure", "--gamma-plus", "3.0", "--gamma-minus", "1.5"]) == 0
    vacuum_row = capsys.readouterr().out.splitlines()[1]
    assert vacuum_row == "0,0,0,0.5,0,0,1"


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--config", "c.ini", "--out", "o"],
        ["compare", "--config", "c.ini", "--out", "o"],
        ["mms", "--config", "c.ini", "--levels", "3"],
    ],
    ids=["run", "compare", "mms"],
)
def test_cli_unknown_option_is_reported_under_the_subcommand_usage(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--bogus=0"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"usage: bifluid {argv[0]} ")
    assert captured.err.endswith("error: unrecognized arguments: --bogus=0\n")


@pytest.mark.parametrize("command", ["run", "compare", "mms"])
@pytest.mark.parametrize("under_file", [False, True])
def test_cli_out_that_cannot_be_a_directory_is_a_usage_error(
    tmp_path, capsys, spy_calls, command, under_file
):
    runs = spy_calls(solver.run)
    afile = tmp_path / "afile"
    afile.write_text("not a directory\n")
    out = afile / "out" if under_file else afile
    cfg = write(tmp_path, "cfg.ini", MMS_CFG if command == "mms" else RUN_CFG)
    argv = _argv(command, cfg, "--out", str(out))
    if command == "mms":
        argv += ["--levels", "3"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("usage error: cannot create the --out directory") and err.count("\n") == 1
    assert runs == []
    assert afile.read_text() == "not a directory\n"


@pytest.mark.parametrize("ref_mode", ["twin"])
@pytest.mark.parametrize("side", ["run_a", "run_b"])
def test_cli_compare_side_that_is_a_file_is_a_usage_error_before_any_solve(
    tmp_path, capsys, spy_calls, ref_mode, side
):
    runs = spy_calls(solver.run)
    out = tmp_path / "cmp"
    out.mkdir()
    (out / side).write_text("not a directory\n")
    argv = ["compare", "--config", write(tmp_path, "a.ini", RUN_CFG), "--out", str(out)]
    argv += ["--config-b", write(tmp_path, "b.ini", RUN_CFG), "--ref-mode", ref_mode]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("usage error: cannot create the --out directory") and err.count("\n") == 1
    assert runs == []
    assert (out / side).read_text() == "not a directory\n"


@pytest.mark.parametrize(
    "command, name",
    [
        ("run", "report.json"),
        ("compare", "verify.json"),
        ("compare", "re_report.csv"),
        ("mms", "verify.json"),
    ],
)
def test_cli_output_that_cannot_be_written_is_a_runtime_failure(tmp_path, capfd, command, name):
    out = tmp_path / "o"
    (out / name).mkdir(parents=True)
    cfg = write(tmp_path, "cfg.ini", MMS_CFG if command == "mms" else RUN_CFG)
    argv = _argv(command, cfg, "--out", str(out))
    if command == "mms":
        argv += ["--levels", "3"]
    assert main(argv) == 3
    err = capfd.readouterr().err
    assert "Traceback" not in err
    assert err.startswith(f"{command} failed: ") and err.count("\n") == 1
    assert str(out / name) in err
    assert json.loads((out / "failure.json").read_text())["error"] == "IsADirectoryError"


def test_cli_run_whose_failure_json_cannot_be_written_says_so(tmp_path, capfd):
    out = tmp_path / "o"
    (out / "failure.json").mkdir(parents=True)
    assert main(["run", "--config", write(tmp_path, "vac.ini", VACUUM_CFG), "--out", str(out)]) == 3
    err = capfd.readouterr().err
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 2 and err.count("failed:") == 1
    assert lines[0].startswith("run failed: ")
    assert lines[1].startswith("cannot write failure.json: ")
    assert (out / "failure.json").is_dir()  # left alone


@pytest.mark.parametrize("command", ["run", "compare"])
def test_cli_success_after_a_failure_removes_its_failure_json(tmp_path, command):
    out = tmp_path / "o"
    assert main(_argv(command, write(tmp_path, "vac.ini", VACUUM_CFG), "--out", str(out))) == 3
    assert (out / "failure.json").is_file()
    assert main(_argv(command, write(tmp_path, "run.ini", RUN_CFG), "--out", str(out))) == 0
    assert not (out / "failure.json").exists()


def test_cli_run_after_a_longer_run_leaves_only_its_own_snapshots(tmp_path):
    out = tmp_path / "o"
    longer = write(tmp_path, "six.ini", RUN_CFG.replace("n_snapshots = 3", "n_snapshots = 6"))
    assert main(["run", "--config", longer, "--out", str(out)]) == 0
    assert main(["run", "--config", write(tmp_path, "run.ini", RUN_CFG), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert len(report["snapshots"]) == 3
    assert sorted(os.listdir(out)) == ["report.json", *report["snapshots"]]


@pytest.mark.parametrize("command", ["run", "compare", "mms"])
def test_cli_failure_after_a_success_leaves_no_earlier_output(tmp_path, monkeypatch, command):
    # run fails on all-vacuum data after recording its first snapshot, and
    # compare in its reference pass, before run_a starts; mms fails on its
    # step budget before any output
    out = tmp_path / "o"
    text = MMS_CFG if command == "mms" else RUN_CFG
    argv = _argv(command, write(tmp_path, "ok.ini", text), "--out", str(out))
    if command == "mms":
        argv += ["--levels", "3"]
    assert main(argv) == 0
    if command == "mms":
        monkeypatch.setattr(solver, "MAX_STEPS", 1)
    else:
        argv = _argv(command, write(tmp_path, "vac.ini", VACUUM_CFG), "--out", str(out))
    assert main(argv) == 3
    left = {
        os.path.relpath(os.path.join(folder, name), out)
        for folder, _, names in os.walk(out)
        for name in names
    }
    first = {
        "run": {"snapshot_0000.csv"},
        "compare": {"run_b/snapshot_0000.csv"},
        "mms": set(),
    }[command]
    assert left == {"failure.json", *first}


def test_cli_initial_data_too_large_to_allocate_is_a_config_error(tmp_path, capsys, monkeypatch):
    from bifluid.config import SimConfig

    message = "Unable to allocate 72.8 TiB for an array with shape (10000000000000,)"

    def refuse(cfg, grid):
        raise MemoryError(message)

    monkeypatch.setattr(SimConfig, "initial_state", refuse)
    path = write(tmp_path, "run.ini", RUN_CFG)
    out = tmp_path / "o"
    for argv in (["validate", "--config", path], ["run", "--config", path, "--out", str(out)]):
        assert main(argv) == 2
        assert capsys.readouterr().err == f"config error: initial data: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "closure"])
def test_cli_allocation_failure_after_validation_is_a_runtime_failure(
    tmp_path, capsys, monkeypatch, command
):
    message = "Unable to allocate 72.8 TiB for an array with shape (10000000000000,)"

    def refuse(*args, **kwargs):
        raise MemoryError(message)

    out = tmp_path / "o"
    if command == "run":
        monkeypatch.setattr(cli, "run", refuse)
        argv = ["run", "--config", write(tmp_path, "run.ini", RUN_CFG), "--out", str(out)]
    else:
        monkeypatch.setattr(cli, "derive", refuse)
        argv = ["closure", "--gamma-plus", "3", "--gamma-minus", "1.5"]
    assert main(argv) == 3
    assert capsys.readouterr().err == f"{command} failed: {message}\n"
    if command == "run":
        assert json.loads((out / "failure.json").read_text()) == {
            "error": "MemoryError",
            "message": message,
        }


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-1", "0.1"])
def test_cli_compare_rejects_a_non_positive_or_non_finite_delta(tmp_path, value):
    # compare takes no --delta: verification.stability_delta is the one
    # setting, so every value is a usage error of argparse
    path = write(tmp_path, "run.ini", RUN_CFG)
    out = tmp_path / "o"
    argv = ["compare", "--config", path, "--out", str(out), f"--delta={value}"]
    src = os.path.dirname(os.path.dirname(bifluid.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "bifluid.cli", *argv], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("usage: bifluid")
    assert proc.stderr.endswith(f"error: unrecognized arguments: --delta={value}\n")
    assert not out.exists()  # nothing was run or written


@pytest.mark.parametrize("key, value", [("strict", "false"), ("ess_lower", "2.0"), ("ess_upper", "4.5")])
def test_cli_rejects_the_removed_verification_keys(tmp_path, capsys, key, value):
    path = write(tmp_path, "run.ini", RUN_CFG + f"\n[verification]\n{key} = {value}\n")
    out = tmp_path / "o"
    assert main(["run", "--config", path, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"config error: unknown key '{key}' in section [verification]\n"
    )
    assert not out.exists()


def test_cli_rejects_any_integrator_but_ssprk2(tmp_path, capsys):
    text = RUN_CFG.replace("t_end = 0.01", "t_end = 0.01\nintegrator = forward_euler")
    out = tmp_path / "o"
    assert main(["run", "--config", write(tmp_path, "run.ini", text), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "config error: time.integrator: must be 'ssprk2'\n"
    assert not out.exists()


def test_cli_closure_table_usage_errors(capsys):
    assert main(["closure", "--gamma-plus", "3.0", "--gamma-minus", "1.5", "--steps", "0"]) == 2
    assert main(["closure", "--gamma-plus", "1.0", "--gamma-minus", "1.5"]) == 2
    # an exponent pair beyond the closure's checked range
    argv = ["closure", "--gamma-plus", "1e5", "--gamma-minus", "1.5", "--r-min", "0.5"]
    assert main(argv + ["--q-min", "0.5", "--steps", "20"]) == 2
    assert main(["closure", "--gamma-plus", "3.0", "--gamma-minus", "1.5", "--r-min", "-1.0"]) == 2
    for bound in ("--r-min", "--r-max", "--q-min", "--q-max"):
        for value in ("nan", "inf"):
            argv = ["closure", "--gamma-plus", "3.0", "--gamma-minus", "1.5", bound, value]
            assert main(argv) == 2


UNREADABLE_CONFIGS = {
    "directory": lambda path: path.mkdir(),
    "not_utf8": lambda path: path.write_bytes(b"\xff" + RUN_CFG.encode()),
    "missing": lambda path: None,
}


@pytest.mark.parametrize("kind", sorted(UNREADABLE_CONFIGS))
@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "--config", "{bad}"],
        ["run", "--config", "{bad}", "--out", "{out}"],
        ["compare", "--config", "{bad}", "--out", "{out}"],
        ["compare", "--config", "{good}", "--config-b", "{bad}", "--out", "{out}"],
        ["mms", "--config", "{bad}", "--levels", "3", "--out", "{out}"],
    ],
    ids=["validate", "run", "compare", "compare-config-b", "mms"],
)
def test_cli_config_that_cannot_be_read_is_a_config_error(
    tmp_path, capsys, spy_calls, kind, argv
):
    runs = spy_calls(solver.run)
    bad = tmp_path / "bad.ini"
    UNREADABLE_CONFIGS[kind](bad)
    out = tmp_path / "out"
    paths = {"bad": str(bad), "good": write(tmp_path, "good.ini", RUN_CFG), "out": str(out)}
    assert main([arg.format(**paths) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith(f"config error: cannot read {bad}: ") and err.count("\n") == 1
    assert not out.exists()
    assert runs == []
