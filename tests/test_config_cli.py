import json
import os

import numpy as np
import pytest

from bifluid.cli import main
from bifluid.config import ParseError, ValidationError, validate_config

MINIMAL = """
[exponents]
gamma_plus = 3.0
gamma_minus = 1.5
"""


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


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


def test_parse_error_carries_line():
    with pytest.raises(ParseError, match="line"):
        validate_config("gamma_plus = 3.0\n")  # key before any section


def test_type_errors_name_the_field():
    with pytest.raises(ValidationError, match="grid.*n|n.*integer"):
        validate_config(MINIMAL + "\n[grid]\nn = many\n")
    with pytest.raises(ValidationError, match="boolean"):
        validate_config(MINIMAL + "\n[verification]\nstrict = maybe\n")


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


def test_round_trip_is_fixed_point():
    cfg, _ = validate_config(
        MINIMAL
        + "\n[grid]\nn = 48\nlength = 2.5\n[time]\nt_end = 0.125\ncfl = 0.7\n"
        + "[initial]\nR_preset = gaussian_bump\nR_base = 1.25\nR_amplitude = 0.5\n"
        + "[perturbation]\nepsilon = 0.01\nseed = 9\n"
    )
    text = cfg.to_text()
    cfg2, _ = validate_config(text)
    assert cfg2 == cfg
    assert cfg2.to_text() == text


def test_perturbation_deterministic_and_grid_independent():
    cfg, _ = validate_config(MINIMAL + "\n[perturbation]\nepsilon = 0.05\nseed = 3\n")
    s1 = cfg.initial_state(cfg.grid())
    s2 = cfg.initial_state(cfg.grid())
    assert np.array_equal(s1.R, s2.R)
    # same smooth function on a 3x refined grid, where cell centers coincide
    fine = cfg.with_resolution(768)
    sf = fine.initial_state(fine.grid())
    assert np.allclose(sf.R[1::3], s1.R, rtol=0, atol=1e-12)


def test_from_file_preset(tmp_path):
    cfg, _ = validate_config(MINIMAL + "\n[grid]\nn = 16\n[time]\nt_end = 0.0\n")
    from bifluid.fields import derive, write_snapshot

    grid = cfg.grid()
    state = cfg.initial_state(grid)
    snap = tmp_path / "init.csv"
    write_snapshot(snap, grid, state, derive(state, cfg.exponents()))
    text = (
        MINIMAL
        + "\n[grid]\nn = 16\n[time]\nt_end = 0.0\n"
        + f"[initial]\nR_preset = from_file\nR_path = {snap}\n"
    )
    cfg2, _ = validate_config(text)
    s2 = cfg2.initial_state(cfg2.grid())
    assert np.array_equal(s2.R, state.R)


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


def test_cli_validate(tmp_path, capsys):
    path = write(tmp_path, "ok.ini", RUN_CFG)
    assert main(["validate", "--config", path]) == 0
    assert "config ok" in capsys.readouterr().out
    bad = write(tmp_path, "bad.ini", "[exponents]\ngamma_plus = 0.5\n")
    assert main(["validate", "--config", bad]) == 2
    assert main(["validate", "--config", str(tmp_path / "missing.ini")]) == 2


def test_cli_run_outputs_and_determinism(tmp_path):
    path = write(tmp_path, "run.ini", RUN_CFG)
    out1, out2 = str(tmp_path / "o1"), str(tmp_path / "o2")
    assert main(["run", "--config", path, "--out", out1]) == 0
    assert main(["run", "--config", path, "--out", out2]) == 0
    names = sorted(os.listdir(out1))
    assert names == ["report.json", "snapshot_0000.csv", "snapshot_0001.csv", "snapshot_0002.csv"]
    for name in names:
        b1 = open(os.path.join(out1, name), "rb").read()
        b2 = open(os.path.join(out2, name), "rb").read()
        assert b1 == b2
    report = json.load(open(os.path.join(out1, "report.json")))
    assert report["counters"]["positivity_clips"] == 0
    assert report["conservation"]["drift_R_rel"] < 1e-13
    assert report["config"]["n"] == 32


def test_cli_run_zero_time(tmp_path):
    path = write(tmp_path, "z.ini", RUN_CFG.replace("t_end = 0.01", "t_end = 0.0"))
    out = str(tmp_path / "oz")
    assert main(["run", "--config", path, "--out", out]) == 0
    assert sorted(os.listdir(out)) == ["report.json", "snapshot_0000.csv"]


def test_cli_run_failure_writes_record(tmp_path):
    # all-vacuum initial data cannot produce a stable step
    text = RUN_CFG.replace("R_base = 1.5", "R_base = 0.0").replace(
        "R_amplitude = 0.3", "R_amplitude = 0.0"
    ).replace("Q_base = 1.5", "Q_base = 0.0").replace("Q_amplitude = -0.2", "Q_amplitude = 0.0")
    path = write(tmp_path, "vac.ini", text)
    out = str(tmp_path / "fail")
    assert main(["run", "--config", path, "--out", out]) == 3
    rec = json.load(open(os.path.join(out, "failure.json")))
    assert rec["error"] == "ZeroDtError"


def test_cli_run_non_finite_state_writes_record(tmp_path, capsys):
    # the momentum flux (R + Q) u^2 overflows in the first step
    text = MINIMAL + (
        "\n[viscosity]\nmu = 0.0\n[grid]\nn = 16\n[time]\nt_end = 1e-150\n"
        "n_snapshots = 2\n[initial]\nu_preset = sine\nu_amplitude = 1e155\n"
        "[verification]\nallow_inviscid = true\n"
    )
    path = write(tmp_path, "blowup.ini", text)
    out = str(tmp_path / "fail")
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["run", "--config", path, "--out", out]) == 3
    assert "Traceback" not in capsys.readouterr().err
    rec = json.load(open(os.path.join(out, "failure.json")))
    assert rec["error"] == "NonFiniteStateError"
    assert rec["step"] == 1
    assert 0.0 < rec["t"] <= 1e-150
    assert rec["cells"] and all(0 <= c < 16 for c in rec["cells"])


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_cli_closure_overflow_is_runtime_failure(capsys):
    argv = ["closure", "--gamma-plus", "1.5", "--gamma-minus", "3.0", "--q-max", "1e308"]
    assert main(argv + ["--steps", "1"]) == 3
    assert "overflows" in capsys.readouterr().err


def test_cli_compare_twin_noise_floor(tmp_path):
    path = write(tmp_path, "run.ini", RUN_CFG)
    out = str(tmp_path / "cmp")
    assert main(["compare", "--config", path, "--out", out, "--ref-mode", "twin"]) == 0
    rows = open(os.path.join(out, "re_report.csv")).read().splitlines()
    assert rows[0] == "t,E_kin,E_alpha,E_breg_plus,E_breg_minus,E_total,D"
    for line in rows[1:]:
        parts = [float(v) for v in line.split(",")]
        assert all(v == 0.0 for v in parts[1:])
    payload = json.load(open(os.path.join(out, "verify.json")))
    assert payload["gronwall"]["at_noise_floor"] is True
    assert payload["gronwall"]["mode"] == "identical"


def test_cli_compare_outputs_reproducible(tmp_path):
    path = write(tmp_path, "run.ini", RUN_CFG)
    outs = []
    for name in ("c1", "c2"):
        out = str(tmp_path / name)
        assert main(["compare", "--config", path, "--out", out, "--ref-mode", "twin"]) == 0
        outs.append(out)
    for rel in ("re_report.csv", "verify.json", os.path.join("run_a", "report.json")):
        b1 = open(os.path.join(outs[0], rel), "rb").read()
        b2 = open(os.path.join(outs[1], rel), "rb").read()
        assert b1 == b2


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


def _max_E(path):
    rows = open(path).read().splitlines()[1:]
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


def test_cli_compare_fine_mode(tmp_path):
    a = write(tmp_path, "a.ini", RUN_CFG)
    b = write(tmp_path, "b.ini", RUN_CFG.replace("n = 32", "n = 64"))
    out = str(tmp_path / "fine")
    assert main(["compare", "--config", a, "--config-b", b, "--out", out, "--ref-mode", "fine"]) == 0
    payload = json.load(open(os.path.join(out, "verify.json")))
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


def test_cli_mms_ref_mode_compare(tmp_path):
    path = write(tmp_path, "mms.ini", MMS_CFG)
    out = str(tmp_path / "mcmp")
    assert main(["compare", "--config", path, "--out", out, "--ref-mode", "mms"]) == 0
    payload = json.load(open(os.path.join(out, "verify.json")))
    assert payload["ref_mode"] == "mms"
    assert payload["energy_audit"]["skipped"] is True  # forced run


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
    assert (
        main(
            [
                "closure",
                "--gamma-plus", "3.0",
                "--gamma-minus", "1.5",
                "--r-min", "0.0", "--r-max", "0.0",
                "--q-min", "0.0", "--q-max", "4.0",
                "--steps", "2",
            ]
        )
        == 0
    )
    lines = capsys.readouterr().out.splitlines()[1:]
    assert len(lines) == 9
    for line in lines:
        parts = line.split(",")
        assert float(parts[3]) == 0.0  # alpha column all zero
    vac_rows = [l for l in lines if l.endswith(",1")]
    assert len(vac_rows) == 3  # the Q = 0 rows are flagged vacuum


def test_cli_closure_table_usage_errors(capsys):
    assert main(["closure", "--gamma-plus", "3.0", "--gamma-minus", "1.5", "--steps", "0"]) == 2
    assert main(["closure", "--gamma-plus", "1.0", "--gamma-minus", "1.5"]) == 2
    assert main(["closure", "--gamma-plus", "3.0", "--gamma-minus", "1.5", "--r-min", "-1.0"]) == 2
