"""Checks of the benchmark itself: spec, inputs, output gate, tracing.

Run from the repository root:  python3 -m pytest perfbench/tests
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bifluid
import bifluid.cli
import tracing
from workloads import FIELD_TOL, N_VARIANTS, WORKLOADS

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
REFERENCE = json.loads((BENCH / "reference.json").read_text())["workloads"]


def _run_job(workload, variant, job_dir: Path) -> int:
    for name, text in workload.configs(variant).items():
        (job_dir / name).write_text(text)
    with contextlib.redirect_stdout(io.StringIO()):
        return bifluid.cli.main(workload.argv(job_dir))


def _perturb_csv_cell(path: Path, row: int, column: int, delta: float) -> None:
    lines = path.read_text().splitlines()
    cells = lines[row + 1].split(",")
    cells[column] = format(float(cells[column]) + delta, ".17g")
    lines[row + 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def test_spec_names_match_workloads_layer_map_and_reference():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert set(REFERENCE) == set(WORKLOADS)
    assert all(len(REFERENCE[name]) == N_VARIANTS for name in WORKLOADS)
    layer_map = json.loads((BENCH / "layer_map.json").read_text())
    assert [m["name"] for m in SPEC["per_layer"]] == list(layer_map)
    workloads = set(WORKLOADS)
    e2e = {m["name"] for m in SPEC["end_to_end"]}
    for entry in layer_map.values():
        assert {m["workload"] for m in entry["moves"]} <= workloads
        assert {m["metric"] for m in entry["moves"]} <= e2e
        assert set(entry["unchanged_on"]) <= workloads


def test_traced_metrics_cover_per_layer_spec():
    names = set(tracing.layer_metrics(tracing.Tracer(), BENCH)) | {"trace.overhead_s"}
    assert names == {m["name"] for m in SPEC["per_layer"]}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_variants_are_valid_distinct_and_deterministic(name):
    workload = WORKLOADS[name]
    texts = [workload.configs(v) for v in range(N_VARIANTS)]
    assert texts == [workload.configs(v) for v in range(N_VARIANTS)]
    assert len({json.dumps(t, sort_keys=True) for t in texts}) == N_VARIANTS
    for configs in texts:
        for text in configs.values():
            bifluid.validate_config(text)


def test_gate_accepts_bump_run_and_rejects_corrupted_outputs(tmp_path):
    workload = WORKLOADS["bump_run"]
    ref = REFERENCE["bump_run"][3]
    rc = _run_job(workload, 3, tmp_path)
    out = tmp_path / "out"
    assert workload.check(rc, out, ref) == []
    assert workload.check(3, out, ref) == ["exit code 3"]
    # the reference of another variant does not match
    assert workload.check(rc, out, REFERENCE["bump_run"][4])

    pristine = tmp_path / "pristine"
    shutil.copytree(out, pristine)
    final = out / "snapshot_0010.csv"
    _perturb_csv_cell(final, row=200, column=2, delta=1e-6)  # R
    problems = workload.check(rc, out, ref)
    assert problems and "final R" in problems[0]

    shutil.rmtree(out)
    shutil.copytree(pristine, out)
    report = json.loads((out / "report.json").read_text())
    report["conservation"]["drift_Q_rel"] = 1e-9
    (out / "report.json").write_text(json.dumps(report))
    assert any("drift_Q_rel" in p for p in workload.check(rc, out, ref))

    (out / "report.json").unlink()
    assert "unreadable outputs" in workload.check(rc, out, ref)[0]


def test_gate_rejects_wrong_mms_errors_and_low_order(tmp_path):
    workload = WORKLOADS["mms_newton"]
    ref = REFERENCE["mms_newton"][0]
    out = tmp_path / "out"
    out.mkdir()

    def write(errors, orders):
        conv = {"ns": [128, 256, 512], "errors": errors, "orders": orders}
        (out / "verify.json").write_text(json.dumps({"convergence": conv}))
        return workload.check(0, out, ref)

    assert write(ref["errors"], ref["orders"]) == []
    errors = json.loads(json.dumps(ref["errors"]))
    errors["Q"][2] += 100 * FIELD_TOL
    assert write(errors, ref["orders"])
    orders = json.loads(json.dumps(ref["orders"]))
    orders["u"][0] = 0.5
    assert write(ref["errors"], orders)


def test_gate_rejects_failed_energy_audit(tmp_path):
    workload = WORKLOADS["compare_dense"]
    ref = REFERENCE["compare_dense"][1]
    rc = _run_job(workload, 1, tmp_path)
    out = tmp_path / "out"
    assert workload.check(rc, out, ref) == []
    payload = json.loads((out / "verify.json").read_text())
    payload["energy_audit"]["passed"] = False
    (out / "verify.json").write_text(json.dumps(payload))
    assert "energy audit" in workload.check(rc, out, ref)[0]


def test_tracer_patches_every_binding_and_measures_self_time(tmp_path):
    import bifluid.fields
    import bifluid.mms
    import bifluid.solver

    tracer = tracing.Tracer()
    tracer.install(full=True)
    try:
        for module, attr in (
            (bifluid.mms, "solve_closure_batch"),
            (bifluid.solver, "derive"),
            (bifluid.cli, "derive"),
            (bifluid.cli, "write_snapshot"),
            (bifluid.cli, "run"),
            (bifluid.verify, "run"),
        ):
            assert hasattr(getattr(module, attr), "__wrapped__"), f"{module.__name__}.{attr}"
        text = WORKLOADS["mms_newton"].configs(0)["mms.ini"].replace("n = 128", "n = 16")
        cfg, _ = bifluid.validate_config(text)
        bifluid.solver.run(cfg)
    finally:
        tracer.uninstall()
    assert not hasattr(bifluid.cli.run, "__wrapped__")
    for calls, total, own in tracer.spans.values():
        assert 0.0 <= own <= total + 1e-9
    assert tracer.spans["solver.run"][0] == 1
    m = tracing.layer_metrics(tracer, tmp_path)
    assert m["closure.newton_iters"] > 0
    assert m["mms.cell_averages_calls"] == 2 * m["solver.steps"]
    # run derives each step's start state and step its stage state; the
    # initial state is derived once more to seed the fraction diagnostic
    calls = m["fields.derive_calls"]
    assert calls == 2 * m["solver.steps"] + 1
    assert m["fields.derive_per_state"] == pytest.approx(calls / (calls - 1))
    assert m["closure.calls"] == m["fields.derive_calls"] + 3 * m["mms.cell_averages_calls"]


def test_benchmark_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [sys.executable, "perfbench/run.py", "--workload", "bump_run", "--seed", "0",
           "--seconds", "1", "--trace", "0"]
    done = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
