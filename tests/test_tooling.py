"""The benchmark's tracer patches program functions by name; a deletion or a
rename in the program must fail here, not only under ``perfbench --trace 1``.
Every name a module exports must be used by the program itself."""

import ast
import importlib
import importlib.util
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import bifluid
from bifluid import cli, fields, solver
from bifluid.config import SimConfig, validate_config

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"
WORKLOADS = ROOT / "perfbench" / "workloads.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load_workloads(monkeypatch):
    spec = importlib.util.spec_from_file_location("_perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # dataclasses look it up
    spec.loader.exec_module(workloads)
    return workloads


def test_every_shipped_and_benchmark_config_validates(monkeypatch):
    # a removed or renamed config key must fail here, not only in the
    # benchmark's gate
    workloads = _load_workloads(monkeypatch)
    texts = {path.name: path.read_text() for path in sorted((ROOT / "configs").glob("*.ini"))}
    assert texts
    for name, workload in workloads.WORKLOADS.items():
        for variant in range(workloads.N_VARIANTS):
            for file_name, text in workload.configs(variant).items():
                texts[f"{name} variant {variant}: {file_name}"] = text
    for label, text in texts.items():
        try:
            validate_config(text)
        except ValueError as exc:
            raise AssertionError(f"{label}: {exc}") from None


def test_every_tracer_target_resolves():
    tracing = _load_tracing()
    assert tracing.RUN_TARGET in tracing.TARGETS
    for module_name, attr, name, _ in tracing.TARGETS:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            assert hasattr(owner, part), f"{name}: {module_name}.{attr} is gone"
            owner = getattr(owner, part)
        assert callable(owner), name


def test_every_all_name_exists():
    for info in pkgutil.iter_modules(bifluid.__path__):
        module = importlib.import_module(f"bifluid.{info.name}")
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert missing == [], f"bifluid.{info.name}.__all__ names missing objects"


def test_every_all_name_is_used_by_the_program():
    # a public name that only tests reach is API kept for the tests alone;
    # a use is a name read or an attribute in the package or the benchmark
    used = set()
    for path in [*(ROOT / "src" / "bifluid").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unused = [
        f"{info.name}.{name}"
        for info in pkgutil.iter_modules(bifluid.__path__)
        for name in getattr(importlib.import_module(f"bifluid.{info.name}"), "__all__", ())
        if name not in used
    ]
    assert unused == []


def test_full_trace_covers_the_hot_loop():
    # a refactor must not move the per-step work out of the traced entry points
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    tracer.install(full=True)
    snapshots = []
    try:
        traj = solver.run(
            SimConfig(n=16, t_end=0.01, n_snapshots=2, track_alpha=True),
            on_snapshot=lambda der: snapshots.append(der.t),
        )
    finally:
        tracer.uninstall()
    assert not hasattr(solver.run, "__wrapped__")  # uninstalled
    assert snapshots == traj.times
    assert traj.n_steps > 0 and tracer.counts["solver.steps"] == traj.n_steps
    for name in ("solver.run", "fields.derive"):
        assert tracer.spans[name][0] > 0, f"{name} is not traced"
    # each step's work runs inside one call of each traced per-step function
    for name in ("solver.step", "solver.compute_dt", "solver.alpha_diag"):
        assert tracer.spans[name][0] == traj.n_steps, name


def _traced_closure_metrics(cfg, tmp_path):
    """(steps, layer metrics) of one fully traced run of cfg."""
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    tracer.install(full=True)
    try:
        traj = solver.run(cfg, on_snapshot=lambda der: None)
    finally:
        tracer.uninstall()
    return traj.n_steps, tracing.layer_metrics(tracer, tmp_path)


def test_closure_span_sees_every_kernel_call(monkeypatch, tmp_path):
    # every closure solve of the program goes through the public kernel, the
    # name the tracer wraps, so the closure metrics count the real solves
    workloads = _load_workloads(monkeypatch)
    text = workloads.WORKLOADS["mms_newton"].configs(0)["mms.ini"].replace("n = 128", "n = 16")
    steps, m = _traced_closure_metrics(validate_config(text)[0], tmp_path)
    assert steps == 4
    # 4 joint stage-and-face solves, 1 cold face solve, 3 closes between
    # steps and 2 derives (one per snapshot)
    assert m["closure.calls"] == 10
    assert m["closure.newton_iters"] > 0
    # unforced at gamma = 2: each step closes its stage and its new state,
    # and the initial state is derived
    steps, m = _traced_closure_metrics(SimConfig(n=16, t_end=0.01, n_snapshots=2), tmp_path)
    assert steps > 0
    assert m["closure.calls"] == 2 * steps + 1
    assert m["closure.newton_iters"] == 0


def test_full_trace_of_a_twin_compare_derives_each_state_once(tmp_path, spy_calls):
    # both runs hand their own derived fields and energies to the outputs and
    # the audits, so the benchmark's derive_per_state reads 1, each snapshot
    # pair's relative energy is evaluated once (its two Bregman gaps with
    # it), and each snapshot's total energy once
    tracing = _load_tracing()
    cfg_a = SimConfig(n=16, t_end=0.01, n_snapshots=3, perturb_epsilon=0.01)
    cfg_b = SimConfig(n=16, t_end=0.01, n_snapshots=3)
    energies = spy_calls(fields.total_energy)
    tracer = tracing.Tracer()
    tracer.install(full=True)
    try:
        _, payload = cli.compare_runs(cfg_a, cfg_b, "twin", tmp_path)
    finally:
        tracer.uninstall()
    steps = tracer.counts["solver.steps"]
    assert tracer.spans["solver.run"][0] == 2 and steps > 0
    assert tracer.spans["fields.derive"][0] == tracer.counts["fields.distinct_states"]
    # a run derives its snapshot states and steps the rest in its buffers
    assert tracer.counts["fields.distinct_states"] == 2 * 3
    metrics = tracing.layer_metrics(tracer, tmp_path)
    assert metrics["fields.derive_per_state"] == 1.0
    n = len(payload["times"])
    assert n == 3
    assert tracer.spans["verify.relative_entropy"][0] == n
    assert tracer.spans["thermo.bregman"][0] == 2 * n
    assert len(energies) == 2 * n


UNTRACED_INI = """
[exponents]
gamma_plus = 3.0
gamma_minus = 1.5

[grid]
n = {n}

[time]
t_end = 0.005
n_snapshots = 3
"""

UNTRACED_MMS_INI = """
[exponents]
gamma_plus = 3.0
gamma_minus = 1.5

[viscosity]
mu = 0.02

[grid]
n = 64

[time]
t_end = 0.01
n_snapshots = 2

[mms]
enabled = true
"""


def test_untraced_work_count_covers_every_run(tmp_path):
    # the untraced benchmark wraps only solver.run and reads n_steps and
    # grid from what each run returns; a CLI path that stepped outside it
    # would read as zero cell updates per second
    from bifluid.config import validate_config

    tracing = _load_tracing()
    texts = {
        "a.ini": UNTRACED_INI.format(n=32) + "\n[perturbation]\nepsilon = 0.05\n",
        "b.ini": UNTRACED_INI.format(n=32),
    }
    cells = {}
    for name, text in texts.items():
        (tmp_path / name).write_text(text)
        traj = solver.run(validate_config(text)[0])
        cells[name] = traj.n_steps * traj.grid.n
    a, b = str(tmp_path / "a.ini"), str(tmp_path / "b.ini")
    mms = tmp_path / "mms.ini"
    mms.write_text(UNTRACED_MMS_INI)
    mms_cfg = validate_config(UNTRACED_MMS_INI)[0]
    mms_cells = 0
    for lev in range(3):  # the study's levels: n, 2n, 4n
        traj = solver.run(mms_cfg.with_resolution(mms_cfg.n * 2**lev))
        mms_cells += traj.n_steps * traj.grid.n
    jobs = [
        (["run", "--config", a, "--out", str(tmp_path / "run")], cells["a.ini"]),
        (
            ["compare", "--config", a, "--config-b", b, "--out", str(tmp_path / "cmp")],
            cells["a.ini"] + cells["b.ini"],
        ),
        (
            ["compare", "--config", a, "--config-b", a, "--out", str(tmp_path / "self")],
            2 * cells["a.ini"],
        ),
        (["mms", "--config", str(mms), "--levels", "3"], mms_cells),
    ]
    for argv, want in jobs:
        tracer = tracing.Tracer()
        tracer.install(full=False)
        try:
            assert cli.main(argv) == 0
        finally:
            tracer.uninstall()
        assert tracer.counts["cell_updates"] == want > 0


def test_no_command_imports_numpy_random(tmp_path):
    # importing numpy.random costs a job about 6 MB of resident memory; the
    # perturbation noise is drawn without it, so no command may load it
    configs = Path(__file__).resolve().parents[1] / "configs"
    a, b = str(configs / "perturbed_pair_a.ini"), str(configs / "perturbed_pair_b.ini")
    out = str(tmp_path / "cmp")
    script = "\n".join(
        [
            "import sys",
            "from bifluid import cli",
            f"assert cli.main(['validate', '--config', {a!r}]) == 0",
            f"assert cli.main(['compare', '--config', {a!r}, '--config-b', {b!r}, '--out', {out!r}]) == 0",
            "print('numpy.random' in sys.modules)",
        ]
    )
    src = os.path.dirname(os.path.dirname(bifluid.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


def test_compare_fits_without_a_least_squares_solver(tmp_path, monkeypatch):
    # the Gronwall rate is a closed-form slope: no command loads LAPACK for it
    def refuse(*args, **kwargs):
        raise AssertionError("a linear-algebra least-squares fit was called")

    monkeypatch.setattr(np, "polyfit", refuse)
    monkeypatch.setattr(np.linalg, "lstsq", refuse)
    configs = Path(__file__).resolve().parents[1] / "configs"
    argv = [
        "compare",
        "--config", str(configs / "perturbed_pair_a.ini"),
        "--config-b", str(configs / "perturbed_pair_b.ini"),
        "--out", str(tmp_path / "cmp"),
    ]
    assert cli.main(argv) == 0
    assert (tmp_path / "cmp" / "verify.json").is_file()
