"""The benchmark's tracer patches program functions by name; a deletion or a
rename in the program must fail here, not only under ``perfbench --trace 1``."""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import bifluid
from bifluid import cli, fields, solver
from bifluid.config import SimConfig

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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


def test_full_trace_covers_the_hot_loop():
    # a refactor must not move the per-step work out of the traced entry points
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    tracer.install(full=True)
    try:
        traj = solver.run(SimConfig(n=16, t_end=0.01, n_snapshots=2))
    finally:
        tracer.uninstall()
    assert not hasattr(solver.run, "__wrapped__")  # uninstalled
    assert traj.n_steps > 0 and tracer.counts["solver.steps"] == traj.n_steps
    for name in (
        "solver.run",
        "solver.step",
        "solver.compute_dt",
        "solver.alpha_diag",
        "fields.derive",
    ):
        assert tracer.spans[name][0] > 0, f"{name} is not traced"


def test_full_trace_of_a_twin_compare_derives_each_state_once(tmp_path, spy_calls):
    # both runs hand their own derived fields and energies to the outputs and
    # the audits, so the benchmark's derive_per_state reads 1, each snapshot
    # pair's relative energy is evaluated once (its two Bregman gaps with
    # it), and each snapshot's total energy once
    tracing = _load_tracing()
    cfg_a = SimConfig(n=16, t_end=0.01, n_snapshots=3, perturb_epsilon=0.01)
    cfg_b = SimConfig(n=16, t_end=0.01, n_snapshots=3, closure_tol=1e-11)
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
    assert tracer.counts["fields.distinct_states"] == steps + 2
    metrics = tracing.layer_metrics(tracer, tmp_path)
    assert metrics["fields.derive_per_state"] == 1.0
    n = len(payload["times"])
    assert n == 3
    assert tracer.spans["verify.relative_entropy"][0] == n
    assert tracer.spans["thermo.bregman"][0] == 2 * n
    assert len(energies) == 2 * n
