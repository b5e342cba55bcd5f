"""The benchmark's tracer patches program functions by name; a deletion or a
rename in the program must fail here, not only under ``perfbench --trace 1``."""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import bifluid
from bifluid import solver
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
