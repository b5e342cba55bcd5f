"""Span wrappers around the public entry points of each bifluid module.

``Tracer.install`` replaces a function with a timing wrapper in every
``bifluid`` module namespace that bound it (``bifluid.cli.run`` and
``bifluid.verify.run`` are the same object as ``bifluid.solver.run``), and
methods on their class.  Spans nest on a stack, so a span's self time is its
duration minus the time its child spans cover.  Spans are aggregated per name
in memory: calls, total seconds and self seconds.  Counts come from return
values and file sizes.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
import weakref
from pathlib import Path

import numpy as np


def _count_closure(tracer, args, kwargs, result):
    Z, iterations = result
    tracer.counts["closure.cells"] += int(np.size(Z))
    tracer.counts["closure.newton_iters"] += int(iterations)


def _count_run(tracer, args, kwargs, result):
    tracer.counts["solver.steps"] += result.n_steps
    tracer.counts["cell_updates"] += result.n_steps * result.grid.n


def _count_derive(tracer, args, kwargs, result):
    state = args[0] if args else kwargs["state"]
    if tracer.seen_states.get(id(state)) is not state:
        tracer.seen_states[id(state)] = state
        tracer.counts["fields.distinct_states"] += 1


def _count_snapshot(tracer, args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    tracer.counts["fields.snapshot_bytes"] += os.path.getsize(path)


# (module, attribute, span name, counter); attribute "Class.method" patches the class.
RUN_TARGET = ("bifluid.solver", "run", "solver.run", _count_run)
TARGETS = (
    ("bifluid.closure", "solve_closure_batch", "closure", _count_closure),
    RUN_TARGET,
    ("bifluid.solver", "step", "solver.step", None),
    ("bifluid.solver", "compute_dt", "solver.compute_dt", None),
    ("bifluid.solver", "alpha_diagnostic_step", "solver.alpha_diag", None),
    ("bifluid.mms", "ManufacturedSolution.cell_averages", "mms.cell_averages", None),
    ("bifluid.fields", "derive", "fields.derive", _count_derive),
    ("bifluid.fields", "write_snapshot", "fields.write_snapshot", _count_snapshot),
    ("bifluid.thermo", "bregman", "thermo.bregman", None),
    ("bifluid.verify", "relative_entropy", "verify.relative_entropy", None),
    ("bifluid.verify", "coercivity_check", "verify.coercivity", None),
    ("bifluid.verify", "energy_audit", "verify.energy_audit", None),
    ("bifluid.verify", "convergence_study", "verify.convergence_study", None),
    ("bifluid.cli", "write_run_outputs", "cli.write_run_outputs", None),
    ("bifluid.cli", "compare_runs", "cli.compare_runs", None),
    ("bifluid.config", "validate_config", "config.validate", None),
)

COUNT_NAMES = (
    "closure.cells",
    "closure.newton_iters",
    "solver.steps",
    "cell_updates",
    "fields.distinct_states",
    "fields.snapshot_bytes",
)


class Tracer:
    """Aggregated spans and counts for one job."""

    def __init__(self):
        self.spans: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counts = dict.fromkeys(COUNT_NAMES, 0)
        self.seen_states = weakref.WeakValueDictionary()
        self._stack: list[float] = []  # child seconds of each open span
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, count):
        tracer = self
        agg = self.spans.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dur
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - child
            if count is not None:
                count(tracer, args, kwargs, result)
            return result

        return wrapper

    def install(self, full: bool) -> None:
        """Patch every target (full) or only ``solver.run``, which feeds the work count."""
        modules = [m for k, m in sys.modules.items() if k == "bifluid" or k.startswith("bifluid.")]
        for module_name, attr, name, count in TARGETS if full else (RUN_TARGET,):
            owner = importlib.import_module(module_name)
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                holders = [owner]
            else:
                holders = modules
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, count)
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._patched.append((holder, key, value))
                        setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        for holder, key, value in reversed(self._patched):
            setattr(holder, key, value)
        self._patched.clear()


def json_bytes(out_dir: Path) -> int:
    return sum(p.stat().st_size for p in Path(out_dir).rglob("*.json"))


def layer_metrics(tracer: Tracer, out_dir: Path) -> dict[str, float]:
    """The per-layer metrics of one traced job, named ``<module>.<metric>``."""
    spans = tracer.spans
    counts = tracer.counts

    def calls(name):
        return spans.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return spans.get(name, (0, 0.0, 0.0))[1]

    def own(name):
        return spans.get(name, (0, 0.0, 0.0))[2]

    def ratio(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    return {
        "closure.calls": calls("closure"),
        "closure.cells": counts["closure.cells"],
        "closure.newton_iters": counts["closure.newton_iters"],
        "closure.self_s": own("closure"),
        "closure.ns_per_cell": ratio(own("closure"), counts["closure.cells"], 1e9),
        "solver.steps": counts["solver.steps"],
        "solver.run_s": total("solver.run"),
        "solver.step_self_s": own("solver.step"),
        "solver.ns_per_cell_step": ratio(own("solver.step"), counts["cell_updates"], 1e9),
        "solver.compute_dt_s": total("solver.compute_dt"),
        "solver.alpha_diag_s": total("solver.alpha_diag"),
        "mms.cell_averages_calls": calls("mms.cell_averages"),
        "mms.cell_averages_self_s": own("mms.cell_averages"),
        "fields.derive_calls": calls("fields.derive"),
        "fields.derive_per_state": ratio(calls("fields.derive"), counts["fields.distinct_states"]),
        "fields.derive_self_s": own("fields.derive"),
        "fields.write_snapshot_s": total("fields.write_snapshot"),
        "fields.snapshot_bytes": counts["fields.snapshot_bytes"],
        "fields.write_MBps": ratio(
            counts["fields.snapshot_bytes"], total("fields.write_snapshot"), 1e-6
        ),
        "thermo.bregman_calls": calls("thermo.bregman"),
        "thermo.bregman_s": total("thermo.bregman"),
        "verify.relative_entropy_calls": calls("verify.relative_entropy"),
        "verify.relative_entropy_s": total("verify.relative_entropy"),
        "verify.coercivity_s": total("verify.coercivity"),
        "verify.energy_audit_self_s": own("verify.energy_audit"),
        "verify.convergence_study_self_s": own("verify.convergence_study"),
        "cli.write_run_outputs_self_s": own("cli.write_run_outputs"),
        "cli.compare_runs_self_s": own("cli.compare_runs"),
        "cli.json_bytes": json_bytes(out_dir),
        "config.validate_s": total("config.validate"),
    }
