"""Command-line driver: run, compare, mms, closure, validate.

Exit codes: 0 success, 2 configuration/usage error, 3 runtime failure,
4 verification failure.  All artifacts land under the requested output
directory and re-running into a fresh directory reproduces them byte for
byte (no timestamps or absolute paths are written).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

import numpy as np

from . import verify
from .closure import (
    ClosureOverflowError,
    ExponentPair,
    MaxIterExceededError,
    NonFiniteInputError,
    solve_closure_batch,
)
from .config import ParseError, SimConfig, ValidationError, validate_config
from .fields import (
    FieldState,
    default_ess_window,
    derive,
    restrict,
    total_energy,
    total_mass,
    write_snapshot,
)
from .solver import (
    NonFiniteStateError,
    PositivityLossError,
    Trajectory,
    ZeroDtError,
    run,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3
EXIT_VERIFY = 4

RUNTIME_ERRORS = (
    PositivityLossError,
    NonFiniteStateError,
    ZeroDtError,
    MaxIterExceededError,
    ClosureOverflowError,
    NonFiniteInputError,
    verify.GridMismatchError,
    verify.TimeGridMismatchError,
    verify.VacuumReferenceError,
    verify.EmptySeriesError,
    RuntimeError,
)

REF_MODES = ("twin", "fine", "mms")

CLOSURE_BATCH_CELLS = 1 << 16  # closure table cells solved per batch


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def _jsonable(obj):
    """Recursively make a value JSON-safe; non-finite floats become None."""
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v if math.isfinite(v) else None
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _jsonable(dataclasses.asdict(obj))
    return obj


def _write_json(path, payload) -> None:
    with open(path, "w", newline="\n") as fh:
        json.dump(_jsonable(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _subsample(values, cap: int = 512):
    values = list(values)
    if len(values) <= cap:
        return values
    stride = -(-len(values) // cap)
    return values[::stride]


def _write_failure(out_dir, exc) -> None:
    if out_dir is None:
        return
    os.makedirs(out_dir, exist_ok=True)
    record = {"error": type(exc).__name__, "message": str(exc)}
    if isinstance(exc, NonFiniteStateError):
        record.update(t=exc.t, step=exc.step, cells=exc.cells[:64], n_cells=len(exc.cells))
    _write_json(os.path.join(out_dir, "failure.json"), record)


SNAPSHOT_WRITERS = 2  # forked processes that format one run's snapshot CSVs


def _writer_child(jobs) -> None:
    """Body of a forked snapshot writer: format and write, never return."""
    code = 1
    try:
        for job in jobs:
            write_snapshot(*job)
        code = 0
    except BaseException as exc:
        print(f"snapshot writer failed: {exc}", file=sys.stderr)
    finally:
        try:
            sys.stdout.flush()
            sys.stderr.flush()
        finally:
            os._exit(code)


class SnapshotWriters:
    """Join handle of one run's snapshot writers."""

    def __init__(self, procs):
        self._procs = procs  # (pid, paths it writes)

    def join(self, check: bool = True) -> None:
        """Reap every writer; with check, raise RuntimeError naming the files
        of any that failed."""
        failed = []
        while self._procs:
            pid, paths = self._procs.pop(0)
            _, status = os.waitpid(pid, 0)
            if status != 0:
                failed.extend(paths)
        if failed and check:
            raise RuntimeError(f"snapshot writer failed on {', '.join(failed)}")


def _start_writers(jobs) -> SnapshotWriters:
    """Write (path, grid, state, derived) snapshot jobs, split between
    SNAPSHOT_WRITERS forked processes by index parity; inline without fork."""
    if not hasattr(os, "fork"):
        for job in jobs:
            write_snapshot(*job)
        return SnapshotWriters([])
    procs = []
    for k in range(min(SNAPSHOT_WRITERS, len(jobs))):
        share = jobs[k::SNAPSHOT_WRITERS]
        sys.stdout.flush()
        sys.stderr.flush()
        try:
            pid = os.fork()
        except OSError as exc:
            SnapshotWriters(procs).join(check=False)
            raise RuntimeError(f"cannot start a snapshot writer: {exc}") from None
        if pid == 0:
            _writer_child(share)
        procs.append((pid, [job[0] for job in share]))
    return SnapshotWriters(procs)


def write_run_outputs(traj: Trajectory, out_dir, cfg: SimConfig) -> SnapshotWriters:
    """Snapshots plus report.json for one finished trajectory.

    The CSV columns come from the run's own derived fields, traj.derived,
    and the energies from traj.energies.  report.json is written here; the
    CSVs are written by forked writers, whose join handle is returned.
    """
    os.makedirs(out_dir, exist_ok=True)
    names = [f"snapshot_{k:04d}.csv" for k in range(len(traj.states))]
    masses = [total_mass(s, traj.grid) for s in traj.states]
    mr0, mq0 = masses[0]
    drift_r = max(abs(mr - mr0) for mr, _ in masses) / max(abs(mr0), 1e-300)
    drift_q = max(abs(mq - mq0) for _, mq in masses) / max(abs(mq0), 1e-300)
    report = {
        "config": dataclasses.asdict(cfg),
        "snapshots": names,
        "times": traj.times,
        "n_steps": traj.n_steps,
        "dt_series": _subsample(traj.dt_history.tolist()),
        "counters": {
            "positivity_clips": traj.positivity_clips,
            "alpha_clamps": traj.alpha_clamps,
        },
        "closure_iterations_max": traj.closure_iterations_max,
        "max_wave_speed": traj.max_wave_speed,
        "conservation": {
            "mass_R_initial": mr0,
            "mass_Q_initial": mq0,
            "mass_R_final": masses[-1][0],
            "mass_Q_final": masses[-1][1],
            "drift_R_rel": drift_r,
            "drift_Q_rel": drift_q,
        },
        "energy": {
            "E": traj.energies,
            "dissipation_cum": traj.diss_cum,
        },
        "forced": traj.forced,
    }
    _write_json(os.path.join(out_dir, "report.json"), report)
    return _start_writers(
        [
            (os.path.join(out_dir, name), traj.grid, state, der)
            for name, state, der in zip(names, traj.states, traj.derived)
        ]
    )


_RE_ROW = ",".join(["%.17g"] * 7) + "\n"


def write_re_report(path, rows) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write("t,E_kin,E_alpha,E_breg_plus,E_breg_minus,E_total,D\n")
        fh.writelines(
            _RE_ROW % (r.t, r.E_kin, r.E_alpha, r.E_breg_plus, r.E_breg_minus, r.E_total, r.D)
            for r in rows
        )


def _load_config(path, strict_flag: bool):
    """The validated config and the initial state its validation built."""
    with open(path, "r") as fh:
        cfg, warnings, state = validate_config(fh.read(), with_state=True)
    if strict_flag:
        cfg.strict = True
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    return cfg, state


def cmd_validate(args) -> int:
    with open(args.config, "r") as fh:
        cfg, warnings = validate_config(fh.read())
    for w in warnings:
        print(f"warning: {w}")
    print(f"config ok: n={cfg.n}, t_end={cfg.t_end:g}, bc={cfg.bc}")
    return EXIT_OK


def _make_out_dir(path) -> bool:
    """Create the output directory before any solve; False, with a usage
    error printed, when the path cannot be one (it is a file, or lies under
    one)."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        print(f"usage error: cannot create the --out directory: {exc}", file=sys.stderr)
        return False
    return True


def cmd_run(args) -> int:
    cfg, state = _load_config(args.config, args.strict)
    if not _make_out_dir(args.out):
        return EXIT_CONFIG
    traj = run(cfg, initial=state)
    write_run_outputs(traj, args.out, cfg).join()
    print(f"run complete: {traj.n_steps} steps, outputs in {args.out}")
    return EXIT_OK


def _check_compatible(cfg_a: SimConfig, cfg_b: SimConfig, ref_mode: str) -> None:
    for attr in ("gamma_plus", "gamma_minus", "length", "t_end", "n_snapshots", "bc"):
        va, vb = getattr(cfg_a, attr), getattr(cfg_b, attr)
        if va != vb:
            raise ValidationError(f"compare requires matching {attr}: {va} vs {vb}")
    if ref_mode == "twin" and cfg_a.n != cfg_b.n:
        raise ValidationError("twin mode requires identical grids")
    if ref_mode == "fine":
        if cfg_b.n <= cfg_a.n or cfg_b.n % cfg_a.n != 0:
            raise ValidationError(
                f"fine mode needs the reference grid to refine the coarse one: {cfg_a.n} vs {cfg_b.n}"
            )


def compare_runs(
    cfg_a: SimConfig,
    cfg_b: SimConfig | None,
    ref_mode: str,
    out_dir,
    delta=None,
    initial_a: FieldState | None = None,
    initial_b: FieldState | None = None,
):
    """Run the pair, evaluate the relative-energy series, fit the audits.

    Returns (rows, verify_payload).  The reference side is a twin run, a
    fine-grid run restricted by cell averaging, or the manufactured exact
    solution, per ref_mode.  A run's snapshots are audited and written with
    the fields the run derived itself (Trajectory.derived) and the energies
    it evaluated from them (Trajectory.energies), so a twin is compared on
    the fields of its run_b CSVs, made with cfg_b's closure settings; the
    restricted and the exact states are derived here, with cfg_a's, and the
    energy scale is the energy of the first of them.  Each snapshot pair's
    relative energy is evaluated once: its row in rows, which the
    coercivity constants read too.  Without cfg_b a twin is run_a itself:
    the runs are deterministic, so a second solve would repeat it bit for
    bit.
    initial_a and initial_b are the configs' initial states when the caller
    has already built them (validation does).
    """
    if ref_mode not in REF_MODES:
        raise ValidationError(f"ref mode must be one of {REF_MODES}")
    self_twin = cfg_b is None and ref_mode == "twin"
    if cfg_b is None:
        cfg_b = cfg_a
    _check_compatible(cfg_a, cfg_b, ref_mode)
    if ref_mode == "mms" and not cfg_a.mms_enabled:
        raise ValidationError("mms reference mode requires mms.enabled = true")

    writers = []  # join handles of the runs' snapshot writers
    try:
        traj_a = run(cfg_a, initial=initial_a)
        grid = traj_a.grid
        exps = traj_a.exps
        times = traj_a.times
        der_a = traj_a.derived
        audit = verify.energy_audit(traj_a, cfg_a.energy_eps)
        if out_dir is not None:
            writers.append(write_run_outputs(traj_a, os.path.join(out_dir, "run_a"), cfg_a))

        traj_b = None
        if ref_mode != "mms":
            traj_b = traj_a if self_twin else run(cfg_b, initial=initial_b)
            if traj_b.times != times:
                raise verify.TimeGridMismatchError("snapshot times of the two runs differ")
        if ref_mode == "twin":
            der_b = traj_b.derived
            e_scale = traj_b.energies[0]
        else:
            if ref_mode == "fine":
                states_b = [restrict(s, cfg_b.n // cfg_a.n) for s in traj_b.states]
            else:
                sol = cfg_a.manufactured()
                states_b = [sol.state(grid, t) for t in times]
            der_b = [
                derive(s, exps, cfg_a.closure_tol, cfg_a.vacuum_alpha, cfg_a.rho_floor)
                for s in states_b
            ]
            e_scale = total_energy(der_b[0], grid, exps)
        if out_dir is not None and traj_b is not None:
            writers.append(write_run_outputs(traj_b, os.path.join(out_dir, "run_b"), cfg_b))

        rows = verify.relative_entropy_series(
            der_a, der_b, times, grid, exps, nu_eff=traj_a.scheme.nu_eff
        )
        noise_floor = verify.NOISE_FLOOR_FACTOR * verify.EPS * max(e_scale, 1.0)
        fit = verify.gronwall_check(
            times, [r.E_total for r in rows], e0_floor=noise_floor, e_scale=max(e_scale, 1.0)
        )
        stab = verify.alpha_stability_check(
            [d.alpha for d in der_a],
            [d.alpha for d in der_b],
            [d.u for d in der_a],
            [d.u for d in der_b],
            times,
            grid,
            delta if delta is not None else cfg_a.stability_delta,
        )
        if cfg_a.ess_lower or cfg_a.ess_upper:
            window = (cfg_a.ess_lower, cfg_a.ess_upper)
        else:
            window = default_ess_window(der_b)
        coer = [
            verify.coercivity_check(row, da, db, grid, exps, window[0], window[1])
            for row, da, db in zip(rows, der_a, der_b)
        ]

        payload = {
            "ref_mode": ref_mode,
            "times": times,
            "e_scale": e_scale,
            "noise_floor": noise_floor,
            "gronwall": dataclasses.asdict(fit),
            "alpha_stability": dataclasses.asdict(stab),
            "ess_window": list(window),
            "coercivity": [dataclasses.asdict(c) for c in coer],
            "energy_audit": {
                "passed": audit.passed,
                "skipped": audit.skipped,
                "eps_E": audit.eps_E,
                "worst_margin": audit.worst_margin,
            },
        }
        if out_dir is not None:
            os.makedirs(out_dir, exist_ok=True)
            write_re_report(os.path.join(out_dir, "re_report.csv"), rows)
            _write_json(os.path.join(out_dir, "verify.json"), payload)
        for w in writers:
            w.join()
        return rows, payload
    finally:
        for w in writers:  # reaped also when a run or an audit raised
            w.join(check=False)


def cmd_compare(args) -> int:
    # NaN fails the comparison, so this also rejects a non-finite delta
    if args.delta is not None and not (0.0 < args.delta < math.inf):
        print("usage error: --delta must be positive and finite", file=sys.stderr)
        return EXIT_CONFIG
    cfg_a, state_a = _load_config(args.config, args.strict)
    cfg_b, state_b = _load_config(args.config_b, args.strict) if args.config_b else (None, None)
    if not _make_out_dir(args.out):
        return EXIT_CONFIG
    rows, payload = compare_runs(
        cfg_a, cfg_b, args.ref_mode, args.out, args.delta, initial_a=state_a, initial_b=state_b
    )
    g = payload["gronwall"]
    tag = "at noise floor" if g["at_noise_floor"] else f"max_E={g['max_E']:.6g}"
    print(f"compare complete ({args.ref_mode}): {len(rows)} snapshots, {tag}")
    return EXIT_OK


ORDER_THRESHOLD = 0.8


def cmd_mms(args) -> int:
    if args.levels < 3:
        print("usage error: --levels must be at least 3", file=sys.stderr)
        return EXIT_CONFIG
    cfg, _ = _load_config(args.config, False)
    if not cfg.mms_enabled:
        print("config error: mms.enabled must be true for the mms command", file=sys.stderr)
        return EXIT_CONFIG
    if args.out is not None and not _make_out_dir(args.out):
        return EXIT_CONFIG
    report = verify.convergence_study(cfg, args.levels)
    print("n      " + "  ".join(f"err_{v:<10s}" for v in report.errors))
    for i, n in enumerate(report.ns):
        print(f"{n:<6d} " + "  ".join(f"{report.errors[v][i]:<14.6e}" for v in report.errors))
    print("orders " + "  ".join(f"{v}: " + ",".join(f"{o:.3f}" for o in report.orders[v]) for v in report.orders))
    if args.out is not None:
        _write_json(
            os.path.join(args.out, "verify.json"),
            {"convergence": dataclasses.asdict(report)},
        )
    if report.min_order() < ORDER_THRESHOLD:
        print(
            f"verification failure: observed order below {ORDER_THRESHOLD}",
            file=sys.stderr,
        )
        return EXIT_VERIFY
    return EXIT_OK


def cmd_closure(args) -> int:
    if args.steps < 1:
        print("usage error: --steps must be at least 1", file=sys.stderr)
        return EXIT_CONFIG
    # NaN fails every comparison, so this also rejects non-finite bounds
    if not (
        0.0 <= args.r_min <= args.r_max < math.inf
        and 0.0 <= args.q_min <= args.q_max < math.inf
    ):
        print("usage error: ranges must be finite, nonnegative and ordered", file=sys.stderr)
        return EXIT_CONFIG
    if not (0.0 <= args.vacuum_alpha <= 1.0):
        print("usage error: --vacuum-alpha must lie in [0, 1]", file=sys.stderr)
        return EXIT_CONFIG
    try:
        exps = ExponentPair(args.gamma_plus, args.gamma_minus)
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    rs = np.linspace(args.r_min, args.r_max, args.steps + 1)
    qs = np.linspace(args.q_min, args.q_max, args.steps + 1)
    print("R,Q,Z,alpha,rho_minus,p,vacuum")
    # one batch solve per block of table rows keeps memory bounded
    block = max(1, CLOSURE_BATCH_CELLS // qs.size)
    for start in range(0, rs.size, block):
        R = np.repeat(rs[start : start + block], qs.size)  # R outer, Q inner
        Q = np.tile(qs, R.size // qs.size)
        with np.errstate(over="ignore"):
            Z, _ = solve_closure_batch(R, Q, exps.gamma)
            # numpy scalar powers round like Python's float pow, so the table
            # keeps its digits; they overflow to inf instead of raising
            rho_minus = [z**exps.gamma for z in Z]
            p = [z**exps.gamma_plus for z in Z]
        bad = np.flatnonzero(~np.isfinite(p) | ~np.isfinite(rho_minus))
        if bad.size:
            k = bad[0]
            print(
                f"closure failed: rho_minus or p overflows float at R={_fmt(R[k])}, Q={_fmt(Q[k])}",
                file=sys.stderr,
            )
            return EXIT_RUNTIME
        vacuum = Z == 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            alpha = np.where(vacuum, float(args.vacuum_alpha), R / Z)
        for k in range(Z.size):
            print(
                ",".join(
                    (
                        _fmt(R[k]),
                        _fmt(Q[k]),
                        _fmt(Z[k]),
                        _fmt(alpha[k]),
                        _fmt(rho_minus[k]),
                        _fmt(p[k]),
                        "1" if vacuum[k] else "0",
                    )
                )
            )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bifluid",
        description="1D two-fluid finite-volume solver and stability-verification harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse and validate a config file")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("run", help="run a simulation and write snapshots + report")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--strict", action="store_true", help="hard-fail on positivity loss")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("compare", help="dual-run relative-energy comparison")
    p.add_argument("--config", required=True)
    p.add_argument("--config-b", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--ref-mode", choices=REF_MODES, default="twin")
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--strict", action="store_true")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("mms", help="manufactured-solution convergence study")
    p.add_argument("--config", required=True)
    p.add_argument("--levels", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_mms)

    p = sub.add_parser("closure", help="tabulate the pressure closure to stdout")
    p.add_argument("--gamma-plus", type=float, required=True)
    p.add_argument("--gamma-minus", type=float, required=True)
    p.add_argument("--r-min", type=float, default=0.0)
    p.add_argument("--r-max", type=float, default=1.0)
    p.add_argument("--q-min", type=float, default=0.0)
    p.add_argument("--q-max", type=float, default=1.0)
    p.add_argument("--steps", type=int, default=10)
    p.add_argument("--vacuum-alpha", type=float, default=0.0)
    p.set_defaults(func=cmd_closure)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, ValidationError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FileNotFoundError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except RUNTIME_ERRORS as exc:
        _write_failure(getattr(args, "out", None), exc)
        print(f"{args.command} failed: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
