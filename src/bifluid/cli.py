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
    recover_state,
)
from .config import ParseError, SimConfig, ValidationError, validate_config
from .fields import (
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


def write_run_outputs(traj: Trajectory, out_dir, cfg: SimConfig) -> None:
    """Snapshots plus report.json for one finished trajectory."""
    os.makedirs(out_dir, exist_ok=True)
    names = []
    for k, state in enumerate(traj.states):
        name = f"snapshot_{k:04d}.csv"
        der = traj.derived(k)
        write_snapshot(os.path.join(out_dir, name), traj.grid, state, der)
        names.append(name)
    masses = [total_mass(s, traj.grid) for s in traj.states]
    mr0, mq0 = masses[0]
    drift_r = max(abs(mr - mr0) for mr, _ in masses) / max(abs(mr0), 1e-300)
    drift_q = max(abs(mq - mq0) for _, mq in masses) / max(abs(mq0), 1e-300)
    energies = [
        total_energy(s, traj.grid, traj.exps, derived=traj.derived(i))
        for i, s in enumerate(traj.states)
    ]
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
            "E": energies,
            "dissipation_cum": traj.diss_cum,
        },
        "forced": traj.forced,
    }
    _write_json(os.path.join(out_dir, "report.json"), report)


def write_re_report(path, rows) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write("t,E_kin,E_alpha,E_breg_plus,E_breg_minus,E_total,D\n")
        for r in rows:
            fh.write(
                ",".join(
                    _fmt(v)
                    for v in (
                        r.t,
                        r.E_kin,
                        r.E_alpha,
                        r.E_breg_plus,
                        r.E_breg_minus,
                        r.E_total,
                        r.D,
                    )
                )
                + "\n"
            )


def _load_config(path, strict_flag: bool):
    with open(path, "r") as fh:
        cfg, warnings = validate_config(fh.read())
    if strict_flag:
        cfg.strict = True
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    return cfg


def cmd_validate(args) -> int:
    with open(args.config, "r") as fh:
        cfg, warnings = validate_config(fh.read())
    for w in warnings:
        print(f"warning: {w}")
    print(f"config ok: n={cfg.n}, t_end={cfg.t_end:g}, bc={cfg.bc}")
    return EXIT_OK


def cmd_run(args) -> int:
    cfg = _load_config(args.config, args.strict)
    try:
        traj = run(cfg)
    except RUNTIME_ERRORS as exc:
        _write_failure(args.out, exc)
        print(f"run failed: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    write_run_outputs(traj, args.out, cfg)
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


def compare_runs(cfg_a: SimConfig, cfg_b: SimConfig | None, ref_mode: str, out_dir, delta=None):
    """Run the pair, evaluate the relative-energy series, fit the audits.

    Returns (rows, verify_payload).  The reference side is a twin run, a
    fine-grid run restricted by cell averaging, or the manufactured exact
    solution, per ref_mode.
    """
    if ref_mode not in REF_MODES:
        raise ValidationError(f"ref mode must be one of {REF_MODES}")
    if cfg_b is None:
        cfg_b = cfg_a
    _check_compatible(cfg_a, cfg_b, ref_mode)
    if ref_mode == "mms" and not cfg_a.mms_enabled:
        raise ValidationError("mms reference mode requires mms.enabled = true")

    traj_a = run(cfg_a)
    grid = traj_a.grid
    exps = traj_a.exps
    times = traj_a.times
    scheme_a = traj_a.scheme

    traj_b = None
    if ref_mode == "twin":
        traj_b = run(cfg_b)
        states_b = traj_b.states
    elif ref_mode == "fine":
        traj_b = run(cfg_b)
        factor = cfg_b.n // cfg_a.n
        states_b = [restrict(s, factor) for s in traj_b.states]
    else:
        sol = cfg_a.manufactured()
        states_b = [sol.state(grid, t) for t in times]
    if traj_b is not None and traj_b.times != times:
        raise verify.TimeGridMismatchError("snapshot times of the two runs differ")

    der_a = [traj_a.derived(i) for i in range(len(traj_a.states))]
    der_b = [
        derive(s, exps, cfg_a.closure_tol, cfg_a.vacuum_alpha, cfg_a.rho_floor)
        for s in states_b
    ]
    rows = verify.relative_entropy_series(
        der_a, der_b, times, grid, exps, nu_eff=scheme_a.nu_eff
    )

    e_scale = total_energy(states_b[0], grid, exps, derived=der_b[0])
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
        verify.coercivity_check(da, db, grid, exps, window[0], window[1])
        for da, db in zip(der_a, der_b)
    ]
    audit = verify.energy_audit(traj_a, cfg_a.energy_eps)

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
        write_run_outputs(traj_a, os.path.join(out_dir, "run_a"), cfg_a)
        if traj_b is not None:
            write_run_outputs(traj_b, os.path.join(out_dir, "run_b"), cfg_b)
    return rows, payload


def cmd_compare(args) -> int:
    cfg_a = _load_config(args.config, args.strict)
    cfg_b = _load_config(args.config_b, args.strict) if args.config_b else None
    try:
        rows, payload = compare_runs(cfg_a, cfg_b, args.ref_mode, args.out, args.delta)
    except RUNTIME_ERRORS as exc:
        _write_failure(args.out, exc)
        print(f"compare failed: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    g = payload["gronwall"]
    tag = "at noise floor" if g["at_noise_floor"] else f"max_E={g['max_E']:.6g}"
    print(f"compare complete ({args.ref_mode}): {len(rows)} snapshots, {tag}")
    return EXIT_OK


ORDER_THRESHOLD = 0.8


def cmd_mms(args) -> int:
    if args.levels < 3:
        print("usage error: --levels must be at least 3", file=sys.stderr)
        return EXIT_CONFIG
    cfg = _load_config(args.config, False)
    if not cfg.mms_enabled:
        print("config error: mms.enabled must be true for the mms command", file=sys.stderr)
        return EXIT_CONFIG
    try:
        report = verify.convergence_study(cfg, args.levels)
    except RUNTIME_ERRORS as exc:
        _write_failure(args.out, exc)
        print(f"mms study failed: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    print("n      " + "  ".join(f"err_{v:<10s}" for v in report.errors))
    for i, n in enumerate(report.ns):
        print(f"{n:<6d} " + "  ".join(f"{report.errors[v][i]:<14.6e}" for v in report.errors))
    print("orders " + "  ".join(f"{v}: " + ",".join(f"{o:.3f}" for o in report.orders[v]) for v in report.orders))
    if args.out is not None:
        os.makedirs(args.out, exist_ok=True)
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
    if args.r_min < 0 or args.q_min < 0 or args.r_max < args.r_min or args.q_max < args.q_min:
        print("usage error: ranges must be nonnegative and ordered", file=sys.stderr)
        return EXIT_CONFIG
    try:
        exps = ExponentPair(args.gamma_plus, args.gamma_minus)
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    rs = np.linspace(args.r_min, args.r_max, args.steps + 1)
    qs = np.linspace(args.q_min, args.q_max, args.steps + 1)
    print("R,Q,Z,alpha,rho_minus,p,vacuum")
    for r in rs:
        for q in qs:
            st = recover_state(r, q, exps, vacuum_alpha=args.vacuum_alpha)
            print(
                ",".join(
                    (
                        _fmt(r),
                        _fmt(q),
                        _fmt(st.Z),
                        _fmt(st.alpha),
                        _fmt(st.rho_minus),
                        _fmt(st.p),
                        "1" if st.vacuum_flag else "0",
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
        print(f"runtime failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
