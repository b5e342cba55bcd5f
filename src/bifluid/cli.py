"""Command-line driver: run, compare, mms, closure, validate.

Exit codes: 0 success, 2 configuration/usage error, 3 runtime failure,
4 verification failure.  All artifacts land under the requested output
directory and re-running into a fresh directory reproduces them byte for
byte (no timestamps or absolute paths are written).  Before it solves, a
command removes from that directory the files it writes (OUT_FILES), so
none is left there from an earlier command.

A run's snapshots leave it as it records them (``solver.run``'s consumer):
two writer processes, started with the run, receive each snapshot's value
columns through a pipe and write its CSV while the run goes on.  ``compare``
evaluates the reference side first (run_b, a second run of run_a's config
when no second config is given, or the exact solution), keeping each
snapshot's (4, n) record, then runs run_a and reduces each snapshot pair as
run_a records its half.

Every error is raised where it happens and leaves through ``main``, which
alone maps it to its exit code and its stderr line.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import fnmatch
import json
import math
import os
import sys

import numpy as np

from . import verify
from .closure import (
    VACUUM_ALPHA,
    CellError,
    ClosureOverflowError,
    ExponentPair,
    MaxIterExceededError,
    NonFiniteInputError,
    solve_closure_batch,
)
from .config import ParseError, SimConfig, ValidationError, validate_config
from .fields import (
    SNAPSHOT_COLUMNS,
    DerivedFields,
    FieldState,
    derive,
    restrict,
    snapshot_columns,
    total_energy,
    total_mass,
    write_snapshot,
)
from .solver import StepError, Trajectory, run

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3
EXIT_VERIFY = 4

RUNTIME_ERRORS = (
    StepError,  # positivity loss, a non-finite state, no stable step
    MaxIterExceededError,
    ClosureOverflowError,
    NonFiniteInputError,
    verify.GridMismatchError,
    verify.TimeGridMismatchError,
    verify.VacuumReferenceError,
    verify.EmptySeriesError,
    RuntimeError,
    OSError,  # an output that cannot be written; its message names the path
    MemoryError,  # arrays too large to allocate
)

REF_MODES = ("twin", "fine", "mms")


class UsageError(Exception):
    """A command line that argparse accepts but the command cannot run;
    main reports it as a usage error, exit 2."""


CLOSURE_BATCH_CELLS = 1 << 16  # closure table cells solved per batch
_CLOSURE_ROW = "%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%d\n"


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
    """failure.json of a failed command in out_dir; a line on stderr, not
    an exception, when it cannot be written."""
    if out_dir is None:
        return
    record = {"error": type(exc).__name__, "message": str(exc)}
    if isinstance(exc, CellError) and exc.step is not None:  # located by a run
        record.update(
            t=exc.t, step=exc.step, dt=exc.dt, cells=list(exc.cells[:64]), n_cells=len(exc.cells)
        )
    try:
        os.makedirs(out_dir, exist_ok=True)
        _write_json(os.path.join(out_dir, "failure.json"), record)
    except OSError as err:
        print(f"cannot write failure.json: {err}", file=sys.stderr)


SNAPSHOT_WRITERS = 2  # processes that format one run's snapshot CSVs
# pipe capacity asked of each writer's pipe: the default 64 KiB holds less
# than one n = 1024 snapshot, and the run would wait on the writer
PIPE_BYTES = 1 << 20

# the write ends of every open writer pipe of this process, which every
# writer forked later must close: file descriptors are per process, so this
# registry is too
_WRITE_ENDS: set[int] = set()


def _snapshot_name(k: int) -> str:
    return f"snapshot_{k:04d}.csv"


def _writer_main(fd, out_dir, grid, first: int) -> None:
    """Body of a forked snapshot writer: write snapshots first, first +
    SNAPSHOT_WRITERS, ... from the value columns read from fd, until EOF;
    never return."""
    code = 1
    try:
        size = 8 * (len(SNAPSHOT_COLUMNS) - 2) * grid.n
        with open(fd, "rb") as pipe:
            k = first
            while data := pipe.read(size):
                if len(data) != size:
                    raise EOFError(f"{_snapshot_name(k)} arrived truncated")
                columns = np.frombuffer(data).reshape(-1, grid.n)
                write_snapshot(os.path.join(out_dir, _snapshot_name(k)), grid, columns)
                k += SNAPSHOT_WRITERS
        code = 0
    except BaseException as exc:
        print(f"snapshot writer failed: {exc}", file=sys.stderr)
    finally:
        try:
            sys.stdout.flush()
            sys.stderr.flush()
        finally:
            os._exit(code)


class RunOutputs:
    """One run's output directory, fed while the run goes on.

    It is the run's on_snapshot consumer.  For each snapshot it keeps the
    masses, for report.json, and sends the value columns through a pipe to
    one of SNAPSHOT_WRITERS writer processes, started with it, by index
    parity; without fork it writes the CSV itself.  On exit from its with
    block it closes the pipes and reaps every writer, so a failed run leaves
    the snapshots recorded before the failure; on a clean exit it raises
    RuntimeError naming the files of any writer that failed.
    """

    def __init__(self, out_dir, grid):
        os.makedirs(out_dir, exist_ok=True)
        self.out_dir = out_dir
        self.grid = grid
        self.masses = []
        self._writers = []  # (pid, write end, paths sent)
        if hasattr(os, "fork"):
            try:
                for k in range(SNAPSHOT_WRITERS):
                    self._writers.append(self._start(k))
            except OSError as exc:
                self.close(check=False)
                raise RuntimeError(f"cannot start a snapshot writer: {exc}") from None

    def _start(self, k: int):
        import fcntl  # POSIX, as fork is

        r, w = os.pipe()
        if hasattr(fcntl, "F_SETPIPE_SZ"):  # Linux
            try:
                fcntl.fcntl(w, fcntl.F_SETPIPE_SZ, PIPE_BYTES)
            except OSError:  # refused: a smaller pipe only slows the run
                pass
        sys.stdout.flush()
        sys.stderr.flush()
        try:
            pid = os.fork()
        except OSError:
            os.close(r)
            os.close(w)
            raise
        if pid == 0:
            # a writer holding another pipe's write end would keep that
            # pipe's writer from ever reading EOF
            for fd in (w, *_WRITE_ENDS):
                os.close(fd)
            _writer_main(r, self.out_dir, self.grid, k)
        os.close(r)
        _WRITE_ENDS.add(w)
        return pid, w, []

    def __call__(self, state: FieldState, derived) -> None:
        k = len(self.masses)
        self.masses.append(total_mass(state, self.grid))
        path = os.path.join(self.out_dir, _snapshot_name(k))
        columns = snapshot_columns(derived)
        if not self._writers:
            write_snapshot(path, self.grid, columns)
            return
        _, fd, paths = self._writers[k % SNAPSHOT_WRITERS]
        paths.append(path)
        view = memoryview(columns).cast("B")
        try:
            while view:
                view = view[os.write(fd, view) :]
        except OSError as exc:  # the writer is gone
            self.close(check=True)
            raise RuntimeError(f"snapshot writer of {path} is gone: {exc}") from None

    def close(self, check: bool) -> None:
        """Close the pipes and reap every writer; with check, raise
        RuntimeError naming the files of any writer that failed."""
        writers, self._writers = self._writers, []
        for _, fd, _ in writers:  # every writer reads EOF before the first wait
            _WRITE_ENDS.discard(fd)
            os.close(fd)
        failed = [paths for pid, _, paths in writers if os.waitpid(pid, 0)[1] != 0]
        if failed and check:
            files = ", ".join(path for paths in failed for path in paths)
            raise RuntimeError(f"snapshot writer failed on {files or self.out_dir}")

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(check=exc_type is None)


def _audit_exit(audit: verify.EnergyAudit) -> int:
    """EXIT_VERIFY, naming the worst margin on stderr, when the audit ran
    and failed; EXIT_OK otherwise."""
    if audit.skipped or audit.passed:
        return EXIT_OK
    print(
        f"verification failure: energy audit worst margin {audit.worst_margin:.6g} "
        f"exceeds energy_eps {audit.eps_E:g}",
        file=sys.stderr,
    )
    return EXIT_VERIFY


def write_run_outputs(
    traj: Trajectory, outputs: RunOutputs, cfg: SimConfig, audit: verify.EnergyAudit
) -> None:
    """report.json of one finished run, whose snapshots went to outputs
    while it ran; the energies are the run's own, traj.energies, and audit
    is verify.energy_audit of traj."""
    names = [_snapshot_name(k) for k in range(len(traj.times))]
    masses = outputs.masses
    mr0, mq0 = masses[0]
    drift_r = max(abs(mr - mr0) for mr, _ in masses) / max(abs(mr0), 1e-300)
    drift_q = max(abs(mq - mq0) for _, mq in masses) / max(abs(mq0), 1e-300)
    report = {
        "config": dataclasses.asdict(cfg),
        "snapshots": names,
        "times": traj.times,
        "n_steps": traj.n_steps,
        "dt_series": _subsample(traj.dt_history.tolist()),
        "counters": {"alpha_clamps": traj.alpha_clamps},
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
        "energy_audit": audit,
        "forced": traj.forced,
    }
    _write_json(os.path.join(outputs.out_dir, "report.json"), report)


def _run_into(stack: contextlib.ExitStack, out_dir, cfg: SimConfig, initial, on_snapshot=None):
    """Run cfg from its initial state into out_dir: its snapshots go there
    while it runs, then its report.json.  Returns (traj, audit), audit being
    verify.energy_audit of traj, once report.json is written.  The
    directory's RunOutputs enters stack, so its writers are reaped when the
    caller's with block ends.  on_snapshot, when given, gets each snapshot
    after the directory; an error it raises stops the run at that snapshot,
    before its report.json."""
    outputs = stack.enter_context(RunOutputs(out_dir, cfg.grid()))

    def consume(state: FieldState, derived) -> None:
        outputs(state, derived)
        if on_snapshot is not None:
            on_snapshot(state, derived)

    traj = run(cfg, initial=initial, on_snapshot=consume)
    audit = verify.energy_audit(traj, cfg.energy_eps)
    write_run_outputs(traj, outputs, cfg, audit)
    return traj, audit


_RE_ROW = ",".join(["%.17g"] * 7) + "\n"


def write_re_report(path, rows) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write("t,E_kin,E_alpha,E_breg_plus,E_breg_minus,E_total,D\n")
        fh.writelines(
            _RE_ROW % (r.t, r.E_kin, r.E_alpha, r.E_breg_plus, r.E_breg_minus, r.E_total, r.D)
            for r in rows
        )


def _read_config(path) -> str:
    """The text of the config file at path; ParseError, naming the path,
    when it cannot be read as UTF-8 text."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        reason = exc.strerror or exc
    except UnicodeDecodeError as exc:
        reason = f"not UTF-8 text ({exc.reason} at byte {exc.start})"
    raise ParseError(f"cannot read {path}: {reason}")


def _load_config(path):
    """The validated config and the initial state its validation built."""
    cfg, warnings, state = validate_config(_read_config(path), with_state=True)
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    return cfg, state


def cmd_validate(args) -> int:
    cfg, warnings = validate_config(_read_config(args.config))
    for w in warnings:
        print(f"warning: {w}")
    print(f"config ok: n={cfg.n}, t_end={cfg.t_end:g}, bc={cfg.bc}")
    return EXIT_OK


# the regular files each command writes in --out, by name pattern; every
# command may write failure.json there, and each side directory of compare
# holds the files of run
OUT_FILES = {
    "run": ("report.json", "snapshot_*.csv"),
    "compare": ("verify.json", "re_report.csv"),
    "mms": ("verify.json",),
}
COMPARE_SIDES = ("run_a", "run_b")


def _make_out_dir(path, command, sides=()) -> None:
    """Create the output directory of command, and the named side
    directories in it, before any solve, and remove the files that command
    writes, so that none is left from an earlier command; compare owns the
    run files of both side directories, also of one it does not write.
    UsageError when a path cannot be a directory (it is a file, or lies
    under one)."""
    try:
        for side in ("", *sides):
            os.makedirs(os.path.join(path, side), exist_ok=True)
    except OSError as exc:
        raise UsageError(f"cannot create the --out directory: {exc}") from None
    owned = [(path, (*OUT_FILES[command], "failure.json"))]
    if command == "compare":
        owned += [(os.path.join(path, side), OUT_FILES["run"]) for side in COMPARE_SIDES]
    for folder, patterns in owned:
        if not os.path.isdir(folder):  # a side that this compare does not write
            continue
        for name in os.listdir(folder):
            stale = os.path.join(folder, name)
            if any(fnmatch.fnmatchcase(name, p) for p in patterns) and not os.path.isdir(stale):
                with contextlib.suppress(FileNotFoundError):
                    os.remove(stale)


def cmd_run(args) -> int:
    cfg, state = _load_config(args.config)
    _make_out_dir(args.out, "run")
    with contextlib.ExitStack() as stack:
        traj, audit = _run_into(stack, args.out, cfg, state)
    print(f"run complete: {traj.n_steps} steps, outputs in {args.out}")
    return _audit_exit(audit)


def _check_pair(cfg_a: SimConfig, cfg_b: SimConfig | None, ref_mode: str) -> None:
    """Raise ValidationError when the pair cannot be compared in ref_mode;
    without cfg_b, cfg_a is the config of both sides."""
    if ref_mode not in REF_MODES:
        raise ValidationError(f"ref mode must be one of {REF_MODES}")
    if ref_mode == "mms" and cfg_b is not None:
        raise ValidationError("mms reference mode takes no second config (--config-b)")
    if cfg_b is None:
        cfg_b = cfg_a
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
    if ref_mode == "mms" and not cfg_a.mms_enabled:
        raise ValidationError("mms reference mode requires mms.enabled = true")


def compare_runs(
    cfg_a: SimConfig,
    cfg_b: SimConfig | None,
    ref_mode: str,
    out_dir,
    initial_a: FieldState | None = None,
    initial_b: FieldState | None = None,
):
    """Run the pair, evaluate the relative-energy series, fit the audits.

    Returns (rows, verify_payload).  The reference side is a twin run, a
    fine-grid run restricted by cell averaging, or the manufactured exact
    solution at cfg_a's snapshot times, per ref_mode.  It is evaluated
    first, as the paper's method fixes the strong solution's density bounds
    before it measures the weak one: this pass rejects vacuum, takes the
    energy scale, folds the coercivity window (half the minimum to twice
    the maximum of the reference phase densities) and keeps of each
    snapshot a DerivedFields over its (4, n) record alone, none of the
    columns computed from it for this pass.  run_a runs next and
    reduces each pair as it records its half: the relative-energy row, once
    per pair, which holds the fraction audit's terms too, and the
    coercivity constants; it keeps no field of run_a.  Each run hands its
    snapshots to its writers as it records them.  The audits read the
    fields each run derived itself and the energies it evaluated from them
    (Trajectory.energies), so a twin is compared on the fields of its run_b
    CSVs, warm-started within run_b; the restricted and the exact states are
    derived here, cold, and the energy scale is the energy of the first of
    them.
    The outputs go to out_dir: each run's to its side directory in it
    (COMPARE_SIDES), then re_report.csv and verify.json.  An error of the
    reference pass or of a pair reduction is raised in the run that meets
    it, which stops at that snapshot and writes no report.json; when the
    reference fails, run_a does not start.
    Without cfg_b the twin run_b is a second run of cfg_a from initial_a.
    initial_a and initial_b are the configs' initial states when the caller
    has already built them (validation does).
    """
    _check_pair(cfg_a, cfg_b, ref_mode)
    if cfg_b is None:
        cfg_b, initial_b = cfg_a, initial_a
    grid, exps = cfg_a.grid(), cfg_a.exponents()
    nu_eff = cfg_a.nu_eff
    dir_a, dir_b = (os.path.join(out_dir, side) for side in COMPARE_SIDES)
    refs = []  # (t, record) per reference snapshot, until its pair is reduced
    bounds = [math.inf, 0.0]  # min and max of the reference phase densities
    e_scale = None
    rows = []
    coer = []

    def keep_reference(der, t) -> None:
        nonlocal e_scale
        if der.vacuum.any():
            raise verify.VacuumReferenceError("reference state has vacuum cells")
        if not refs and ref_mode != "twin":
            e_scale = total_energy(der, grid, exps)
        for rho in (der.rho_plus, der.rho_minus):
            bounds[0] = min(bounds[0], float(np.min(rho)))
            bounds[1] = max(bounds[1], float(np.max(rho)))
        # a fresh record over the same V keeps 4 rows: the columns read
        # above stay with der, and the pair reduction reads its own
        refs.append((t, DerivedFields(der.V, exps)))

    with contextlib.ExitStack() as stack:
        if ref_mode == "mms":
            sol = cfg_a.manufactured()
            for t in cfg_a.snapshot_times():
                keep_reference(derive(sol.state(grid, t), exps), t)
        else:
            factor = cfg_b.n // cfg_a.n

            def keep_run_b(state, der) -> None:
                if ref_mode != "twin":
                    der = derive(restrict(state, factor), exps)
                keep_reference(der, state.t)

            traj_b, _ = _run_into(stack, dir_b, cfg_b, initial_b, keep_run_b)
        if ref_mode == "twin":
            e_scale = traj_b.energies[0]
        lo, hi = bounds
        if not (lo > 0.0 and hi >= lo):
            raise ValueError("reference densities must be positive to set a window")
        window = (0.5 * lo, 2.0 * hi)

        def reduce_run_a(state, der_a) -> None:
            """Reduce the next pair, whose run_a side der_a is at time
            state.t, and release its reference."""
            k, t = len(rows), state.t
            if k >= len(refs) or t != refs[k][0]:
                raise verify.TimeGridMismatchError("snapshot times of the two runs differ")
            (_, ref), refs[k] = refs[k], None
            rows.append(verify.relative_entropy(der_a, ref, grid, exps, nu_eff=nu_eff, t=t))
            coer.append(verify.coercivity_check(rows[k], der_a, ref, grid, exps, *window))

        traj_a, audit = _run_into(stack, dir_a, cfg_a, initial_a, reduce_run_a)
        if len(rows) != len(refs):
            raise verify.TimeGridMismatchError("snapshot times of the two runs differ")
        times = traj_a.times

        noise_floor = verify.NOISE_FLOOR_FACTOR * verify.EPS * max(e_scale, 1.0)
        fit = verify.gronwall_check(
            times, [r.E_total for r in rows], e0_floor=noise_floor, e_scale=max(e_scale, 1.0)
        )
        stab = verify.alpha_stability_check(
            [r.A for r in rows], [r.w for r in rows], times, cfg_a.stability_delta
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
            "energy_audit": audit,
        }
        write_re_report(os.path.join(out_dir, "re_report.csv"), rows)
        _write_json(os.path.join(out_dir, "verify.json"), payload)
    return rows, payload


def cmd_compare(args) -> int:
    cfg_a, state_a = _load_config(args.config)
    cfg_b, state_b = _load_config(args.config_b) if args.config_b else (None, None)
    _check_pair(cfg_a, cfg_b, args.ref_mode)  # before --out exists
    sides = COMPARE_SIDES[:1] if args.ref_mode == "mms" else COMPARE_SIDES
    _make_out_dir(args.out, "compare", sides)
    rows, payload = compare_runs(
        cfg_a, cfg_b, args.ref_mode, args.out, initial_a=state_a, initial_b=state_b
    )
    g = payload["gronwall"]
    tag = "at noise floor" if g["at_noise_floor"] else f"max_E={g['max_E']:.6g}"
    print(f"compare complete ({args.ref_mode}): {len(rows)} snapshots, {tag}")
    return _audit_exit(payload["energy_audit"])


ORDER_THRESHOLD = 0.8


def cmd_mms(args) -> int:
    if args.levels < 3:
        raise UsageError("--levels must be at least 3")
    cfg, _ = _load_config(args.config)
    if not cfg.mms_enabled:
        raise ValidationError("mms.enabled must be true for the mms command")
    if not cfg.t_end > 0.0:
        raise ValidationError("time.t_end must be positive for the mms command")
    if args.out is not None:
        _make_out_dir(args.out, "mms")
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
        raise UsageError("--steps must be at least 1")
    # NaN fails every comparison, so this also rejects non-finite bounds
    if not (
        0.0 <= args.r_min <= args.r_max < math.inf
        and 0.0 <= args.q_min <= args.q_max < math.inf
    ):
        raise UsageError("ranges must be finite, nonnegative and ordered")
    try:
        exps = ExponentPair(args.gamma_plus, args.gamma_minus)
    except ValueError as exc:
        raise ValidationError(str(exc)) from None
    rs = np.linspace(args.r_min, args.r_max, args.steps + 1)
    qs = np.linspace(args.q_min, args.q_max, args.steps + 1)
    print("R,Q,Z,alpha,rho_minus,p,vacuum")
    # one batch solve per block of table cells keeps memory bounded; a block
    # may end inside a row, which a long row needs
    cells = rs.size * qs.size
    for start in range(0, cells, CLOSURE_BATCH_CELLS):
        k = np.arange(start, min(start + CLOSURE_BATCH_CELLS, cells))
        R, Q = rs[k // qs.size], qs[k % qs.size]  # R outer, Q inner
        with np.errstate(over="ignore"):
            Z, _ = solve_closure_batch(R, Q, exps.gamma)
            # numpy scalar powers round like Python's float pow, so the table
            # keeps its digits; they overflow to inf instead of raising
            rho_minus = [z**exps.gamma for z in Z]
            p = [z**exps.gamma_plus for z in Z]
        bad = np.flatnonzero(~np.isfinite(p) | ~np.isfinite(rho_minus))
        if bad.size:
            k = bad[0]
            raise ClosureOverflowError(
                "rho_minus or p overflows float at R=%.17g, Q=%.17g" % (R[k], Q[k])
            )
        vacuum = Z == 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            alpha = np.where(vacuum, VACUUM_ALPHA, R / Z)
        table = np.column_stack((R, Q, Z, alpha, rho_minus, p, vacuum))
        sys.stdout.write(_CLOSURE_ROW * Z.size % tuple(table.ravel().tolist()))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bifluid",
        description="1D two-fluid finite-volume solver and stability-verification harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help):
        # parser: the subcommand's own, whose usage line reports its errors
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func, parser=p)
        return p

    p = command("validate", cmd_validate, "parse and validate a config file")
    p.add_argument("--config", required=True)

    p = command("run", cmd_run, "run a simulation and write snapshots + report")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)

    p = command("compare", cmd_compare, "dual-run relative-energy comparison")
    p.add_argument("--config", required=True)
    p.add_argument("--config-b", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--ref-mode", choices=REF_MODES, default="twin")

    p = command("mms", cmd_mms, "manufactured-solution convergence study")
    p.add_argument("--config", required=True)
    p.add_argument("--levels", type=int, required=True)
    p.add_argument("--out", default=None)

    p = command("closure", cmd_closure, "tabulate the pressure closure to stdout")
    p.add_argument("--gamma-plus", type=float, required=True)
    p.add_argument("--gamma-minus", type=float, required=True)
    p.add_argument("--r-min", type=float, default=0.0)
    p.add_argument("--r-max", type=float, default=1.0)
    p.add_argument("--q-min", type=float, default=0.0)
    p.add_argument("--q-max", type=float, default=1.0)
    p.add_argument("--steps", type=int, default=10)

    return parser


def main(argv=None) -> int:
    """Run the command of argv; every error it raises is mapped here to its
    exit code and a line on stderr."""
    args, extra = build_parser().parse_known_args(argv)
    if extra:  # under the usage line of the subcommand that was given them
        args.parser.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ParseError, ValidationError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except RUNTIME_ERRORS as exc:
        print(f"{args.command} failed: {exc}", file=sys.stderr)
        _write_failure(getattr(args, "out", None), exc)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
