"""bifluid benchmark: closed-loop CLI jobs with end-to-end or per-layer metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload bump_run --seed 1 --seconds 30 --trace 0

One client runs one job at a time and starts the next when the previous one
has exited (a closed loop).  A job is ``bifluid.cli.main(argv)`` in a forked
child on INI files generated from the seed, in a fresh directory under
``.bench_work/`` that is removed after its outputs are checked.  The child's
peak resident memory comes from ``wait4``.  bifluid is imported once by this
process before forking, so a job's wall time excludes the import.  Set-up
(import plus config validation) is timed in a fresh interpreter just before
each untraced job, so set-up samples span the run as job times do.

With ``--trace 0`` the last output line holds the end-to-end metrics.  Their
times are scaled to a reference machine speed by a calibration kernel timed
between jobs (see ``calibrate``); the measured times are printed beside them.
With ``--trace 1`` jobs alternate between traced and untraced, two at a time
on the same input, and the last line holds the per-layer metrics of the
traced ones (measured, not scaled) plus the tracing overhead: the median over
pairs of traced minus untraced wall time.  Metric names and units come from
``BENCHMARK.json``.
"""

from __future__ import annotations

import os

# Single-threaded BLAS/OpenMP (verify.gronwall_check calls np.polyfit); this
# must precede the first numpy import.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

import tracing
from workloads import N_VARIANTS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCE = HERE / "reference.json"
SPEC = ROOT / "BENCHMARK.json"

JOB_TIMEOUT_S = 120
# Seconds of one calibration pass at the reference speed (a 2-vCPU Intel Xeon
# VM with Python 3.11 and numpy 2.4 in its faster phases); scaled times are
# seconds at that speed.
CALIBRATION_REF_S = 0.012
EXIT_SETUP = 2


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_bifluid():
    """Import bifluid from this checkout's sources, never from site-packages."""
    if not (SRC / "bifluid" / "__init__.py").is_file():
        raise ImportError(f"no bifluid sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import bifluid.cli

    if not Path(bifluid.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"bifluid imported from {bifluid.__file__}, not {SRC}")
    return bifluid.cli


def environment() -> str:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return (
        f"python {platform.python_version()}, numpy {np.__version__}, cpu {cpu}, "
        f"nproc {len(os.sched_getaffinity(0))}, BLAS/OpenMP threads 1"
    )


def calibrate() -> float:
    """Median seconds of a fixed numpy-and-Python kernel: the machine's current speed.

    On a shared host the speed of a vCPU drifts by up to 2x in phases of tens
    of seconds.  The kernel mixes what the workloads do (small-array numpy
    calls, Python loop overhead, float formatting) and runs between jobs, so
    job times can be scaled to the reference speed.
    """
    x = np.linspace(1.0, 2.0, 1024)
    samples = []
    for _ in range(5):
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(600):
            y = np.roll(x, 1)
            z = np.power(np.where(y > x, y, x), 1.5)
            acc += float(z[i % x.size])
            format(acc, ".17g")
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def measure_setup(config_paths) -> float:
    """Set-up seconds of one fresh interpreter: import bifluid, validate the configs."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(SRC), *map(str, config_paths)]
    done = subprocess.run(cmd, check=True, capture_output=True, text=True, timeout=60, cwd=ROOT)
    return float(done.stdout.strip().splitlines()[-1])


def _job_child(cli, argv, job_dir: Path, traced: bool):
    """Body of the forked job process; never returns."""
    code = 1
    try:
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.alarm(JOB_TIMEOUT_S)
        for fd, name in ((1, "stdout.txt"), (2, "stderr.txt")):
            target = os.open(job_dir / name, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
            os.dup2(target, fd)
            os.close(target)
        tracer = tracing.Tracer()
        tracer.install(full=traced)
        t0 = time.perf_counter()
        rc = cli.main(argv)
        wall = time.perf_counter() - t0
        payload = {
            "rc": rc,
            "wall_s": wall,
            "steps": tracer.counts["solver.steps"],
            "cell_updates": tracer.counts["cell_updates"],
        }
        if traced:
            payload["layers"] = tracing.layer_metrics(tracer, job_dir / "out")
        (job_dir / "result.json").write_text(json.dumps(payload))
        code = 0
    except BaseException:
        traceback.print_exc()
    finally:
        try:
            sys.stdout.flush()
            sys.stderr.flush()
        finally:
            os._exit(code)


def _tail(path: Path, lines: int = 3) -> str:
    try:
        return " | ".join(path.read_text().strip().splitlines()[-lines:])
    except OSError:
        return ""


def run_job(cli, workload, variant: int, traced: bool, ref: dict, work_dir: Path) -> dict:
    """Time the set-up of one job (untraced only), run it in a forked child, check it."""
    job_dir = Path(tempfile.mkdtemp(prefix="job-", dir=work_dir))
    try:
        configs = workload.configs(variant)
        for name, text in configs.items():
            (job_dir / name).write_text(text)
        setup_s = None if traced else measure_setup(job_dir / name for name in configs)
        argv = workload.argv(job_dir)
        sys.stdout.flush()
        sys.stderr.flush()
        pid = os.fork()
        if pid == 0:
            _job_child(cli, argv, job_dir, traced)
        try:
            _, status, usage = os.wait4(pid, 0)
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise
        job = {
            "variant": variant,
            "traced": traced,
            "setup_s": setup_s,
            "rss_mb": usage.ru_maxrss / 1024.0,
        }
        result_path = job_dir / "result.json"
        if os.waitstatus_to_exitcode(status) == 0 and result_path.is_file():
            job["result"] = json.loads(result_path.read_text())
            job["problems"] = workload.check(job["result"]["rc"], job_dir / "out", ref)
        else:
            job["result"] = None
            job["problems"] = [f"job process ended with status {status}"]
        if job["problems"]:
            job["problems"].append("stderr: " + _tail(job_dir / "stderr.txt"))
        return job
    finally:
        shutil.rmtree(job_dir, ignore_errors=True)


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def _describe(name, values, unit) -> str:
    lo, hi = _quartiles(values)
    return (
        f"# {name} = {statistics.median(values):.6g} {unit} "
        f"(median of {len(values)}, quartiles {lo:.6g} .. {hi:.6g})"
    )


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return EXIT_SETUP
    try:
        cli = import_bifluid()
        with open(REFERENCE) as fh:
            reference = json.load(fh)["workloads"][args.workload]
        with open(SPEC) as fh:
            spec = json.load(fh)
    except (ImportError, OSError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SETUP
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    workload = WORKLOADS[args.workload]
    rng = random.Random(args.seed)
    WORK.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        print(f"# workload {workload.name} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
        print(f"# why: {workload.why}")
        print(f"# env: {environment()}")

        variant = rng.randrange(N_VARIANTS)
        # untimed: the first interpreter of a checkout compiles the bytecode
        for name, text in workload.configs(variant).items():
            (run_dir / name).write_text(text)
        measure_setup(run_dir / name for name in workload.configs(variant))

        print("# job variant traced steps wall_s calibration_s rss_mb status")
        jobs = []
        min_jobs = 2 if args.trace else 1
        calibration = calibrate()
        start = time.perf_counter()
        while time.perf_counter() - start < args.seconds or len(jobs) < min_jobs:
            traced = bool(args.trace) and len(jobs) % 2 == 0
            job = run_job(cli, workload, variant, traced, reference[variant], run_dir)
            after = calibrate()
            job["calibration_s"] = 0.5 * (calibration + after)
            calibration = after
            res = job["result"] or {}
            status = "ok" if not job["problems"] else "FAILED: " + "; ".join(job["problems"])
            print(
                f"# {len(jobs)} {variant} {int(traced)} {res.get('steps', '-')} "
                f"{res.get('wall_s', float('nan')):.4f} {job['calibration_s']:.5f} "
                f"{job['rss_mb']:.1f} {status}"
            )
            jobs.append(job)
            if not traced:  # a traced job is paired with an untraced one on its input
                variant = rng.randrange(N_VARIANTS)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    attempted = len(jobs)
    failed = sum(1 for j in jobs if j["problems"])
    print(f"# jobs attempted {attempted}, failed {failed}, failed_frac {failed / attempted:.4g} 1")
    ok = [j for j in jobs if not j["problems"]]
    plain = [j for j in ok if not j["traced"]]
    traced_jobs = [j for j in ok if j["traced"]]
    pairs = [(a, b) for a, b in zip(jobs[0::2], jobs[1::2]) if not (a["problems"] or b["problems"])]
    if not plain or (args.trace and not pairs):
        print("error: no job passed its checks", file=sys.stderr)
        return 1

    walls = [j["result"]["wall_s"] for j in plain]
    values = {}
    if args.trace:
        values["trace.overhead_s"] = [a["result"]["wall_s"] - b["result"]["wall_s"] for a, b in pairs]
        for name in traced_jobs[0]["result"]["layers"]:
            values[name] = [j["result"]["layers"][name] for j in traced_jobs]
        wanted = spec["per_layer"]
    else:
        # times scaled to the reference machine speed; see calibrate()
        scale = [CALIBRATION_REF_S / j["calibration_s"] for j in plain]
        values["setup_s"] = [j["setup_s"] * k for j, k in zip(plain, scale)]
        values["wall_s"] = [w * k for w, k in zip(walls, scale)]
        values["cell_updates_per_s"] = [
            j["result"]["cell_updates"] / w for j, w in zip(plain, values["wall_s"])
        ]
        print(_describe("measured wall_s", walls, "s"))
        print(_describe("calibration_s", [j["calibration_s"] for j in plain], "s"))
        values["peak_rss_mb"] = [j["rss_mb"] for j in plain]
        wanted = spec["end_to_end"]

    metrics = {}
    for entry in wanted:
        name, unit = entry["name"], entry["unit"]
        print(_describe(name, values[name], unit))
        metrics[name] = {"value": float(statistics.median(values[name])), "unit": unit}
    if args.trace:
        print(f"# untraced wall_s = {statistics.median(walls):.6g} s (median of {len(walls)})")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
