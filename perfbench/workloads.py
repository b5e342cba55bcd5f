"""The three benchmark workloads: seeded input generation, CLI argv, output gate.

Each workload has a small family of input variants.  The run seed picks a
variant per job; every variant does about the same amount of work, and the
final fields of every variant are recorded in ``reference.json`` (written by
``record_reference.py``) so each job's outputs can be checked exactly.
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path

import numpy as np

N_VARIANTS = 8

# Absolute tolerance on final R, Q, m (values of order 1) and on the MMS L2
# errors.  Round-off drift from reordered arithmetic stays near 1e-12; the
# discretisation error of these runs is about 1e-4.
FIELD_TOL = 1e-8
MASS_DRIFT_MAX = 1e-12
ENERGY_EPS = 1e-3
MIN_ORDER = 0.8
BLOCKS = 16
SNAPSHOT_HEADER = ("i", "x", "R", "Q", "m", "Z", "alpha", "rho_plus", "rho_minus", "p", "u")
FINGERPRINT_FIELDS = ("R", "Q", "m")

BUMP_N = 512
BUMP_SNAPSHOTS = 11
BUMP_INI = """\
[exponents]
gamma_plus = 3.0
gamma_minus = 1.5

[viscosity]
mu = 0.1
lambda = 0.0

[grid]
n = {n}
length = 1.0
bc = periodic

[time]
t_end = 0.03
cfl = 0.9
integrator = ssprk2
n_snapshots = {snapshots}

[initial]
R_preset = gaussian_bump
R_base = 1.0
R_amplitude = 0.5
R_center = {r_center:.4f}
R_width = 0.08
Q_preset = gaussian_bump
Q_base = 1.0
Q_amplitude = 0.3
Q_center = {q_center:.4f}
Q_width = 0.1
u_preset = uniform
u_value = 0.0

[verification]
energy_eps = {energy_eps!r}
"""

MMS_LEVELS = 3
MMS_BASE_N = 128
MMS_INI = """\
[exponents]
gamma_plus = 3.0
gamma_minus = 1.4

[viscosity]
mu = 0.02

[grid]
n = {n}

[time]
t_end = 0.05
n_snapshots = 2

[mms]
enabled = true
b = {b!r}
d = {d!r}
"""

PAIR_N = 1024
PAIR_SNAPSHOTS = 101
PAIR_INI = """\
[exponents]
gamma_plus = 3.0
gamma_minus = 1.5

[viscosity]
mu = 0.1

[grid]
n = {n}
bc = noslip

[time]
t_end = 0.005
n_snapshots = {snapshots}

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

[verification]
energy_eps = {energy_eps!r}
"""
PAIR_PERTURBATION = """
[perturbation]
epsilon = 0.04
seed = {seed}
modes = 3
"""


class GateError(Exception):
    """A job's outputs are missing, malformed or wrong."""


def _bump_configs(variant: int) -> dict[str, str]:
    # Shifting both bumps along the periodic domain leaves the work unchanged.
    r_center = 0.35 + 0.04 * variant
    text = BUMP_INI.format(
        n=BUMP_N,
        snapshots=BUMP_SNAPSHOTS,
        r_center=r_center,
        q_center=r_center - 0.1,
        energy_eps=ENERGY_EPS,
    )
    return {"bump.ini": text}


def _mms_configs(variant: int) -> dict[str, str]:
    # Amplitudes within +-2 % of the shipped mms.ini values.
    scale = 0.98 + 0.04 * variant / (N_VARIANTS - 1)
    return {"mms.ini": MMS_INI.format(n=MMS_BASE_N, b=0.25 * scale, d=0.25 * scale)}


def _pair_configs(variant: int) -> dict[str, str]:
    base = PAIR_INI.format(n=PAIR_N, snapshots=PAIR_SNAPSHOTS, energy_eps=ENERGY_EPS)
    return {
        "pair_a.ini": base + PAIR_PERTURBATION.format(seed=20260810 + variant),
        "pair_b.ini": base,
    }


def read_snapshot_fields(path: Path) -> dict[str, np.ndarray]:
    """Parse a snapshot CSV independently of the program's own reader."""
    with open(path, "r") as fh:
        header = tuple(fh.readline().strip().split(","))
        if header != SNAPSHOT_HEADER:
            raise GateError(f"{path.name}: unexpected header {header}")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    return {name: data[:, SNAPSHOT_HEADER.index(name)] for name in FINGERPRINT_FIELDS}


def fingerprint(path: Path, n: int) -> dict[str, list[list[float]]]:
    """Block means, minima and maxima of R, Q, m in a snapshot of n cells."""
    fields = read_snapshot_fields(path)
    out = {}
    for name, values in fields.items():
        if values.shape != (n,):
            raise GateError(f"{path.name}: {values.shape[0]} cells, expected {n}")
        blocks = values.reshape(BLOCKS, -1)
        out[name] = [
            [float(v) for v in blocks.mean(axis=1)],
            [float(v) for v in blocks.min(axis=1)],
            [float(v) for v in blocks.max(axis=1)],
        ]
    return out


def _max_gap(got, want) -> float:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return math.inf
    gap = np.abs(got - want)
    return float(np.max(np.where(np.isfinite(gap), gap, math.inf)))


def _check_fingerprint(label: str, got: dict, want: dict) -> list[str]:
    problems = []
    for name in FINGERPRINT_FIELDS:
        gap = _max_gap(got[name], want[name])
        if not gap <= FIELD_TOL:
            problems.append(f"{label}: final {name} differs from the reference by {gap:.3e}")
    return problems


def _load_json(path: Path):
    with open(path, "r") as fh:
        return json.load(fh)


def _snapshot_name(k: int) -> str:
    return f"snapshot_{k:04d}.csv"


def _energy_margin(energy: dict) -> float:
    E = energy["E"]
    D = energy["dissipation_cum"]
    scale = max(E[0], float(np.finfo(float).eps))
    return max((e + d - E[0]) / scale for e, d in zip(E, D))


def _bump_outputs(out: Path) -> dict:
    return {"final": fingerprint(out / _snapshot_name(BUMP_SNAPSHOTS - 1), BUMP_N)}


def _bump_gate(out: Path, ref: dict) -> list[str]:
    problems = []
    report = _load_json(out / "report.json")
    cons = report["conservation"]
    for key in ("drift_R_rel", "drift_Q_rel"):
        drift = cons[key]
        if not (drift is not None and drift <= MASS_DRIFT_MAX):
            problems.append(f"mass {key} = {drift} exceeds {MASS_DRIFT_MAX:g}")
    margin = _energy_margin(report["energy"])
    if not margin <= ENERGY_EPS:
        problems.append(f"energy margin {margin:.3e} exceeds energy_eps {ENERGY_EPS:g}")
    problems += _check_fingerprint("run", _bump_outputs(out)["final"], ref["final"])
    return problems


def _mms_outputs(out: Path) -> dict:
    conv = _load_json(out / "verify.json")["convergence"]
    expected = [MMS_BASE_N * 2**k for k in range(MMS_LEVELS)]
    if conv["ns"] != expected:
        raise GateError(f"levels {conv['ns']}, expected {expected}")
    return {"errors": conv["errors"], "orders": conv["orders"]}


def _mms_gate(out: Path, ref: dict) -> list[str]:
    problems = []
    got = _mms_outputs(out)
    orders = [o for seq in got["orders"].values() for o in seq]
    if not all(o is not None and o >= MIN_ORDER for o in orders):
        problems.append(f"observed orders {orders} fall below {MIN_ORDER}")
    for var, want in ref["errors"].items():
        gap = _max_gap(got["errors"].get(var, []), want)
        if not gap <= FIELD_TOL:
            problems.append(f"L2 error of {var} differs from the reference by {gap:.3e}")
    return problems


def _pair_outputs(out: Path) -> dict:
    final = _snapshot_name(PAIR_SNAPSHOTS - 1)
    return {
        "run_a": fingerprint(out / "run_a" / final, PAIR_N),
        "run_b": fingerprint(out / "run_b" / final, PAIR_N),
    }


def _pair_gate(out: Path, ref: dict) -> list[str]:
    problems = []
    audit = _load_json(out / "verify.json")["energy_audit"]
    if audit.get("passed") is not True:
        problems.append(f"energy audit did not pass: {audit}")
    got = _pair_outputs(out)
    for side in ("run_a", "run_b"):
        problems += _check_fingerprint(side, got[side], ref[side])
    return problems


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    why: str
    configs: object  # variant -> {file name: INI text}
    command: tuple  # CLI argv with {name} placeholders for config paths and {out}
    outputs: object  # out dir -> the values recorded in reference.json
    gate: object  # (out dir, reference entry) -> list of problems

    def argv(self, job_dir: Path) -> list[str]:
        paths = {Path(k).stem: str(job_dir / k) for k in self.configs(0)}
        return [arg.format(out=str(job_dir / "out"), **paths) for arg in self.command]

    def check(self, rc: int, out: Path, ref: dict) -> list[str]:
        """Problems with one job's outputs; an empty list means it passed."""
        if rc != 0:
            return [f"exit code {rc}"]
        try:
            return self.gate(out, ref)
        except (OSError, KeyError, IndexError, TypeError, ValueError, GateError) as exc:
            return [f"unreadable outputs: {type(exc).__name__}: {exc}"]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="bump_run",
            why="solver stencils and per-step overhead dominate; gamma = 2 bypasses closure Newton",
            configs=_bump_configs,
            command=("run", "--config", "{bump}", "--out", "{out}"),
            outputs=_bump_outputs,
            gate=_bump_gate,
        ),
        Workload(
            name="mms_newton",
            why="closure Newton (gamma ~ 2.14) and Gauss-3 MMS forcing dominate; no snapshot output",
            configs=_mms_configs,
            command=("mms", "--config", "{mms}", "--levels", str(MMS_LEVELS), "--out", "{out}"),
            outputs=_mms_outputs,
            gate=_mms_gate,
        ),
        Workload(
            name="compare_dense",
            why="dense snapshot CSVs, re-derivation and audits after two runs dominate; no-slip walls",
            configs=_pair_configs,
            command=(
                "compare", "--config", "{pair_a}", "--config-b", "{pair_b}",
                "--ref-mode", "twin", "--out", "{out}",
            ),
            outputs=_pair_outputs,
            gate=_pair_gate,
        ),
    )
}
