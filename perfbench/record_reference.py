"""Record the reference outputs of every workload variant into reference.json.

Usage, from the repository root:  python3 perfbench/record_reference.py

Run it only when a change is meant to alter the numerical results; the
benchmark gate compares every job against the recorded values.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

from run import REFERENCE, WORK, import_bifluid
from workloads import BLOCKS, FIELD_TOL, N_VARIANTS, WORKLOADS


def record(cli, workload, variant: int) -> dict:
    job_dir = Path(tempfile.mkdtemp(prefix="ref-", dir=WORK))
    try:
        for name, text in workload.configs(variant).items():
            (job_dir / name).write_text(text)
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(workload.argv(job_dir))
        entry = workload.outputs(job_dir / "out")
        problems = workload.check(rc, job_dir / "out", entry)
        if problems:
            raise SystemExit(f"{workload.name} variant {variant}: {problems}")
        return entry
    finally:
        shutil.rmtree(job_dir, ignore_errors=True)


def main() -> None:
    cli = import_bifluid()
    WORK.mkdir(exist_ok=True)
    payload = {"field_tol": FIELD_TOL, "blocks": BLOCKS, "workloads": {}}
    for name, workload in WORKLOADS.items():
        payload["workloads"][name] = [record(cli, workload, v) for v in range(N_VARIANTS)]
        print(f"recorded {name}", file=sys.stderr)
    REFERENCE.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    with contextlib.suppress(OSError):
        WORK.rmdir()


if __name__ == "__main__":
    main()
