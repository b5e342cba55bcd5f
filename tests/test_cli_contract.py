"""Generated check of the CLI exit-code contract.

Whatever the numbers in a config, `main` ends with 0 (success), 2 (config or
usage error), 3 (runtime failure, with failure.json in the output
directory) or 4 (verification failure, given once every output is written:
report.json of `run`, verify.json of `compare`), and never with a Python
traceback.
"""

import contextlib
import io
import math
import os
import tempfile
from unittest import mock

import numpy as np
from hypothesis import event, example, given
from hypothesis import strategies as st

from bifluid import solver
from bifluid.cli import main

# Keeps every example short.  An exhausted step budget is a runtime failure
# like any other (exit 3 with failure.json), so lowering it narrows no input.
STEP_BUDGET = 40

BASE = {
    "exponents": {"gamma_plus": "3.0", "gamma_minus": "1.4"},
    "viscosity": {"mu": "0.1", "lambda": "0.0"},
    "grid": {"length": "1.0"},
    "time": {"t_end": "1e-4", "n_snapshots": "3"},
    "initial": {
        "R_preset": "sine", "R_base": "1.5", "R_amplitude": "0.3",
        "Q_preset": "gaussian_bump", "Q_base": "1.0", "Q_amplitude": "0.4", "Q_width": "0.2",
        "u_preset": "sine", "u_amplitude": "0.2",
    },
}

# every float key of the config format, by section
FLOAT_KEYS = (
    ("exponents", "gamma_plus"),
    ("exponents", "gamma_minus"),
    ("viscosity", "mu"),
    ("viscosity", "lambda"),
    ("grid", "length"),
    ("time", "t_end"),
    ("time", "cfl"),
    *(
        ("initial", f"{f}_{k}")
        for f in ("R", "Q", "u")
        for k in ("value", "base", "amplitude", "center", "width", "waves")
    ),
    ("perturbation", "epsilon"),
    ("verification", "energy_eps"),
    ("verification", "stability_delta"),
    *(("mms", k) for k in "abcde"),
)

TINY = np.finfo(float).smallest_subnormal
HUGE = np.finfo(float).max
SPECIAL = (
    math.nan, math.inf, -math.inf,
    TINY, -TINY, 1e-310, 2.2e-308, 1e-300, -1e-300,
    1e300, -1e300, HUGE, -HUGE, 1e154, 1e-154,
    0.0, -0.0, 1.0, -1.0,
)
values = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=True, allow_infinity=True))
overrides = st.dictionaries(st.sampled_from(FLOAT_KEYS), values, min_size=1, max_size=3)


def _render(n, bc, mms, changes):
    sections = {name: dict(items) for name, items in BASE.items()}
    sections["grid"].update(n=str(n), bc=bc)
    sections["mms"] = {"enabled": "true" if mms else "false"}
    for (section, key), value in changes.items():
        sections.setdefault(section, {})[key] = repr(value)
    return "".join(
        f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in items.items())
        for name, items in sections.items()
    )


@example(  # a huge bump width once overflowed width**2 with a traceback
    command="run", n=4, bc="periodic", mms=False, changes={("initial", "Q_width"): 1e155}
)
@given(
    command=st.sampled_from(("run", "compare", "mms")),
    n=st.integers(4, 12),
    bc=st.sampled_from(("periodic", "noslip")),
    mms=st.booleans(),
    changes=overrides,
)
def test_cli_exit_code_contract(command, n, bc, mms, changes):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.ini")
        with open(path, "w") as fh:
            fh.write(_render(n, bc, mms, changes))
        out = os.path.join(tmp, "out")
        argv = [command, "--config", path, "--out", out]
        if command == "mms":
            argv += ["--levels", "3"]
        if command == "compare":  # a twin of itself
            argv += ["--config-b", path]
        err = io.StringIO()
        with (
            mock.patch.object(solver, "MAX_STEPS", STEP_BUDGET),
            np.errstate(all="ignore"),
            contextlib.redirect_stdout(io.StringIO()),
            contextlib.redirect_stderr(err),
        ):
            code = main(argv)
        event(f"{command} exit {code}")
        assert code in (0, 2, 3, 4), err.getvalue()
        assert "Traceback" not in err.getvalue()
        if code == 3:
            assert os.path.isfile(os.path.join(out, "failure.json")), err.getvalue()
        if code == 4 and command != "mms":
            verdict = "report.json" if command == "run" else "verify.json"
            assert os.path.isfile(os.path.join(out, verdict)), err.getvalue()
