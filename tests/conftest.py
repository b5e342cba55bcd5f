import os
import sys

import pytest
from hypothesis import HealthCheck, settings

# database=None: no example database, so a stale local .hypothesis/ directory
# cannot replay old inputs; known failures are pinned with @example instead
settings.register_profile(
    "default",
    database=None,
    deadline=None,
    max_examples=100,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


@pytest.fixture(autouse=True)
def no_unreaped_child_process():
    """Every test reaps the processes it starts, forked snapshot writers included."""
    yield
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"a child process was left unreaped (waitpid gave pid {pid}, status {status})")


@pytest.fixture
def spy_calls(monkeypatch):
    """spy_calls(fn) puts a counting wrapper in place of fn in every bifluid
    module that binds it and returns the list of the positional arguments
    of each call made from then on."""

    def install(real):
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "bifluid":
                for key, value in list(vars(module).items()):
                    if value is real:
                        monkeypatch.setattr(module, key, spy)
        return calls

    return install


@pytest.fixture(scope="session")
def run_collecting():
    """run_collecting(cfg, initial=None) runs cfg through solver.run and
    returns (trajectory, the snapshot records the run handed on)."""
    from bifluid import solver

    def run(cfg, initial=None):
        records = []
        return solver.run(cfg, initial, on_snapshot=records.append), records

    return run
