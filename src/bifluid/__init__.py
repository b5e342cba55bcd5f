"""1D two-fluid finite-volume solver with an implicit pressure-equilibrium
closure, plus a relative-energy harness that audits energy, weak-strong
stability, volume-fraction stability, and coercivity inequalities between
pairs of runs.  The commands are in ``bifluid.cli``."""

from .config import validate_config

__version__ = "0.1.0"
