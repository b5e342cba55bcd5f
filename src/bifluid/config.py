"""Plain-text run configuration: parsing, validation, canonical serialisation.

The format is INI-style `key = value` under fixed sections, chosen so
verification campaigns can be hand-edited and diffed.  Every field has a
default; parsing fills the gaps, validates, and returns admissibility
warnings (conditions under which global weak solutions are known to exist;
the solver itself runs fine outside them, so they never block a run).
"""

from __future__ import annotations

import configparser
import dataclasses
import io
import math

import numpy as np

from .closure import CLOSURE_TOL, VACUUM_ALPHA_DEFAULT, ExponentPair
from .fields import (
    NOSLIP,
    PERIODIC,
    RHO_FLOOR,
    FieldState,
    Grid1D,
    read_snapshot,
)
from .mms import ManufacturedSolution
from .solver import INTEGRATORS, SSPRK2, SchemeConfig

PRESETS = ("uniform", "gaussian_bump", "sine", "from_file")

__all__ = [
    "ParseError",
    "ValidationError",
    "ProfileSpec",
    "SimConfig",
    "validate_config",
]


class ParseError(ValueError):
    """Config text could not be parsed (message carries the line)."""


class ValidationError(ValueError):
    """A config field violates its constraint (message names the field)."""


@dataclasses.dataclass
class ProfileSpec:
    """Named initial profile for one field (R, Q, or u)."""

    preset: str = "uniform"
    value: float = 0.0
    base: float = 1.0
    amplitude: float = 0.0
    center: float = 0.5
    width: float = 0.1
    waves: float = 1.0
    path: str = ""

    def validate(self, name: str) -> None:
        if self.preset not in PRESETS:
            raise ValidationError(f"initial.{name}_preset must be one of {PRESETS}")
        if self.preset == "gaussian_bump" and not self.width > 0.0:
            raise ValidationError(f"initial.{name}_width must be positive")
        if self.preset == "from_file" and not self.path:
            raise ValidationError(f"initial.{name}_path required for from_file")

    def build(self, grid: Grid1D, column: str) -> np.ndarray:
        x = grid.x
        if self.preset == "uniform":
            return np.full(grid.n, self.value)
        if self.preset == "gaussian_bump":
            arg = (x - self.center) ** 2 / (2.0 * self.width**2)
            return self.base + self.amplitude * np.exp(-arg)
        if self.preset == "sine":
            return self.base + self.amplitude * np.sin(
                2.0 * math.pi * self.waves * x / grid.length
            )
        data = read_snapshot(self.path)
        values = data[column]
        if values.shape[0] != grid.n:
            raise ValidationError(
                f"initial.{column}_path has {values.shape[0]} cells, grid has {grid.n}"
            )
        return values


def _default_r():
    return ProfileSpec(preset="uniform", value=1.0)


def _default_q():
    return ProfileSpec(preset="uniform", value=1.0)


def _default_u():
    return ProfileSpec(preset="uniform", value=0.0)


@dataclasses.dataclass
class SimConfig:
    """Fully-defaulted description of one simulation run."""

    gamma_plus: float = 3.0
    gamma_minus: float = 1.5
    mu: float = 0.1
    lam: float = 0.0
    n: int = 256
    length: float = 1.0
    bc: str = PERIODIC
    t_end: float = 0.2
    cfl: float = 0.9
    integrator: str = SSPRK2
    n_snapshots: int = 11
    r_init: ProfileSpec = dataclasses.field(default_factory=_default_r)
    q_init: ProfileSpec = dataclasses.field(default_factory=_default_q)
    u_init: ProfileSpec = dataclasses.field(default_factory=_default_u)
    perturb_epsilon: float = 0.0
    perturb_seed: int = 0
    perturb_modes: int = 3
    closure_tol: float = CLOSURE_TOL
    positivity_tol: float = 1e-12
    vacuum_alpha: float = VACUUM_ALPHA_DEFAULT
    rho_floor: float = RHO_FLOOR
    strict: bool = True
    track_alpha: bool = True
    allow_inviscid: bool = False
    energy_eps: float = 1e-3
    stability_delta: float = 0.1
    ess_lower: float = 0.0  # 0 means: derive the window from the reference run
    ess_upper: float = 0.0
    mms_enabled: bool = False
    mms_a: float = 1.5
    mms_b: float = 0.25
    mms_c: float = 1.5
    mms_d: float = 0.25
    mms_e: float = 0.3

    # construction helpers -------------------------------------------------

    def grid(self) -> Grid1D:
        return Grid1D(n=self.n, length=self.length, bc=self.bc)

    def exponents(self) -> ExponentPair:
        return ExponentPair(self.gamma_plus, self.gamma_minus)

    def manufactured(self) -> ManufacturedSolution:
        return ManufacturedSolution(
            exps=self.exponents(),
            nu_eff=2.0 * self.mu + self.lam,
            length=self.length,
            a=self.mms_a,
            b=self.mms_b,
            c=self.mms_c,
            d=self.mms_d,
            e=self.mms_e,
            closure_tol=self.closure_tol,
        )

    def scheme(self) -> SchemeConfig:
        return SchemeConfig(
            mu=self.mu,
            lam=self.lam,
            cfl=self.cfl,
            time_integrator=self.integrator,
            forcing=self.manufactured() if self.mms_enabled else None,
            positivity_tol=self.positivity_tol,
            strict_positivity=self.strict,
            allow_inviscid=self.allow_inviscid,
            closure_tol=self.closure_tol,
            vacuum_alpha=self.vacuum_alpha,
            rho_floor=self.rho_floor,
        )

    def _perturbations(self, x: np.ndarray) -> list[np.ndarray]:
        # smooth low-mode noise with a resolution-independent normalisation,
        # so the same seed yields the same function on refined grids
        rng = np.random.default_rng(self.perturb_seed)
        modes = np.arange(1, self.perturb_modes + 1)
        out = []
        for _ in range(3):
            cs = rng.uniform(-1.0, 1.0, self.perturb_modes)
            cc = rng.uniform(-1.0, 1.0, self.perturb_modes)
            norm = math.sqrt(float(np.sum(cs * cs + cc * cc))) or 1.0
            phase = 2.0 * math.pi * np.outer(modes, x) / self.length
            out.append((cs @ np.sin(phase) + cc @ np.cos(phase)) / norm)
        return out

    def initial_state(self, grid: Grid1D) -> FieldState:
        """Initial data on the grid; manufactured runs start on the exact fields."""
        if self.mms_enabled:
            return self.manufactured().state(grid, 0.0)
        R0 = self.r_init.build(grid, "R")
        Q0 = self.q_init.build(grid, "Q")
        u0 = self.u_init.build(grid, "u")
        if self.perturb_epsilon != 0.0:
            pr, pq, pu = self._perturbations(grid.x)
            R0 = R0 + self.perturb_epsilon * pr
            Q0 = Q0 + self.perturb_epsilon * pq
            u0 = u0 + self.perturb_epsilon * pu
        if (R0 < 0.0).any() or (Q0 < 0.0).any():
            raise ValidationError("initial partial masses must be nonnegative pointwise")
        return FieldState(t=0.0, R=R0, Q=Q0, m=(R0 + Q0) * u0)

    def snapshot_times(self) -> list[float]:
        if self.t_end == 0.0:
            return [0.0]
        k = self.n_snapshots
        return [self.t_end * i / (k - 1) for i in range(k)]

    def with_resolution(self, n: int) -> "SimConfig":
        return dataclasses.replace(self, n=n)

    # validation ------------------------------------------------------------

    def validate(self) -> None:
        def need(cond: bool, field: str, constraint: str):
            if not cond:
                raise ValidationError(f"{field}: {constraint}")

        need(self.gamma_plus > 1.0, "exponents.gamma_plus", "must be > 1 (Helmholtz potential undefined otherwise)")
        need(self.gamma_minus > 1.0, "exponents.gamma_minus", "must be > 1 (Helmholtz potential undefined otherwise)")
        need(self.mu >= 0.0, "viscosity.mu", "must be nonnegative")
        need(2.0 * self.mu + 3.0 * self.lam >= 0.0, "viscosity.lambda", "needs 2*mu + 3*lambda >= 0")
        need(self.mu > 0.0 or self.allow_inviscid, "viscosity.mu", "mu = 0 requires verification.allow_inviscid")
        need(self.n >= 4, "grid.n", "must be at least 4")
        need(self.length > 0.0, "grid.length", "must be positive")
        need(self.bc in (PERIODIC, NOSLIP), "grid.bc", f"must be '{PERIODIC}' or '{NOSLIP}'")
        need(self.t_end >= 0.0, "time.t_end", "must be nonnegative")
        need(0.0 < self.cfl <= 1.0, "time.cfl", "must lie in (0, 1]")
        need(self.integrator in INTEGRATORS, "time.integrator", f"must be one of {INTEGRATORS}")
        need(self.n_snapshots >= 2 or self.t_end == 0.0, "time.n_snapshots", "need at least 2 snapshots when t_end > 0")
        need(self.closure_tol > 0.0, "tolerances.closure_tol", "must be positive")
        need(self.positivity_tol >= 0.0, "tolerances.positivity_tol", "must be nonnegative")
        need(0.0 <= self.vacuum_alpha <= 1.0, "tolerances.vacuum_alpha", "must lie in [0, 1]")
        need(self.rho_floor > 0.0, "tolerances.rho_floor", "must be positive")
        need(self.perturb_modes >= 1, "perturbation.modes", "must be at least 1")
        need(self.energy_eps > 0.0, "verification.energy_eps", "must be positive")
        need(self.stability_delta > 0.0, "verification.stability_delta", "must be positive")
        if self.ess_lower or self.ess_upper:
            need(0.0 < self.ess_lower < self.ess_upper, "verification.ess_lower", "window needs 0 < lower < upper")
        for name, spec in (("R", self.r_init), ("Q", self.q_init), ("u", self.u_init)):
            spec.validate(name)
        # building the initial data checks pointwise nonnegativity
        try:
            self.initial_state(self.grid())
        except ValidationError:
            raise
        except (ValueError, OSError) as exc:
            raise ValidationError(f"initial data: {exc}") from exc

    def admissibility_warnings(self) -> list[str]:
        """Conditions for global weak existence that this data does not meet.

        These are hypotheses of the known existence theory, not requirements
        of the scheme, hence warnings rather than errors.
        """
        out = []
        if self.gamma_plus < 9.0 / 5.0:
            out.append(
                f"gamma_plus = {self.gamma_plus:g} < 9/5: outside the weak-existence "
                "hypothesis on the adiabatic exponents"
            )
        state = self.initial_state(self.grid())
        R0, Q0 = state.R, state.Q
        unbounded = bool(((R0 == 0.0) & (Q0 > 0.0)).any())
        if unbounded:
            out.append(
                "initial data has cells with R = 0 < Q: no finite constant bounds "
                "Q0 <= a * R0, so two-sided data comparability fails"
            )
        live = R0 > 0.0
        a_lo = float(np.min(Q0[live] / R0[live])) if live.any() else 0.0
        if unbounded:
            a_lo = 0.0
        gp, gm = self.gamma_plus, self.gamma_minus

        def bog(g: float) -> float:
            return min(2.0 * g / 3.0 - 1.0, g / 2.0)

        if a_lo > 0.0:
            big_g = max(gp + bog(gp), gm + bog(gm))
            gam_bar = max(gp - gp / gm + 1.0, gm + gm / gp - 1.0)
        else:
            big_g = gp + bog(gp)
            gam_bar = max(gp - gp / gm + 1.0, gm + gm / gp - gp / gm)
        if not gam_bar < big_g:
            out.append(
                f"exponent growth condition fails: Gamma_bar = {gam_bar:g} is not "
                f"below G = {big_g:g}, outside the weak-existence window"
            )
        return out

    # serialisation -----------------------------------------------------------

    def to_text(self) -> str:
        """Canonical config text; parsing it back reproduces this object."""
        buf = io.StringIO()
        for section, items in _schema():
            buf.write(f"[{section}]\n")
            for key, attr in items:
                buf.write(f"{key} = {_render(_get_attr(self, attr))}\n")
            buf.write("\n")
        return buf.getvalue()

    @staticmethod
    def from_text(text: str) -> "SimConfig":
        parser = configparser.ConfigParser(interpolation=None)
        parser.optionxform = str
        try:
            parser.read_string(text)
        except configparser.Error as exc:
            line = getattr(exc, "lineno", None)
            where = f" (line {line})" if line is not None else ""
            raise ParseError(f"config parse failure{where}: {exc}") from exc
        known = dict(_schema())
        cfg = SimConfig()
        for section in parser.sections():
            if section not in known:
                raise ValidationError(f"unknown config section [{section}]")
            keys = dict(known[section])
            for key, raw in parser[section].items():
                if key not in keys:
                    raise ValidationError(f"unknown key '{key}' in section [{section}]")
                attr = keys[key]
                try:
                    value = _convert(raw, _get_attr(cfg, attr))
                except ValueError as exc:
                    raise ValidationError(f"[{section}] {key}: {exc}") from exc
                _set_attr(cfg, attr, value)
        cfg.validate()
        return cfg

    @staticmethod
    def from_file(path) -> "SimConfig":
        with open(path, "r") as fh:
            return SimConfig.from_text(fh.read())


def _schema():
    profile = lambda field: [
        (f"{field}_preset", (f"{field.lower()}_init", "preset")),
        (f"{field}_value", (f"{field.lower()}_init", "value")),
        (f"{field}_base", (f"{field.lower()}_init", "base")),
        (f"{field}_amplitude", (f"{field.lower()}_init", "amplitude")),
        (f"{field}_center", (f"{field.lower()}_init", "center")),
        (f"{field}_width", (f"{field.lower()}_init", "width")),
        (f"{field}_waves", (f"{field.lower()}_init", "waves")),
        (f"{field}_path", (f"{field.lower()}_init", "path")),
    ]
    return [
        ("exponents", [("gamma_plus", "gamma_plus"), ("gamma_minus", "gamma_minus")]),
        ("viscosity", [("mu", "mu"), ("lambda", "lam")]),
        ("grid", [("n", "n"), ("length", "length"), ("bc", "bc")]),
        (
            "time",
            [
                ("t_end", "t_end"),
                ("cfl", "cfl"),
                ("integrator", "integrator"),
                ("n_snapshots", "n_snapshots"),
            ],
        ),
        ("initial", profile("R") + profile("Q") + profile("u")),
        (
            "perturbation",
            [
                ("epsilon", "perturb_epsilon"),
                ("seed", "perturb_seed"),
                ("modes", "perturb_modes"),
            ],
        ),
        (
            "tolerances",
            [
                ("closure_tol", "closure_tol"),
                ("positivity_tol", "positivity_tol"),
                ("vacuum_alpha", "vacuum_alpha"),
                ("rho_floor", "rho_floor"),
            ],
        ),
        (
            "verification",
            [
                ("strict", "strict"),
                ("track_alpha", "track_alpha"),
                ("allow_inviscid", "allow_inviscid"),
                ("energy_eps", "energy_eps"),
                ("stability_delta", "stability_delta"),
                ("ess_lower", "ess_lower"),
                ("ess_upper", "ess_upper"),
            ],
        ),
        (
            "mms",
            [
                ("enabled", "mms_enabled"),
                ("a", "mms_a"),
                ("b", "mms_b"),
                ("c", "mms_c"),
                ("d", "mms_d"),
                ("e", "mms_e"),
            ],
        ),
    ]


def _get_attr(cfg: SimConfig, attr):
    if isinstance(attr, tuple):
        return getattr(getattr(cfg, attr[0]), attr[1])
    return getattr(cfg, attr)


def _set_attr(cfg: SimConfig, attr, value):
    if isinstance(attr, tuple):
        setattr(getattr(cfg, attr[0]), attr[1], value)
    else:
        setattr(cfg, attr, value)


_BOOL_WORDS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def _convert(raw: str, default):
    raw = raw.strip()
    if isinstance(default, bool):
        try:
            return _BOOL_WORDS[raw.lower()]
        except KeyError:
            raise ValueError(f"expected a boolean, got '{raw}'")
    if isinstance(default, int):
        try:
            return int(raw)
        except ValueError:
            raise ValueError(f"expected an integer, got '{raw}'")
    if isinstance(default, float):
        try:
            value = float(raw)
        except ValueError:
            raise ValueError(f"expected a number, got '{raw}'")
        if not math.isfinite(value):
            raise ValueError(f"expected a finite number, got '{raw}'")
        return value
    return raw


def _render(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def validate_config(text: str) -> tuple[SimConfig, list[str]]:
    """Parse + validate config text; returns (config, admissibility warnings)."""
    cfg = SimConfig.from_text(text)
    return cfg, cfg.admissibility_warnings()
