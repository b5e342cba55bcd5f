"""Plain-text run configuration: parsing and validation.

The format is INI-style `key = value` under fixed sections, chosen so
verification campaigns can be hand-edited and diffed.  Every field has a
default; parsing fills the gaps, validates, and returns admissibility
warnings (conditions under which global weak solutions are known to exist;
the solver itself runs fine outside them, so they never block a run).
"""

from __future__ import annotations

import configparser
import dataclasses
import math

import numpy as np

from .closure import EXPONENT_MAX, ExponentPair
from .fields import NOSLIP, PERIODIC, RHO_FLOOR, Grid1D, _checked_state, read_snapshot
from .mms import ManufacturedSolution
from .solver import SSPRK2

PRESETS = ("uniform", "gaussian_bump", "sine", "from_file")
# the keys of an initial velocity profile, by preset
_VELOCITY_KEYS = {
    "uniform": "initial.u_value",
    "gaussian_bump": "initial.u_base, initial.u_amplitude",
    "sine": "initial.u_base, initial.u_amplitude",
    "from_file": "initial.u_path",
}
_PERTURB_BLOCK = 64  # perturbation modes summed per block; bounds the tables to 64 x n

__all__ = [
    "ParseError",
    "ValidationError",
    "ProfileSpec",
    "SimConfig",
    "validate_config",
]


class ParseError(ValueError):
    """A config file could not be read or its text parsed; the message
    names the path or the line."""


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

    def build(self, grid: Grid1D, column: str, snapshots: dict) -> np.ndarray:
        """The profile on the grid; snapshots caches the files read, by path."""
        x = grid.x
        if self.preset == "uniform":
            return np.full(grid.n, self.value)
        if self.preset == "gaussian_bump":
            with np.errstate(over="ignore"):  # a huge width gives a flat profile
                w2 = np.float64(self.width) ** 2
            arg = (x - self.center) ** 2 / (2.0 * w2)
            return self.base + self.amplitude * np.exp(-arg)
        if self.preset == "sine":
            return self.base + self.amplitude * np.sin(
                2.0 * math.pi * self.waves * x / grid.length
            )
        if self.path not in snapshots:
            snapshots[self.path] = read_snapshot(self.path)
        values = snapshots[self.path][column]
        if values.shape[0] != grid.n:
            raise ValidationError(
                f"initial.{column}_path has {values.shape[0]} cells, grid has {grid.n}"
            )
        return values


_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _uniform_draws(seed: int, k: int) -> list[float]:
    """The first k values of numpy's ``default_rng(seed).uniform(-1.0, 1.0)``
    stream, bit for bit: ``SeedSequence(seed)`` pool mixing, PCG64 seeding,
    XSL-RR 64-bit outputs and the 53-bit double of each.

    Frozen here so that a seed gives the same noise whatever numpy is
    installed (numpy does not promise stable Generator streams), and so that
    no run imports numpy.random, whose C extensions cost a job about 6 MB of
    resident memory.  ValueError when seed is negative, as numpy's.
    """
    if seed < 0:  # its words would alias those of a nonnegative seed
        raise ValueError(f"perturbation seed must be nonnegative, got {seed}")
    # SeedSequence: the seed's 32-bit words, least significant first,
    # hashed and cross-mixed into a pool of 4 words
    entropy = [seed >> s & _MASK32 for s in range(0, max(seed.bit_length(), 1), 32)]
    hash_const = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * 0x931E8875 & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        r = (x * 0xCA01F9DD - y * 0x4973F715) & _MASK32
        return r ^ r >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for i_src in range(4):
        for i_dst in range(4):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for word in entropy[4:]:
        for i_dst in range(4):
            pool[i_dst] = mix(pool[i_dst], hashmix(word))
    # generate_state(4, uint64): 8 words cycled from the pool, paired
    # little-endian into the 128-bit PCG64 seed and stream (high word first)
    hash_const = 0x8B51F9DD
    words = []
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * 0x58F38DED & _MASK32
        value = value * hash_const & _MASK32
        words.append(value ^ value >> 16)
    s_hi, s_lo, i_hi, i_lo = (words[j] | words[j + 1] << 32 for j in range(0, 8, 2))
    inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
    # srandom: step from 0, add the seed, step; each output steps, then
    # xors the halves and rotates right by the top 6 bits
    state = ((inc + (s_hi << 64 | s_lo)) * _PCG64_MULT + inc) & _MASK128
    out = []
    for _ in range(k):
        state = (state * _PCG64_MULT + inc) & _MASK128
        x = (state >> 64 ^ state) & _MASK64
        rot = state >> 122
        x = (x >> rot | x << (64 - rot)) & _MASK64
        out.append(-1.0 + 2.0 * ((x >> 11) * 2.0**-53))
    return out


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
    track_alpha: bool = False
    allow_inviscid: bool = False
    energy_eps: float = 1e-3
    stability_delta: float = 0.1
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

    @property
    def nu_eff(self) -> float:
        """Effective 1D viscosity 2*mu + lambda of the Newtonian stress."""
        return 2.0 * self.mu + self.lam

    def manufactured(self) -> ManufacturedSolution:
        return ManufacturedSolution(
            exps=self.exponents(),
            nu_eff=self.nu_eff,
            length=self.length,
            a=self.mms_a,
            b=self.mms_b,
            c=self.mms_c,
            d=self.mms_d,
            e=self.mms_e,
        )

    def _perturbations(self, x: np.ndarray) -> list[np.ndarray]:
        # smooth low-mode noise with a resolution-independent normalisation,
        # so the same seed yields the same function on refined grids
        k = self.perturb_modes
        # per field R, Q, u: k sine weights, then k cosine weights
        weights = np.array(_uniform_draws(self.perturb_seed, 6 * k)).reshape(3, 2, k)
        waves = np.arange(1, k + 1)
        sums = None
        for j in range(0, k, _PERTURB_BLOCK):
            modes = slice(j, j + _PERTURB_BLOCK)
            phase = 2.0 * math.pi * np.outer(waves[modes], x) / self.length
            sin, cos = np.sin(phase), np.cos(phase)
            block = [cs[modes] @ sin + cc[modes] @ cos for cs, cc in weights]
            sums = block if sums is None else [a + b for a, b in zip(sums, block)]
        out = []
        for (cs, cc), total in zip(weights, sums):
            norm = math.sqrt(float(np.sum(cs * cs + cc * cc))) or 1.0
            out.append(total / norm)
        return out

    def initial_state(self, grid: Grid1D) -> np.ndarray:
        """Initial data on the grid, at t = 0, as a read-only (3, n) array of
        R, Q and m; manufactured runs start on the exact fields.  ValueError,
        as derive gives it, when a value is not finite."""
        # a value that overflows is left to the check, which names its row
        with np.errstate(over="ignore", invalid="ignore"):
            if self.mms_enabled:
                U = self.manufactured().state(grid, 0.0)
            else:
                snapshots = {}  # one read of a file that R, Q and u share
                R0 = self.r_init.build(grid, "R", snapshots)
                Q0 = self.q_init.build(grid, "Q", snapshots)
                u0 = self.u_init.build(grid, "u", snapshots)
                if self.perturb_epsilon != 0.0:
                    pr, pq, pu = self._perturbations(grid.x)
                    R0 = R0 + self.perturb_epsilon * pr
                    Q0 = Q0 + self.perturb_epsilon * pq
                    u0 = u0 + self.perturb_epsilon * pu
                if (R0 < 0.0).any() or (Q0 < 0.0).any():
                    raise ValidationError("initial partial masses must be nonnegative pointwise")
                U = np.stack((R0, Q0, (R0 + Q0) * u0))
        U = _checked_state(U)
        U.setflags(write=False)
        return U

    def snapshot_times(self) -> list[float]:
        if self.t_end == 0.0:
            return [0.0]
        k = self.n_snapshots
        return [self.t_end * i / (k - 1) for i in range(k)]

    def with_resolution(self, n: int) -> "SimConfig":
        return dataclasses.replace(self, n=n)

    # validation ------------------------------------------------------------

    def validate(self) -> np.ndarray:
        """Raise ValidationError on the first bad field; return the initial
        state, the read-only (3, n) array of initial_state."""

        def need(cond: bool, field: str, constraint: str):
            if not cond:
                raise ValidationError(f"{field}: {constraint}")

        # the Helmholtz potential needs exponents above 1, the closure's checked range at most 100
        exponent_range = f"must lie in (1, {EXPONENT_MAX:g}]"
        need(1.0 < self.gamma_plus <= EXPONENT_MAX, "exponents.gamma_plus", exponent_range)
        need(1.0 < self.gamma_minus <= EXPONENT_MAX, "exponents.gamma_minus", exponent_range)
        need(self.mu >= 0.0, "viscosity.mu", "must be nonnegative")
        need(2.0 * self.mu + 3.0 * self.lam >= 0.0, "viscosity.lambda", "needs 2*mu + 3*lambda >= 0")
        need(self.mu > 0.0 or self.allow_inviscid, "viscosity.mu", "mu = 0 requires verification.allow_inviscid")
        need(self.n >= 4, "grid.n", "must be at least 4")
        need(self.length > 0.0, "grid.length", "must be positive")
        need(self.bc in (PERIODIC, NOSLIP), "grid.bc", f"must be '{PERIODIC}' or '{NOSLIP}'")
        need(self.t_end >= 0.0, "time.t_end", "must be nonnegative")
        need(0.0 < self.cfl <= 1.0, "time.cfl", "must lie in (0, 1]")
        need(self.integrator == SSPRK2, "time.integrator", f"must be '{SSPRK2}'")
        need(self.n_snapshots >= 2 or self.t_end == 0.0, "time.n_snapshots", "need at least 2 snapshots when t_end > 0")
        need(self.perturb_seed >= 0, "perturbation.seed", "must be nonnegative")
        need(self.perturb_modes >= 1, "perturbation.modes", "must be at least 1")
        # a mode above n // 2 aliases onto a lower one on the grid
        need(
            self.perturb_epsilon == 0.0 or self.perturb_modes <= self.n // 2,
            "perturbation.modes",
            f"must be at most n // 2 = {self.n // 2} when epsilon != 0",
        )
        need(self.energy_eps > 0.0, "verification.energy_eps", "must be positive")
        need(self.stability_delta > 0.0, "verification.stability_delta", "must be positive")
        for name, spec in (("R", self.r_init), ("Q", self.q_init), ("u", self.u_init)):
            spec.validate(name)
        # building the initial data checks pointwise nonnegativity; a grid
        # too large to allocate is an error of the config too
        try:
            grid = self.grid()
            U = self.initial_state(grid)
        except ValidationError:
            raise
        except (ValueError, OSError, MemoryError) as exc:
            raise ValidationError(f"initial data: {exc}") from exc
        # the kinetic energy of the initial state, with the expressions of
        # fields.total_energy, which every run evaluates
        rho = U[0] + U[1]
        with np.errstate(over="ignore", invalid="ignore"):
            u = U[2] / np.maximum(rho, RHO_FLOOR)
            kinetic = float(np.sum(0.5 * rho * u**2) * grid.dx)
        need(
            math.isfinite(kinetic),
            "mms.e" if self.mms_enabled else _VELOCITY_KEYS[self.u_init.preset],
            "the initial kinetic energy, of density (R + Q) u**2 / 2, overflows float",
        )
        return U

    def admissibility_warnings(self, U: np.ndarray) -> list[str]:
        """Conditions for global weak existence that this config and its
        initial state do not meet.

        These are hypotheses of the known existence theory, not requirements
        of the scheme, hence warnings rather than errors.
        """
        out = []
        if self.gamma_plus < 9.0 / 5.0:
            out.append(
                f"gamma_plus = {self.gamma_plus:g} < 9/5: outside the weak-existence "
                "hypothesis on the adiabatic exponents"
            )
        R0, Q0 = U[0], U[1]
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


def _parse(text: str) -> SimConfig:
    """Config text to a SimConfig with defaults filled in, not yet validated."""
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
    return cfg


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
            "verification",
            [
                ("track_alpha", "track_alpha"),
                ("allow_inviscid", "allow_inviscid"),
                ("energy_eps", "energy_eps"),
                ("stability_delta", "stability_delta"),
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


def validate_config(text: str, *, with_state: bool = False):
    """Parse + validate config text; returns (config, admissibility warnings),
    plus the initial state it built, a read-only (3, n) array, when
    with_state is true."""
    cfg = _parse(text)
    U = cfg.validate()
    warnings = cfg.admissibility_warnings(U)
    return (cfg, warnings, U) if with_state else (cfg, warnings)
