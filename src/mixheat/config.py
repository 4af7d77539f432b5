"""Flat key=value experiment configuration.

One option per line, `key = value`, `#` starts a comment. Every key has a
single flat name (no sections, no nesting) so files diff cleanly and a
command-line `--set key=value` override is unambiguous. Unknown keys are
an error: typos must not silently fall back to defaults.
"""

import logging
import math
from dataclasses import MISSING, dataclass, fields

import numpy as np

from .errors import ConfigurationError, require
from .grid import (_TINY, Field, GridSpec, _check_grid_budget, delta_field,
                   integral, read_field)
from .observers import _read_table
from .solver import (_WORK_GRIDS, PowerAbsorption, ProblemSpec, TableAbsorption,
                     default_snapshot_times, geometric_times)

# Largest Gaussian value on the box boundary, relative to its peak, that
# build_initial accepts without a warning. The periodic box joins the two
# edges, so a larger value is a jump whose spectral ripple the solver clips
# at a cost to the mass ledger; the smallest edge ratio measured to push
# the ledger defect past 1e-12 was 2.6e-6.
_EDGE_RATIO_WARN = 1e-6

_log = logging.getLogger(__name__)

# The kinds each choice key takes; ExperimentConfig refuses any other.
_CHOICES = {
    "absorption": ("none", "constant", "power", "table"),
    "initial": ("gaussian", "point", "file"),
}


@dataclass(frozen=True)
class ExperimentConfig:
    alpha: float
    half_width: float
    points: int
    dim: int = 1
    beta: float = 0.0
    p: float = 2.0
    t0: float = 1.0
    t1: float = 100.0
    dtau_max: float = 0.1
    snapshot_count: int = 9
    absorption: str = "none"
    absorption_coefficient: float = 0.0
    absorption_exponent: float = 0.0
    absorption_table: str = ""
    initial: str = "gaussian"
    initial_width: float = 1.0
    initial_mass: float = 1.0
    initial_center: float = 0.0
    initial_path: str = ""
    kernel_times: str = "0.1,1,10"
    capacity_q0: float = 1.5
    capacity_b: float = 2.0
    capacity_radii: str = "8,16,32,64,128"
    capacity_half_width: float = 2e4
    capacity_points: int = 131072

    def __post_init__(self):
        for key, allowed in _CHOICES.items():
            kind = getattr(self, key)
            if kind not in allowed:
                raise ConfigurationError(
                    f"config key {key!r} must be one of {allowed}, got {kind!r}")


def parse_config_text(text: str) -> dict:
    """Raw key -> string mapping; syntax errors and duplicates raise."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"line {lineno}: expected key = value, got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise ConfigurationError(f"line {lineno}: empty key")
        if key in out:
            raise ConfigurationError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value.strip()
    return out


def config_from_mapping(raw: dict) -> ExperimentConfig:
    spec = {f.name: f for f in fields(ExperimentConfig)}
    unknown = sorted(set(raw) - set(spec))
    if unknown:
        raise ConfigurationError(f"unknown config keys: {', '.join(unknown)}")
    kwargs = {}
    for name, f in spec.items():
        if name not in raw:
            continue
        caster = f.type
        try:
            kwargs[name] = caster(raw[name])
        except ValueError:
            raise ConfigurationError(
                f"config key {name!r}: cannot parse {raw[name]!r} as {caster.__name__}")
    missing = [n for n, f in spec.items() if f.default is MISSING and n not in raw]
    if missing:
        raise ConfigurationError(f"missing required config keys: {', '.join(missing)}")
    return ExperimentConfig(**kwargs)


def load_config(path, overrides=None) -> ExperimentConfig:
    """Parse a config file, apply `key=value` override strings on top."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError:
        raise ConfigurationError(f"{path}: not UTF-8 text") from None
    raw = parse_config_text(text)
    for item in overrides or []:
        if "=" not in item:
            raise ConfigurationError(f"override must be key=value, got {item!r}")
        key, value = item.split("=", 1)
        raw[key.strip()] = value.strip()
    return config_from_mapping(raw)


# ---------------------------------------------------------------------------
# Builders.

def read_absorption_table(path):
    """The times and values of a CSV table under the header time,value."""
    return _read_table(path, ("time", "value"))


def build_absorption(cfg: ExperimentConfig):
    """h = 0 ("none"), c ("constant"), c (1+t)^sigma ("power"), c > 0 for
    both, or the interpolated samples of absorption_table ("table")."""
    if cfg.absorption == "none":
        return PowerAbsorption(0.0)
    if cfg.absorption == "table":
        if not cfg.absorption_table:
            raise ConfigurationError("absorption = table needs absorption_table = <path>")
        return TableAbsorption(*read_absorption_table(cfg.absorption_table))
    require("finite and > 0", absorption_coefficient=cfg.absorption_coefficient)
    exponent = cfg.absorption_exponent if cfg.absorption == "power" else 0.0
    require("finite", absorption_exponent=exponent)
    return PowerAbsorption(cfg.absorption_coefficient, exponent)


def build_problem(cfg: ExperimentConfig) -> ProblemSpec:
    grid = GridSpec(cfg.dim, cfg.half_width, cfg.points)
    # the datum and solve's work space, checked before the datum exists
    _check_grid_budget(_WORK_GRIDS + 1, grid, "points", "solve")
    return ProblemSpec(alpha=cfg.alpha, beta=cfg.beta, p=cfg.p,
                       absorption=build_absorption(cfg),
                       initial=build_initial(cfg, grid))


def build_initial(cfg: ExperimentConfig, grid: GridSpec) -> Field:
    # a subnormal mass loses the ledger to gradual underflow
    if not _TINY <= cfg.initial_mass < math.inf:
        raise ConfigurationError(
            f"initial_mass must be finite and at least {_TINY:g} (the least "
            f"normal float), got {cfg.initial_mass}")
    # the point and Gaussian samples sum to about initial_mass / dV
    if not cfg.initial_mass / grid.cell_volume < math.inf:
        raise ConfigurationError(
            f"initial_mass must leave the sum of its samples, about initial_mass "
            f"/ dV with dV = {grid.cell_volume:g}, finite, got {cfg.initial_mass}")
    if cfg.initial == "point":
        f = delta_field(grid)
        return Field(grid, cfg.initial_mass * f.values)
    if cfg.initial == "file":
        if not cfg.initial_path:
            raise ConfigurationError("initial = file needs initial_path = <path>")
        f = read_field(cfg.initial_path)
        if f.grid != grid:
            raise ConfigurationError(
                f"initial data grid {f.grid} does not match configured grid {grid}")
        return f
    width = cfg.initial_width
    if not (width > 0 and 0 < width * width < math.inf):
        raise ConfigurationError(
            f"initial_width must be positive with a finite nonzero square, got {width}")
    require("finite", initial_center=cfg.initial_center)
    # |x - c|^2 from per-axis squared offsets broadcast against each other,
    # then the exponent, exp and scale in place: one grid-sized array
    with np.errstate(over="ignore"):  # a far point's square or exponent -> inf: bump 0
        d2 = (grid.axis_coords() - cfg.initial_center) ** 2
        bump = d2 if grid.dim == 1 else d2[:, None] + d2[None, :]
        np.negative(bump, out=bump)
        np.divide(bump, 2.0 * width ** 2, out=bump)
        np.exp(bump, out=bump)
    m = integral(Field(grid, bump))
    if m <= 0:
        raise ConfigurationError("initial bump has zero mass on this grid")
    _warn_if_cut_off(cfg, bump)
    bump *= cfg.initial_mass / m
    return Field(grid, bump)


def _warn_if_cut_off(cfg: ExperimentConfig, bump: np.ndarray) -> None:
    edge = max(float(np.take(bump, [0, -1], axis=axis).max())
               for axis in range(bump.ndim))
    ratio = edge / float(bump.max())
    if ratio > _EDGE_RATIO_WARN:
        _log.warning(
            "initial Gaussian is cut off by the periodic box: its largest "
            "boundary value is %.1e of its peak (above %.0e), and the jump costs "
            "the mass ledger; narrow initial_width = %r, move initial_center = %r "
            "or widen half_width = %r", ratio, _EDGE_RATIO_WARN,
            cfg.initial_width, cfg.initial_center, cfg.half_width)


def snapshot_times(cfg: ExperimentConfig) -> np.ndarray:
    if cfg.t0 == 0:
        return default_snapshot_times(cfg.t0, cfg.t1)
    return geometric_times(cfg.t0, cfg.t1, cfg.snapshot_count, name="snapshot_count")


def parse_float_list(text: str, key: str) -> list:
    try:
        vals = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ConfigurationError(f"cannot parse {key}: {text!r}")
    return vals


def kernel_times(cfg: ExperimentConfig) -> list:
    vals = parse_float_list(cfg.kernel_times, "kernel_times")
    if not vals or not all(math.isfinite(t) and t > 0 for t in vals):
        raise ConfigurationError(
            f"kernel_times must be a comma list of finite positive times, got {vals}")
    return vals


def capacity_radii(cfg: ExperimentConfig) -> list:
    vals = parse_float_list(cfg.capacity_radii, "capacity_radii")
    if (not vals or len(set(vals)) < len(vals)
            or not all(math.isfinite(v) and v >= 1 for v in vals)):
        raise ConfigurationError(
            f"capacity_radii must be a comma list of distinct finite values >= 1, "
            f"got {vals}")
    return vals
