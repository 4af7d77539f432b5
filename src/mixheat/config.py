"""Flat key=value experiment configuration.

One option per line, `key = value`, `#` starts a comment. Every key has a
single flat name (no sections, no nesting) so files diff cleanly and a
command-line `--set key=value` override is unambiguous. Unknown keys are
an error: typos must not silently fall back to defaults.
"""

import csv
import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigurationError
from .grid import Field, GridSpec, delta_field, integral, make_field, make_grid, read_field
from .solver import (ProblemSpec, default_snapshot_times, geometric_times,
                     make_absorption)

_CASTERS = {int: int, float: float, str: str, "int": int, "float": float, "str": str}


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


_CHOICES = {
    "absorption": ("none", "constant", "power", "table"),
    "initial": ("gaussian", "point", "file"),
}


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
        caster = _CASTERS[f.type]
        try:
            kwargs[name] = caster(raw[name])
        except ValueError:
            raise ConfigurationError(
                f"config key {name!r}: cannot parse {raw[name]!r} as {caster.__name__}")
    missing = [n for n in ("alpha", "half_width", "points") if n not in raw]
    if missing:
        raise ConfigurationError(f"missing required config keys: {', '.join(missing)}")
    cfg = ExperimentConfig(**kwargs)
    for key, allowed in _CHOICES.items():
        if getattr(cfg, key) not in allowed:
            raise ConfigurationError(
                f"config key {key!r} must be one of {allowed}, got {getattr(cfg, key)!r}")
    return cfg


def load_config(path, overrides=None) -> ExperimentConfig:
    """Parse a config file, apply `key=value` override strings on top."""
    with open(path) as fh:
        raw = parse_config_text(fh.read())
    for item in overrides or []:
        if "=" not in item:
            raise ConfigurationError(f"override must be key=value, got {item!r}")
        key, value = item.split("=", 1)
        raw[key.strip()] = value.strip()
    return config_from_mapping(raw)


# ---------------------------------------------------------------------------
# Builders.

def build_grid(cfg: ExperimentConfig) -> GridSpec:
    return make_grid(dim=cfg.dim, half_width=cfg.half_width, points=cfg.points)


def read_absorption_table(path):
    times, values = [], []
    with open(path, newline="") as fh:
        rows = csv.reader(fh)
        header = next(rows, None)
        if header is None or [h.strip() for h in header[:2]] != ["time", "value"]:
            raise ConfigurationError(f"absorption table must start with 'time,value': {path}")
        for row in rows:
            times.append(float(row[0]))
            values.append(float(row[1]))
    return np.array(times), np.array(values)


def build_absorption(cfg: ExperimentConfig):
    if cfg.absorption == "none":
        return make_absorption("none")
    if cfg.absorption == "constant":
        return make_absorption("constant", coefficient=cfg.absorption_coefficient)
    if cfg.absorption == "power":
        return make_absorption("power", coefficient=cfg.absorption_coefficient,
                               exponent=cfg.absorption_exponent)
    if not cfg.absorption_table:
        raise ConfigurationError("absorption = table needs absorption_table = <path>")
    times, values = read_absorption_table(cfg.absorption_table)
    return make_absorption("table", times=times, values=values)


def build_problem(cfg: ExperimentConfig) -> ProblemSpec:
    grid = build_grid(cfg)
    return ProblemSpec(alpha=cfg.alpha, beta=cfg.beta, p=cfg.p,
                       absorption=build_absorption(cfg),
                       initial=build_initial(cfg, grid))


def build_initial(cfg: ExperimentConfig, grid: GridSpec) -> Field:
    if not (cfg.initial_mass > 0 and math.isfinite(cfg.initial_mass)):
        raise ConfigurationError(
            f"initial_mass must be finite and positive, got {cfg.initial_mass}")
    if cfg.initial == "point":
        f = delta_field(grid)
        return make_field(grid, cfg.initial_mass * f.values)
    if cfg.initial == "file":
        if not cfg.initial_path:
            raise ConfigurationError("initial = file needs initial_path = <path>")
        f = read_field(cfg.initial_path)
        if f.grid != grid:
            raise ConfigurationError(
                f"initial data grid {f.grid} does not match configured grid {grid}")
        return f
    if not (cfg.initial_width > 0 and math.isfinite(cfg.initial_width)):
        raise ConfigurationError(
            f"initial_width must be finite and positive, got {cfg.initial_width}")
    if not math.isfinite(cfg.initial_center):
        raise ConfigurationError(
            f"initial_center must be finite, got {cfg.initial_center}")
    coords = grid.coords()
    r2 = sum((c - cfg.initial_center) ** 2 for c in coords)
    bump = np.exp(-r2 / (2.0 * cfg.initial_width ** 2))
    f = make_field(grid, bump)
    m = integral(f)
    if m <= 0:
        raise ConfigurationError("initial bump has zero mass on this grid")
    return make_field(grid, bump * (cfg.initial_mass / m))


def snapshot_times(cfg: ExperimentConfig) -> np.ndarray:
    if cfg.t0 == 0:
        return default_snapshot_times(cfg.t0, cfg.t1)
    return geometric_times(cfg.t0, cfg.t1, cfg.snapshot_count)


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
    if not vals or not all(math.isfinite(v) and v >= 1 for v in vals):
        raise ConfigurationError(
            f"capacity_radii must be a comma list of finite values >= 1, got {vals}")
    return vals
