"""Plain key-value run configuration: dotted keys, `=`, `#` comments.

Unknown keys are hard errors, every omitted key has a documented default,
and serialize/parse round-trips exactly.  The builders at the bottom turn a
parsed config into live solver objects.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .dynamics import PhysicsParams
from .errors import ConfigParseError, ConfigValidationError
from .grid import GridSpec
from .initial import make_blob, make_random, make_rossby, make_zonal
from .particles import ParticleSet
from .stepping import State, StepControl

_TWO_PI = 2.0 * math.pi

IC_KINDS = ("rossby", "random_spectrum", "gaussian_blob", "zonal", "file")


@dataclass
class ICSpec:
    """Initial-condition request; which fields matter depends on ``kind``."""

    kind: str = "rossby"
    sx: int = 1
    sy: int = 1
    sz: int = 1
    amplitude: float = 1.0
    slope: float = -3.0
    energy: float = 1.0
    seed: int = 0
    band_lo: int = 2
    band_hi: int = 0  # 0 means: pick the default band for the grid
    center: tuple[float, ...] = (math.pi, math.pi, math.pi)
    width: float = 0.5
    path: str = ""
    profile: tuple[float, ...] = ()


@dataclass
class TimeConfig:
    mode: str = StepControl.mode
    dt: float = StepControl.dt_fixed
    cfl_number: float = StepControl.cfl_number
    dt_min: float = StepControl.dt_min
    dt_max: float = StepControl.dt_max
    t_end: float = 1.0


@dataclass
class OutputConfig:
    directory: str = "qg3d-out"
    record_every: float = 0.01
    snapshot_every: float = 0.0
    checkpoint_every: float = 0.0


@dataclass
class ChecksConfig:
    conservation: bool = True
    growth: bool = True
    interpolation: bool = True
    tol_conservation: float = 1e-6
    tol_growth: float = 1e-3
    sobolev_m: int = 4


@dataclass
class LagrangianConfig:
    enabled: bool = False
    particles: int = 512
    z_levels: tuple[float, ...] = (0.0,)
    seed: int = 0
    sample_every: int = 10


@dataclass
class RunConfig:
    nx: int = 64
    ny: int = 64
    nz: int = 64
    lx: float = GridSpec.lx
    ly: float = GridSpec.ly
    lz: float = GridSpec.lz
    beta: float = PhysicsParams.beta
    F: float = PhysicsParams.F
    nu: float = PhysicsParams.nu
    ic: ICSpec = field(default_factory=ICSpec)
    time: TimeConfig = field(default_factory=TimeConfig)
    output: OutputConfig = field(default_factory=OutputConfig)
    checks: ChecksConfig = field(default_factory=ChecksConfig)
    lagrangian: LagrangianConfig = field(default_factory=LagrangianConfig)
    max_particles: int = 4096


# The key group of each top-level scalar field; a nested section's keys are
# grouped under the section's field name.
_TOP_LEVEL_GROUPS = {
    "grid": ("nx", "ny", "nz", "lx", "ly", "lz"),
    "physics": ("beta", "F", "nu"),
    "limits": ("max_particles",),
}


# the value kind of each field annotation; "floats" is a comma list
_VALUE_KINDS = {
    "int": "int", "float": "float", "bool": "bool", "str": "str",
    "tuple[float, ...]": "floats",
}


def _build_schema() -> dict[str, tuple[str, str]]:
    """key -> (attribute path from RunConfig, value kind), in field order."""
    group_of = {name: group for group, names in _TOP_LEVEL_GROUPS.items() for name in names}
    schema = {}
    for f in fields(RunConfig):
        if f.name in group_of:
            schema[f"{group_of[f.name]}.{f.name}"] = (f.name, _VALUE_KINDS[f.type])
            continue
        for sub in fields(f.default_factory):
            path = f"{f.name}.{sub.name}"
            schema[path] = (path, _VALUE_KINDS[sub.type])
    return schema


_SCHEMA = _build_schema()


def _parse_value(kind: str, raw: str, key: str, lineno: int):
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "bool":
            low = raw.lower()
            if low in ("true", "false"):
                return low == "true"
            raise ValueError("expected true or false")
        if kind == "floats":
            if raw == "":
                return ()
            return tuple(float(part.strip()) for part in raw.split(","))
        return raw
    except ValueError as exc:
        raise ConfigParseError(f"line {lineno}: bad value for {key!r}: {exc}") from None


def _owner(cfg: RunConfig, path: str):
    """The object that holds the attribute a schema path names, and its name."""
    *sections, name = path.split(".")
    obj = cfg
    for part in sections:
        obj = getattr(obj, part)
    return obj, name


def parse_config(text: str) -> RunConfig:
    """Parse config text, fill defaults, and validate every invariant."""
    cfg = RunConfig()
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigParseError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, raw = line.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in _SCHEMA:
            raise ConfigParseError(f"line {lineno}: unknown key {key!r}")
        path, kind = _SCHEMA[key]
        setattr(*_owner(cfg, path), _parse_value(kind, raw, key, lineno))
    validate_config(cfg)
    return cfg


def serialize_config(cfg: RunConfig) -> str:
    """Full key set in schema order; parse(serialize(c)) == c."""
    lines = []
    for key, (path, kind) in _SCHEMA.items():
        value = getattr(*_owner(cfg, path))
        if kind == "bool":
            text = "true" if value else "false"
        elif kind == "floats":
            text = ", ".join(repr(float(v)) for v in value)
        elif kind == "float":
            text = repr(float(value))
        else:
            text = str(value)
        lines.append(f"{key} = {text}")
    return "\n".join(lines) + "\n"


def config_digest(cfg: RunConfig) -> str:
    return hashlib.sha256(serialize_config(cfg).encode("ascii")).hexdigest()


def validate_config(cfg: RunConfig) -> None:
    def fail(message: str):
        raise ConfigValidationError(message)

    try:
        grid_spec(cfg)
    except ValueError as exc:
        fail(f"grid: {exc}")
    try:
        physics_params(cfg)
    except ValueError as exc:
        fail(f"physics: {exc}")
    if cfg.ic.kind not in IC_KINDS:
        fail(f"ic.kind must be one of {IC_KINDS}, got {cfg.ic.kind!r}")
    for key in ("ic.amplitude", "ic.slope", "ic.energy", "ic.width", "ic.center",
                "ic.profile", "lagrangian.z_levels"):
        value = getattr(*_owner(cfg, key))
        if not np.all(np.isfinite(value)):
            fail(f"{key}: must be finite, got {value!r}")
    for key, seed in (("ic.seed", cfg.ic.seed), ("lagrangian.seed", cfg.lagrangian.seed)):
        if seed < 0:  # numpy's generators take seeds >= 0
            fail(f"{key}: must be >= 0, got {seed}")
    if cfg.ic.kind == "gaussian_blob" and not cfg.ic.width > 0.0:
        fail("ic.width must be > 0")
    if cfg.ic.kind == "file" and not cfg.ic.path:
        fail("ic.kind = file needs ic.path")
    if len(cfg.ic.center) != 3:
        fail("ic.center needs exactly three components")
    try:
        step_control(cfg)
    except ValueError as exc:
        fail(f"time: {exc}")
    if not 0.0 < cfg.time.t_end < math.inf:
        fail(f"time: t_end must be finite and > 0, got {cfg.time.t_end}")
    out = cfg.output
    if not 0.0 < out.record_every < math.inf:
        fail(f"output: record_every must be finite and > 0, got {out.record_every}")
    if not all(0.0 <= every < math.inf for every in (out.snapshot_every, out.checkpoint_every)):
        fail("output: snapshot_every and checkpoint_every must be finite and >= 0")
    if not cfg.checks.tol_conservation > 0.0 or not cfg.checks.tol_growth > 0.0:
        fail("check tolerances must be > 0")
    if cfg.checks.sobolev_m < 1:
        fail("checks.sobolev_m must be >= 1")
    if cfg.max_particles < 1:
        fail("limits.max_particles must be >= 1")
    if cfg.lagrangian.particles < 0:
        fail("lagrangian.particles must be >= 0")
    if cfg.lagrangian.particles > cfg.max_particles:
        fail(
            f"lagrangian.particles = {cfg.lagrangian.particles} exceeds "
            f"limits.max_particles = {cfg.max_particles}"
        )
    if cfg.lagrangian.enabled and not cfg.lagrangian.z_levels:
        fail("lagrangian.z_levels must not be empty when the tracer is on")
    if cfg.lagrangian.sample_every < 1:
        fail("lagrangian.sample_every must be >= 1")


# ---- builders --------------------------------------------------------------

def grid_spec(cfg: RunConfig) -> GridSpec:
    return GridSpec(
        nx=cfg.nx, ny=cfg.ny, nz=cfg.nz,
        lx=cfg.lx, ly=cfg.ly, lz=cfg.lz,
    )


def physics_params(cfg: RunConfig) -> PhysicsParams:
    return PhysicsParams(beta=cfg.beta, nu=cfg.nu, F=cfg.F)


def step_control(cfg: RunConfig) -> StepControl:
    return StepControl(
        mode=cfg.time.mode,
        dt_fixed=cfg.time.dt,
        cfl_number=cfg.time.cfl_number,
        dt_min=cfg.time.dt_min,
        dt_max=cfg.time.dt_max,
    )


def build_initial_state(cfg: RunConfig) -> State:
    """Construct the starting state the config asks for."""
    grid = grid_spec(cfg)
    params = physics_params(cfg)
    ic = cfg.ic
    if ic.kind == "rossby":
        state, _ = make_rossby(grid, cfg.F, cfg.beta, ic.sx, ic.sy, ic.sz, ic.amplitude)
        return State(state.q_hat, 0.0, params)
    if ic.kind == "random_spectrum":
        band = None if ic.band_hi <= 0 else (ic.band_lo, ic.band_hi)
        return make_random(grid, ic.slope, ic.energy, ic.seed, band=band, params=params)
    if ic.kind == "gaussian_blob":
        return make_blob(grid, tuple(ic.center), ic.width, ic.amplitude, params=params)
    if ic.kind == "zonal":
        profile = ic.profile
        if not profile:
            # default jet: one cosine across the box
            profile = tuple(
                ic.amplitude * math.cos(_TWO_PI * j / cfg.ny) for j in range(cfg.ny)
            )
        return make_zonal(grid, profile, params=params)
    if ic.kind == "file":
        from .snapshots import read_snapshot

        return adopt_state(cfg, read_snapshot(ic.path), "snapshot")
    raise ConfigValidationError(f"unhandled ic.kind {ic.kind!r}")


def adopt_state(cfg: RunConfig, state: State, source: str) -> State:
    """``state`` (read from ``source``) under the config's physics; its grid and F must match."""
    grid = grid_spec(cfg)
    if state.grid != grid:
        raise ConfigValidationError(f"{source} grid {state.grid} != configured grid {grid}")
    if state.params.F != cfg.F:
        raise ConfigValidationError(f"{source} F = {state.params.F!r} != configured F = {cfg.F!r}")
    return State(state.q_hat, state.t, physics_params(cfg))


def build_particle_sets(cfg: RunConfig, grid: GridSpec) -> list[ParticleSet]:
    """Uniformly seeded particles, split evenly across the z-levels; the
    first ``particles % len(z_levels)`` levels take one particle more."""
    levels = cfg.lagrangian.z_levels
    per_level, extra = divmod(cfg.lagrangian.particles, len(levels)) if levels else (0, 0)
    rng = np.random.default_rng(cfg.lagrangian.seed)
    sets = []
    for i, z in enumerate(levels):
        size = per_level + (i < extra)
        xy = np.column_stack(
            (
                rng.uniform(0.0, grid.lx, size=size),
                rng.uniform(0.0, grid.ly, size=size),
            )
        )
        sets.append(ParticleSet.at_rest(grid, xy, z))
    return sets
