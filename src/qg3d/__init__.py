"""Pseudo-spectral solver for stratified quasi-geostrophic flow on a
periodic box, with invariant checks and Lagrangian cross-validation."""

__version__ = "0.1.0"

from .config import RunConfig, parse_config, serialize_config
from .diagnostics import (
    CheckResult,
    DiagnosticsRecord,
    check_conservation,
    check_growth_bounds,
    check_lp_interpolation,
    monitor_ratios,
    record,
)
from .dynamics import NO_FORCING, Forcing, PhysicsParams
from .errors import (
    ConfigError,
    EmptyBandError,
    GridMismatchError,
    InsufficientHistoryError,
    NonFiniteError,
    NonZeroMeanError,
    QGError,
    SnapshotFormatError,
    ZeroModeError,
)
from .grid import GridSpec
from .initial import (
    make_blob,
    make_mms,
    make_random,
    make_rossby,
    make_zonal,
)
from .particles import (
    ParticleSet,
    TrajectoryTracer,
    advance_particles,
    duhamel_residual,
    evaluate_at_points,
    velocity_table,
)
from .snapshots import read_checkpoint, read_snapshot, write_checkpoint, write_snapshot
from .spectral import (
    SpectralField,
    inner_product,
    l2_norm,
    sobolev_norm,
    solve_stratified_poisson,
)
from .stepping import Observer, State, StepControl, cfl_dt, rk4_step, run

__all__ = [
    "CheckResult",
    "ConfigError",
    "DiagnosticsRecord",
    "EmptyBandError",
    "Forcing",
    "GridMismatchError",
    "GridSpec",
    "InsufficientHistoryError",
    "NO_FORCING",
    "NonFiniteError",
    "NonZeroMeanError",
    "Observer",
    "ParticleSet",
    "PhysicsParams",
    "QGError",
    "RunConfig",
    "SnapshotFormatError",
    "SpectralField",
    "State",
    "StepControl",
    "TrajectoryTracer",
    "ZeroModeError",
    "advance_particles",
    "cfl_dt",
    "check_conservation",
    "check_growth_bounds",
    "check_lp_interpolation",
    "duhamel_residual",
    "evaluate_at_points",
    "inner_product",
    "l2_norm",
    "make_blob",
    "make_mms",
    "make_random",
    "make_rossby",
    "make_zonal",
    "monitor_ratios",
    "parse_config",
    "read_checkpoint",
    "read_snapshot",
    "record",
    "rk4_step",
    "run",
    "serialize_config",
    "sobolev_norm",
    "solve_stratified_poisson",
    "velocity_table",
    "write_checkpoint",
    "write_snapshot",
]
