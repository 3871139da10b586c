"""Command-line front end: run, verify, converge, plot, info.

``run`` and ``verify`` share one run path; with ``lagrangian.enabled`` it
also runs the particle tracer and writes ``particles.csv``.

All human-readable output goes to standard error; files are the only data
channel.  Exit codes: 0 success, 1 input/environment failure, 2 blow-up
(non-finite state; the last event checkpoint, if one was written, is kept),
3 a verification check failed, 64 usage errors.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import (
    RunConfig,
    adopt_state,
    build_initial_state,
    build_particle_sets,
    config_digest,
    grid_spec,
    parse_config,
    physics_params,
    step_control,
)
from .diagnostics import (
    CSV_COLUMNS,
    RATIOS_HEADER,
    SPATIAL_FLOOR_TOL,
    TEMPORAL_DTS,
    TEMPORAL_RATIO_RANGE,
    CheckResult,
    check_conservation,
    check_growth_bounds,
    check_lp_interpolation,
    monitor_ratios,
    neutrality_checks,
    record,
    spatial_floor_errors,
    temporal_order_errors,
    write_diagnostics_csv,
    write_ratios_csv,
)
from .errors import ConfigError, NonFiniteError, QGError
from .particles import TrajectoryTracer, write_trajectories_csv
from .snapshots import read_checkpoint, read_snapshot, write_checkpoint, write_snapshot
from .stepping import Observer, State, run
from .svgplot import render_line_plot

_USAGE_EXIT = 64


def _eprint(*args) -> None:
    print(*args, file=sys.stderr)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(_USAGE_EXIT, f"{self.prog}: error: {message}\n")


def _seed(text: str) -> int:
    """A ``--seed`` value: an integer >= 0, as numpy's generators need."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return int(text)


def _build_parser() -> _Parser:
    parser = _Parser(prog="qg3d", description=__doc__)
    parser.add_argument("--version", action="version", version=f"qg3d {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate and emit diagnostics")
    p_run.add_argument("config")
    p_run.add_argument("--seed", type=_seed, default=None, help="override ic.seed")
    p_run.add_argument("--restart", default=None, help="checkpoint to resume from")

    p_verify = sub.add_parser("verify", help="run the invariant suite")
    p_verify.add_argument("config")
    p_verify.add_argument("--seed", type=_seed, default=None)

    p_conv = sub.add_parser("converge", help="temporal/spatial refinement study")
    p_conv.add_argument("config")

    p_plot = sub.add_parser("plot", help="render diagnostics CSV to SVG")
    p_plot.add_argument("csv")
    p_plot.add_argument("out")
    p_plot.add_argument(
        "--columns", default=None, help="comma-separated column names (default: all)"
    )

    p_info = sub.add_parser("info", help="print snapshot header and norms")
    p_info.add_argument("snapshot")
    return parser


def _load_config(path: str, seed=None) -> RunConfig:
    text = Path(path).read_text(encoding="utf-8")
    cfg = parse_config(text)
    if seed is not None:
        cfg.ic.seed = seed
        cfg.lagrangian.seed = seed
    return cfg


def _output_dir(cfg: RunConfig) -> Path:
    out = Path(os.environ.get("QG3D_OUTPUT_DIR") or cfg.output.directory)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _print_check_table(results: list[CheckResult]) -> None:
    name_w = max((len(r.name) for r in results), default=4)
    _eprint(f"{'check':<{name_w}}  {'lhs':>13} {'rhs':>13} {'slack':>13}  status")
    for r in results:
        _eprint(
            f"{r.name:<{name_w}}  {r.bound_lhs:13.6e} {r.bound_rhs:13.6e} "
            f"{r.slack:13.6e}  {'PASS' if r.passed else 'FAIL'}"
        )


def _evaluate_checks(cfg: RunConfig, history) -> list[CheckResult]:
    results: list[CheckResult] = []
    inviscid = cfg.nu == 0.0
    if cfg.checks.conservation and inviscid:
        results += check_conservation(history, cfg.checks.tol_conservation)
    if cfg.checks.growth and inviscid and len(history) >= 2:
        results += check_growth_bounds(history, cfg.checks.tol_growth)
    if cfg.checks.interpolation:
        results.append(check_lp_interpolation(history))
    if not inviscid and (cfg.checks.conservation or cfg.checks.growth):
        _eprint("note: conservation/growth checks skipped (viscous run)")
    return results


def _simulate(cfg: RunConfig, state: State, out: Path) -> tuple[State, list] | None:
    """The run loop of ``run`` and ``verify``: records, snapshots,
    checkpoints and, with ``lagrangian.enabled``, the particle tracer, then
    the output files.

    One rule for every start time t0 = ``state.t``: the snapshot at
    t = k * output.snapshot_every is ``snapshot_{k:05d}``, k = round(t /
    every), and the start state is numbered only when t0 == k * every
    exactly (an off-grid start is the run's input).  ``checkpoint.qg3d``
    holds the state at each k * output.checkpoint_every between t0 and
    t_end, and then the final state.  At t0 > 0 the rows of existing CSVs
    with t < t0 are read before the first step, from files whose header is
    this run's, and written ahead of this run's.  The tracer's particles
    start at rest at t0.
    Returns the final state and the records, or None after a blow-up, when
    only the partial CSVs are written.
    """
    t0, t_end = state.t, cfg.time.t_end
    earlier = {}
    for name, header in (("diagnostics.csv", CSV_COLUMNS), ("ratios.csv", RATIOS_HEADER)):
        if t0 > 0.0 and (out / name).is_file():
            found, rows = _read_csv(out / name)
            if tuple(found) != header:
                raise QGError(f"{out / name}: header is not {','.join(header)}")
            earlier[name] = [row for row in rows if row[0] < t0]
    history = []
    m = cfg.checks.sobolev_m
    observers = [
        Observer(lambda s: history.append(record(s, m)), every=cfg.output.record_every)
    ]
    every = cfg.output.snapshot_every
    if every > 0.0:
        def write_numbered_snapshot(s: State) -> None:
            k = round(s.t / every)
            if s.t != t0 or k * every == t0:
                write_snapshot(s, out / f"snapshot_{k:05d}.qg3d")

        observers.append(Observer(write_numbered_snapshot, every=every))
    checkpoint, digest = out / "checkpoint.qg3d", config_digest(cfg)
    checkpointed = []
    if cfg.output.checkpoint_every > 0.0:
        def write_event_checkpoint(s: State) -> None:
            if t0 < s.t < t_end:
                write_checkpoint(s, checkpoint, digest)
                checkpointed.append(s.t)

        observers.append(Observer(write_event_checkpoint, every=cfg.output.checkpoint_every))
    tracer = None
    if cfg.lagrangian.enabled:
        sets = build_particle_sets(cfg, state.grid)
        tracer = TrajectoryTracer(
            sets, state.q_hat, beta=cfg.beta, sample_every=cfg.lagrangian.sample_every
        )
        observers.append(Observer(tracer))

    try:
        final = run(state, t_end, step_control(cfg), observers=observers)
    except NonFiniteError as exc:
        kept = "last good checkpoint retained" if checkpointed else "no checkpoint written"
        _eprint(f"blow-up: {exc} ({kept})")
        final = None
    if history:
        write_diagnostics_csv(out / "diagnostics.csv", history,
                              earlier=earlier.get("diagnostics.csv", ()))
        write_ratios_csv(out / "ratios.csv", monitor_ratios(history),
                         earlier=earlier.get("ratios.csv", ()))
    if final is None:
        return None
    write_snapshot(final, out / "final.qg3d")
    write_checkpoint(final, checkpoint, digest)
    if tracer is not None:
        tracer.finalize()
        write_trajectories_csv(out / "particles.csv", tracer.samples)
        _eprint(f"traced {cfg.lagrangian.particles} particles to t = {final.t:.6g}")
        _eprint(f"max |duhamel residual| = {tracer.max_residual():.6e}")
    return final, history


def _check_exit(results: list[CheckResult]) -> int:
    """Print the check table, if there are checks; 3 if any failed, else 0."""
    if results:
        _print_check_table(results)
    return 0 if all(r.passed for r in results) else 3


def _cmd_run(args) -> int:
    cfg = _load_config(args.config, args.seed)
    if args.restart:
        state, meta = read_checkpoint(args.restart)
        if meta.get("config_sha256") not in (None, config_digest(cfg)):
            _eprint("warning: checkpoint was produced under a different config")
        state = adopt_state(cfg, state, "checkpoint")
        _eprint(f"restarting from t = {state.t:.6g}")
    else:
        state = build_initial_state(cfg)
    # made only once the start state stands, so a bad one leaves no directory
    out = _output_dir(cfg)
    outcome = _simulate(cfg, state, out)
    if outcome is None:
        return 2
    final, history = outcome
    _eprint(f"run complete: t = {final.t:.6g}, {len(history)} records -> {out}")
    return _check_exit(_evaluate_checks(cfg, history))


def _cmd_verify(args) -> int:
    cfg = _load_config(args.config, args.seed)
    state = build_initial_state(cfg)
    out = _output_dir(cfg)
    results = neutrality_checks(grid_spec(cfg), physics_params(cfg), range(10))
    outcome = _simulate(cfg, state, out)
    if outcome is None:
        return 2
    return _check_exit(results + _evaluate_checks(cfg, outcome[1]))


def _cmd_converge(args) -> int:
    cfg = _load_config(args.config)
    errors = temporal_order_errors()
    ratios = [errors[i] / errors[i + 1] for i in range(len(errors) - 1)]
    _eprint("temporal refinement (wave frequency 8, t = 1):")
    for dt, err in zip(TEMPORAL_DTS, errors):
        _eprint(f"  dt = {dt:.0e}  max error = {err:.6e}")
    for i, ratio in enumerate(ratios):
        _eprint(f"  level {i}: error ratio {ratio:.2f}, observed order {math.log2(ratio):.3f}")
    sizes = (4, 8, 16, 32)
    rows = list(zip(sizes, spatial_floor_errors(cfg.F, sizes)))
    _eprint("spatial refinement (mode (m, m, m), m = max(1, n // 4), t = 0.25):")
    for n, err in rows:
        _eprint(f"  n = {n:3d}  max error = {err:.6e}")
    lo, hi = TEMPORAL_RATIO_RANGE
    ratios_ok = all(lo <= r <= hi for r in ratios)
    spatial_ok = all(err <= SPATIAL_FLOOR_TOL for n, err in rows if n >= 8)
    _eprint(f"temporal error ratios in [{lo:g}, {hi:g}]: {'yes' if ratios_ok else 'NO'}")
    _eprint(f"spatial floor <= {SPATIAL_FLOOR_TOL:g} for n >= 8: {'yes' if spatial_ok else 'NO'}")
    return 0 if (ratios_ok and spatial_ok) else 3


def _read_csv(path) -> tuple[list[str], np.ndarray]:
    """Header and rows of a CSV of numbers; QGError names a file that is
    empty, not ASCII, not numbers, ragged or without rows."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            lines = [line.strip() for line in fh if line.strip()]
        rows = [[float(cell) for cell in line.split(",")] for line in lines[1:]]
    except ValueError as exc:
        raise QGError(f"{path}: {exc}") from None
    if not lines:
        raise QGError(f"{path}: empty CSV")
    header = [name.strip() for name in lines[0].split(",")]
    if not rows:
        raise QGError(f"{path}: no data rows")
    if any(len(row) != len(header) for row in rows):
        raise QGError(f"{path}: ragged CSV")
    return header, np.array(rows, dtype=float)


def _cmd_plot(args) -> int:
    header, data = _read_csv(args.csv)
    x_name = header[0]
    if args.columns is None:
        selected = header[1:]
    else:
        selected = [c.strip() for c in args.columns.split(",") if c.strip()]
    for name in selected:
        if name not in header:
            _eprint(f"qg3d plot: error: column {name!r} not in {header}")
            return _USAGE_EXIT
    xs = data[:, 0]
    series = [
        (name, xs.tolist(), data[:, header.index(name)].tolist()) for name in selected
    ]
    svg = render_line_plot(series, title=Path(args.csv).name, xlabel=x_name)
    Path(args.out).write_text(svg, encoding="ascii")
    _eprint(f"wrote {args.out} ({len(selected)} series)")
    return 0


def _cmd_info(args) -> int:
    state = read_snapshot(args.snapshot)
    grid = state.grid
    p = state.params
    _eprint(f"snapshot:  {args.snapshot}")
    _eprint(f"grid:      {grid.nx} x {grid.ny} x {grid.nz}")
    _eprint(f"box:       {grid.lx:.6g} x {grid.ly:.6g} x {grid.lz:.6g}")
    _eprint(f"F = {p.F:.6g}  beta = {p.beta:.6g}  nu = {p.nu:.6g}  t = {state.t:.6g}")
    norms = record(state)
    _eprint(f"||q||_L2 = {norms.q_l2:.9e}")
    _eprint(f"||q||_Linf = {norms.q_linf:.9e}")
    _eprint(f"||v||_L2 = {norms.v_l2:.9e}")
    return 0


_HANDLERS = {
    "run": _cmd_run,
    "verify": _cmd_verify,
    "converge": _cmd_converge,
    "plot": _cmd_plot,
    "info": _cmd_info,
}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    handler = _HANDLERS[args.command]
    try:
        return handler(args)
    except (FileNotFoundError, QGError, ValueError) as exc:
        label = "config error" if isinstance(exc, ConfigError) else "error"
        _eprint(f"qg3d {args.command}: {label}: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
