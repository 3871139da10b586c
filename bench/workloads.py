"""The benchmark's workloads.

Each workload turns the seed into a config text, sets up through qg3d's own
config builders, and runs rounds.  A round is one timed segment to t_end,
records and output files included, followed by checks of its outputs that
do not trust qg3d's own numbers.  The program sees only the config text (or
the state built from it).
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import oracle


@dataclass
class Round:
    run_s: float
    steps: int
    attempted: int
    failed: int
    problems: list[str] = field(default_factory=list)  # checks that failed
    errors: list[str] = field(default_factory=list)  # why operations failed


class StepLog:
    """Logs the dt of every accepted step while installed.

    ``stepping.run`` is the only caller of ``rk4_step`` and looks it up in
    ``qg3d.stepping``, so wrapping that one name sees every step.
    """

    def __init__(self, stepping):
        self.stepping = stepping
        self.dts: list[float] = []

    def __enter__(self):
        original = self.original = self.stepping.rk4_step
        dts = self.dts

        def logged(state, dt, *args, **kwargs):
            dts.append(dt)
            return original(state, dt, *args, **kwargs)

        self.stepping.rk4_step = logged
        return self

    def __exit__(self, *exc):
        self.stepping.rk4_step = self.original


def _geometry(grid):
    return grid.shape, (grid.lz, grid.ly, grid.lx), grid.lx * grid.ly * grid.lz / np.prod(grid.shape)


def _relative(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


class Workload:
    """One set of inputs; subclasses give the config, the segment and the checks."""

    name = ""
    entry = "qg3d"  # the module a user of this workload imports
    operations = 1  # operations attempted per round
    # reference.Reference(grid, iterations, nominal_s): nominal_s is the
    # loop's median time on the machine of bench/README.md, "Steadiness"
    reference = ((64, 64, 64), 8, 0.242)

    def __init__(self, seed: int, workdir):
        self.seed = seed % 2**32
        self.workdir = workdir
        self.text = self.config_text()

    def config_text(self) -> str:
        raise NotImplementedError

    def setup(self, qg) -> None:
        """qg3d's set-up before the first step: parse the config, build the IC."""
        self.cfg = qg.config.parse_config(self.text)
        self.state = qg.config.build_initial_state(self.cfg)

    @property
    def dt_fixed(self) -> float | None:
        """The requested step of a fixed-step run; None under CFL control."""
        t = self.cfg.time
        return t.dt if t.mode == "fixed" else None

    def before_hooks(self) -> dict:
        """Checks to run ahead of traced calls, by span name."""
        return {}

    def run_round(self, qg, tracer=None) -> Round:
        out = self.workdir / "round"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        if tracer is not None:
            tracer.install()
        try:
            with StepLog(qg.stepping) as log:
                t0 = perf_counter()
                try:
                    result, errors = self.segment(qg, out)
                except Exception as exc:  # counted as a failed operation
                    return Round(perf_counter() - t0, len(log.dts), self.operations,
                                 self.operations, errors=[repr(exc)])
                run_s = perf_counter() - t0
        finally:
            if tracer is not None:
                tracer.restore()
        problems = [] if errors else self.check(qg, result, log.dts, out)
        return Round(run_s, len(log.dts), self.operations, len(errors), problems, errors)

    def segment(self, qg, out):
        """The timed work; returns (result for check, failed operations)."""
        raise NotImplementedError

    def check(self, qg, result, dts, out) -> list[str]:
        raise NotImplementedError


TURBULENCE_CONFIG = """\
grid.nx = 64
grid.ny = 64
grid.nz = 64
physics.beta = 1.0
physics.F = 1.0
physics.nu = 0.0
ic.kind = random_spectrum
ic.seed = {seed}
ic.band_lo = 2
ic.band_hi = 8
ic.energy = 1.0
time.mode = fixed
time.dt = 1e-3
time.t_end = 0.02
output.record_every = 0.02
lagrangian.enabled = true
lagrangian.particles = 512
lagrangian.z_levels = 0.0, 3.141592653589793
lagrangian.seed = {seed}
"""


class Turbulence(Workload):
    """The acceptance reference config, shortened from t = 2 to t = 0.02.

    Driven like ``qg3d trace``: records and the particle tracer observe a
    fixed-step run, then the diagnostics, ratio and particle CSVs are written.
    """

    name = "turbulence-64"

    def config_text(self):
        return TURBULENCE_CONFIG.format(seed=self.seed)

    def setup(self, qg):
        super().setup(qg)
        self.sets = qg.config.build_particle_sets(self.cfg, self.state.grid)

    def segment(self, qg, out):
        cfg, state = self.cfg, self.state
        m = cfg.checks.sobolev_m
        history = []
        tracer = qg.particles.TrajectoryTracer(
            self.sets, state.q_hat, beta=cfg.beta, sample_every=cfg.lagrangian.sample_every)
        observers = [
            qg.stepping.Observer(lambda s: history.append(qg.diagnostics.record(s, m)),
                                 every=cfg.output.record_every),
            qg.stepping.Observer(tracer),
        ]
        final = qg.stepping.run(state, cfg.time.t_end, qg.config.step_control(cfg),
                                observers=observers)
        tracer.finalize()
        qg.diagnostics.write_diagnostics_csv(out / "diagnostics.csv", history)
        qg.diagnostics.write_ratios_csv(out / "ratios.csv", qg.diagnostics.monitor_ratios(history))
        qg.particles.write_trajectories_csv(out / "particles.csv", tracer.samples)
        return (final, history, tracer), []

    def check(self, qg, result, dts, out):
        final, history, tracer = result
        cfg, grid = self.cfg, self.state.grid
        shape, lengths, dv = _geometry(grid)
        problems = []
        if final.t != cfg.time.t_end:
            problems.append(f"final t {final.t!r} != t_end {cfg.time.t_end!r}")
        if len(dts) != round(cfg.time.t_end / cfg.time.dt):
            problems.append(f"{len(dts)} steps, expected {round(cfg.time.t_end / cfg.time.dt)}")
        norms = []
        for coeffs in (self.state.q_hat.coeffs, final.q_hat.coeffs):
            v = oracle.velocity(coeffs, shape, lengths, cfg.F)
            norms.append((oracle.lp(oracle.samples(coeffs, shape), dv, 2),
                          float(np.sqrt(sum(np.sum(c * c) for c in v) * dv))))
        for i, name in enumerate(("q_l2", "v_l2")):
            drift = _relative(norms[1][i], norms[0][i])
            if not drift <= 1e-6:
                problems.append(f"{name} drift {drift:.3e} > 1e-6")
        for r in qg.diagnostics.check_growth_bounds(history, cfg.checks.tol_growth):
            if not r.passed:
                problems.append(f"{r.name}: {r.bound_lhs:.6e} > {r.bound_rhs:.6e}")
        residual = tracer.max_residual()
        if not residual <= 1e-5:
            problems.append(f"max Duhamel residual {residual:.3e} > 1e-5")
        return problems


# checks.growth is off: the CLI's q_linf growth check compares grid maxima
# and fails on some seeds of this under-resolved 32^3 input while L2 is
# conserved to 1e-7 (see CHANGES.md); the other CLI checks stay on.
CLI_CONFIG = """\
grid.nx = 32
grid.ny = 32
grid.nz = 32
physics.beta = 1.0
physics.F = 1.0
physics.nu = 0.0
ic.kind = random_spectrum
ic.seed = {seed}
ic.band_lo = 2
ic.band_hi = 8
ic.energy = 100.0
time.mode = cfl
time.cfl_number = 0.25
time.dt_max = 0.05
time.t_end = 1.0
output.record_every = 0.05
output.snapshot_every = 0.25
output.checkpoint_every = 0.25
checks.growth = false
"""
# snapshot_00002 holds t = 0.5, half way to t_end
RESTART_FROM = "snapshot_00002.qg3d"


class CliRestart(Workload):
    """``qg3d run`` in-process under CFL control, then ``qg3d run --restart``
    from the mid-run snapshot into a fresh directory (a restart into the same
    directory overwrites the earlier snapshots; see CHANGES.md)."""

    name = "cli-restart-32"
    entry = "qg3d.cli"
    operations = 2
    reference = ((32, 32, 32), 100, 0.246)

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.config_path = workdir / "run.cfg"
        self.config_path.write_text(self.text, encoding="ascii")
        self.before_hooks()

    def config_text(self):
        return CLI_CONFIG.format(seed=self.seed)

    def before_hooks(self):
        self.steps_checked = 0
        self.steps_cut = 0
        self.cfl_violations: list[str] = []
        return {"stepping.rk4_step": self.check_step}

    def check_step(self, state, dt, *rest):
        """dt <= min(cfl * min(dx/max|v1|, dy/max|v2|), dt_max), from the
        pre-step coefficients with numpy.fft."""
        g, t = state.grid, self.cfg.time
        bound = oracle.cfl_bound(state.q_hat.coeffs, g.shape, (g.lz, g.ly, g.lx),
                                 state.params.F, t.cfl_number, t.dt_max)
        self.steps_checked += 1
        if dt < bound * (1.0 - 1e-9):
            self.steps_cut += 1  # shortened to land on an event time
        elif not dt <= bound * (1.0 + 1e-9):
            self.cfl_violations.append(f"t = {state.t:.6g}: dt {dt:.6e} > bound {bound:.6e}")

    @staticmethod
    def _main(qg, argv, out_dir):
        saved = os.environ.get("QG3D_OUTPUT_DIR")
        os.environ["QG3D_OUTPUT_DIR"] = str(out_dir)
        stderr = io.StringIO()
        try:
            with contextlib.redirect_stderr(stderr):
                rc = qg.cli.main(argv)
        finally:
            if saved is None:
                del os.environ["QG3D_OUTPUT_DIR"]
            else:
                os.environ["QG3D_OUTPUT_DIR"] = saved
        return rc, stderr.getvalue()

    def segment(self, qg, out):
        direct, restart = out / "direct", out / "restart"
        commands = [
            (["run", str(self.config_path)], direct),
            (["run", str(self.config_path), "--restart", str(direct / RESTART_FROM)], restart),
        ]
        errors = []
        for argv, out_dir in commands:
            rc, log = self._main(qg, argv, out_dir)
            if rc != 0:
                errors.append(f"qg3d {' '.join(argv)} exited {rc}: {log.strip()[-300:]}")
        return (direct, restart), errors

    def check(self, qg, result, dts, out):
        direct, restart = result
        t = self.cfg.time
        problems = []
        finals = []
        for d in (direct, restart):
            header, q = oracle.read_snapshot_file(d / "final.qg3d")
            finals.append(q)
            grid = (header["nx"], header["ny"], header["nz"])
            if header["t"] != t.t_end or grid != (self.cfg.nx, self.cfg.ny, self.cfg.nz):
                problems.append(f"{d.name}/final.qg3d: t {header['t']!r}, grid "
                                f"{header['nx']}x{header['ny']}x{header['nz']}")
            if not np.all(np.isfinite(q)):
                problems.append(f"{d.name}/final.qg3d: non-finite samples")
        rel = float(np.linalg.norm(finals[1] - finals[0]) / np.linalg.norm(finals[0]))
        if not rel <= 1e-12:
            problems.append(f"restarted vs direct relative L2 difference {rel:.3e} > 1e-12")

        snaps = sorted(direct.glob("snapshot_*.qg3d"))
        times = [oracle.read_snapshot_file(p)[0]["t"] for p in snaps]
        every = self.cfg.output.snapshot_every
        if not oracle.on_multiples(times, every, 0.0, t.t_end):
            problems.append(f"snapshots at t = {times}, expected every {every} to {t.t_end}")
        if not (direct / "checkpoint.qg3d").is_file():
            problems.append("no checkpoint.qg3d written")

        original = direct / RESTART_FROM
        copy = out / "roundtrip.qg3d"
        qg.snapshots.write_snapshot(qg.snapshots.read_snapshot(original), copy)
        if copy.read_bytes() != original.read_bytes():
            problems.append(f"write -> read -> write of {RESTART_FROM} is not byte-identical")

        every = self.cfg.output.record_every
        t_restart = oracle.read_snapshot_file(original)[0]["t"]
        for d, t_first in ((direct, 0.0), (restart, t_restart)):
            rows = oracle.csv_times(d / "diagnostics.csv")
            if not oracle.on_multiples(rows, every, t_first, t.t_end):
                problems.append(f"{d.name}/diagnostics.csv rows not at multiples of {every}")

        if not max(dts) < t.dt_max:
            problems.append(f"CFL never bound: largest dt {max(dts):.3e} = dt_max")
        if self.steps_checked:
            if self.steps_checked != len(dts):
                problems.append(f"CFL bound checked on {self.steps_checked} of {len(dts)} steps")
            if not self.steps_cut:
                problems.append("no step was cut to land on an event time")
            problems.extend(self.cfl_violations)
        return problems


WORKLOADS = {w.name: w for w in (Turbulence, CliRestart)}
