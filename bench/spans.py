"""Spans around the public functions of qg3d's layers, recorded from outside.

Each layer function is imported by its callers with ``from .spectral import
inv`` and the like, so a wrapper has to replace the name in every module that
looks it up (``qg3d.dynamics.inv``, ``qg3d.stepping.inv``, ...).
``Tracer.install`` finds those modules by identity and ``Tracer.restore``
puts every original back.  Spans stay in memory, with parent links, until
``Tracer.dump`` writes them out.
"""

from __future__ import annotations

import json
import os
import sys
from time import perf_counter

# span name -> (module that defines the function, attribute name)
LAYER_FUNCTIONS = {
    "spectral.fwd": ("qg3d.spectral", "fwd"),
    "spectral.inv": ("qg3d.spectral", "inv"),
    "spectral.poisson": ("qg3d.spectral", "solve_stratified_poisson"),
    "dynamics.jacobian": ("qg3d.dynamics", "jacobian_raw"),
    "dynamics.tendency": ("qg3d.dynamics", "tendency_raw"),
    "stepping.rk4_step": ("qg3d.stepping", "rk4_step"),
    "stepping.cfl_dt": ("qg3d.stepping", "cfl_dt"),
    "stepping.run": ("qg3d.stepping", "run"),
    "diagnostics.record": ("qg3d.diagnostics", "record"),
    "diagnostics.write_diagnostics_csv": ("qg3d.diagnostics", "write_diagnostics_csv"),
    "diagnostics.write_ratios_csv": ("qg3d.diagnostics", "write_ratios_csv"),
    "particles.evaluate": ("qg3d.particles", "evaluate_at_points"),
    "snapshots.write_snapshot": ("qg3d.snapshots", "write_snapshot"),
    "snapshots.write_checkpoint": ("qg3d.snapshots", "write_checkpoint"),
    "snapshots.read_snapshot": ("qg3d.snapshots", "read_snapshot"),
    "snapshots.read_checkpoint": ("qg3d.snapshots", "read_checkpoint"),
    "config.parse": ("qg3d.config", "parse_config"),
    "initial.build_state": ("qg3d.config", "build_initial_state"),
    "initial.build_particles": ("qg3d.config", "build_particle_sets"),
    "cli.main": ("qg3d.cli", "main"),
}
# The tracer is a callable observer, so its span wraps the class's __call__.
TRACER_SPAN = "particles.tracer"


def _fft_bytes(args, result):
    return args[1].nbytes + result.nbytes


def _step(args, result):
    return (args[0].t, args[1])


def _written_bytes(args, result):
    return os.path.getsize(args[1])


def _checkpoint_bytes(args, result):
    return os.path.getsize(args[1]) + os.path.getsize(str(args[1]) + ".meta.json")


# What a span keeps besides its times: computed from the arguments and the
# result after the span has closed, so it costs the span nothing.
EXTRAS = {
    "spectral.fwd": _fft_bytes,
    "spectral.inv": _fft_bytes,
    "stepping.rk4_step": _step,
    "stepping.cfl_dt": lambda args, result: result,
    "snapshots.write_snapshot": _written_bytes,
    "snapshots.write_checkpoint": _checkpoint_bytes,
}


class Tracer:
    """Records one span per call of each wrapped function.

    A span is ``[name, parent index, start, end, extra]``; the parent is the
    innermost span open when the call began (-1 for none).  ``before`` maps a
    span name to a check run ahead of each such call; the check gets a span
    of its own, ``bench.check``, so its time counts against no layer.
    """

    def __init__(self, before=None):
        self.spans: list[list] = []
        self.before = dict(before or {})
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        extra = EXTRAS.get(name)
        check = self.before.get(name)

        def wrapper(*args, **kwargs):
            if check is not None:
                rec = ["bench.check", stack[-1] if stack else -1, perf_counter(), 0.0, None]
                spans.append(rec)
                check(*args)
                rec[3] = perf_counter()
            rec = [name, stack[-1] if stack else -1, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = perf_counter()
                stack.pop()
            if extra is not None:
                rec[4] = extra(args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every layer function at every qg3d module that holds it."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "qg3d" or n.startswith("qg3d."))]
        for name, (home, attr) in LAYER_FUNCTIONS.items():
            if home not in sys.modules:
                continue  # e.g. qg3d.cli on a workload that never imports it
            original = getattr(sys.modules[home], attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, key, original))
                        setattr(module, key, wrapper)
        cls = sys.modules["qg3d.particles"].TrajectoryTracer
        original = cls.__dict__["__call__"]
        self._patched.append((cls, "__call__", original))
        cls.__call__ = self._wrap(TRACER_SPAN, original)

    def restore(self) -> None:
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)

    def unrestored(self) -> list[str]:
        """Names that do not hold their original function any more."""
        return [f"{getattr(o, '__name__', o)}.{k}" for o, k, f in self._patched
                if (o.__dict__[k] if isinstance(o, type) else getattr(o, k)) is not f]

    def dump(self, path) -> None:
        t0 = self.spans[0][2] if self.spans else 0.0
        rows = [[s[0], s[1], s[2] - t0, s[3] - t0] for s in self.spans]
        with open(path, "w", encoding="ascii") as fh:
            json.dump({"columns": ["name", "parent", "start_s", "end_s"], "spans": rows}, fh)


def _has_ancestor(spans, i, names) -> bool:
    p = spans[i][1]
    while p >= 0:
        if spans[p][0] in names:
            return True
        p = spans[p][1]
    return False


def layer_metrics(spans, dt_fixed=None) -> dict[str, float]:
    """Per-layer figures from one traced run.

    A self time is a span's duration minus the time its child spans cover.
    ``dt_fixed`` is the requested step of a fixed-step run (None under CFL
    control, where the request is the preceding ``cfl_dt`` result); a step
    shorter than its request was truncated to land on an event time.
    """
    dur = [s[3] - s[2] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[1] >= 0:
            child[s[1]] += dur[i]
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    for i, s in enumerate(spans):
        calls[s[0]] = calls.get(s[0], 0) + 1
        total[s[0]] = total.get(s[0], 0.0) + dur[i]
        self_s[s[0]] = self_s.get(s[0], 0.0) + dur[i] - child[i]

    def outermost(names):
        idx = [i for i, s in enumerate(spans) if s[0] in names
               and not _has_ancestor(spans, i, names)]
        return idx, sum((dur[i] for i in idx), 0.0)

    dts, truncated, requested = [], 0, dt_fixed
    for s in spans:
        if s[0] == "stepping.cfl_dt":
            requested = s[4]
        elif s[0] == "stepping.rk4_step":
            dt = s[4][1]
            dts.append(dt)
            if requested is not None and dt < requested * (1.0 - 1e-9):
                truncated += 1

    writes, write_s = outermost({"snapshots.write_snapshot", "snapshots.write_checkpoint"})
    reads, read_s = outermost({"snapshots.read_snapshot", "snapshots.read_checkpoint"})
    _, build_s = outermost({"initial.build_state", "initial.build_particles"})
    cli_overhead = total.get("cli.main", 0.0) - sum(
        dur[i] for i, s in enumerate(spans)
        if s[0] == "stepping.run" and _has_ancestor(spans, i, {"cli.main"}))

    def c(name):
        return calls.get(name, 0)

    def t(table, name):
        return table.get(name, 0.0)

    return {
        "spectral.inv.calls": c("spectral.inv"),
        "spectral.inv.self_s": t(self_s, "spectral.inv"),
        "spectral.fwd.calls": c("spectral.fwd"),
        "spectral.fwd.self_s": t(self_s, "spectral.fwd"),
        "spectral.fft_bytes": sum(s[4] for s in spans if s[0] in ("spectral.fwd", "spectral.inv")),
        "spectral.poisson.calls": c("spectral.poisson"),
        "spectral.poisson.self_s": t(self_s, "spectral.poisson"),
        "dynamics.tendency.calls": c("dynamics.tendency"),
        "dynamics.tendency.self_s": t(self_s, "dynamics.tendency"),
        "dynamics.jacobian.calls": c("dynamics.jacobian"),
        "dynamics.jacobian.self_s": t(self_s, "dynamics.jacobian"),
        "stepping.rk4_step.calls": c("stepping.rk4_step"),
        "stepping.rk4_step.self_s": t(self_s, "stepping.rk4_step"),
        "stepping.run.self_s": t(self_s, "stepping.run"),
        "stepping.cfl_dt.calls": c("stepping.cfl_dt"),
        "stepping.cfl_dt.total_s": t(total, "stepping.cfl_dt"),
        "stepping.steps_truncated": truncated,
        "stepping.dt_min": min(dts, default=0.0),
        "stepping.dt_mean": sum(dts) / len(dts) if dts else 0.0,
        "stepping.dt_max": max(dts, default=0.0),
        "diagnostics.record.calls": c("diagnostics.record"),
        "diagnostics.record.total_s": t(total, "diagnostics.record"),
        "diagnostics.record.self_s": t(self_s, "diagnostics.record"),
        "diagnostics.csv_write_s": t(total, "diagnostics.write_diagnostics_csv")
        + t(total, "diagnostics.write_ratios_csv"),
        "particles.tracer.calls": c(TRACER_SPAN),
        "particles.tracer.total_s": t(total, TRACER_SPAN),
        "particles.evaluate.calls": c("particles.evaluate"),
        "particles.evaluate.self_s": t(self_s, "particles.evaluate"),
        "snapshots.write.calls": len(writes),
        "snapshots.write.s": write_s,
        "snapshots.write.bytes": sum(spans[i][4] for i in writes),
        "snapshots.read.calls": len(reads),
        "snapshots.read.s": read_s,
        "config.parse_s": t(total, "config.parse"),
        "initial.build_s": build_s,
        "cli.overhead_s": cli_overhead,
    }


def check_time(spans) -> float:
    """Seconds spent in the benchmark's own checks inside traced calls."""
    return sum(s[3] - s[2] for s in spans if s[0] == "bench.check")
