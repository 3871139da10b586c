"""Benchmark of the qg3d solver: one workload per process.

Run from the repository root:

    python3 bench/run.py --workload turbulence-64 --seed 1 --seconds 30 --trace 0

With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
times every layer in one traced round and prints the per-layer metrics.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A fuller record, with the
machine facts, goes to ``bench/results/``; a traced run's spans go to
``bench/traces/``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_REPEATS = 15
# untraced rounds a traced run times first, to give the tracing overhead
TRACE_BASELINE_ROUNDS = 3


def _purge_qg3d() -> None:
    for name in [n for n in sys.modules if n == "qg3d" or n.startswith("qg3d.")]:
        del sys.modules[name]


def _modules() -> SimpleNamespace:
    names = ("config", "stepping", "diagnostics", "particles", "snapshots", "cli")
    return SimpleNamespace(**{n: sys.modules.get(f"qg3d.{n}") for n in names})


def timed_setup(workload):
    """One cold set-up: import qg3d afresh, parse the config, build the IC
    (and seed the particles).  numpy and scipy are already imported."""
    _purge_qg3d()
    gc.collect()  # the purged modules' garbage is not part of a fresh set-up
    t0 = perf_counter()
    importlib.import_module(workload.entry)
    qg = _modules()
    workload.setup(qg)
    return perf_counter() - t0, qg


def measure_rounds(workload, qg, seconds: float, reference):
    """Whole rounds until the next one would end after ``seconds``, with a
    pass of the reference loop before the first round and after each.
    Returns the rounds and the pass times."""
    rounds, refs = [], [reference.time()]
    start = perf_counter()
    while True:
        gc.collect()
        t0 = perf_counter()
        rounds.append(workload.run_round(qg))
        refs.append(reference.time())
        last = perf_counter() - t0
        if perf_counter() - start + last > seconds:
            return rounds, refs


def machine_facts() -> dict:
    def sysconf(name):
        try:
            return os.sysconf(name)
        except (ValueError, OSError):
            return None

    import numpy
    import scipy

    sha = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        sha = ref
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            sha = (ROOT / ".git" / ref[5:]).read_text().strip()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "QG3D_FFT_WORKERS": os.environ.get("QG3D_FFT_WORKERS"),
        "l2_bytes": sysconf("SC_LEVEL2_CACHE_SIZE"),
        "l3_bytes": sysconf("SC_LEVEL3_CACHE_SIZE"),
        "git_sha": sha,
    }


def _unit(name: str) -> str:
    if name.endswith(".calls") or name == "stepping.steps_truncated":
        return "count"
    if name == "spectral.fft_bytes":
        return "bytes_computed"
    if name.endswith(".bytes"):
        return "bytes"
    if name.startswith("stepping.dt_"):
        return "model_t"
    return "s"


def main(argv=None) -> int:
    from reference import Reference  # binds numpy.fft before qg3d is imported
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "qg3d" / "__init__.py").is_file():
        print(f"bench: no qg3d package under {SRC}", file=sys.stderr)
        return 2
    try:
        workers = int(os.environ.get("QG3D_FFT_WORKERS", "1"))
    except ValueError:
        workers = 1
    if workers > len(os.sched_getaffinity(0)):
        print(f"bench: QG3D_FFT_WORKERS = {workers} exceeds nproc", file=sys.stderr)
        return 2

    import scipy.fft  # noqa: F401  imported before set-up is timed, like numpy

    sys.path.insert(0, str(SRC))
    workdir = BENCH / "work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        result = measure(args, workload, Reference(*workload.reference))
    finally:
        shutil.rmtree(workdir)
    print(json.dumps(result))
    return 0


def measure(args, workload, reference) -> dict:
    """Set up, run the rounds, write the results file; returns the result."""
    setups = []
    for _ in range(SETUP_REPEATS):
        elapsed, qg = timed_setup(workload)
        setups.append(elapsed)

    refs = []
    if args.trace:
        rounds = [workload.run_round(qg) for _ in range(TRACE_BASELINE_ROUNDS)]
    else:
        rounds, refs = measure_rounds(workload, qg, args.seconds, reference)
    good = [r for r in rounds if not r.failed]
    run_s = statistics.median(r.run_s for r in good or rounds)  # wall time
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine_facts(), "setup_s": setups,
              "rounds": [vars(r) for r in rounds], "reference_s": refs}
    correct = all(not r.problems for r in rounds)

    if args.trace:
        from spans import Tracer, check_time, layer_metrics

        tracer = Tracer(before=workload.before_hooks())
        tracer.install()
        try:
            workload.setup(qg)
        finally:
            tracer.restore()
        traced = workload.run_round(qg, tracer)
        rounds.append(traced)
        record["traced_round"] = vars(traced)
        unrestored = tracer.unrestored()
        if unrestored:
            record["unrestored"] = unrestored
        correct = correct and not traced.problems and not unrestored
        values = layer_metrics(tracer.spans, workload.dt_fixed)
        values["trace.overhead_s"] = traced.run_s - run_s - check_time(tracer.spans)
        traces = BENCH / "traces"
        traces.mkdir(exist_ok=True)
        tracer.dump(traces / f"{args.workload}-seed{args.seed}.json")
        metrics = {k: {"value": v, "unit": _unit(k)} for k, v in values.items()}
    else:
        # the rounds' time at the machine speed of reference.nominal_s
        timed = good or rounds
        scaled_s = sum(r.run_s for r in timed) * reference.nominal_s / statistics.fmean(refs)
        record["wall_run_s"] = run_s
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "run_s": {"value": scaled_s / len(timed), "unit": "s"},
            "steps_per_s": {"value": sum(r.steps for r in timed) / scaled_s, "unit": "1/s"},
            "peak_rss_mib": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                             "unit": "MiB"},
        }

    result = {"correct": correct,
              "attempted": sum(r.attempted for r in rounds),
              "failed": sum(r.failed for r in rounds),
              "metrics": metrics}
    record["result"] = result
    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    with open(results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="ascii") as fh:
        json.dump(record, fh, indent=1)
    for r in rounds:
        for line in r.errors + r.problems:
            print(f"bench: {args.workload}: {line}", file=sys.stderr)
    return result


if __name__ == "__main__":
    sys.exit(main())
