"""Tests of the benchmark itself; not part of the repository's test suite.

    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import qg3d.cli  # noqa: E402  (imports every module a workload drives)
import run as bench_run  # noqa: E402
from spans import LAYER_FUNCTIONS, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, CliRestart  # noqa: E402


def test_one_fixed_step_calls_each_layer_a_fixed_number_of_times():
    from qg3d.grid import GridSpec
    from qg3d.initial import make_random
    import qg3d.stepping as stepping

    state = make_random(GridSpec(8, 8, 8), -3.0, 1.0, seed=0, band=(1, 2))
    tracer = Tracer()
    tracer.install()
    try:
        stepping.rk4_step(state, 1e-3)
    finally:
        tracer.restore()
    m = layer_metrics(tracer.spans, dt_fixed=1e-3)
    assert m["stepping.rk4_step.calls"] == 1
    assert m["dynamics.tendency.calls"] == 4
    assert m["dynamics.jacobian.calls"] == 4
    assert m["spectral.inv.calls"] == 16
    assert m["spectral.fwd.calls"] == 4
    assert m["spectral.poisson.calls"] == 4
    assert m["spectral.fft_bytes"] == 20 * (8 * 8 * 8 * 8 + 8 * 8 * 5 * 16)


def test_self_time_subtracts_child_spans_and_short_steps_count_as_truncated():
    spans = [
        ["stepping.run", -1, 0.0, 10.0, None],
        ["stepping.rk4_step", 0, 1.0, 4.0, (0.0, 1e-3)],
        ["dynamics.tendency", 1, 1.5, 2.5, None],
        ["stepping.rk4_step", 0, 5.0, 6.0, (1e-3, 5e-4)],
    ]
    m = layer_metrics(spans, dt_fixed=1e-3)
    assert m["stepping.run.self_s"] == 6.0
    assert m["stepping.rk4_step.self_s"] == 3.0
    assert m["dynamics.tendency.self_s"] == 1.0
    assert m["stepping.steps_truncated"] == 1
    assert (m["stepping.dt_min"], m["stepping.dt_max"]) == (5e-4, 1e-3)


def _layer_functions():
    """Every (owner, name, object) a tracer may replace, as found now."""
    originals = {getattr(sys.modules[home], attr) for home, attr in LAYER_FUNCTIONS.values()}
    found = [(m, k, v) for n, m in list(sys.modules.items())
             if n == "qg3d" or n.startswith("qg3d.")
             for k, v in vars(m).items() if any(v is f for f in originals)]
    cls = qg3d.particles.TrajectoryTracer
    return found + [(cls, "__call__", cls.__dict__["__call__"])]


def test_traced_rounds_repeat_their_counts_and_restore_every_name(tmp_path):
    before = _layer_functions()
    assert len(before) > len(LAYER_FUNCTIONS)  # names are imported by several modules
    qg = bench_run._modules()
    counts = []
    for _ in range(2):
        workload = CliRestart(3, tmp_path)
        workload.setup(qg)
        tracer = Tracer(before=workload.before_hooks())
        traced = workload.run_round(qg, tracer)
        assert (traced.failed, traced.problems) == (0, [])
        assert tracer.unrestored() == []
        for owner, key, original in before:
            current = owner.__dict__[key] if isinstance(owner, type) else getattr(owner, key)
            assert current is original, f"{owner}.{key} still wrapped"
        m = layer_metrics(tracer.spans, workload.dt_fixed)
        assert m["stepping.steps_truncated"] > 0
        assert m["stepping.dt_max"] < workload.cfg.time.dt_max
        counts.append({k: v for k, v in m.items()
                       if bench_run._unit(k) in ("count", "bytes", "bytes_computed", "model_t")})
    assert counts[0] == counts[1]


def test_benchmark_json_names_what_the_benchmark_prints():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        "setup_s": "s", "run_s": "s", "steps_per_s": "1/s", "peak_rss_mib": "MiB"}
    printed = list(layer_metrics([])) + ["trace.overhead_s"]
    assert [m["name"] for m in spec["per_layer"]] == printed
    assert all(m["unit"] == bench_run._unit(m["name"]) for m in spec["per_layer"])
