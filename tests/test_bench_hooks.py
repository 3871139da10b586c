"""The benchmark under ``bench/`` reaches into qg3d by name: it wraps the
layer functions listed in ``bench/spans.py`` and ``TrajectoryTracer.__call__``.
These checks fail when a refactor removes a name the benchmark needs, or when
the program grows a setting that a config file or an argument cannot see."""

import ast
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np

import qg3d
from qg3d import cli, diagnostics, spectral, stepping
from qg3d.cli import main
from qg3d.config import build_particle_sets, parse_config
from qg3d.diagnostics import check_growth_bounds
from qg3d.grid import GridSpec
from qg3d.initial import make_random
from qg3d.particles import TrajectoryTracer
from qg3d.snapshots import read_snapshot

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "bench" / "spans.py"
WORKLOADS = ROOT / "bench" / "workloads.py"


def load_bench(path: Path):
    """A module under bench/, imported as the benchmark imports it: with
    bench/ on sys.path (workloads.py imports oracle) and no bytecode written
    there.  sys.path and sys.modules are restored afterwards."""
    saved_path, saved_modules = list(sys.path), dict(sys.modules)
    sys.path.insert(0, str(path.parent))
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec = importlib.util.spec_from_file_location(f"bench_{path.stem}", path)
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module  # dataclasses look their module up there
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
        sys.path[:] = saved_path
        for name in set(sys.modules) - set(saved_modules):
            del sys.modules[name]
    return module


def test_benchmark_config_texts_parse():
    # the attributes bench/workloads.py reads off the parsed config
    workloads = load_bench(WORKLOADS)
    for text in (workloads.TURBULENCE_CONFIG, workloads.CLI_CONFIG):
        cfg = parse_config(text.format(seed=7))
        assert cfg.ic.seed == 7
        for value in (
            cfg.nx, cfg.ny, cfg.nz, cfg.F, cfg.beta, cfg.time.dt, cfg.time.t_end,
            cfg.time.cfl_number, cfg.time.dt_max, cfg.output.record_every,
            cfg.output.snapshot_every, cfg.checks.tol_growth,
        ):
            assert isinstance(value, (int, float))
        assert cfg.time.mode in ("fixed", "cfl")
        assert cfg.checks.sobolev_m >= 1 and cfg.lagrangian.sample_every >= 1
    assert parse_config(workloads.TURBULENCE_CONFIG.format(seed=7)).lagrangian.enabled


def test_the_benchmark_restart_source_holds_t_half(tmp_path, monkeypatch, capsys):
    # cli-restart-32 restarts from RESTART_FROM and expects t = 0.5 there;
    # the same config at 8^3 pins the snapshot numbering it relies on
    workloads = load_bench(WORKLOADS)
    cfg = tmp_path / "run.cfg"
    small = "grid.nx = 8\ngrid.ny = 8\ngrid.nz = 8\n"
    cfg.write_text(workloads.CLI_CONFIG.format(seed=1) + small, encoding="ascii")
    assert parse_config(cfg.read_text(encoding="ascii")).nx == 8
    direct, restart = tmp_path / "direct", tmp_path / "restart"
    monkeypatch.setenv("QG3D_OUTPUT_DIR", str(direct))
    assert main(["run", str(cfg)]) == 0
    assert read_snapshot(direct / workloads.RESTART_FROM).t == 0.5
    monkeypatch.setenv("QG3D_OUTPUT_DIR", str(restart))
    assert main(["run", str(cfg), "--restart", str(direct / workloads.RESTART_FROM)]) == 0
    capsys.readouterr()
    names = sorted(path.name for path in restart.glob("snapshot_*.qg3d"))
    assert names == [f"snapshot_{k:05d}.qg3d" for k in (2, 3, 4)]


def test_a_cli_round_writes_each_state_file_once_per_event(tmp_path, monkeypatch, capsys):
    # bench/spans.py counts snapshots.write.* from the spans of the names
    # cli.py calls, write_snapshot and write_checkpoint; CLI_CONFIG at 8^3
    # pins the sequence of a cli-restart-32 round
    workloads = load_bench(WORKLOADS)
    writes = []
    for name in ("write_snapshot", "write_checkpoint"):
        original = getattr(cli, name)

        def wrapper(state, path, *args, _name=name, _original=original):
            writes.append((_name, Path(path).name, state.t))
            return _original(state, path, *args)

        monkeypatch.setattr(cli, name, wrapper)
    cfg = tmp_path / "run.cfg"
    small = "grid.nx = 8\ngrid.ny = 8\ngrid.nz = 8\n"
    cfg.write_text(workloads.CLI_CONFIG.format(seed=1) + small, encoding="ascii")
    direct, restart = tmp_path / "direct", tmp_path / "restart"

    def snapshot(k, t):
        return ("write_snapshot", f"snapshot_{k:05d}.qg3d", t)

    def checkpoint(t):
        return ("write_checkpoint", "checkpoint.qg3d", t)

    end = [("write_snapshot", "final.qg3d", 1.0), checkpoint(1.0)]
    for argv, out, expected in (
        ([], direct, [snapshot(0, 0.0), snapshot(1, 0.25), checkpoint(0.25),
                      snapshot(2, 0.5), checkpoint(0.5), snapshot(3, 0.75), checkpoint(0.75),
                      snapshot(4, 1.0), *end]),
        (["--restart", str(direct / workloads.RESTART_FROM)], restart,
         [snapshot(2, 0.5), snapshot(3, 0.75), checkpoint(0.75), snapshot(4, 1.0), *end]),
    ):
        writes.clear()
        monkeypatch.setenv("QG3D_OUTPUT_DIR", str(out))
        assert main(["run", str(cfg), *argv]) == 0
        assert writes == expected
        # no state file reaches the disk past the counted names
        assert sorted(p.name for p in out.glob("*.qg3d")) == sorted({w[1] for w in writes})
        assert (out / "checkpoint.qg3d.meta.json").is_file()
    capsys.readouterr()


def test_public_names_resolve():
    assert [name for name in qg3d.__all__ if not hasattr(qg3d, name)] == []


def test_benchmark_layer_functions_exist():
    missing = []
    for span, (home, attr) in load_bench(SPANS).LAYER_FUNCTIONS.items():
        if not callable(getattr(importlib.import_module(home), attr, None)):
            missing.append(f"{span}: {home}.{attr}")
    assert missing == []
    assert callable(TrajectoryTracer.__dict__.get("__call__"))


def test_transform_arrays_are_the_second_positional_argument():
    # bench/spans.py counts a transform's bytes from args[1] and its result
    positional = (inspect.Parameter.POSITIONAL_ONLY, inspect.Parameter.POSITIONAL_OR_KEYWORD)
    for fn, names in ((spectral.inv, ["grid", "coeffs"]), (spectral.fwd, ["grid", "values"])):
        params = list(inspect.signature(fn).parameters.values())[:2]
        assert [p.name for p in params] == names
        assert all(p.kind in positional for p in params)


def wrap_transforms(monkeypatch, names=("fwd", "inv")):
    """Wrap the spectral functions ``names`` in every qg3d module that holds
    them, as bench/spans.py does; returns the list the calls are appended
    to as (name, args, kwargs)."""
    calls = []
    for name in names:
        original = getattr(spectral, name)

        def wrapper(*args, _name=name, _original=original, **kwargs):
            calls.append((_name, args, kwargs))
            return _original(*args, **kwargs)

        for module in [m for n, m in list(sys.modules.items()) if n.startswith("qg3d")]:
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, wrapper)
    return calls


def out_arrays(calls, name):
    """The ``out=`` argument of each call of ``name``, None where it is
    None; any other keyword but ``truncate=True`` fails the test."""
    outs = []
    for called, _, kwargs in calls:
        if called == name:
            rest = {k: v for k, v in kwargs.items() if k != "out"}
            assert rest == ({"truncate": True} if name == "fwd" else {})
            outs.append(kwargs.get("out"))
    return outs


def test_a_fixed_step_makes_the_transform_calls_the_benchmark_counts(monkeypatch):
    # bench/spans.py reads the array from args[1] and counts the bytes of it
    # and of the result, which is the out= array when one is given;
    # bench/test_bench.py counts 16 inv and 4 fwd calls per step
    calls = wrap_transforms(monkeypatch)
    state = make_random(GridSpec(16, 16, 16), -3.0, 1.0, 5, band=(2, 5))
    stepping.run(state, 1e-3, stepping.StepControl(mode="fixed", dt_fixed=1e-3))
    names = [name for name, _, _ in calls]
    assert (names.count("inv"), names.count("fwd")) == (16, 4)
    assert all(len(args) == 2 and isinstance(args[1], np.ndarray) for _, args, _ in calls)
    # k1 becomes the new state, so only its transform gets a new array
    fwd_outs = out_arrays(calls, "fwd")
    assert fwd_outs[0] is None
    assert all(isinstance(out, np.ndarray) for out in fwd_outs[1:] + out_arrays(calls, "inv"))


def test_record_and_cfl_dt_make_the_inverse_transforms_the_benchmark_counts(monkeypatch):
    # a traced benchmark round counts 19 inv calls per record and 2 per
    # cfl_dt, each as (grid, array) with the array second; record's write
    # into the pool, cfl_dt's into new arrays
    calls = wrap_transforms(monkeypatch)
    state = make_random(GridSpec(16, 16, 16), -3.0, 1.0, 5, band=(2, 5))
    for fn, args, count, pooled in (
        (diagnostics.record, (state,), 19, True),
        (stepping.cfl_dt, (state, stepping.StepControl()), 2, False),
    ):
        calls.clear()
        fn(*args)
        assert [name for name, _, _ in calls] == ["inv"] * count, fn.__name__
        for _, inv_args, kwargs in calls:
            assert len(inv_args) == 2 and inv_args[0] is state.grid
            assert isinstance(inv_args[1], np.ndarray)
        outs = out_arrays(calls, "inv")
        if pooled:
            assert all(isinstance(out, np.ndarray) for out in outs)
        else:
            assert [kwargs for _, _, kwargs in calls] == [{}] * count


def test_a_cfl_step_asks_cfl_dt_for_its_dt_and_makes_the_counted_calls():
    # bench/spans.py takes a CFL step's requested dt from the cfl_dt span
    # before it; a state inside the cube gets its velocity maxima from stage
    # 1, so cfl_dt adds no transform and no Poisson solve to a step
    spans_module = load_bench(SPANS)
    state = make_random(GridSpec(16, 16, 16), -3.0, 1.0, 5, band=(2, 5))
    control = stepping.StepControl(cfl_number=0.5, dt_max=10.0)
    t_end = 3.5 * stepping.cfl_dt(state, control)
    tracer = spans_module.Tracer()
    tracer.install()
    try:
        stepping.run(state, t_end, control)
    finally:
        tracer.restore()
    assert tracer.unrestored() == []
    names = [s[0] for s in tracer.spans]
    steps = names.count("stepping.rk4_step")
    assert steps == 4 and names.count("stepping.cfl_dt") == steps
    requested = [s[4] for s in tracer.spans if s[0] == "stepping.cfl_dt"]
    taken = [s[4][1] for s in tracer.spans if s[0] == "stepping.rk4_step"]
    # the last step is cut to land on t_end
    assert taken[:-1] == requested[:-1] and taken[-1] < requested[-1]
    m = spans_module.layer_metrics(tracer.spans)
    assert m["stepping.steps_truncated"] == 1
    assert (m["spectral.inv.calls"], m["spectral.fwd.calls"], m["spectral.poisson.calls"]) == (
        16 * steps, 4 * steps, 4 * steps)
    assert m["dynamics.tendency.calls"] == 4 * steps


def test_a_traced_run_makes_four_poisson_solves_per_step_and_one_per_record(monkeypatch):
    # spectral.poisson.calls counts the solves: the tendency's one per RK4
    # stage and record's one; the tracer takes its velocity tables from q
    calls = wrap_transforms(monkeypatch, names=("solve_stratified_poisson",))
    grid = GridSpec(16, 16, 16)
    state = make_random(grid, -3.0, 1.0, 5, band=(2, 5))
    sets = build_particle_sets(parse_config("lagrangian.particles = 32\n"), grid)
    tracer = TrajectoryTracer(sets, state.q_hat, beta=state.params.beta)
    records = []
    observers = [stepping.Observer(lambda s: records.append(diagnostics.record(s)), every=2e-3),
                 stepping.Observer(tracer)]
    stepping.run(state, 5e-3, stepping.StepControl(mode="fixed", dt_fixed=1e-3),
                 observers=observers)
    steps = 5
    assert len(records) == 3 and tracer.time is not None
    assert len(calls) == 4 * steps + len(records)


def test_growth_check_takes_the_history_and_a_tolerance():
    # bench/workloads.py calls check_growth_bounds(history, cfg.checks.tol_growth)
    inspect.signature(check_growth_bounds).bind([], 1e-3)


READERS = ("os.environ", "os.getenv")


def environment_reads(path: Path) -> set[str]:
    """Names of the environment variables a module reads; "?" stands for a
    read whose name is not a string literal."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    parent = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    names = set()
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Attribute) and ast.unparse(node) in READERS):
            continue
        up = parent.get(node)
        key = None
        if isinstance(up, ast.Subscript) and up.value is node:
            key = up.slice
        elif isinstance(up, ast.Call) and up.func is node and up.args:
            key = up.args[0]  # os.getenv(name)
        elif isinstance(up, ast.Attribute) and up.attr == "get":
            call = parent.get(up)
            if isinstance(call, ast.Call) and call.func is up and call.args:
                key = call.args[0]
        names.add(key.value if isinstance(key, ast.Constant) else "?")
    return names


def test_the_output_directory_is_the_only_environment_setting():
    # every other setting is a config key or an argument, so a run's config
    # file says everything that shaped it
    modules = (ROOT / "src" / "qg3d").glob("*.py")
    names = set().union(*(environment_reads(path) for path in modules))
    assert names == {"QG3D_OUTPUT_DIR"}


def fft_imports(path: Path) -> set[str]:
    """The ``scipy.fft`` modules a module imports or names: ``scipy.fft``
    itself, or one under it such as its pocketfft kernels."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module)
            names.update(f"{node.module}.{a.name}" for a in node.names)
        elif isinstance(node, ast.Attribute):
            names.add(ast.unparse(node))
    return {n for n in names if n == "scipy.fft" or n.startswith("scipy.fft.")}


def test_only_spectral_imports_scipy_fft():
    # spectral calls pocketfft's kernels through a private module of scipy,
    # whose signatures it was checked against; one owner keeps that in one place
    found = {path.name: fft_imports(path) for path in (ROOT / "src" / "qg3d").glob("*.py")}
    assert {name for name, names in found.items() if names} == {"spectral.py"}
    assert "scipy.fft._pocketfft.pypocketfft" in found["spectral.py"]


def products_outside(path: Path, helper: str) -> set[str]:
    """The matrix products (``@``, ``np.matmul``, ``np.dot``,
    ``np.tensordot``) a module makes outside its function ``helper``,
    each named with the function it is in and its source text."""
    products = {"np.matmul", "np.dot", "np.tensordot"}
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, child.name)
                continue
            is_matmul = isinstance(child, ast.BinOp) and isinstance(child.op, ast.MatMult)
            is_matmul |= isinstance(child, ast.AugAssign) and isinstance(child.op, ast.MatMult)
            if is_matmul or ast.unparse(child) in products:
                if scope != helper:
                    found.add(f"{scope}: {ast.unparse(child)}")
            visit(child, scope)

    visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    return found


def test_the_tracer_multiplies_matrices_only_in_its_blocked_point_sums():
    # OpenBLAS wakes a worker thread for a product of m * n * k >= 65,536,
    # which then spins between calls; particles._sum_at_points keeps each
    # product below that, and the velocity tables come from q without a
    # Poisson solve
    path = ROOT / "src" / "qg3d" / "particles.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for a in node.names}
    found = products_outside(path, "_sum_at_points")
    found |= {f"import {name}" for name in imported & {"solve_stratified_poisson"}}
    assert found == set()


def mask_readers(path: Path) -> set[str]:
    """The functions of a module that read ``dealias_mask``, each named with
    its module and classes (``dynamics.Forcing.spectral``)."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}")
                continue
            if isinstance(child, ast.Attribute) and child.attr == "dealias_mask":
                found.add(scope)
            visit(child, scope)

    visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    return found


def test_only_grid_and_make_random_read_the_dealias_mask():
    # the two-thirds cube is cut by spectral._truncate and tested by
    # _in_cube; the mask is the source of dealias_bounds and of
    # make_random's selection of modes
    modules = (ROOT / "src" / "qg3d").glob("*.py")
    readers = set().union(*(mask_readers(path) for path in modules))
    assert {name for name in readers if not name.startswith("grid.")} == {"initial.make_random"}


def divisions_by_three(path: Path) -> set[str]:
    """The divisions (``/`` or ``//``) by the constant 3 in a module, each
    named with the module, its line and its source text."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(
            node.op, (ast.Div, ast.FloorDiv)
        ):
            divisor = node.right if isinstance(node, ast.BinOp) else node.value
            if isinstance(divisor, ast.Constant) and divisor.value == 3:
                found.add(f"{path.stem}:{node.lineno}: {ast.unparse(node)}")
    return found


def test_only_grid_divides_by_three():
    # the two-thirds rule |s| <= n/3 lives in GridSpec.keeps_mode; every
    # other test of the cube asks the grid
    modules = (ROOT / "src" / "qg3d").glob("*.py")
    found = set().union(*(divisions_by_three(path) for path in modules))
    assert {name for name in found if not name.startswith("grid:")} == set()
