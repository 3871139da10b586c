"""Command-line contract: exit codes, emitted files, and stream discipline.

Heavier flows call ``main`` in process; the exit-code contract is also
exercised by spawning the interpreter, since that is how callers see it.
"""

import importlib
import os
import shutil
import stat
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qg3d.cli import main
from qg3d.diagnostics import CSV_COLUMNS, RATIOS_HEADER
from qg3d.dynamics import PhysicsParams
from qg3d.grid import GridSpec
from qg3d.initial import make_random
from qg3d.snapshots import read_checkpoint, read_snapshot, write_snapshot
from qg3d.spectral import inv
from qg3d.stepping import State

ROSSBY_16 = """\
grid.nx = 16
grid.ny = 16
grid.nz = 16
ic.kind = rossby
time.mode = fixed
time.dt = 1e-3
time.t_end = 0.05
output.record_every = 0.01
output.snapshot_every = 0.025
output.checkpoint_every = 0.02
"""

BLOWUP = """\
grid.nx = 16
grid.ny = 16
grid.nz = 1
ic.kind = random_spectrum
ic.energy = 50.0
ic.band_lo = 2
ic.band_hi = 5
time.mode = fixed
time.dt = 2.0
time.t_end = 10.0
output.record_every = 2.0
"""

# an inviscid run whose energy holds only in its F-weighted form
STRATIFIED_F2 = """\
grid.nx = 16
grid.ny = 16
grid.nz = 16
physics.F = 2.0
ic.kind = random_spectrum
ic.seed = 1
ic.band_lo = 2
ic.band_hi = 4
time.mode = fixed
time.dt = 1e-3
time.t_end = 0.5
output.record_every = 0.05
"""

RANDOM_8 = """\
grid.nx = 8
grid.ny = 8
grid.nz = 8
ic.kind = random_spectrum
time.mode = fixed
time.dt = 1e-3
time.t_end = 0.002
output.record_every = 0.001
"""

# the snapshot grid is k * 0.25; checkpoints fall on k * 0.1 and at t_end
RANDOM_16 = """\
grid.nx = 16
grid.ny = 16
grid.nz = 16
ic.kind = random_spectrum
ic.seed = 1
ic.band_lo = 1
ic.band_hi = 4
time.mode = fixed
time.dt = 0.01
output.record_every = 0.05
output.snapshot_every = 0.25
output.checkpoint_every = 0.1
"""


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="ascii")
    return str(path)


def use_out(monkeypatch, tmp_path, name):
    out = tmp_path / name
    monkeypatch.setenv("QG3D_OUTPUT_DIR", str(out))
    return out


def test_usage_errors_exit_64(capsys):
    assert main([]) == 64
    assert main(["frobnicate"]) == 64
    assert main(["plot"]) == 64
    err = capsys.readouterr().err
    assert "error" in err


def test_version_goes_to_stdout(capsys):
    assert main(["--version"]) == 0
    captured = capsys.readouterr()
    assert "qg3d" in captured.out
    assert captured.err == ""


def test_spawned_exit_codes(tmp_path):
    base = [sys.executable, "-m", "qg3d.cli"]
    done = subprocess.run(base, capture_output=True, text=True)
    assert done.returncode == 64, done.stderr
    done = subprocess.run(base + ["--version"], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert "qg3d" in done.stdout

    cfg = write_cfg(tmp_path, BLOWUP)
    # extend the inherited environment: the child still needs PYTHONPATH
    # to import qg3d from an uninstalled checkout
    env = {**os.environ, "QG3D_OUTPUT_DIR": str(tmp_path / "out")}
    done = subprocess.run(
        base + ["run", cfg], capture_output=True, text=True, env=env
    )
    assert done.returncode == 2, done.stderr
    assert "blow-up" in done.stderr


def test_importing_the_cli_loads_no_network_modules():
    # svgplot escapes with html.escape: xml.sax.saxutils imports
    # urllib.request, which imports http.client and ssl
    code = ("import sys, qg3d.cli; "
            "print(sorted({'urllib.request', 'http.client', 'ssl'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


@pytest.mark.skipif(
    shutil.which("qg3d") is None,
    reason="qg3d console script not on PATH; "
    "install with `pip install -e . --no-build-isolation`",
)
def test_console_script_is_installed():
    done = subprocess.run(["qg3d", "--version"], capture_output=True, text=True)
    assert done.returncode == 0
    assert "qg3d" in done.stdout


def test_console_script_declared_as_cli_main(capsys):
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    project = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]
    scripts = project["scripts"]
    assert scripts["qg3d"] == "qg3d.cli:main"

    module, attr = scripts["qg3d"].split(":")
    entry = getattr(importlib.import_module(module), attr)
    assert entry(["--version"]) == 0
    assert "qg3d" in capsys.readouterr().out


def test_missing_config_exits_1(tmp_path, capsys):
    assert main(["run", str(tmp_path / "absent.cfg")]) == 1
    assert "error" in capsys.readouterr().err


def test_unknown_config_key_exits_1(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "grid.sides = 3\n")
    assert main(["run", cfg]) == 1
    err = capsys.readouterr().err
    assert "unknown key" in err


@pytest.mark.parametrize(
    "line, section",
    [("physics.nu = nan", "physics"), ("time.dt = inf", "time"), ("time.t_end = inf", "time"),
     ("output.record_every = inf", "output"), ("output.snapshot_every = inf", "output"),
     ("ic.energy = inf", "ic.energy"), ("ic.center = nan, 1.0, 1.0", "ic.center"),
     ("ic.slope = nan", "ic.slope"), ("ic.amplitude = inf", "ic.amplitude"),
     ("ic.amplitude = nan", "ic.amplitude"), ("ic.width = inf", "ic.width"),
     ("ic.profile = nan", "ic.profile"), ("lagrangian.z_levels = nan", "lagrangian.z_levels"),
     ("lagrangian.z_levels = inf", "lagrangian.z_levels"), ("grid.lx = inf", "grid"),
     ("grid.lz = inf", "grid")],
)
def test_non_finite_constants_exit_1(tmp_path, monkeypatch, capsys, line, section):
    # ROSSBY_16 runs at time.mode = fixed, so time.dt is the step it takes
    cfg = write_cfg(tmp_path, ROSSBY_16 + line + "\n")
    out = use_out(monkeypatch, tmp_path, "out")
    assert main(["run", cfg]) == 1
    assert f"config error: {section}: " in capsys.readouterr().err
    assert not out.exists()


def test_run_emits_outputs_and_check_table(tmp_path, monkeypatch, capsys):
    cfg = write_cfg(tmp_path, ROSSBY_16)
    out = use_out(monkeypatch, tmp_path, "out")
    assert main(["run", cfg]) == 0
    err = capsys.readouterr().err
    assert "run complete" in err
    assert "PASS" in err and "FAIL" not in err

    header = (out / "diagnostics.csv").read_text().splitlines()[0]
    assert header == ",".join(CSV_COLUMNS)
    assert (out / "ratios.csv").exists()
    assert (out / "final.qg3d").exists()
    assert (out / "checkpoint.qg3d").exists()
    assert (out / "checkpoint.qg3d.meta.json").exists()
    # timed snapshots at t = 0, 0.025, 0.05
    snaps = sorted(p.name for p in out.glob("snapshot_*.qg3d"))
    assert snaps == ["snapshot_00000.qg3d", "snapshot_00001.qg3d", "snapshot_00002.qg3d"]
    final = read_snapshot(out / "final.qg3d")
    assert final.t == 0.05


def test_snapshots_get_the_same_mode_as_the_csvs(tmp_path, monkeypatch, capsys):
    cfg = write_cfg(tmp_path, ROSSBY_16)
    out = use_out(monkeypatch, tmp_path, "out")
    saved = os.umask(0o022)
    try:
        assert main(["run", cfg]) == 0
    finally:
        os.umask(saved)
    names = ["final.qg3d", "checkpoint.qg3d", "checkpoint.qg3d.meta.json", "diagnostics.csv"]
    modes = {name: oct(stat.S_IMODE(os.stat(out / name).st_mode)) for name in names}
    assert modes == dict.fromkeys(names, oct(0o644))


def test_run_with_F_2_passes_its_energy_check(tmp_path, monkeypatch, capsys):
    cfg = write_cfg(tmp_path, STRATIFIED_F2)
    use_out(monkeypatch, tmp_path, "f2")
    code = main(["run", cfg])
    err = capsys.readouterr().err
    assert code == 0, err
    assert "v_l2 conservation" in err


def test_blowup_exits_2_and_keeps_partial_diagnostics(tmp_path, monkeypatch, capsys):
    cfg = write_cfg(tmp_path, BLOWUP)
    out = use_out(monkeypatch, tmp_path, "out")
    assert main(["run", cfg]) == 2
    err = capsys.readouterr().err
    assert "blow-up" in err
    # checkpoint_every = 0: the run wrote no checkpoint and says so
    assert "(no checkpoint written)" in err and "retained" not in err
    assert (out / "diagnostics.csv").exists()
    assert not (out / "final.qg3d").exists()
    assert not (out / "checkpoint.qg3d").exists()


def test_blowup_after_an_event_checkpoint_says_it_is_retained(tmp_path, monkeypatch, capsys):
    cfg = write_cfg(tmp_path, BLOWUP + "output.checkpoint_every = 2.0\n")
    out = use_out(monkeypatch, tmp_path, "out")
    assert main(["run", cfg]) == 2
    err = capsys.readouterr().err
    assert "(last good checkpoint retained)" in err
    assert read_checkpoint(out / "checkpoint.qg3d")[0].t > 0.0


def test_verify_blowup_exits_2_and_keeps_partial_diagnostics(tmp_path, monkeypatch, capsys):
    cfg = write_cfg(tmp_path, BLOWUP)
    out = use_out(monkeypatch, tmp_path, "out")
    assert main(["verify", cfg]) == 2
    assert "blow-up" in capsys.readouterr().err
    assert (out / "diagnostics.csv").exists()
    assert (out / "ratios.csv").exists()
    assert not (out / "final.qg3d").exists()


def test_failed_check_exits_3(tmp_path, monkeypatch, capsys):
    # a coarse step leaves ~3e-13 truncation drift; a tighter tolerance than
    # that turns an otherwise healthy run into a FAIL
    cfg = write_cfg(
        tmp_path,
        "grid.nx = 16\ngrid.ny = 16\ngrid.nz = 16\n"
        "ic.kind = random_spectrum\nic.energy = 4.0\n"
        "ic.band_lo = 3\nic.band_hi = 5\n"
        "time.mode = fixed\ntime.dt = 5e-2\ntime.t_end = 0.5\n"
        "output.record_every = 0.1\n"
        "checks.tol_conservation = 1e-15\n",
    )
    use_out(monkeypatch, tmp_path, "out")
    assert main(["run", cfg]) == 3
    assert "FAIL" in capsys.readouterr().err


def test_verify_small_config_passes(tmp_path, monkeypatch, capsys):
    cfg = write_cfg(
        tmp_path,
        "grid.nx = 16\ngrid.ny = 16\ngrid.nz = 16\n"
        "ic.kind = rossby\n"
        "time.mode = fixed\ntime.dt = 2e-3\ntime.t_end = 0.1\n"
        "output.record_every = 0.02\n",
    )
    use_out(monkeypatch, tmp_path, "verify-out")
    assert main(["verify", cfg]) == 0
    err = capsys.readouterr().err
    assert "neutrality" in err
    assert "FAIL" not in err


def test_verify_default_config_exits_zero(tmp_path, monkeypatch):
    # the documented whole-suite oracle; slowest test in this file
    cfg = write_cfg(tmp_path, "")
    use_out(monkeypatch, tmp_path, "default-out")
    assert main(["verify", cfg]) == 0


def test_converge_reports_orders_and_exits_zero(tmp_path, monkeypatch, capsys):
    cfg = write_cfg(tmp_path, "")
    use_out(monkeypatch, tmp_path, "conv-out")
    assert main(["converge", cfg]) == 0
    err = capsys.readouterr().err
    assert "observed order" in err
    assert "yes" in err


TRACED_16 = """\
grid.nx = 16
grid.ny = 16
grid.nz = 16
ic.kind = rossby
time.mode = fixed
time.dt = 1e-3
time.t_end = 0.02
output.record_every = 0.01
lagrangian.enabled = true
lagrangian.particles = 32
lagrangian.z_levels = 0.0, 3.141592653589793
lagrangian.sample_every = 10
"""


def duhamel_residual(err):
    """The residual the tracer reports on stderr."""
    line = next(l for l in err.splitlines() if l.startswith("max |duhamel residual|"))
    return float(line.rsplit("=", 1)[1])


def particle_rows(out):
    lines = (out / "particles.csv").read_text().splitlines()
    assert lines[0] == "particle_id,t,x,y,z,integral,residual"
    assert len(lines) > 1 and (len(lines) - 1) % 32 == 0
    return np.loadtxt(out / "particles.csv", delimiter=",", skiprows=1, ndmin=2)


def test_run_with_lagrangian_enabled_emits_particle_csv(tmp_path, monkeypatch, capsys):
    cfg = write_cfg(tmp_path, TRACED_16)
    out = use_out(monkeypatch, tmp_path, "trace-out")
    assert main(["run", cfg]) == 0
    err = capsys.readouterr().err
    assert "traced 32 particles to t = 0.02" in err
    assert "PASS" in err and "FAIL" not in err
    assert duhamel_residual(err) < 1e-6
    particle_rows(out)


def test_run_without_lagrangian_enabled_writes_no_particles(tmp_path, monkeypatch, capsys):
    cfg = write_cfg(tmp_path, TRACED_16.replace("lagrangian.enabled = true\n", ""))
    out = use_out(monkeypatch, tmp_path, "out")
    assert main(["run", cfg]) == 0
    assert "duhamel" not in capsys.readouterr().err
    assert (out / "final.qg3d").exists()
    assert not (out / "particles.csv").exists()


def test_failed_check_with_the_tracer_exits_3_and_writes_particles(
    tmp_path, monkeypatch, capsys
):
    cfg = write_cfg(tmp_path, TRACED_16 + "checks.tol_conservation = 1e-300\n")
    out = use_out(monkeypatch, tmp_path, "out")
    assert main(["run", cfg]) == 3
    err = capsys.readouterr().err
    assert "FAIL" in err
    assert duhamel_residual(err) < 1e-6
    particle_rows(out)


def test_trace_command_is_gone(tmp_path, monkeypatch, capsys):
    cfg = write_cfg(tmp_path, TRACED_16)
    out = use_out(monkeypatch, tmp_path, "out")
    assert main(["trace", cfg]) == 64
    assert "invalid choice" in capsys.readouterr().err
    assert not out.exists()


def test_verify_with_lagrangian_enabled_emits_particle_csv(tmp_path, monkeypatch, capsys):
    cfg = write_cfg(tmp_path, TRACED_16)
    out = use_out(monkeypatch, tmp_path, "out")
    assert main(["verify", cfg]) == 0
    err = capsys.readouterr().err
    assert "neutrality" in err
    assert duhamel_residual(err) < 1e-6
    particle_rows(out)


def test_restart_with_the_tracer_seeds_particles_at_t0(tmp_path, monkeypatch, capsys):
    cfg = write_cfg(
        tmp_path,
        TRACED_16.replace("time.t_end = 0.02", "time.t_end = 0.04")
        + "output.snapshot_every = 0.02\n",
    )
    direct = use_out(monkeypatch, tmp_path, "direct")
    assert main(["run", cfg]) == 0
    capsys.readouterr()
    out = use_out(monkeypatch, tmp_path, "restarted")
    assert main(["run", cfg, "--restart", str(direct / "snapshot_00001.qg3d")]) == 0
    err = capsys.readouterr().err
    assert "restarting from t = 0.02" in err
    assert duhamel_residual(err) < 1e-6
    # 32 fresh particles, sampled once at t_end; none carries a time before t0
    rows = particle_rows(out)
    assert rows.shape[0] == 32 and np.all(rows[:, 1] > 0.02)
    assert np.max(np.abs(rows[:, 6])) < 1e-6


def test_plot_draws_one_polyline_per_selected_column(tmp_path, capsys):
    csv = tmp_path / "d.csv"
    csv.write_text("t,a,b\n0.0,1.0,2.0\n1.0,2.0,4.0\n", encoding="ascii")
    out = tmp_path / "d.svg"
    assert main(["plot", str(csv), str(out)]) == 0
    svg = out.read_text()
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
    assert svg.count('class="series"') == 2

    out_one = tmp_path / "one.svg"
    assert main(["plot", str(csv), str(out_one), "--columns", "b"]) == 0
    assert out_one.read_text().count('class="series"') == 1
    capsys.readouterr()


def test_plot_unknown_column_is_usage_error(tmp_path, capsys):
    csv = tmp_path / "d.csv"
    csv.write_text("t,a\n0.0,1.0\n1.0,2.0\n", encoding="ascii")
    assert main(["plot", str(csv), str(tmp_path / "x.svg"), "--columns", "zz"]) == 64
    assert "zz" in capsys.readouterr().err


def test_plot_ragged_csv_exits_1(tmp_path, capsys):
    csv = tmp_path / "bad.csv"
    csv.write_text("t,a\n0.0,1.0\n1.0\n", encoding="ascii")
    assert main(["plot", str(csv), str(tmp_path / "x.svg")]) == 1
    assert "ragged" in capsys.readouterr().err


def test_info_reports_header_and_norms(tmp_path, capsys):
    grid = GridSpec(8, 8, 8)
    state = make_random(grid, -3.0, 1.0, seed=3, params=PhysicsParams(beta=2.0))
    path = tmp_path / "s.qg3d"
    write_snapshot(State(state.q_hat, 0.75, state.params), path)
    assert main(["info", str(path)]) == 0
    err = capsys.readouterr().err
    assert "8 x 8 x 8" in err
    assert "beta = 2" in err
    assert "||q||_L2" in err


def test_info_rejects_garbage_exit_1(tmp_path, capsys):
    path = tmp_path / "junk.qg3d"
    path.write_bytes(b"not a snapshot at all")
    assert main(["info", str(path)]) == 1
    assert "error" in capsys.readouterr().err


def test_restart_resumes_and_matches_direct_run(tmp_path, monkeypatch, capsys):
    base = (
        "grid.nx = 16\ngrid.ny = 16\ngrid.nz = 16\n"
        "ic.kind = rossby\n"
        "time.mode = fixed\ntime.dt = 1e-3\ntime.t_end = {t_end}\n"
        "output.record_every = 0.01\noutput.checkpoint_every = 0.02\n"
    )
    cfg_half = write_cfg(tmp_path, base.format(t_end=0.04), "half.cfg")
    cfg_full = write_cfg(tmp_path, base.format(t_end=0.08), "full.cfg")

    out_half = use_out(monkeypatch, tmp_path, "half")
    assert main(["run", cfg_half]) == 0

    out_restart = use_out(monkeypatch, tmp_path, "restarted")
    code = main(["run", cfg_full, "--restart", str(out_half / "checkpoint.qg3d")])
    assert code == 0
    err = capsys.readouterr().err
    assert "restarting from t = 0.04" in err
    assert "different config" in err  # t_end changed, so the digest did too

    out_direct = use_out(monkeypatch, tmp_path, "direct")
    assert main(["run", cfg_full]) == 0

    a = read_snapshot(out_restart / "final.qg3d")
    b = read_snapshot(out_direct / "final.qg3d")
    assert a.t == b.t == 0.08
    qa = inv(a.grid, a.q_hat.coeffs)
    qb = inv(b.grid, b.q_hat.coeffs)
    rel = np.linalg.norm(qa - qb) / np.linalg.norm(qb)
    assert rel <= 1e-12


def test_restart_into_its_own_directory_keeps_earlier_outputs(
    tmp_path, monkeypatch, capsys
):
    cfg = write_cfg(
        tmp_path,
        "grid.nx = 16\ngrid.ny = 16\ngrid.nz = 16\n"
        "ic.kind = rossby\n"
        "time.mode = fixed\ntime.dt = 5e-3\ntime.t_end = 1.0\n"
        "output.record_every = 0.05\noutput.snapshot_every = 0.25\n",
    )
    direct = use_out(monkeypatch, tmp_path, "direct")
    assert main(["run", cfg]) == 0
    out = use_out(monkeypatch, tmp_path, "resumed")
    assert main(["run", cfg]) == 0
    first_rows = (out / "diagnostics.csv").read_text().splitlines()
    assert main(["run", cfg, "--restart", str(out / "snapshot_00002.qg3d")]) == 0
    assert "restarting from t = 0.5" in capsys.readouterr().err

    snaps = sorted(out.glob("snapshot_*.qg3d"))
    assert [p.name for p in snaps] == [f"snapshot_{i:05d}.qg3d" for i in range(5)]
    assert [read_snapshot(p).t for p in snaps] == [0.0, 0.25, 0.5, 0.75, 1.0]
    # a restart fires its events at the direct run's times k * every
    for name in ("diagnostics.csv", "ratios.csv"):
        got = np.loadtxt(out / name, delimiter=",", skiprows=1)[:, 0]
        want = np.loadtxt(direct / name, delimiter=",", skiprows=1)[:, 0]
        assert got.shape == want.shape == (21,)
        assert got.tobytes() == want.tobytes()
    # the 10 rows before t = 0.5 are the first run's, byte for byte
    assert (out / "diagnostics.csv").read_text().splitlines()[:11] == first_rows[:11]


def snapshot_times(out):
    return {p.name: read_snapshot(p).t for p in sorted(out.glob("snapshot_*.qg3d"))}


def test_restart_off_the_snapshot_grid_keeps_the_earlier_snapshots(
    tmp_path, monkeypatch, capsys
):
    # the last checkpoint of the first run, t = 0.3, lies between two snapshots
    first = write_cfg(tmp_path, RANDOM_16 + "time.t_end = 0.3\n", "first.cfg")
    cfg = write_cfg(tmp_path, RANDOM_16 + "time.t_end = 1.0\n")
    out = use_out(monkeypatch, tmp_path, "out")
    assert main(["run", first]) == 0
    assert main(["run", cfg, "--restart", str(out / "checkpoint.qg3d")]) == 0
    assert "restarting from t = 0.3" in capsys.readouterr().err
    assert snapshot_times(out) == {f"snapshot_{k:05d}.qg3d": k * 0.25 for k in range(5)}


def test_restart_off_the_snapshot_grid_writes_the_direct_run_names(
    tmp_path, monkeypatch, capsys
):
    first = write_cfg(tmp_path, RANDOM_16 + "time.t_end = 0.4\n", "first.cfg")
    cfg = write_cfg(tmp_path, RANDOM_16 + "time.t_end = 1.0\n")
    out = use_out(monkeypatch, tmp_path, "first")
    assert main(["run", first]) == 0
    fresh = use_out(monkeypatch, tmp_path, "fresh")
    assert main(["run", cfg, "--restart", str(out / "checkpoint.qg3d")]) == 0
    assert "restarting from t = 0.4" in capsys.readouterr().err
    assert snapshot_times(fresh) == {
        "snapshot_00002.qg3d": 0.5, "snapshot_00003.qg3d": 0.75, "snapshot_00004.qg3d": 1.0,
    }


def test_file_ic_continuation_keeps_the_earlier_csv_rows(tmp_path, monkeypatch, capsys):
    # ic.kind = file at t0 > 0 follows the same rule as run --restart
    cfg = write_cfg(tmp_path, RANDOM_16 + "time.t_end = 1.0\n")
    out = use_out(monkeypatch, tmp_path, "out")
    assert main(["run", cfg]) == 0
    names = ("diagnostics.csv", "ratios.csv")
    first = {name: (out / name).read_text().splitlines() for name in names}
    file_ic = f"ic.kind = file\nic.path = {out / 'snapshot_00002.qg3d'}\ntime.t_end = 1.0\n"
    assert main(["run", write_cfg(tmp_path, RANDOM_16 + file_ic, "file.cfg")]) == 0
    capsys.readouterr()

    assert snapshot_times(out) == {f"snapshot_{k:05d}.qg3d": k * 0.25 for k in range(5)}
    for name, rows in first.items():
        got = (out / name).read_text().splitlines()
        assert len(got) == len(rows) == 22  # a header and 21 records
        # the header and the 10 rows before t = 0.5 are the first run's, byte for byte
        assert got[:11] == rows[:11]


def test_restart_from_a_snapshot_rewrites_it_byte_for_byte(tmp_path, monkeypatch, capsys):
    # the start state keeps the file's samples through config.adopt_state
    cfg = write_cfg(tmp_path, RANDOM_16 + "time.t_end = 1.0\ngrid.nx = 8\ngrid.ny = 8\n")
    out = use_out(monkeypatch, tmp_path, "out")
    assert main(["run", cfg]) == 0
    source = out / "snapshot_00002.qg3d"
    fresh = use_out(monkeypatch, tmp_path, "fresh")
    assert main(["run", cfg, "--restart", str(source)]) == 0
    capsys.readouterr()
    assert (fresh / "snapshot_00002.qg3d").read_bytes() == source.read_bytes()


def noise_ic_cfg(tmp_path, mean):
    """A config whose initial state is a file of white noise at t = 0, with
    modes up to Nyquist, plus ``mean``; the file is written as raw bytes in
    the documented layout, since no State holds such samples."""
    values = np.random.default_rng(5).standard_normal((16, 8, 8))
    values += mean - np.mean(values)
    path = tmp_path / "noise.qg3d"
    header = struct.pack("<4sI3Q7d", b"QG3D", 1, 8, 8, 16, *[2.0 * np.pi] * 3, 1.0, 1.0, 0.0, 0.0)
    path.write_bytes(header + values.astype("<f8").tobytes())
    text = (RANDOM_16 + "grid.nx = 8\ngrid.ny = 8\ntime.t_end = 0.02\n"
            "checks.conservation = false\nchecks.growth = false\n"
            f"ic.kind = file\nic.path = {path}\n")
    return write_cfg(tmp_path, text, "noise.cfg"), path


def test_file_ic_with_a_mean_exits_1_before_any_output(tmp_path, monkeypatch, capsys):
    cfg, path = noise_ic_cfg(tmp_path, 0.5)
    out = use_out(monkeypatch, tmp_path, "out")
    assert main(["run", cfg]) == 1
    err = capsys.readouterr().err
    assert str(path) in err and "mean" in err
    assert not out.exists()


def test_file_ic_outside_the_cube_snapshots_the_state_it_runs(tmp_path, monkeypatch, capsys):
    # the start snapshot holds the read state, the cube of the file's
    # transform, not the file's own samples
    cfg, path = noise_ic_cfg(tmp_path, 0.0)
    out = use_out(monkeypatch, tmp_path, "out")
    assert main(["run", cfg]) == 0
    capsys.readouterr()
    start = out / "snapshot_00000.qg3d"
    read = read_snapshot(path)
    assert start.read_bytes() != path.read_bytes()
    assert np.array_equal(read_snapshot(start).q_hat.samples, inv(read.grid, read.q_hat.coeffs))


def test_restart_with_a_malformed_earlier_csv_exits_1_before_any_step(
    tmp_path, monkeypatch, capsys
):
    cfg = write_cfg(tmp_path, RANDOM_16 + "time.t_end = 1.0\ngrid.nx = 8\ngrid.ny = 8\n")
    out = use_out(monkeypatch, tmp_path, "out")
    assert main(["run", cfg]) == 0
    capsys.readouterr()
    csv = out / "diagnostics.csv"
    csv.write_text(csv.read_text(encoding="ascii") + "garbage\n", encoding="ascii")

    def files():
        return {p.name: (p.stat().st_ino, p.stat().st_mtime_ns, p.read_bytes())
                for p in sorted(out.iterdir())}

    before = files()
    assert main(["run", cfg, "--restart", str(out / "snapshot_00002.qg3d")]) == 1
    err = capsys.readouterr().err
    assert f"qg3d run: error: {csv}: " in err and "garbage" in err
    assert "restarting from t = 0.5" in err and "run complete" not in err
    # no file of the earlier run was rewritten, snapshot_00003 and 00004 included
    assert files() == before


def test_restart_with_a_foreign_earlier_csv_header_exits_1_before_any_step(
    tmp_path, monkeypatch, capsys
):
    # ratios.csv copied over diagnostics.csv parses, but its rows would sit
    # under the diagnostics header as a ragged CSV
    cfg = write_cfg(tmp_path, RANDOM_16 + "time.t_end = 1.0\ngrid.nx = 8\ngrid.ny = 8\n")
    out = use_out(monkeypatch, tmp_path, "out")
    assert main(["run", cfg]) == 0
    capsys.readouterr()
    csv = out / "diagnostics.csv"
    csv.write_bytes((out / "ratios.csv").read_bytes())
    snapshot = out / "snapshot_00003.qg3d"
    before = (snapshot.stat().st_ino, snapshot.stat().st_mtime_ns, snapshot.read_bytes())
    csv_before = csv.read_bytes()
    assert main(["run", cfg, "--restart", str(out / "snapshot_00002.qg3d")]) == 1
    err = capsys.readouterr().err
    assert f"qg3d run: error: {csv}: header is not t,v_l2," in err
    assert "run complete" not in err
    assert (snapshot.stat().st_ino, snapshot.stat().st_mtime_ns, snapshot.read_bytes()) == before
    assert csv.read_bytes() == csv_before


def test_run_from_t0_replaces_an_unparseable_csv(tmp_path, monkeypatch, capsys):
    # old rows are read only when the run starts at t0 > 0
    cfg = write_cfg(tmp_path, RANDOM_8)
    out = use_out(monkeypatch, tmp_path, "out")
    out.mkdir()
    (out / "diagnostics.csv").write_text("not a csv\nx,y\n", encoding="ascii")
    assert main(["run", cfg]) == 0
    capsys.readouterr()
    header, *rows = (out / "diagnostics.csv").read_text().splitlines()
    assert header == ",".join(CSV_COLUMNS)
    assert len(rows) == 3


def test_the_csv_headers_on_disk_are_spelled_out(tmp_path, monkeypatch, capsys):
    # CSV_COLUMNS is read off DiagnosticsRecord's fields, so this literal is
    # what keeps a reordered record from reordering diagnostics.csv
    diagnostics = (
        "t", "v_l2", "q_l2", "q_l4", "q_l6", "q_linf", "v_linf", "v2_l6", "v2_linf",
        "dq_l2", "dq_l3", "dq_l4", "d2q_l3", "hm_q", "hm_v", "grad_v_linf",
    )
    ratios = (
        "t", "cz_ratio_l2", "cz_ratio_l4", "gn_ratio",
        "q_l2_over_poly", "q_l4_over_poly", "q_l6_over_poly", "d2q_l3",
    )
    assert (CSV_COLUMNS, RATIOS_HEADER) == (diagnostics, ratios)
    cfg = write_cfg(tmp_path, RANDOM_8)
    out = use_out(monkeypatch, tmp_path, "out")
    assert main(["run", cfg]) == 0
    capsys.readouterr()
    for name, header in (("diagnostics.csv", diagnostics), ("ratios.csv", ratios)):
        assert (out / name).read_text().splitlines()[0] == ",".join(header)


@pytest.mark.parametrize(
    "lines, key",
    [("ic.seed = -1", "ic.seed"),
     ("lagrangian.enabled = true\nlagrangian.seed = -3", "lagrangian.seed")],
)
def test_negative_seed_exits_1_before_any_output(tmp_path, monkeypatch, capsys, lines, key):
    cfg = write_cfg(tmp_path, RANDOM_8 + lines + "\n")
    out = use_out(monkeypatch, tmp_path, "out")
    assert main(["run", cfg]) == 1
    assert f"qg3d run: config error: {key}: " in capsys.readouterr().err
    assert not out.exists()


def test_rossby_mode_outside_the_cube_exits_1_before_any_output(tmp_path, monkeypatch, capsys):
    # s_x = 3 is below Nyquist on 8 points but outside the two-thirds cube
    cfg = write_cfg(tmp_path, "grid.nx = 8\ngrid.ny = 8\ngrid.nz = 8\nic.kind = rossby\n"
                    "ic.sx = 3\nic.sy = 0\nic.sz = 0\ntime.t_end = 0.01\n")
    out = use_out(monkeypatch, tmp_path, "out")
    assert main(["run", cfg]) == 1
    assert "qg3d run: error: mode (3, 0, 0) lies outside the two-thirds cube" in (
        capsys.readouterr().err)
    assert not out.exists()


def test_verify_of_a_mode_outside_the_cube_exits_1_before_any_output(
    tmp_path, monkeypatch, capsys
):
    cfg = write_cfg(tmp_path, "grid.nx = 8\ngrid.ny = 8\ngrid.nz = 8\nic.kind = rossby\n"
                    "ic.sx = 3\nic.sy = 0\nic.sz = 0\ntime.t_end = 0.01\n")
    out = use_out(monkeypatch, tmp_path, "out")
    assert main(["verify", cfg]) == 1
    assert "qg3d verify: error: mode (3, 0, 0) lies outside the two-thirds cube" in (
        capsys.readouterr().err)
    assert not out.exists()


def test_restart_from_a_corrupt_checkpoint_exits_1_before_any_output(
    tmp_path, monkeypatch, capsys
):
    cfg = write_cfg(tmp_path, RANDOM_8)
    first = use_out(monkeypatch, tmp_path, "first")
    assert main(["run", cfg]) == 0
    capsys.readouterr()
    checkpoint = first / "checkpoint.qg3d"
    checkpoint.write_bytes(checkpoint.read_bytes()[:-8])
    out = use_out(monkeypatch, tmp_path, "restarted")
    assert main(["run", cfg, "--restart", str(checkpoint)]) == 1
    err = capsys.readouterr().err
    assert f"qg3d run: error: {checkpoint}: " in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "verify"])
@pytest.mark.parametrize("seed", ["-1", "abc", "1.5"])
def test_seed_flag_must_be_a_non_negative_integer(tmp_path, monkeypatch, capsys, command, seed):
    cfg = write_cfg(tmp_path, RANDOM_8)
    out = use_out(monkeypatch, tmp_path, "out")
    assert main([command, cfg, "--seed", seed]) == 64
    assert "argument --seed: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("sidecar", ["[]", '"x"', "{not json"])
def test_restart_from_a_corrupt_sidecar_exits_1(tmp_path, monkeypatch, capsys, sidecar):
    cfg = write_cfg(tmp_path, RANDOM_8)
    out = use_out(monkeypatch, tmp_path, "out")
    assert main(["run", cfg]) == 0
    capsys.readouterr()
    meta = out / "checkpoint.qg3d.meta.json"
    meta.write_text(sidecar, encoding="ascii")
    use_out(monkeypatch, tmp_path, "restarted")
    assert main(["run", cfg, "--restart", str(out / "checkpoint.qg3d")]) == 1
    err = capsys.readouterr().err
    assert f"qg3d run: error: {meta}: sidecar " in err
    assert "Traceback" not in err


def test_restart_grid_mismatch_exits_1(tmp_path, monkeypatch, capsys):
    cfg16 = write_cfg(tmp_path, ROSSBY_16, "a.cfg")
    out = use_out(monkeypatch, tmp_path, "a")
    assert main(["run", cfg16]) == 0
    cfg8 = write_cfg(tmp_path, ROSSBY_16.replace("16", "8"), "b.cfg")
    use_out(monkeypatch, tmp_path, "b")
    assert main(["run", cfg8, "--restart", str(out / "checkpoint.qg3d")]) == 1
    assert "grid" in capsys.readouterr().err
    cfg_f2 = write_cfg(tmp_path, ROSSBY_16 + "physics.F = 2.0\n", "c.cfg")
    use_out(monkeypatch, tmp_path, "c")
    assert main(["run", cfg_f2, "--restart", str(out / "checkpoint.qg3d")]) == 1
    err = capsys.readouterr().err
    assert "F = 1.0" in err and "F = 2.0" in err


def test_seed_flag_overrides_and_runs_are_deterministic(tmp_path, monkeypatch, capsys):
    cfg = write_cfg(tmp_path, RANDOM_8)
    out_a = use_out(monkeypatch, tmp_path, "a")
    assert main(["run", cfg]) == 0
    out_b = use_out(monkeypatch, tmp_path, "b")
    assert main(["run", cfg, "--seed", "7"]) == 0
    out_c = use_out(monkeypatch, tmp_path, "c")
    assert main(["run", cfg]) == 0
    capsys.readouterr()

    bytes_a = (out_a / "final.qg3d").read_bytes()
    assert bytes_a != (out_b / "final.qg3d").read_bytes()
    assert bytes_a == (out_c / "final.qg3d").read_bytes()


def test_output_directory_from_config_when_env_unset(tmp_path, monkeypatch):
    monkeypatch.delenv("QG3D_OUTPUT_DIR", raising=False)
    monkeypatch.chdir(tmp_path)
    cfg = write_cfg(tmp_path, RANDOM_8 + "output.directory = picked-by-config\n")
    assert main(["run", cfg]) == 0
    assert (tmp_path / "picked-by-config" / "final.qg3d").exists()
