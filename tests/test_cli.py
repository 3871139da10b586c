"""Command-line contract: exit codes, emitted files, and stream discipline.

Heavier flows call ``main`` in process; the exit-code contract is also
exercised by spawning the interpreter, since that is how callers see it.
"""

import importlib
import os
import shutil
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qg3d.cli import main
from qg3d.diagnostics import CSV_COLUMNS
from qg3d.dynamics import PhysicsParams
from qg3d.grid import GridSpec
from qg3d.initial import make_random
from qg3d.snapshots import read_snapshot, write_snapshot
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


def test_blowup_exits_2_and_keeps_partial_diagnostics(tmp_path, monkeypatch, capsys):
    cfg = write_cfg(tmp_path, BLOWUP)
    out = use_out(monkeypatch, tmp_path, "out")
    assert main(["run", cfg]) == 2
    assert "blow-up" in capsys.readouterr().err
    assert (out / "diagnostics.csv").exists()
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


def test_trace_emits_particle_csv(tmp_path, monkeypatch, capsys):
    cfg = write_cfg(
        tmp_path,
        "grid.nx = 16\ngrid.ny = 16\ngrid.nz = 16\n"
        "ic.kind = rossby\n"
        "time.mode = fixed\ntime.dt = 1e-3\ntime.t_end = 0.02\n"
        "output.record_every = 0.01\n"
        "lagrangian.particles = 32\n"
        "lagrangian.z_levels = 0.0, 3.141592653589793\n"
        "lagrangian.sample_every = 10\n",
    )
    out = use_out(monkeypatch, tmp_path, "trace-out")
    assert main(["trace", cfg]) == 0
    err = capsys.readouterr().err
    assert "max |duhamel residual|" in err
    residual = float(err.rsplit("=", 1)[1])
    assert residual < 1e-6

    lines = (out / "particles.csv").read_text().splitlines()
    assert lines[0] == "particle_id,t,x,y,z,integral,residual"
    assert len(lines) > 1 and (len(lines) - 1) % 32 == 0


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


def test_restart_grid_mismatch_exits_1(tmp_path, monkeypatch, capsys):
    cfg16 = write_cfg(tmp_path, ROSSBY_16, "a.cfg")
    out = use_out(monkeypatch, tmp_path, "a")
    assert main(["run", cfg16]) == 0
    cfg8 = write_cfg(tmp_path, ROSSBY_16.replace("16", "8"), "b.cfg")
    use_out(monkeypatch, tmp_path, "b")
    assert main(["run", cfg8, "--restart", str(out / "checkpoint.qg3d")]) == 1
    assert "grid" in capsys.readouterr().err


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
