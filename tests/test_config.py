"""Config text format: defaults, round-trips, hard errors on unknown keys,
validation messages, and the state/particle builders."""

import numpy as np
import pytest

from qg3d.config import (
    RunConfig,
    build_initial_state,
    build_particle_sets,
    config_digest,
    grid_spec,
    parse_config,
    physics_params,
    serialize_config,
    step_control,
)
from qg3d.errors import ConfigParseError, ConfigValidationError
from qg3d.snapshots import write_snapshot
from qg3d.spectral import _in_cube, l2_norm


def test_empty_config_is_all_defaults():
    cfg = parse_config("")
    assert cfg == RunConfig()
    assert (cfg.nx, cfg.ny, cfg.nz) == (64, 64, 64)
    assert cfg.beta == 1.0 and cfg.F == 1.0 and cfg.nu == 0.0
    assert cfg.ic.kind == "rossby" and (cfg.ic.sx, cfg.ic.sy, cfg.ic.sz) == (1, 1, 1)
    assert cfg.time.mode == "cfl" and cfg.time.cfl_number == 0.5
    assert cfg.time.t_end == 1.0


def test_comments_and_blank_lines_ignored():
    cfg = parse_config(
        """
        # a comment
        grid.nx = 16   # trailing comment

        physics.beta = 2.5
        """
    )
    assert cfg.nx == 16 and cfg.beta == 2.5


def test_round_trip_equality():
    cfg = parse_config(
        "\n".join(
            [
                "grid.nx = 32",
                "grid.ly = 12.566370614359172",
                "physics.nu = 0.001",
                "ic.kind = random_spectrum",
                "ic.band_hi = 5",
                "time.mode = fixed",
                "time.dt = 0.002",
                "output.snapshot_every = 0.5",
                "checks.growth = false",
                "lagrangian.enabled = true",
                "lagrangian.z_levels = 0.0, 1.5707963267948966",
            ]
        )
    )
    assert parse_config(serialize_config(cfg)) == cfg


def test_unknown_key_is_hard_error_with_line():
    with pytest.raises(ConfigParseError) as excinfo:
        parse_config("grid.nx = 16\nphysics.gamma = 3\n")
    assert "line 2" in str(excinfo.value)
    assert "physics.gamma" in str(excinfo.value)


def test_malformed_line_reported():
    with pytest.raises(ConfigParseError):
        parse_config("grid.nx 16")
    with pytest.raises(ConfigParseError):
        parse_config("grid.nx = sixteen")
    with pytest.raises(ConfigParseError):
        parse_config("checks.growth = yes")  # strict true/false


def test_negative_viscosity_rejected():
    with pytest.raises(ConfigValidationError) as excinfo:
        parse_config("physics.nu = -1")
    assert "nu" in str(excinfo.value)


@pytest.mark.parametrize(
    "text, section",
    [("physics.nu = nan", "physics"), ("physics.beta = inf", "physics"),
     ("physics.beta = nan", "physics"), ("physics.F = inf", "physics"),
     ("time.mode = fixed\ntime.dt = inf", "time"), ("time.dt_max = inf", "time"),
     ("time.t_end = inf", "time"), ("time.t_end = nan", "time"),
     ("output.record_every = inf", "output"), ("output.snapshot_every = inf", "output"),
     ("output.checkpoint_every = inf", "output"), ("output.snapshot_every = nan", "output"),
     ("ic.energy = inf", "ic.energy"), ("ic.kind = random_spectrum\nic.slope = nan", "ic.slope"),
     ("ic.amplitude = inf", "ic.amplitude"),
     ("ic.kind = gaussian_blob\nic.amplitude = nan", "ic.amplitude"),
     ("ic.kind = gaussian_blob\nic.center = nan, 1.0, 1.0", "ic.center"),
     ("ic.kind = gaussian_blob\nic.width = nan", "ic.width"),
     ("ic.kind = zonal\nic.profile = 1.0, nan, 0.0", "ic.profile"),
     ("lagrangian.z_levels = nan", "lagrangian.z_levels"),
     ("lagrangian.enabled = true\nlagrangian.z_levels = 0.0, inf", "lagrangian.z_levels"),
     ("grid.lx = inf", "grid"), ("grid.ly = inf", "grid"), ("grid.lz = inf", "grid")],
)
def test_non_finite_constants_rejected(text, section):
    with pytest.raises(ConfigValidationError, match=f"^{section}: "):
        parse_config(text)


@pytest.mark.parametrize(
    "text, key",
    [("ic.seed = -1", "ic.seed"), ("ic.kind = random_spectrum\nic.seed = -1", "ic.seed"),
     ("lagrangian.seed = -3", "lagrangian.seed"),
     ("lagrangian.enabled = true\nlagrangian.seed = -3", "lagrangian.seed")],
)
def test_negative_seeds_rejected(text, key):
    # numpy's generators reject negative seeds with a message that names no key
    with pytest.raises(ConfigValidationError, match=f"^{key}: must be >= 0, got -"):
        parse_config(text)


def test_invalid_invariants_rejected():
    for text in (
        "time.t_end = 0",
        "output.record_every = 0",
        "checks.tol_conservation = 0",
        "grid.nx = 7",
        "ic.kind = vortex",
        "ic.width = -1\nic.kind = gaussian_blob",
        "lagrangian.enabled = true\nlagrangian.particles = 100000",
        "ic.kind = file",  # no path given
    ):
        with pytest.raises(ConfigValidationError):
            parse_config(text)


def test_digest_tracks_content():
    a = parse_config("")
    b = parse_config("grid.nx = 32")
    assert config_digest(a) != config_digest(b)
    assert config_digest(a) == config_digest(parse_config(""))
    assert len(config_digest(a)) == 64


def test_default_digest_is_stable():
    # checkpoint sidecars store this digest; the key order and value format
    # of serialize_config must not change it
    assert config_digest(RunConfig()) == (
        "73f68af21be339d3f37289f3b2b6f89b9c939aa2f55094f18c08ec123a8ce57e"
    )


def test_builders_produce_consistent_objects():
    cfg = parse_config("grid.nx = 16\ngrid.ny = 16\ngrid.nz = 8\nphysics.F = 2.0")
    grid = grid_spec(cfg)
    assert grid.shape == (8, 16, 16)
    params = physics_params(cfg)
    assert params.F == 2.0
    control = step_control(cfg)
    assert control.mode == "cfl"


def test_build_initial_state_all_kinds(tmp_path):
    base = "grid.nx = 16\ngrid.ny = 16\ngrid.nz = 16\n"
    rossby = build_initial_state(parse_config(base + "ic.kind = rossby"))
    rand = build_initial_state(
        parse_config(base + "ic.kind = random_spectrum\nic.energy = 0.5")
    )
    blob = build_initial_state(parse_config(base + "ic.kind = gaussian_blob"))
    zonal = build_initial_state(parse_config(base + "ic.kind = zonal"))
    for state in (rossby, rand, blob, zonal):
        assert state.t == 0.0
        assert state.q_hat.grid.shape == (16, 16, 16)
        assert _in_cube(state.grid, state.q_hat.coeffs)
    assert abs(l2_norm(rand.q_hat) - 0.5) < 1e-12

    snap = tmp_path / "ic.qg3d"
    write_snapshot(rossby, snap)
    from_file = build_initial_state(
        parse_config(base + f"ic.kind = file\nic.path = {snap}")
    )
    gap = np.max(np.abs(from_file.q_hat.coeffs - rossby.q_hat.coeffs))
    assert gap < 1e-13 * np.max(np.abs(rossby.q_hat.coeffs))


def test_file_ic_grid_mismatch_rejected(tmp_path):
    small = build_initial_state(
        parse_config("grid.nx = 8\ngrid.ny = 8\ngrid.nz = 8")
    )
    snap = tmp_path / "small.qg3d"
    write_snapshot(small, snap)
    cfg = parse_config(
        "grid.nx = 16\ngrid.ny = 16\ngrid.nz = 16\n"
        f"ic.kind = file\nic.path = {snap}"
    )
    with pytest.raises(ConfigValidationError):
        build_initial_state(cfg)
    cfg_f2 = parse_config(
        "grid.nx = 8\ngrid.ny = 8\ngrid.nz = 8\nphysics.F = 2.0\n"
        f"ic.kind = file\nic.path = {snap}"
    )
    with pytest.raises(ConfigValidationError, match=r"F = 1\.0 != configured F = 2\.0"):
        build_initial_state(cfg_f2)


def test_build_particle_sets_layout():
    cfg = parse_config(
        "grid.nx = 16\ngrid.ny = 16\ngrid.nz = 16\n"
        "lagrangian.enabled = true\n"
        "lagrangian.particles = 10\n"
        "lagrangian.z_levels = 0.0, 3.0\n"
    )
    sets = build_particle_sets(cfg, grid_spec(cfg))
    assert [ps.z_level for ps in sets] == [0.0, 3.0]
    assert sum(len(ps) for ps in sets) == 10
    again = build_particle_sets(cfg, grid_spec(cfg))
    for a, b in zip(sets, again):
        assert np.array_equal(a.positions, b.positions)


def test_build_particle_sets_places_the_remainder_on_the_first_levels():
    base = (
        "grid.nx = 16\ngrid.ny = 16\ngrid.nz = 16\n"
        "lagrangian.z_levels = 0.0, 3.0\n"
    )
    cfg = parse_config(base + "lagrangian.particles = 7\n")
    sets = build_particle_sets(cfg, grid_spec(cfg))
    assert [len(ps) for ps in sets] == [4, 3]
    # a count that divides evenly draws the same positions as an even split
    cfg = parse_config(base + "lagrangian.particles = 8\n")
    rng = np.random.default_rng(cfg.lagrangian.seed)
    for ps in build_particle_sets(cfg, grid_spec(cfg)):
        xy = np.column_stack((rng.uniform(0.0, cfg.lx, 4), rng.uniform(0.0, cfg.ly, 4)))
        assert np.array_equal(ps.labels, xy)


def test_seed_fields_change_particle_layout():
    base = (
        "grid.nx = 16\ngrid.ny = 16\ngrid.nz = 16\n"
        "lagrangian.enabled = true\nlagrangian.particles = 8\n"
    )
    a = build_particle_sets(parse_config(base), grid_spec(parse_config(base)))
    cfg_b = parse_config(base + "lagrangian.seed = 99")
    b = build_particle_sets(cfg_b, grid_spec(cfg_b))
    assert not np.array_equal(a[0].positions, b[0].positions)
