"""Characteristic-tracer oracles: exact interpolation, analytically solvable
flows, refined-step references, and the along-path identity itself."""

from dataclasses import replace

import numpy as np
import pytest

from qg3d.dynamics import PhysicsParams
from qg3d.grid import GridSpec
from qg3d.initial import make_random, make_zonal
from qg3d.particles import (
    ParticleSet,
    TrajectoryTracer,
    _sum_at_points,
    advance_particles,
    duhamel_residual,
    evaluate_at_points,
    velocity_table,
    wrap_positions,
    write_trajectories_csv,
)
from qg3d.spectral import SpectralField, fwd, solve_stratified_poisson
from qg3d.stepping import Observer, State, StepControl, run
from reference_forms import mesh, velocity_spectra


def spectral_of(grid, values):
    return SpectralField(grid, fwd(grid, values))


def state_of_psi(grid, psi_values, F=1.0):
    """The state whose scalar is q = L psi, for a streamfunction given by
    its samples; the tracer's tables come from q, not from psi."""
    psi = fwd(grid, psi_values, truncate=True)
    q_hat = SpectralField(grid, psi * grid.stratified_symbol(F))
    return State(q_hat, 0.0, PhysicsParams(F=F))


def cube_sums(table, grid, pts):
    """(v1, v2) of a cube table (``velocity_table``) at the points."""
    return _sum_at_points(table, grid, pts, grid.dealias_bounds[2])


def scattered_points(n, seed=0):
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, 2.0 * np.pi, (n, 2))


def test_evaluate_matches_closed_form_off_grid():
    grid = GridSpec(16, 16, 8)
    X, Y, Z = mesh(grid)
    fh = spectral_of(grid, np.cos(X) * np.sin(2 * Y) * np.cos(Z))
    pts = scattered_points(40)
    z0 = 0.789
    got = evaluate_at_points(fh, pts, z0)
    want = np.cos(pts[:, 0]) * np.sin(2 * pts[:, 1]) * np.cos(z0)
    assert np.max(np.abs(got - want)) < 1e-13


def test_evaluate_collocates_at_grid_points():
    grid = GridSpec(16, 16, 8)
    rng = np.random.default_rng(1)
    f = rng.standard_normal(grid.shape)
    fh = spectral_of(grid, f)
    iz = 3
    pts = np.array([[grid.x[5], grid.y[9]], [grid.x[0], grid.y[0]]])
    got = evaluate_at_points(fh, pts, grid.z[iz])
    assert abs(got[0] - f[iz, 9, 5]) < 1e-12
    assert abs(got[1] - f[iz, 0, 0]) < 1e-12


def test_evaluate_handles_mean_component():
    grid = GridSpec(8, 8, 8)
    fh = spectral_of(grid, np.full(grid.shape, 1.5))
    got = evaluate_at_points(fh, scattered_points(5), 0.3)
    assert np.max(np.abs(got - 1.5)) < 1e-13


def test_velocity_table_shape_and_values():
    grid = GridSpec(16, 16, 4)
    X, Y, _ = mesh(grid)
    table = velocity_table(state_of_psi(grid, np.cos(X) + np.sin(Y)), 0.0)
    assert table.shape == (2, 11, 6)
    pts = scattered_points(7, seed=2)
    v = cube_sums(table, grid, pts)
    assert v.shape == (7, 2)
    # v1 = -psi_y = -cos(y), v2 = psi_x = -sin(x)
    assert np.max(np.abs(v[:, 0] + np.cos(pts[:, 1]))) < 1e-13
    assert np.max(np.abs(v[:, 1] + np.sin(pts[:, 0]))) < 1e-13


def test_wrap_positions():
    grid = GridSpec(8, 8, 8)
    pts = np.array([[2.0 * np.pi + 0.1, -0.2], [0.5, 1.0]])
    wrapped = wrap_positions(pts, grid)
    assert np.allclose(wrapped[0], [0.1, 2.0 * np.pi - 0.2])
    assert np.allclose(wrapped[1], [0.5, 1.0])


def test_particle_set_validation():
    grid = GridSpec(8, 8, 8)
    labels = scattered_points(4)
    with pytest.raises(ValueError):
        ParticleSet(grid, labels, 0.0, labels.copy(), np.zeros(3))
    ps = ParticleSet.at_rest(grid, labels, 1.0)
    assert len(ps) == 4
    assert np.all(ps.integrals == 0.0)


def circular_gap(a, b, length=2.0 * np.pi):
    d = np.abs(a - b) % length
    return np.minimum(d, length - d)


def test_advance_constant_velocity_is_exact():
    # v = (1, 2) uniformly: x(t) = x0 + t, y(t) = y0 + 2t, integral = 2t
    grid = GridSpec(8, 8, 8)
    table = velocity_table(state_of_psi(grid, np.zeros(grid.shape)), 0.0)
    table[:, 0, 0] = (1.0, 2.0)
    ps = ParticleSet.at_rest(grid, scattered_points(6), 0.0)
    out = advance_particles(ps, (table, table, table), 0.25)
    assert np.max(circular_gap(out.positions[:, 0], ps.positions[:, 0] + 0.25)) < 1e-13
    assert np.max(circular_gap(out.positions[:, 1], ps.positions[:, 1] + 0.5)) < 1e-13
    assert np.max(np.abs(out.integrals - 0.5)) < 1e-14
    assert np.array_equal(out.labels, ps.labels)


def test_advance_shear_flow_is_exact():
    # v = (sin y, 0): y never changes, x moves linearly at sin(y0);
    # every RK4 stage sees the same velocity, so the step is exact
    grid = GridSpec(16, 16, 4)
    _, Y, _ = mesh(grid)
    steady = (velocity_table(state_of_psi(grid, np.cos(Y)), 0.0),) * 3
    labels = scattered_points(10, seed=3)
    ps = ParticleSet.at_rest(grid, labels, 0.0)
    dt = 0.3
    out = advance_particles(ps, steady, dt)
    want_x = (labels[:, 0] + dt * np.sin(labels[:, 1])) % (2.0 * np.pi)
    assert np.max(np.abs(out.positions[:, 0] - want_x)) < 1e-13
    assert np.max(np.abs(out.positions[:, 1] - labels[:, 1])) < 1e-13
    assert np.max(np.abs(out.integrals)) < 1e-15


def test_advance_converges_to_refined_reference():
    # steady nonlinear flow: one coarse step vs many fine steps
    grid = GridSpec(16, 16, 4)
    X, Y, _ = mesh(grid)
    steady = (velocity_table(state_of_psi(grid, np.cos(X) + np.cos(Y)), 0.0),) * 3
    ps = ParticleSet.at_rest(grid, scattered_points(8, seed=4), 0.0)

    coarse = advance_particles(ps, steady, 0.2)
    fine = ps
    for _ in range(200):
        fine = advance_particles(fine, steady, 1e-3)
    err = np.max(circular_gap(coarse.positions, fine.positions))
    assert err < 1e-5  # one 0.2 step of a 4th-order scheme

    half = ps
    for _ in range(2):
        half = advance_particles(half, steady, 0.1)
    err_half = np.max(circular_gap(half.positions, fine.positions))
    assert err_half < err / 8.0  # at least cubic gain observed


def reference_velocity(pair, pts, z_level):
    """(v1, v2) from the velocity spectra, each collapsed and summed on its
    own: the per-component expression the velocity tables replace."""
    return np.stack([evaluate_at_points(vh, pts, z_level) for vh in pair], axis=1)


def reference_step(ps, pairs, dt):
    """RK4 step fed by per-component spectra at the start, mid and end."""
    x0, z = ps.positions, ps.z_level
    k1 = reference_velocity(pairs[0], x0, z)
    k2 = reference_velocity(pairs[1], x0 + 0.5 * dt * k1, z)
    k3 = reference_velocity(pairs[1], x0 + 0.5 * dt * k2, z)
    k4 = reference_velocity(pairs[2], x0 + dt * k3, z)
    incr = (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return replace(ps, positions=x0 + incr, integrals=ps.integrals + incr[:, 1])


def test_velocity_tables_match_per_component_spectra():
    grid = GridSpec(32, 32, 32)
    state = make_random(grid, -3.0, 1.0, 12)
    psi = solve_stratified_poisson(state.q_hat, state.params.F)
    v1h, v2h, _ = velocity_spectra(psi)
    pts = scattered_points(128, seed=12)
    for z in (0.0, 1.1, np.pi):
        want = reference_velocity((v1h, v2h), pts, z)
        got = cube_sums(velocity_table(state, z), grid, pts)
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


@pytest.mark.parametrize(
    "grid, F",
    [(GridSpec(64, 64, 64), 1.0), (GridSpec(32, 32, 16, lx=1.0, ly=3.0, lz=0.7), 0.7)],
    ids=["64-cube", "box-1x3x0.7"],
)
def test_velocity_tables_match_per_component_spectra_on_other_grids(grid, F):
    state = make_random(grid, -3.0, 1.0, 14, params=PhysicsParams(F=F))
    v1h, v2h, _ = velocity_spectra(solve_stratified_poisson(state.q_hat, F))
    rng = np.random.default_rng(14)
    pts = rng.uniform(0.0, 1.0, (256, 2)) * (grid.lx, grid.ly)
    for z in (0.0, 0.3 * grid.lz, 0.5 * grid.lz):
        want = reference_velocity((v1h, v2h), pts, z)
        got = cube_sums(velocity_table(state, z), grid, pts)
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


def test_point_sums_match_closed_forms_on_a_box():
    # on a 1 x 3 x 0.7 box the phase of mode j is 2 pi j x / L, so a phase
    # step of 1 (right only on the 2 pi box) fails here
    grid = GridSpec(16, 16, 8, lx=1.0, ly=3.0, lz=0.7)
    X, Y, Z = mesh(grid)
    a, b, c = 2.0 * np.pi / grid.lx, 4.0 * np.pi / grid.ly, 2.0 * np.pi / grid.lz
    F = 0.7
    psi = np.cos(a * X) * np.sin(b * Y) * np.cos(c * Z)
    state = state_of_psi(grid, psi, F)
    rng = np.random.default_rng(15)
    pts = rng.uniform(0.0, 1.0, (40, 2)) * (grid.lx, grid.ly)
    x, y = pts[:, 0], pts[:, 1]
    z0 = 0.123
    v = cube_sums(velocity_table(state, z0), grid, pts)
    v1 = -b * np.cos(a * x) * np.cos(b * y) * np.cos(c * z0)
    v2 = -a * np.sin(a * x) * np.sin(b * y) * np.cos(c * z0)
    assert np.max(np.abs(v[:, 0] - v1)) < 1e-13 * b
    assert np.max(np.abs(v[:, 1] - v2)) < 1e-13 * a
    q = evaluate_at_points(state.q_hat, pts, z0)
    k2 = a * a + b * b + F * F * c * c
    want = -k2 * np.cos(a * x) * np.sin(b * y) * np.cos(c * z0)
    assert np.max(np.abs(q - want)) < 1e-13 * k2


@pytest.mark.parametrize("t_mid", [0.005, 0.004])
def test_tracer_pair_matches_per_component_reference(t_mid):
    # an even pair is one step over the three states; an uneven one is two
    # steps, each with the average of its end spectra at the midpoint
    grid = GridSpec(32, 32, 32)
    times = (0.0, t_mid, 0.01)
    states = [replace(make_random(grid, -3.0, 1.0, 20 + i), t=t) for i, t in enumerate(times)]
    sets = [ParticleSet.at_rest(grid, scattered_points(32, seed=13), z) for z in (0.0, 1.1, np.pi)]
    tracer = TrajectoryTracer(sets, states[0].q_hat, beta=1.0)
    for state in states:
        tracer(state)
    a, b, c = (
        velocity_spectra(solve_stratified_poisson(s.q_hat, s.params.F))[:2] for s in states
    )

    def mean(u, w):
        return tuple(SpectralField(grid, 0.5 * (x.coeffs + y.coeffs)) for x, y in zip(u, w))

    for ps, got in zip(sets, tracer.sets):
        if t_mid == 0.005:
            want = reference_step(ps, (a, b, c), 0.01)
        else:
            want = reference_step(ps, (a, mean(a, b), b), t_mid)
            want = reference_step(want, (b, mean(b, c), c), 0.01 - t_mid)
        vmax = np.max(np.abs(reference_velocity(a, ps.labels, ps.z_level)))
        assert np.max(np.abs(got.integrals - want.integrals)) <= 1e-15 * vmax * 0.01
        gap = circular_gap(got.positions, want.positions)
        assert np.max(gap) <= 1e-15 * vmax * 0.01 + 2.0 * np.spacing(2.0 * np.pi)


def test_tracer_rejects_a_state_with_another_beta():
    grid = GridSpec(8, 8, 8)
    state = make_random(grid, -3.0, 1.0, 1, params=PhysicsParams(beta=2.0))
    ps = ParticleSet.at_rest(grid, scattered_points(4), 0.0)
    tracer = TrajectoryTracer([ps], state.q_hat, beta=1.0)
    with pytest.raises(ValueError, match=r"beta = 1\.0 .* beta = 2\.0"):
        tracer(state)


def test_duhamel_residual_at_initial_time_is_zero():
    grid = GridSpec(16, 16, 8)
    state = make_random(grid, -3.0, 1.0, 6)
    ps = ParticleSet.at_rest(grid, scattered_points(12, seed=5), 0.5)
    res = duhamel_residual(state.q_hat, ps, state.q_hat)
    assert np.max(np.abs(res)) < 1e-14


def test_tracer_resolved_run_closes_identity():
    # band-limited so the quadratic term stays inside the retained modes:
    # the only residual left is time integration, orders below tolerance
    grid = GridSpec(32, 32, 32)
    state = make_random(grid, -3.0, 0.5, 3, band=(2, 4))
    ps = ParticleSet.at_rest(grid, scattered_points(16, seed=6), 0.0)
    tracer = TrajectoryTracer([ps], state.q_hat, beta=1.0, sample_every=10)
    run(
        state,
        0.1,
        StepControl(mode="fixed", dt_fixed=1e-3),
        observers=[Observer(tracer)],
    )
    tracer.finalize()
    assert tracer.max_residual() < 1e-10
    assert len(tracer.samples) >= 2


def test_tracer_zonal_flow_residual_is_tiny():
    grid = GridSpec(16, 16, 4)
    state = make_zonal(grid, np.cos(grid.y))
    ps = ParticleSet.at_rest(grid, scattered_points(8, seed=7), 0.5)
    tracer = TrajectoryTracer([ps], state.q_hat, beta=1.0)
    run(
        state,
        0.4,
        StepControl(mode="fixed", dt_fixed=0.02),
        observers=[Observer(tracer)],
    )
    tracer.finalize()
    assert tracer.max_residual() < 1e-13


def test_tracer_handles_uneven_and_odd_steps():
    # a 0.005 observer cadence with dt = 0.002 forces truncated, unequal
    # solver steps; the tracer's fallback path must still close the identity
    grid = GridSpec(32, 32, 32)
    state = make_random(grid, -3.0, 0.5, 3, band=(2, 4))
    ps = ParticleSet.at_rest(grid, scattered_points(8, seed=8), 0.0)
    tracer = TrajectoryTracer([ps], state.q_hat, beta=1.0)
    run(
        state,
        0.02,
        StepControl(mode="fixed", dt_fixed=0.002),
        observers=[Observer(tracer), Observer(lambda s: None, every=0.005)],
    )
    tracer.finalize()
    assert tracer.time == pytest.approx(0.02, abs=1e-12)
    assert tracer.max_residual() < 1e-8


def test_trajectories_csv_format(tmp_path):
    grid = GridSpec(16, 16, 8)
    state = make_random(grid, -3.0, 0.5, 10, band=(2, 3))
    sets = [
        ParticleSet.at_rest(grid, scattered_points(3, seed=10), 0.0),
        ParticleSet.at_rest(grid, scattered_points(3, seed=11), np.pi),
    ]
    tracer = TrajectoryTracer(sets, state.q_hat, beta=1.0, sample_every=2)
    run(
        state,
        0.04,
        StepControl(mode="fixed", dt_fixed=0.002),
        observers=[Observer(tracer)],
    )
    tracer.finalize()
    path = tmp_path / "particles.csv"
    write_trajectories_csv(path, tracer.samples)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "particle_id,t,x,y,z,integral,residual"
    n_times = len({s.t for s in tracer.samples})
    assert len(lines) == 1 + 6 * n_times
    first = lines[1].split(",")
    assert len(first) == 7
    assert int(first[0]) == 0
