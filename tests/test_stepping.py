"""Time-integration oracles: step-size control arithmetic, integrating-factor
exactness on pure decay, single-step order, and run-loop event semantics."""

import numpy as np
import pytest
import scipy.fft

from qg3d.dynamics import PhysicsParams, tendency_raw
from qg3d.errors import NonFiniteError
from qg3d.grid import GridSpec
from qg3d.initial import make_random, make_rossby, make_zonal
from qg3d.spectral import SpectralField, fwd, inv
from qg3d.stepping import (
    Observer,
    State,
    StepControl,
    _viscous_factors,
    cfl_dt,
    rk4_step,
    run,
)


def test_cfl_quiescent_gives_dt_max():
    grid = GridSpec(16, 16, 16)
    zero = State(
        SpectralField(grid, np.zeros(grid.kshape, dtype=np.complex128)),
        0.0,
        PhysicsParams(),
    )
    control = StepControl(mode="cfl", cfl_number=0.5, dt_max=0.03)
    assert cfl_dt(zero, control) == 0.03


def test_cfl_closed_form():
    # psi = cos(y): v1 = sin(y) with max 1, v2 = 0
    # dt = cfl * dx / 1, well inside the clamps
    grid = GridSpec(16, 16, 1)
    state = make_zonal(grid, np.cos(grid.y))
    control = StepControl(mode="cfl", cfl_number=0.5, dt_min=1e-9, dt_max=10.0)
    expected = 0.5 * grid.dx
    assert abs(cfl_dt(state, control) - expected) < 1e-12 * expected


def test_cfl_clamps():
    grid = GridSpec(16, 16, 1)
    state = make_zonal(grid, 1000.0 * np.cos(grid.y))
    tight = StepControl(mode="cfl", cfl_number=0.5, dt_min=1e-2, dt_max=10.0)
    assert cfl_dt(state, tight) == 1e-2


def test_pure_decay_is_exact():
    # single harmonic with beta = 0 has zero advection, so the viscous
    # integrating factor is the entire step: machine-exact decay at any dt
    grid = GridSpec(16, 16, 16)
    params = PhysicsParams(beta=0.0, nu=0.2, F=1.0)
    state, _ = make_rossby(grid, 1.0, 0.0, 1, 1, 1, 1.0)
    state = State(state.q_hat, 0.0, params)
    c0 = state.q_hat.coeffs[1, 1, 1]
    out = run(state, 1.0, StepControl(mode="fixed", dt_fixed=0.05))
    k2 = 3.0
    expected = c0 * np.exp(-params.nu * k2 * 1.0)
    assert abs(out.q_hat.coeffs[1, 1, 1] - expected) < 1e-12 * abs(expected)


def test_viscous_factor_cache_stays_small_under_cfl_control():
    # every CFL step asks for a new dt, so the cache holds at most the pair
    # of the last two; a fixed step still reuses its pair
    grid = GridSpec(16, 16, 16)
    state = make_random(grid, -3.0, 100.0, 5, params=PhysicsParams(nu=0.01))
    _viscous_factors.cache_clear()
    run(state, 0.3, StepControl(mode="cfl", dt_max=1.0))
    info = _viscous_factors.cache_info()
    assert info.misses > 2 and info.currsize <= 2, info
    _viscous_factors.cache_clear()
    run(state, 0.1, StepControl(mode="fixed", dt_fixed=0.01))
    info = _viscous_factors.cache_info()
    assert info.hits >= 8 and info.currsize <= 2, info


def test_single_step_fifth_order_local_error():
    # halving dt must shrink the one-step error by about 2^5
    grid = GridSpec(16, 16, 16)
    state, exact = make_rossby(grid, 1.0, 8.0, 1, 0, 0, 1.0)

    def one_step_error(dt):
        stepped = rk4_step(state, dt)
        return np.max(np.abs(stepped.q_hat.coeffs - exact(dt).coeffs))

    ratio = one_step_error(0.02) / one_step_error(0.01)
    assert 28.0 < ratio < 36.0


def test_zonal_state_is_steady():
    grid = GridSpec(16, 16, 4)
    state = make_zonal(grid, np.cos(2 * grid.y) + 0.3 * np.sin(grid.y))
    out = run(state, 1.0, StepControl(mode="fixed", dt_fixed=0.02))
    drift = np.max(np.abs(out.q_hat.coeffs - state.q_hat.coeffs))
    assert drift < 1e-12 * np.max(np.abs(state.q_hat.coeffs))


def test_run_lands_exactly_on_t_end():
    grid = GridSpec(8, 8, 8)
    state, _ = make_rossby(grid, 1.0, 1.0, 1, 0, 0, 1.0)
    out = run(state, 0.123456, StepControl(mode="fixed", dt_fixed=0.01))
    assert out.t == 0.123456


def test_timed_observer_fires_on_exact_multiples():
    grid = GridSpec(8, 8, 8)
    state, _ = make_rossby(grid, 1.0, 1.0, 1, 0, 0, 1.0)
    times = []
    run(
        state,
        1.0,
        StepControl(mode="fixed", dt_fixed=0.03),
        observers=[Observer(lambda s: times.append(s.t), every=0.25)],
    )
    assert times == [0.0, 0.25, 0.5, 0.75, 1.0]


def test_restarted_run_fires_at_the_direct_runs_times():
    grid = GridSpec(8, 8, 8)
    state = make_random(grid, -3.0, 1.0, 5)
    control = StepControl(mode="fixed", dt_fixed=0.03)
    direct, restarted = [], []
    final = run(state, 1.0, control, observers=[Observer(direct.append, every=0.05)])
    mid = next(s for s in direct if s.t == 0.5)
    again = run(mid, 1.0, control, observers=[Observer(restarted.append, every=0.05)])
    times = [s.t for s in restarted]
    assert len(times) == 11
    assert times == [s.t for s in direct if s.t >= 0.5]
    # times of the form t0 + j * every miss the direct run's in the last bit
    assert [0.5 + j * 0.05 for j in range(11)] != times
    # landing on the same times, the restart takes the same steps
    assert again.q_hat.coeffs.tobytes() == final.q_hat.coeffs.tobytes()


def test_every_step_observer_sees_all_states():
    grid = GridSpec(8, 8, 8)
    state, _ = make_rossby(grid, 1.0, 1.0, 1, 0, 0, 1.0)
    times = []
    run(
        state,
        0.05,
        StepControl(mode="fixed", dt_fixed=0.01),
        observers=[lambda s: times.append(s.t)],
    )
    assert len(times) == 6  # initial state plus five steps
    assert times[0] == 0.0 and times[-1] == 0.05


def test_zero_duration_run_is_identity():
    grid = GridSpec(8, 8, 8)
    state, _ = make_rossby(grid, 1.0, 1.0, 1, 1, 0, 1.0)
    out = run(state, 0.0, StepControl(mode="fixed", dt_fixed=0.01))
    assert out.t == 0.0
    assert np.array_equal(out.q_hat.coeffs, state.q_hat.coeffs)


def test_runs_are_deterministic():
    grid = GridSpec(16, 16, 8)
    control = StepControl(mode="cfl", cfl_number=0.4)
    outs = []
    for _ in range(2):
        state = make_random(grid, -3.0, 1.0, 5)
        outs.append(run(state, 0.3, control).q_hat.coeffs)
    assert np.array_equal(outs[0], outs[1])


def test_runs_do_not_depend_on_the_fft_worker_count():
    # the transforms take scipy's worker count, which a caller sets around a run
    grid = GridSpec(32, 32, 16)
    control = StepControl(mode="fixed", dt_fixed=2e-3)
    state = make_random(grid, -3.0, 1.0, 11, band=(2, 8))
    outs = [run(state, 5 * 2e-3, control).q_hat.coeffs.tobytes()]
    with scipy.fft.set_workers(2):
        outs.append(run(state, 5 * 2e-3, control).q_hat.coeffs.tobytes())
    assert outs[0] == outs[1]


def test_fixed_mode_takes_dt_fixed_past_the_clamps():
    # dt_min and dt_max bound only the CFL controller; a fixed step is as given
    grid = GridSpec(8, 8, 8)
    state, _ = make_rossby(grid, 1.0, 1.0, 1, 0, 0, 1.0)
    times = []
    control = StepControl(mode="fixed", dt_fixed=0.1, dt_max=0.05)
    out = run(state, 0.2, control, observers=[lambda s: times.append(s.t)])
    assert times == [0.0, 0.1, 0.2]
    assert out.t == 0.2


def test_blowup_raises_nonfinite_with_time():
    grid = GridSpec(16, 16, 1)
    state = make_random(grid, -1.0, 50.0, 2, band=(2, 5))
    with pytest.raises(NonFiniteError) as excinfo:
        run(state, 50.0, StepControl(mode="fixed", dt_fixed=2.0, dt_max=2.0))
    assert excinfo.value.time > 0.0


def test_inviscid_step_matches_classical_rk4():
    grid = GridSpec(16, 16, 8)
    state = make_random(grid, -3.0, 1.0, 9)
    dt = 1e-3
    stepped = rk4_step(state, dt)

    def f(c):
        return tendency_raw(grid, c, state.t, state.params)

    c = state.q_hat.coeffs
    k1 = f(c)
    k2 = f(c + 0.5 * dt * k1)
    k3 = f(c + 0.5 * dt * k2)
    k4 = f(c + dt * k3)
    manual = c + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    manual[0, 0, 0] = 0.0
    assert np.max(np.abs(stepped.q_hat.coeffs - manual)) < 1e-15


def test_step_control_validation():
    with pytest.raises(ValueError):
        StepControl(mode="warp")
    with pytest.raises(ValueError):
        StepControl(mode="fixed", dt_fixed=-1.0)
    with pytest.raises(ValueError):
        StepControl(mode="cfl", dt_min=0.1, dt_max=0.01)


@pytest.mark.parametrize(
    "kwargs", [{"dt_fixed": np.inf}, {"dt_max": np.inf}, {"dt_fixed": np.nan}, {"dt_min": np.nan}]
)
def test_step_control_rejects_non_finite_steps(kwargs):
    with pytest.raises(ValueError):
        StepControl(**kwargs)


@pytest.mark.parametrize("t_end", [np.inf, np.nan])
def test_run_rejects_a_non_finite_t_end(t_end):
    # with no observer to cut the steps, an infinite t_end ends the loop at once
    state, _ = make_rossby(GridSpec(8, 8, 8), 1.0, 0.0, 1, 1, 1, 1.0)
    with pytest.raises(ValueError, match="t_end"):
        run(state, t_end, StepControl(mode="fixed", dt_fixed=1e-3))


@pytest.mark.parametrize("every", [np.inf, np.nan, 0.0, -1.0])
def test_observer_rejects_a_non_positive_or_non_finite_interval(every):
    with pytest.raises(ValueError, match="observer interval"):
        Observer(lambda s: None, every=every)


@pytest.mark.parametrize("grid", [GridSpec(8, 8, 8), GridSpec(16, 8, 4)], ids=["8^3", "16x8x4"])
def test_state_refuses_coefficients_outside_the_two_thirds_cube(grid):
    # one spot in each region that fwd(..., truncate=True) zeroes: the x
    # columns, the z planes and the y rows beyond n/3
    zlo, zhi, lo, hi, kx = grid.dealias_bounds
    inside = make_random(grid, -3.0, 1.0, 2).q_hat.coeffs
    spots = [(0, 1, kx), (zlo, 1, 1), (1, lo, 1)]
    for spot in spots:
        c = inside.copy()
        c[spot] = 1e-17
        with pytest.raises(ValueError, match="two-thirds cube"):
            State(SpectralField(grid, c), 0.0, PhysicsParams())
    # a value test: the same spots holding -0.0 are accepted
    c = inside.copy()
    for spot in spots:
        c[spot] = -0.0
    assert State(SpectralField(grid, c), 0.0, PhysicsParams()).q_hat.coeffs is c
