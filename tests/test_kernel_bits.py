"""The tendency path computes the same bits as its plain reference forms.

``jacobian_raw``, ``tendency_raw``, ``solve_stratified_poisson`` and the
stage arithmetic of ``rk4_step`` work in place on precomputed multipliers.
The spectra that the Jacobian, ``record`` and ``cfl_dt`` transform hold only
the two-thirds cube, in an array kept per grid and thread that ``inv``
transforms in place, skipping the lines the two-thirds rule leaves empty; the
Jacobian's forward transform computes only that cube.  A state lies inside
the cube, so ``record`` and ``cfl_dt`` are tested on such states; the raw
layer is also tested on full spectra, which the Jacobian truncates.  The
references below are the straightforward array expressions they replace,
with ``scipy.fft.irfftn`` as the inverse transform, kept as the specification:
every result must match them byte for byte, not merely to a tolerance.

``fwd`` and ``inv`` call scipy's pocketfft kernels directly, so the tests
also check that the kernels get scipy's worker count, that a result
written to an ``out=`` array has the bits of a new one, and that the pool of
grid arrays ``run`` holds neither aliases a result nor outlives the run.
"""

import contextlib
import dataclasses
import itertools
import math
import sys
import threading
import weakref

import numpy as np
import pytest
import scipy.fft as sfft

from qg3d.diagnostics import DiagnosticsRecord, record
from qg3d.dynamics import NO_FORCING, Forcing, PhysicsParams, jacobian_raw, tendency_raw
from qg3d.errors import NonFiniteError, NonZeroMeanError
from qg3d.grid import GridSpec
from qg3d.initial import make_random
from qg3d.spectral import (
    SpectralField,
    fwd,
    inv,
    l2_norm,
    sobolev_norm,
    solve_stratified_poisson,
)
from qg3d.stepping import Observer, State, StepControl, _viscous_factors, cfl_dt, rk4_step, run
import qg3d.spectral as spectral
import qg3d.stepping as stepping
from reference_forms import derivative, velocity_spectra

# ---- reference forms ---------------------------------------------------------


def ref_inv(grid, coeffs):
    return sfft.irfftn(coeffs, s=grid.shape, norm="forward")


def ref_jacobian_raw(grid, psi_c, q_c):
    mask = grid.dealias_mask
    psi_t = np.where(mask, psi_c, 0.0)
    q_t = np.where(mask, q_c, 0.0)
    psi_x = ref_inv(grid, psi_t * grid.ikx)
    psi_y = ref_inv(grid, psi_t * grid.iky)
    q_x = ref_inv(grid, q_t * grid.ikx)
    q_y = ref_inv(grid, q_t * grid.iky)
    jac = fwd(grid, psi_x * q_y - psi_y * q_x)
    jac = np.where(mask, jac, 0.0)
    jac[0, 0, 0] = 0.0
    return jac


def ref_solve_stratified_poisson(q_hat, F):
    grid = q_hat.grid
    norm = l2_norm(q_hat)
    mean = abs(q_hat.coeffs[0, 0, 0])
    if mean > 1e-12 * norm:
        raise NonZeroMeanError(
            f"zero mode {mean:.3e} exceeds 1e-12 * ||q||_L2 = {1e-12 * norm:.3e}"
        )
    sym = grid.stratified_symbol(F).copy()
    sym[0, 0, 0] = 1.0  # gauge slot, solution mean forced to zero below
    out = q_hat.coeffs / sym
    out[0, 0, 0] = 0.0
    return SpectralField(grid, out)


def ref_tendency_raw(grid, q_c, t, params, forcing=NO_FORCING):
    psi_c = ref_solve_stratified_poisson(SpectralField(grid, q_c), params.F).coeffs
    out = -ref_jacobian_raw(grid, psi_c, q_c)
    if params.beta != 0.0:
        out -= params.beta * (psi_c * grid.ikx)
    if forcing.active:
        out += forcing.spectral(grid, t)
    out[0, 0, 0] = 0.0
    return out


def ref_rk4_coeffs(state, dt, forcing=NO_FORCING):
    grid, p, q, t = state.grid, state.params, state.q_hat.coeffs, state.t
    viscous = p.nu != 0.0

    def rhs(q_c, t_c):
        return ref_tendency_raw(grid, q_c, t_c, p, forcing)

    k1 = rhs(q, t)
    if viscous:
        e_half, e_full = _viscous_factors(grid, p.nu, dt)
        k2 = rhs(e_half * (q + (0.5 * dt) * k1), t + 0.5 * dt)
        k3 = rhs(e_half * q + (0.5 * dt) * k2, t + 0.5 * dt)
        k4 = rhs(e_full * q + dt * (e_half * k3), t + dt)
        q_new = e_full * q + (dt / 6.0) * (
            e_full * k1 + 2.0 * (e_half * (k2 + k3)) + k4
        )
    else:
        k2 = rhs(q + (0.5 * dt) * k1, t + 0.5 * dt)
        k3 = rhs(q + (0.5 * dt) * k2, t + 0.5 * dt)
        k4 = rhs(q + dt * k3, t + dt)
        q_new = q + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    q_new[0, 0, 0] = 0.0
    return q_new


def ref_lp(cell_volume, values, p):
    magnitude = np.abs(values)
    if p == math.inf:
        return float(np.max(magnitude))
    return float((np.sum(np.power(magnitude, p)) * cell_volume) ** (1.0 / p))


def ref_hessian_magnitude(fh):
    h2 = np.zeros(fh.grid.shape)
    for ax1, ax2, mult in (
        ("x", "x", 1.0), ("y", "y", 1.0), ("z", "z", 1.0),
        ("x", "y", 2.0), ("x", "z", 2.0), ("y", "z", 2.0),
    ):
        comp = ref_inv(fh.grid, derivative(derivative(fh, ax1), ax2).coeffs)
        h2 += mult * comp * comp
    return np.sqrt(h2, out=h2)


def ref_record(state, m=4):
    grid = state.grid
    q_hat = state.q_hat
    psi_hat = solve_stratified_poisson(q_hat, state.params.F)
    v1h, v2h, v3h = velocity_spectra(psi_hat)
    q = ref_inv(grid, q_hat.coeffs)
    v1 = ref_inv(grid, v1h.coeffs)
    v2 = ref_inv(grid, v2h.coeffs)
    v3 = ref_inv(grid, v3h.coeffs)
    vh_sq = v1 * v1 + v2 * v2
    v3_sq = v3 * v3
    vmag = np.sqrt(vh_sq + v3_sq)
    vmag_energy = np.sqrt(vh_sq + v3_sq * (state.params.F * state.params.F))
    dv = grid.cell_volume
    qx, qy, qz = (ref_inv(grid, derivative(q_hat, axis).coeffs) for axis in "xyz")
    dqmag = np.sqrt(qx * qx + qy * qy + qz * qz)
    d2qmag = ref_hessian_magnitude(q_hat)
    gradvmag = ref_hessian_magnitude(psi_hat)
    return DiagnosticsRecord(
        t=state.t,
        v_l2=ref_lp(dv, vmag_energy, 2),
        q_l2=ref_lp(dv, q, 2),
        q_l4=ref_lp(dv, q, 4),
        q_l6=ref_lp(dv, q, 6),
        q_linf=ref_lp(dv, q, math.inf),
        v_linf=ref_lp(dv, vmag, math.inf),
        v2_l6=ref_lp(dv, v2, 6),
        v2_linf=ref_lp(dv, v2, math.inf),
        dq_l2=ref_lp(dv, dqmag, 2),
        dq_l3=ref_lp(dv, dqmag, 3),
        dq_l4=ref_lp(dv, dqmag, 4),
        d2q_l3=ref_lp(dv, d2qmag, 3),
        hm_q=sobolev_norm(q_hat, m - 1),
        hm_v=float(np.sqrt(sum(sobolev_norm(vh, m) ** 2 for vh in (v1h, v2h, v3h)))),
        grad_v_linf=ref_lp(dv, gradvmag, math.inf),
        grad_v_l2=ref_lp(dv, gradvmag, 2),
        grad_v_l4=ref_lp(dv, gradvmag, 4),
        grad_v_l6=ref_lp(dv, gradvmag, 6),
        beta=state.params.beta,
    )


def ref_cfl_dt(state, control):
    grid = state.grid
    psi_hat = solve_stratified_poisson(state.q_hat, state.params.F)
    v1h, v2h, _ = velocity_spectra(psi_hat)
    m1 = float(np.max(np.abs(ref_inv(grid, v1h.coeffs))))
    m2 = float(np.max(np.abs(ref_inv(grid, v2h.coeffs))))
    bound = np.inf
    if m1 > 0.0:
        bound = grid.dx / m1
    if m2 > 0.0:
        bound = min(bound, grid.dy / m2)
    dt = control.cfl_number * bound
    return float(min(max(dt, control.dt_min), control.dt_max))


# ---- inputs --------------------------------------------------------------------

GRIDS = [GridSpec(8, 8, 8), GridSpec(16, 16, 8)]
F_VALUES = (1.0, 0.7, 1.5)


def grid_id(grid):
    return f"{grid.nx}x{grid.ny}x{grid.nz}"


def random_coeffs(grid, seed, dealiased):
    """Spectrum of a random real field: zero mean, populated up to Nyquist
    unless truncated to the two-thirds cube."""
    rng = np.random.default_rng(seed)
    c = fwd(grid, rng.standard_normal(grid.shape))
    c[0, 0, 0] = 0.0
    if dealiased:
        c = np.where(grid.dealias_mask, c, 0.0)
    return c


def table_forcing(grid, seed):
    rng = np.random.default_rng(seed)
    table = rng.standard_normal(grid.kshape) + 1j * rng.standard_normal(grid.kshape)
    return Forcing(lambda g, t: table * np.cos(3.0 * t))


def assert_same_bits(new, ref):
    assert new.dtype == ref.dtype and new.shape == ref.shape
    assert np.array_equal(new, ref)
    assert new.tobytes() == ref.tobytes()


# ---- the kernels ---------------------------------------------------------------


@pytest.mark.parametrize(
    "grid", GRIDS + [GridSpec(32, 16, 32), GridSpec(64, 64, 1)], ids=grid_id
)
@pytest.mark.parametrize("dealiased", [True, False])
def test_jacobian_matches_reference(grid, dealiased):
    psi = random_coeffs(grid, 1, dealiased)
    q = random_coeffs(grid, 2, dealiased)
    psi_before, q_before = psi.copy(), q.copy()
    assert_same_bits(jacobian_raw(grid, psi, q), ref_jacobian_raw(grid, psi, q))
    assert_same_bits(psi, psi_before)
    assert_same_bits(q, q_before)


@pytest.mark.parametrize("grid", GRIDS, ids=grid_id)
@pytest.mark.parametrize("dealiased", [True, False])
def test_poisson_solve_matches_reference(grid, dealiased):
    q = random_coeffs(grid, 3, dealiased)
    q_before = q.copy()
    for F in F_VALUES:
        new = solve_stratified_poisson(SpectralField(grid, q), F).coeffs
        ref = ref_solve_stratified_poisson(SpectralField(grid, q), F).coeffs
        assert_same_bits(new, ref)
    assert_same_bits(q, q_before)


def test_poisson_solve_of_a_strided_array_matches_reference():
    grid = GRIDS[1]
    q = np.asfortranarray(random_coeffs(grid, 4, False))
    assert not q.flags.c_contiguous
    new = solve_stratified_poisson(SpectralField(grid, q), 1.1).coeffs
    assert_same_bits(new, ref_solve_stratified_poisson(SpectralField(grid, q), 1.1).coeffs)


def test_poisson_inverse_symbol_is_built_once_per_F():
    grid = GridSpec(8, 8, 4)
    q = SpectralField(grid, random_coeffs(grid, 5, True))
    solve_stratified_poisson(q, 1.9)
    before = spectral._inverse_symbol.cache_info()
    for _ in range(3):
        solve_stratified_poisson(q, 1.9)
    after = spectral._inverse_symbol.cache_info()
    assert (after.hits - before.hits, after.misses - before.misses) == (3, 0)


@pytest.mark.parametrize("grid", GRIDS, ids=grid_id)
def test_nonzero_mean_check_is_unchanged(grid):
    q = random_coeffs(grid, 6, True)
    norm = l2_norm(SpectralField(grid, q))
    for mean, raises in ((3e-12 * norm, True), (0.5e-12 * norm, False), (0.0, False)):
        c = q.copy()
        c[0, 0, 0] = mean
        if raises:
            with pytest.raises(NonZeroMeanError):
                solve_stratified_poisson(SpectralField(grid, c), 1.0)
            with pytest.raises(NonZeroMeanError):
                ref_solve_stratified_poisson(SpectralField(grid, c), 1.0)
        else:
            assert_same_bits(
                solve_stratified_poisson(SpectralField(grid, c), 1.0).coeffs,
                ref_solve_stratified_poisson(SpectralField(grid, c), 1.0).coeffs,
            )


@pytest.mark.parametrize("grid", GRIDS, ids=grid_id)
@pytest.mark.parametrize("dealiased", [True, False])
def test_tendency_matches_reference(grid, dealiased):
    q = random_coeffs(grid, 7, dealiased)
    q_before = q.copy()
    forcings = [NO_FORCING, table_forcing(grid, 8)]
    for beta, nu, F, forcing in itertools.product(
        (0.0, 1.3), (0.0, 0.02), F_VALUES, forcings
    ):
        params = PhysicsParams(beta=beta, nu=nu, F=F)
        args = (grid, q, 0.25, params, forcing)
        assert_same_bits(tendency_raw(*args), ref_tendency_raw(*args))
    assert_same_bits(q, q_before)


@pytest.mark.parametrize("grid", GRIDS, ids=grid_id)
@pytest.mark.parametrize("nu", [0.0, 0.02])
def test_rk4_step_matches_reference(grid, nu):
    q = random_coeffs(grid, 9, True)
    q_before = q.copy()
    for beta, F, forcing in itertools.product(
        (0.0, 1.3), F_VALUES, (NO_FORCING, table_forcing(grid, 10))
    ):
        state = State(SpectralField(grid, q), 0.5, PhysicsParams(beta=beta, nu=nu, F=F))
        new = rk4_step(state, 3e-3, forcing).q_hat.coeffs
        assert_same_bits(new, ref_rk4_coeffs(state, 3e-3, forcing))
    assert_same_bits(q, q_before)


# a State lies inside the two-thirds cube, so only dealiased inputs are left;
# -0.0 outside the cube passes State's value test and must change no bit


@pytest.mark.parametrize("grid", GRIDS, ids=grid_id)
@pytest.mark.parametrize("dealiased", [True])
def test_record_matches_reference(grid, dealiased):
    # a change of summation order shows in the norms for about one seed in
    # five, so several seeds are run
    for seed in (11, 21, 22, 23, 24, 25):
        q = random_coeffs(grid, seed, dealiased)
        q_before = q.copy()
        for c, F in itertools.product((q, np.where(grid.dealias_mask, q, -0.0)), (1.0, 1.5)):
            state = State(SpectralField(grid, c), 0.25, PhysicsParams(F=F))
            new, ref = record(state), ref_record(state)
            assert new == ref
            assert_same_bits(
                np.array(dataclasses.astuple(new)), np.array(dataclasses.astuple(ref))
            )
        assert_same_bits(q, q_before)


@pytest.mark.parametrize("grid", GRIDS, ids=grid_id)
@pytest.mark.parametrize("dealiased", [True])
def test_cfl_dt_matches_reference(grid, dealiased):
    q = random_coeffs(grid, 12, dealiased)
    q_before = q.copy()
    # the field with x and y swapped: with dx = dy, the larger of max|v1| and
    # max|v2| sets dt, so each component sets it for one of the two inputs
    swapped = fwd(grid, np.ascontiguousarray(inv(grid, q).swapaxes(1, 2)), truncate=True)
    swapped[0, 0, 0] = 0.0
    unclamped = StepControl(cfl_number=0.5, dt_min=1e-300, dt_max=1e300)
    for c, F, control in itertools.product(
        (q, swapped, np.where(grid.dealias_mask, q, -0.0)), (1.0, 1.5), (unclamped, StepControl())
    ):
        state = State(SpectralField(grid, c), 0.25, PhysicsParams(F=F))
        new, ref = cfl_dt(state, control), ref_cfl_dt(state, control)
        assert type(new) is float and new.hex() == ref.hex()
    assert_same_bits(q, q_before)


def ref_cfl_run(state, t_end, control, forcing):
    """``run`` without observers, as a loop of cfl_dt and then rk4_step;
    the last step is cut to land on t_end."""
    tiny = 1e-12 * max(1.0, abs(t_end))
    while state.t < t_end - tiny:
        dt = cfl_dt(state, control)
        if t_end <= state.t + dt * (1.0 + 1e-9):
            state = dataclasses.replace(rk4_step(state, t_end - state.t, forcing), t=t_end)
        else:
            state = rk4_step(state, dt, forcing)
    return state


def spy_cfl_dt(monkeypatch):
    """Wrap stepping.cfl_dt; returns the list of the maxima it was given."""
    given = []
    original = stepping.cfl_dt

    def wrapper(state, control, *, maxima=None):
        given.append(maxima)
        return original(state, control, maxima=maxima)

    monkeypatch.setattr(stepping, "cfl_dt", wrapper)
    return given


# 16x8x8 has dx != dy, so max|v1| and max|v2| cannot stand in for each other
@pytest.mark.parametrize("grid", GRIDS + [GridSpec(16, 8, 8)], ids=grid_id)
@pytest.mark.parametrize("nu", [0.0, 0.02])
@pytest.mark.parametrize("outside", [0.0, -0.0], ids=["in-cube", "minus-zero-outside"])
def test_cfl_run_matches_the_loop_of_cfl_dt_and_rk4_step(grid, nu, outside, monkeypatch):
    # every CFL step takes its maxima from stage 1, also from a state that
    # holds -0.0 outside the cube
    q = np.where(grid.dealias_mask, random_coeffs(grid, 37, dealiased=True), outside)
    q_before = q.copy()
    table = np.where(grid.dealias_mask, table_forcing(grid, 36).evaluator(grid, 0.0), 0.0)
    forced = Forcing(lambda g, t: table * np.cos(3.0 * t))
    control = StepControl(cfl_number=0.5, dt_min=1e-9, dt_max=10.0)
    for beta, forcing in itertools.product((0.0, 1.3), (NO_FORCING, forced)):
        state = State(SpectralField(grid, q), 0.25, PhysicsParams(beta=beta, nu=nu))
        t_end = state.t + 3.5 * cfl_dt(state, control)
        ref = ref_cfl_run(state, t_end, control, forcing)
        given = spy_cfl_dt(monkeypatch)
        new = stepping.run(state, t_end, control, forcing)
        monkeypatch.undo()
        assert len(given) >= 3
        assert None not in given
        assert new.t == ref.t == t_end
        assert_same_bits(new.q_hat.coeffs, ref.q_hat.coeffs)
    assert_same_bits(q, q_before)


# ---- the cube array -------------------------------------------------------------


def test_a_second_jacobian_leaves_the_first_result_untouched():
    grid = GRIDS[0]
    first = jacobian_raw(grid, random_coeffs(grid, 15, True), random_coeffs(grid, 16, True))
    kept = first.copy()
    jacobian_raw(grid, random_coeffs(grid, 17, False), random_coeffs(grid, 18, False))
    assert_same_bits(first, kept)


def test_cube_derivative_is_the_truncated_product_after_any_use():
    # the cube array is +0.0 outside the cube again after a Jacobian of full
    # spectra has left the dropped rows and planes filled
    for grid in (GridSpec(8, 8, 8), GridSpec(32, 16, 32), GridSpec(2, 4, 8), GridSpec(64, 64, 1)):
        full = random_coeffs(grid, 28, dealiased=False)
        jacobian_raw(grid, full, random_coeffs(grid, 29, dealiased=False))
        for axis, mult in (("x", grid.ikx), ("y", grid.iky)):
            expected = np.where(grid.dealias_mask, full * mult, 0.0)
            ws = spectral.cube_derivative(grid, full, axis)
            assert ws is spectral._cube(grid, grid.dealias_bounds)[0]
            assert_same_bits(ws, expected)
            assert_same_bits(inv(grid, ws), ref_inv(grid, expected))


def test_runs_in_threads_have_the_bits_of_lone_runs():
    # the cube array is kept per thread, so runs on equal grids do not write
    # into each other's derivative spectra; three threads on two cores, with
    # a short switch interval, interleave their transforms
    grid = GridSpec(16, 16, 16)
    control = StepControl(mode="fixed", dt_fixed=1e-3)
    seeds = (1, 2, 3)

    def go(seed):
        state = make_random(grid, -3.0, 1.0, seed)
        return run(state, 0.02, control, observers=[Observer(record)]).q_hat.coeffs

    alone = {seed: go(seed) for seed in seeds}
    together, errors = {}, []
    barrier = threading.Barrier(len(seeds))

    def work(seed):
        barrier.wait(timeout=60)
        try:
            together[seed] = go(seed)
        except Exception as exc:  # reported below, in the test's thread
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(seed,)) for seed in seeds]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    for seed in seeds:
        assert_same_bits(together[seed], alone[seed])


def test_a_finished_thread_leaves_no_cube_array_behind():
    # each thread keeps its own cube arrays, and they go when it ends; the
    # main thread's stay
    grid = GridSpec(8, 8, 8)
    a, b = random_coeffs(grid, 40, True), random_coeffs(grid, 41, True)
    jacobian_raw(grid, a, b)
    main_array = weakref.ref(spectral._cube(grid, grid.dealias_bounds)[0])
    arrays = []

    def work():
        jacobian_raw(grid, a, b)
        arrays.append(weakref.ref(spectral._cube(grid, grid.dealias_bounds)[0]))

    for _ in range(3):
        thread = threading.Thread(target=work)
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
    assert len(arrays) == 3
    assert [ref() for ref in arrays] == [None] * 3
    assert main_array() is spectral._cube(grid, grid.dealias_bounds)[0]


def test_a_second_grid_frees_the_first_grids_cube_array():
    # a thread keeps one cube array, for the grid it used last
    first, second = GridSpec(8, 8, 8), GridSpec(8, 8, 4)
    freed = []

    def work():
        jacobian_raw(first, random_coeffs(first, 42, True), random_coeffs(first, 43, True))
        array = weakref.ref(spectral._cube(first, first.dealias_bounds)[0])
        jacobian_raw(second, random_coeffs(second, 44, True), random_coeffs(second, 45, True))
        freed.append(array() is None)

    thread = threading.Thread(target=work)
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
    assert freed == [True]


def test_cube_derivative_multiplies_along_its_axes_in_their_order():
    # no axes is the truncation itself; record's Hessian multiplies twice
    for grid in (GridSpec(8, 8, 8), GridSpec(32, 16, 32), GridSpec(2, 4, 8)):
        full = random_coeffs(grid, 38, dealiased=False)
        mults = {"x": grid.ikx, "y": grid.iky, "z": grid.ikz}
        for axes in ((), ("z",), ("x", "x"), ("x", "z"), ("y", "z"), ("z", "y")):
            expected = full.copy()
            for axis in axes:
                expected = expected * mults[axis]
            expected = np.where(grid.dealias_mask, expected, 0.0)
            assert_same_bits(spectral.cube_derivative(grid, full, *axes), expected)
            assert_same_bits(inv(grid, spectral.cube_derivative(grid, full, *axes)),
                             ref_inv(grid, expected))


def test_sobolev_weight_is_built_once_per_grid_and_order():
    grid = GridSpec(8, 8, 4)
    fh = SpectralField(grid, random_coeffs(grid, 39, True))
    sobolev_norm(fh, 3)
    before = spectral._sobolev_weight.cache_info()
    for _ in range(3):
        sobolev_norm(fh, 3)
    after = spectral._sobolev_weight.cache_info()
    assert (after.hits - before.hits, after.misses - before.misses) == (3, 0)


def test_a_grid_whose_mask_is_replaced_truncates_by_its_own_mask():
    # an ordinary grid used first must not lend its cube to an equal grid
    # whose mask keeps everything
    ordinary = GridSpec(16, 16, 16)
    psi = random_coeffs(ordinary, 34, dealiased=False)
    q = random_coeffs(ordinary, 35, dealiased=False)
    truncated = jacobian_raw(ordinary, psi, q)
    replaced = GridSpec(16, 16, 16)
    replaced.__dict__["dealias_mask"] = np.ones(replaced.kshape, dtype=bool)
    assert replaced == ordinary
    assert replaced.dealias_bounds == (16, 16, 16, 16, 9)
    psi_x, psi_y = ref_inv(replaced, psi * replaced.ikx), ref_inv(replaced, psi * replaced.iky)
    q_x, q_y = ref_inv(replaced, q * replaced.ikx), ref_inv(replaced, q * replaced.iky)
    untruncated = sfft.rfftn(psi_x * q_y - psi_y * q_x, norm="forward")
    untruncated[0, 0, 0] = 0.0
    assert_same_bits(jacobian_raw(replaced, psi, q), untruncated)
    assert not np.array_equal(untruncated, truncated)
    assert_same_bits(jacobian_raw(ordinary, psi, q), truncated)


# ---- the forward transform ---------------------------------------------------------


@pytest.mark.parametrize(
    "grid",
    [GridSpec(16, 16, 16), GridSpec(32, 16, 32), GridSpec(32, 32, 32), GridSpec(64, 64, 64),
     GridSpec(2, 4, 8), GridSpec(8, 1, 1), GridSpec(1024, 1024, 1)],
    ids=grid_id,
)
def test_truncated_fwd_matches_rfftn_and_the_mask(grid):
    for seed in (31, 32, 33):
        values = np.random.default_rng(seed).standard_normal(grid.shape)
        kept = values.copy()
        ref = np.where(grid.dealias_mask, sfft.rfftn(values, norm="forward"), 0.0)
        out = fwd(grid, values, truncate=True)
        assert_same_bits(out, ref)
        assert_same_bits(values, kept)
        assert not np.shares_memory(out, values)


# ---- the inverse transform ---------------------------------------------------------

INV_GRIDS = [
    GridSpec(8, 8, 8),
    GridSpec(32, 32, 16),
    GridSpec(2, 4, 8),
    GridSpec(1, 64, 64),
    GridSpec(64, 64, 1),
    GridSpec(8, 1, 1),
    GridSpec(1, 1, 8),
]


def just_outside(grid):
    """Indices (z, y, x) of single coefficients next to the two-thirds cube:
    x column n/3 + 1, and y rows +(n/3 + 1) and -(n/3 + 1), where the grid
    has them."""
    sx, sy = grid.nx // 3 + 1, grid.ny // 3 + 1
    spots = []
    if sx <= grid.nx // 2:
        spots.append((0, 0, sx))
    if sy <= grid.ny // 2:
        spots += [(0, sy, min(1, grid.nx // 2)), (0, -sy % grid.ny, 0)]
    return spots


def inv_inputs(grid):
    full = random_coeffs(grid, 19, dealiased=False)
    dealiased = np.where(grid.dealias_mask, full, 0.0)
    d_dx = np.where(grid.dealias_mask, full * grid.ikx, 0.0)
    cases = {"dealiased": dealiased, "full": full, "d/dx": d_dx}
    for spot in just_outside(grid):
        c = dealiased.copy()
        c[spot] = 0.25 - 0.5j
        cases[f"dealiased + {spot}"] = c
    return cases


@pytest.mark.parametrize("grid", INV_GRIDS, ids=grid_id)
def test_inv_matches_irfftn(grid):
    for name, c in inv_inputs(grid).items():
        kept = c.copy()
        out = inv(grid, c)
        assert_same_bits(out, ref_inv(grid, c))
        assert_same_bits(c, kept)
        assert not np.shares_memory(out, c), name


@pytest.mark.parametrize("grid", INV_GRIDS, ids=grid_id)
def test_inv_leaves_every_array_but_the_cube_untouched(grid):
    # only the cube array of cube_derivative is consumed
    for name, c in inv_inputs(grid).items():
        strided = np.asfortranarray(c)
        for arg in (c, strided):
            kept = [a.copy() for a in (c, strided)]
            out = inv(grid, arg)
            for a, before in zip((c, strided), kept):
                assert_same_bits(a, before)
                assert not np.shares_memory(out, a), name


def test_inv_prunes_exactly_the_lines_outside_the_cube():
    # 64^3: columns s_x > 21, and rows and planes with 21 < |s| are dropped
    assert GridSpec(64, 64, 64).dealias_bounds == (22, 43, 22, 43, 22)
    assert GridSpec(8, 4, 2).dealias_bounds == (1, 2, 2, 3, 3)
    assert GridSpec(8, 1, 1).dealias_bounds == (1, 1, 1, 1, 3)


def test_inv_of_a_spectrum_with_one_coefficient_outside_the_cube_is_not_pruned():
    # each spot alone, on an otherwise empty spectrum, must reach the output
    grid = GridSpec(32, 32, 16)
    spots = just_outside(grid)
    assert len(spots) == 3
    for spot in spots:
        c = np.zeros(grid.kshape, dtype=np.complex128)
        c[spot] = 1.0
        out = inv(grid, c)
        assert np.max(np.abs(out)) > 0.5
        assert_same_bits(out, ref_inv(grid, c))


@pytest.mark.parametrize("grid", [GridSpec(8, 8, 8), GridSpec(64, 64, 1)], ids=grid_id)
def test_inv_carries_a_nan_outside_the_cube(grid):
    c = random_coeffs(grid, 20, dealiased=True)
    c[0, 0, grid.nx // 3 + 1] = np.nan
    out, ref = inv(grid, c), ref_inv(grid, c)
    assert np.isnan(ref).any()
    assert np.array_equal(out, ref, equal_nan=True)


# ---- the kernels' arguments ---------------------------------------------------------


def record_kernel_workers(monkeypatch):
    """Wrap the pocketfft kernels that spectral calls; returns the list of
    (kernel, nthreads) of each call."""
    seen = []
    for name in ("r2c", "c2c", "c2r"):
        kernel = getattr(spectral._pocketfft, name)

        def recording(*args, _name=name, _kernel=kernel, **kwargs):
            seen.append((_name, kwargs.get("nthreads", args[-1])))
            return _kernel(*args, **kwargs)

        monkeypatch.setattr(spectral._pocketfft, name, recording)
    return seen


@pytest.mark.parametrize("workers", [None, 2])
def test_the_kernels_get_scipys_worker_count(monkeypatch, workers):
    grid = GRIDS[1]
    coeffs = random_coeffs(grid, 41, dealiased=True)
    values = np.random.default_rng(42).standard_normal(grid.shape)
    seen = record_kernel_workers(monkeypatch)
    with sfft.set_workers(workers) if workers else contextlib.nullcontext():
        inv(grid, coeffs)
        inv(grid, spectral.cube_derivative(grid, coeffs, "x"))
        fwd(grid, values)
        fwd(grid, values, truncate=True)
    assert {name for name, _ in seen} == {"r2c", "c2c", "c2r"}
    assert {n for _, n in seen} == {workers or 1}


def test_out_arrays_get_the_bits_of_new_ones():
    grid = GRIDS[1]
    coeffs = random_coeffs(grid, 43, dealiased=True)
    values = np.random.default_rng(44).standard_normal(grid.shape)
    real = np.full(grid.shape, np.nan)
    half = np.full(grid.kshape, np.nan, dtype=np.complex128)
    cases = [
        (lambda out: inv(grid, coeffs, out=out), real),
        (lambda out: inv(grid, spectral.cube_derivative(grid, coeffs, "y"), out=out), real),
        (lambda out: fwd(grid, values, out=out), half),
        (lambda out: fwd(grid, values, truncate=True, out=out), half),
        (lambda out: solve_stratified_poisson(SpectralField(grid, coeffs), 0.7, out=out).coeffs,
         half),
        (lambda out: jacobian_raw(grid, coeffs, coeffs[::-1].copy(), out=out), half),
        (lambda out: tendency_raw(grid, coeffs, 0.0, PhysicsParams(beta=0.5), out=out), half),
    ]
    for i, (fn, out) in enumerate(cases):
        out.fill(np.nan)
        assert fn(out) is out, i
        fresh = fn(None)
        assert not np.shares_memory(fresh, out), i
        assert_same_bits(out, fresh)


# ---- the pool of grid arrays --------------------------------------------------------


def test_two_steps_from_one_state_in_one_pool_return_distinct_equal_arrays():
    grid = GRIDS[1]
    state = make_random(grid, -3.0, 1.0, 7, band=(1, 3))
    outside = rk4_step(state, 1e-2).q_hat.coeffs
    with spectral.hold_pool(grid):
        first = rk4_step(state, 1e-2).q_hat.coeffs
        second = rk4_step(state, 1e-2).q_hat.coeffs
    assert not np.shares_memory(first, second)
    assert_same_bits(first, second)
    assert_same_bits(first, outside)


def test_a_held_tendency_or_jacobian_result_is_untouched_by_a_later_call():
    grid = GRIDS[1]
    a, b = random_coeffs(grid, 45, True), random_coeffs(grid, 46, True)
    params = PhysicsParams(beta=0.5, F=0.7)
    with spectral.hold_pool(grid):
        for fn in (lambda q: tendency_raw(grid, q, 0.0, params),
                   lambda q: jacobian_raw(grid, q, q[::-1].copy())):
            first = fn(a)
            kept = first.copy()
            second = fn(b)
            assert not np.shares_memory(first, second)
            assert_same_bits(first, kept)


def test_record_in_a_runs_observer_equals_record_after_the_run():
    grid = GRIDS[1]
    state = make_random(grid, -3.0, 1.0, 8, band=(1, 3))
    seen = []
    run(state, 5e-2, StepControl(mode="fixed", dt_fixed=1e-2),
        observers=[lambda s: seen.append((s, record(s)))])
    assert len(seen) == 6
    for s, during in seen:
        assert record(s) == during


def track_pool_arrays(monkeypatch):
    """Weak references to every array a pool hands out, and to every pool
    ``hold_pool`` makes."""
    refs = []
    for name in ("real", "half"):
        original = getattr(spectral.Pool, name)

        def handing_out(self, key, _original=original):
            array = _original(self, key)
            refs.append(weakref.ref(array))
            return array

        monkeypatch.setattr(spectral.Pool, name, handing_out)
    original_init = spectral.Pool.__init__

    def init(self, grid):
        original_init(self, grid)
        refs.append(weakref.ref(self))

    monkeypatch.setattr(spectral.Pool, "__init__", init)
    return refs


def test_the_pool_dies_when_the_run_returns(monkeypatch):
    refs = track_pool_arrays(monkeypatch)
    state = make_random(GRIDS[0], -3.0, 1.0, 9, band=(1, 3))
    final = run(state, 3e-2, StepControl(mode="fixed", dt_fixed=1e-2), observers=[record])
    assert len(refs) > 10
    assert [r for r in refs if r() is not None] == []
    assert final.t == 3e-2


def test_the_pool_dies_when_the_run_raises(monkeypatch):
    refs = track_pool_arrays(monkeypatch)
    state = make_random(GridSpec(16, 16, 1), -1.0, 50.0, 2, band=(2, 5))

    def blow_up():
        try:
            run(state, 50.0, StepControl(mode="fixed", dt_fixed=2.0, dt_max=2.0),
                observers=[record])
        except NonFiniteError:
            return True
        return False

    # the traceback, and the frames it holds, die with the handled error
    assert blow_up()
    assert len(refs) > 10
    assert [r for r in refs if r() is not None] == []

