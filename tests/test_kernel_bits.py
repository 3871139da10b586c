"""The tendency path computes the same bits as its plain reference forms.

``jacobian_raw``, ``tendency_raw``, ``solve_stratified_poisson`` and the
stage arithmetic of ``rk4_step`` work in place on precomputed multipliers.
The references below are the straightforward array expressions they
replace, kept as the specification: every result must match them byte for
byte, not merely to a tolerance.
"""

import itertools

import numpy as np
import pytest

from qg3d.dynamics import NO_FORCING, Forcing, PhysicsParams, jacobian_raw, tendency_raw
from qg3d.errors import NonZeroMeanError
from qg3d.grid import GridSpec
from qg3d.spectral import SpectralField, fwd, inv, l2_norm, solve_stratified_poisson
from qg3d.stepping import State, _viscous_factors, rk4_step
import qg3d.spectral as spectral

# ---- reference forms ---------------------------------------------------------


def ref_jacobian_raw(grid, psi_c, q_c):
    mask = grid.dealias_mask
    psi_t = np.where(mask, psi_c, 0.0)
    q_t = np.where(mask, q_c, 0.0)
    psi_x = inv(grid, psi_t * grid.ikx)
    psi_y = inv(grid, psi_t * grid.iky)
    q_x = inv(grid, q_t * grid.ikx)
    q_y = inv(grid, q_t * grid.iky)
    jac = fwd(grid, psi_x * q_y - psi_y * q_x)
    jac = np.where(mask, jac, 0.0)
    jac[0, 0, 0] = 0.0
    return jac


def ref_solve_stratified_poisson(q_hat, F=None):
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


def ref_tendency_raw(grid, q_c, t, params, forcing=NO_FORCING, include_viscosity=True):
    psi_c = ref_solve_stratified_poisson(SpectralField(grid, q_c), params.F).coeffs
    out = -ref_jacobian_raw(grid, psi_c, q_c)
    if params.beta != 0.0:
        out -= params.beta * (psi_c * grid.ikx)
    if include_viscosity and params.nu != 0.0:
        out -= params.nu * (grid.k2_iso * q_c)
    if forcing.active:
        out += forcing.spectral(grid, t)
    out[0, 0, 0] = 0.0
    return out


def ref_rk4_coeffs(state, dt, forcing=NO_FORCING):
    grid, p, q, t = state.grid, state.params, state.q_hat.coeffs, state.t
    viscous = p.nu != 0.0

    def rhs(q_c, t_c):
        return ref_tendency_raw(grid, q_c, t_c, p, forcing, include_viscosity=not viscous)

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


# ---- inputs --------------------------------------------------------------------

GRIDS = [GridSpec(8, 8, 8), GridSpec(16, 16, 8, F=1.5)]


def grid_id(grid):
    return f"{grid.nx}x{grid.ny}x{grid.nz}"


def random_coeffs(grid, seed, dealiased):
    """Spectrum of a random real field: zero mean, populated up to Nyquist
    unless truncated to the two-thirds ball."""
    rng = np.random.default_rng(seed)
    c = fwd(grid, rng.standard_normal(grid.shape))
    c[0, 0, 0] = 0.0
    if dealiased:
        c = np.where(grid.dealias_mask, c, 0.0)
    return c


def table_forcing(grid, seed):
    rng = np.random.default_rng(seed)
    table = rng.standard_normal(grid.kshape) + 1j * rng.standard_normal(grid.kshape)
    return Forcing("tabulated", lambda g, t: table * np.cos(3.0 * t))


def assert_same_bits(new, ref):
    assert new.dtype == ref.dtype and new.shape == ref.shape
    assert np.array_equal(new, ref)
    assert new.tobytes() == ref.tobytes()


def F_values(grid):
    return [grid.F, 0.7 * grid.F]


# ---- the kernels ---------------------------------------------------------------


@pytest.mark.parametrize("grid", GRIDS, ids=grid_id)
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
    for F in [None] + F_values(grid):
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
    grid = GridSpec(8, 8, 4, F=1.0)
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
                solve_stratified_poisson(SpectralField(grid, c))
            with pytest.raises(NonZeroMeanError):
                ref_solve_stratified_poisson(SpectralField(grid, c))
        else:
            assert_same_bits(
                solve_stratified_poisson(SpectralField(grid, c)).coeffs,
                ref_solve_stratified_poisson(SpectralField(grid, c)).coeffs,
            )


@pytest.mark.parametrize("grid", GRIDS, ids=grid_id)
@pytest.mark.parametrize("dealiased", [True, False])
def test_tendency_matches_reference(grid, dealiased):
    q = random_coeffs(grid, 7, dealiased)
    q_before = q.copy()
    forcings = [NO_FORCING, table_forcing(grid, 8)]
    for beta, nu, F, include_viscosity, forcing in itertools.product(
        (0.0, 1.3), (0.0, 0.02), F_values(grid), (True, False), forcings
    ):
        params = PhysicsParams(beta=beta, nu=nu, F=F)
        args = (grid, q, 0.25, params, forcing, include_viscosity)
        assert_same_bits(tendency_raw(*args), ref_tendency_raw(*args))
    assert_same_bits(q, q_before)


@pytest.mark.parametrize("grid", GRIDS, ids=grid_id)
@pytest.mark.parametrize("nu", [0.0, 0.02])
def test_rk4_step_matches_reference(grid, nu):
    q = random_coeffs(grid, 9, True)
    q_before = q.copy()
    for beta, F, forcing in itertools.product(
        (0.0, 1.3), F_values(grid), (NO_FORCING, table_forcing(grid, 10))
    ):
        state = State(SpectralField(grid, q), 0.5, PhysicsParams(beta=beta, nu=nu, F=F))
        new = rk4_step(state, 3e-3, forcing).q_hat.coeffs
        assert_same_bits(new, ref_rk4_coeffs(state, 3e-3, forcing))
    assert_same_bits(q, q_before)
