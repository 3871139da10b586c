"""Advection-term and tendency oracles: closed forms, linearity of the
single-mode reduction, and the two exact neutrality identities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qg3d.dynamics import NO_FORCING, Forcing, PhysicsParams, jacobian_raw, tendency_raw
from qg3d.errors import GridMismatchError
from qg3d.grid import GridSpec
from qg3d.initial import make_random, make_rossby
from qg3d.spectral import (
    SpectralField,
    fwd,
    inner_product,
    inv,
    l2_norm,
    solve_stratified_poisson,
)
from reference_forms import mesh


def test_jacobian_closed_form():
    # J(sin x, sin y) = cos x cos y, resolved exactly at this size
    grid = GridSpec(16, 16, 4)
    X, Y, _ = mesh(grid)
    J = jacobian_raw(grid, fwd(grid, np.sin(X)), fwd(grid, np.sin(Y)))
    assert np.max(np.abs(inv(grid, J) - np.cos(X) * np.cos(Y))) < 1e-13


def test_jacobian_of_function_with_itself_vanishes():
    grid = GridSpec(16, 16, 8)
    rng = np.random.default_rng(0)
    f = fwd(grid, rng.standard_normal(grid.shape))
    J = jacobian_raw(grid, f, f)
    assert np.max(np.abs(J)) < 1e-13 * np.max(np.abs(f))


def test_jacobian_zonal_pair_vanishes():
    # x-independent arguments have no horizontal cross-gradients
    grid = GridSpec(16, 16, 4)
    _, Y, _ = mesh(grid)
    J = jacobian_raw(grid, fwd(grid, np.cos(Y)), fwd(grid, np.sin(2 * Y)))
    assert np.max(np.abs(J)) == 0.0


def test_jacobian_antisymmetry():
    grid = GridSpec(16, 16, 4)
    rng = np.random.default_rng(4)
    a = fwd(grid, rng.standard_normal(grid.shape))
    b = fwd(grid, rng.standard_normal(grid.shape))
    Jab = jacobian_raw(grid, a, b)
    Jba = jacobian_raw(grid, b, a)
    scale = np.max(np.abs(Jab))
    assert np.max(np.abs(Jab + Jba)) < 1e-12 * scale


def test_jacobian_output_dealiased_and_zero_mean():
    grid = GridSpec(16, 16, 4)
    rng = np.random.default_rng(7)
    a = fwd(grid, rng.standard_normal(grid.shape))
    b = fwd(grid, rng.standard_normal(grid.shape))
    J = jacobian_raw(grid, a, b)
    assert J[0, 0, 0] == 0.0
    assert np.all(J[~grid.dealias_mask] == 0.0)


def test_single_mode_tendency_is_wave_rotation():
    # no self-advection for one harmonic, so dq/dt = -i omega q exactly
    grid = GridSpec(16, 16, 16)
    state, _ = make_rossby(grid, 1.0, 1.0, 1, 1, 1, 1.0)
    omega = -1.0 / 3.0
    T = tendency_raw(grid, state.q_hat.coeffs, state.t, state.params)
    err = np.max(np.abs(T - (-1j * omega) * state.q_hat.coeffs))
    assert err < 1e-14 * np.max(np.abs(state.q_hat.coeffs))


def test_beta_zero_single_mode_is_steady():
    grid = GridSpec(16, 16, 16)
    state, _ = make_rossby(grid, 1.0, 0.0, 2, 1, 0, 0.5)
    T = tendency_raw(grid, state.q_hat.coeffs, state.t, state.params)
    assert np.max(np.abs(T)) < 1e-15


def test_tendency_neutrality_identities():
    grid = GridSpec(16, 16, 16)
    for seed in range(5):
        state = make_random(grid, -3.0, 1.0, seed)
        q_hat = state.q_hat
        T = SpectralField(grid, tendency_raw(grid, q_hat.coeffs, 0.0, state.params))
        psi_hat = solve_stratified_poisson(q_hat, state.params.F)
        scale = l2_norm(T)
        assert abs(inner_product(T, q_hat)) < 1e-12 * scale * l2_norm(q_hat)
        assert abs(inner_product(T, psi_hat)) < 1e-12 * scale * l2_norm(psi_hat)


def test_tendency_preserves_zero_mean():
    grid = GridSpec(16, 16, 8)
    state = make_random(grid, -2.0, 1.0, 1)
    assert tendency_raw(grid, state.q_hat.coeffs, state.t, state.params)[0, 0, 0] == 0.0


def test_forcing_projects_mean_and_checks_shape():
    grid = GridSpec(8, 8, 8)
    # s_x = 3, s_y = -3 and |s_z| = 4 lie outside the two-thirds cube
    outside = [(0, 1, 3), (1, 5, 1), (4, 0, 2)]

    def with_mean(g, t):
        c = np.zeros(g.kshape, dtype=np.complex128)
        c[0, 0, 0] = 3.0
        c[0, 1, 1] = 1.0 + 2.0j
        for spot in outside:
            c[spot] = 0.5 - 1.0j
        return c

    forcing = Forcing(with_mean)
    out = forcing.spectral(grid, 0.0)
    assert out[0, 0, 0] == 0.0
    assert out[0, 1, 1] == 1.0 + 2.0j
    assert out[tuple(zip(*outside))].tolist() == [0.0] * 3
    state = make_random(grid, -3.0, 1.0, 4)
    tend = tendency_raw(grid, state.q_hat.coeffs, 0.0, state.params, forcing)
    assert not tend[~grid.dealias_mask].any()

    def bad_shape(g, t):
        return np.zeros((2, 2, 2), dtype=np.complex128)

    with pytest.raises(GridMismatchError):
        Forcing(bad_shape).spectral(grid, 0.0)


@pytest.mark.parametrize(
    "kwargs",
    [{"nu": np.nan}, {"nu": np.inf}, {"beta": np.nan}, {"beta": np.inf}, {"beta": -np.inf},
     {"F": np.inf}, {"F": np.nan}],
)
def test_physics_params_must_be_finite(kwargs):
    with pytest.raises(ValueError, match=next(iter(kwargs))):
        PhysicsParams(**kwargs)


def test_no_forcing_is_inactive():
    assert not NO_FORCING.active
    grid = GridSpec(8, 8, 8)
    state = make_random(grid, -2.0, 1.0, 0)
    a = tendency_raw(grid, state.q_hat.coeffs, state.t, state.params)
    b = tendency_raw(grid, state.q_hat.coeffs, state.t, state.params, NO_FORCING)
    assert np.array_equal(a, b)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000), beta=st.floats(0.0, 10.0))
def test_enstrophy_neutrality_property(seed, beta):
    grid = GridSpec(8, 8, 8)
    params = PhysicsParams(beta=beta, nu=0.0, F=1.0)
    state = make_random(grid, -2.0, 1.0, seed, band=(1, 2), params=params)
    q_hat = state.q_hat
    T = SpectralField(grid, tendency_raw(grid, q_hat.coeffs, 0.0, params))
    scale = l2_norm(T) * l2_norm(q_hat)
    if scale > 0.0:
        assert abs(inner_product(T, q_hat)) < 1e-12 * scale
