"""Transform, derivative, and elliptic-inversion oracles.

The forward transform is checked against a direct DFT sum, derivatives
against closed forms, and the Poisson inversion against its defining
operator, so no test trusts the code path it is testing.
"""

import numpy as np
import pytest

from qg3d.errors import GridMismatchError, NonZeroMeanError
from qg3d.grid import GridSpec
from qg3d.particles import _level_weights
from qg3d.spectral import (
    SpectralField,
    _in_cube,
    _new_cube,
    fwd,
    inner_product,
    inv,
    l2_norm,
    sobolev_norm,
    solve_stratified_poisson,
)
from reference_forms import dealias, derivative, mesh, velocity_spectra

V = (2.0 * np.pi) ** 3


def random_field(grid, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(grid.shape)


def test_roundtrip_identity():
    grid = GridSpec(16, 12, 8)
    f = random_field(grid)
    back = inv(grid, fwd(grid, f))
    assert np.max(np.abs(back - f)) < 1e-13


def test_forward_matches_direct_dft():
    # independent O(N^2) oracle: c_k = (1/N) sum_j f(x_j) exp(-i k.x_j)
    grid = GridSpec(8, 8, 8)
    f = random_field(grid, seed=3)
    ex = np.exp(-1j * np.outer(grid.kx, grid.x))          # (nxh, nx)
    full_ky = 2.0 * np.pi * grid.sy / grid.ly
    full_kz = 2.0 * np.pi * grid.sz / grid.lz
    ey = np.exp(-1j * np.outer(full_ky, grid.y))          # (ny, ny)
    ez = np.exp(-1j * np.outer(full_kz, grid.z))          # (nz, nz)
    direct = np.einsum("cz,by,ax,zyx->cba", ez, ey, ex, f) / (8 * 8 * 8)
    assert np.max(np.abs(fwd(grid, f) - direct)) < 1e-13


def test_mean_is_zero_mode():
    grid = GridSpec(8, 8, 8)
    f = random_field(grid, seed=1) + 2.5
    c = fwd(grid, f)
    assert abs(c[0, 0, 0] - np.mean(f)) < 1e-13


def test_derivative_closed_forms():
    grid = GridSpec(32, 32, 4)
    X, Y, Z = mesh(grid)
    fh = SpectralField(grid, fwd(grid, np.cos(3 * X) * np.sin(Y)))
    dx = inv(grid, derivative(fh, "x").coeffs)
    dy = inv(grid, derivative(fh, "y").coeffs)
    assert np.max(np.abs(dx - (-3 * np.sin(3 * X) * np.sin(Y)))) < 1e-12
    assert np.max(np.abs(dy - np.cos(3 * X) * np.cos(Y))) < 1e-12


def test_derivative_analytic_transcendental():
    # exp(sin x) is entire and periodic, so the spectral derivative is exact
    # to rounding at this resolution
    grid = GridSpec(32, 1, 1)
    x = grid.x
    f = np.exp(np.sin(x)).reshape(grid.shape)
    fh = SpectralField(grid, fwd(grid, f))
    dfdx = inv(grid, derivative(fh, "x").coeffs).ravel()
    assert np.max(np.abs(dfdx - np.cos(x) * np.exp(np.sin(x)))) < 1e-12


def test_nyquist_mode_derivative_is_zero():
    # the unpaired highest mode has no odd derivative; the multiplier drops it
    grid = GridSpec(8, 8, 1)
    X, Y, _ = mesh(grid)
    fh = SpectralField(grid, fwd(grid, np.cos(4 * Y)))
    dy = inv(grid, derivative(fh, "y").coeffs)
    assert np.max(np.abs(dy)) == 0.0


def test_nonuniform_box_derivative():
    grid = GridSpec(16, 16, 1, lx=4.0 * np.pi, ly=2.0 * np.pi)
    X, Y, _ = mesh(grid)
    fh = SpectralField(grid, fwd(grid, np.sin(0.5 * X)))
    dx = inv(grid, derivative(fh, "x").coeffs)
    assert np.max(np.abs(dx - 0.5 * np.cos(0.5 * X))) < 1e-13


def test_poisson_inverts_laplacian():
    grid = GridSpec(16, 16, 16)
    c = fwd(grid, random_field(grid, seed=5))
    c[0, 0, 0] = 0.0
    q = SpectralField(grid, c)
    psi = solve_stratified_poisson(q, 2.5)
    back = psi.coeffs * grid.stratified_symbol(2.5)
    assert np.max(np.abs(back - q.coeffs)) < 1e-12 * np.max(np.abs(q.coeffs))


def test_poisson_single_mode_closed_form():
    # psi = -q / (kx^2 + ky^2 + F^2 kz^2) mode by mode
    grid = GridSpec(16, 16, 16)
    X, Y, Z = mesh(grid)
    q = np.cos(X + 2 * Y + Z)
    psi = solve_stratified_poisson(SpectralField(grid, fwd(grid, q)), 3.0)
    expected = -q / (1.0 + 4.0 + 9.0)
    assert np.max(np.abs(inv(grid, psi.coeffs) - expected)) < 1e-13


def test_poisson_rejects_nonzero_mean():
    grid = GridSpec(8, 8, 8)
    c = fwd(grid, random_field(grid) + 1.0)
    with pytest.raises(NonZeroMeanError):
        solve_stratified_poisson(SpectralField(grid, c), 1.0)


def test_poisson_output_has_zero_mean():
    grid = GridSpec(8, 8, 8)
    c = fwd(grid, random_field(grid, seed=2))
    c[0, 0, 0] = 0.0
    psi = solve_stratified_poisson(SpectralField(grid, c), 1.0)
    assert psi.coeffs[0, 0, 0] == 0.0


def test_velocity_closed_form():
    # psi = cos(x) sin(2y) cos(z):  v = (-psi_y, psi_x, psi_z)
    grid = GridSpec(16, 16, 16)
    X, Y, Z = mesh(grid)
    psi = np.cos(X) * np.sin(2 * Y) * np.cos(Z)
    v1, v2, v3 = (
        inv(grid, vh.coeffs) for vh in velocity_spectra(SpectralField(grid, fwd(grid, psi)))
    )
    assert np.max(np.abs(v1 + 2 * np.cos(X) * np.cos(2 * Y) * np.cos(Z))) < 1e-12
    assert np.max(np.abs(v2 + np.sin(X) * np.sin(2 * Y) * np.cos(Z))) < 1e-12
    assert np.max(np.abs(v3 + np.cos(X) * np.sin(2 * Y) * np.sin(Z))) < 1e-12


def test_velocity_horizontally_divergence_free():
    grid = GridSpec(16, 16, 8)
    c = fwd(grid, random_field(grid, seed=9))
    c[0, 0, 0] = 0.0
    v1h, v2h, _ = velocity_spectra(SpectralField(grid, c))
    div = derivative(v1h, "x").coeffs + derivative(v2h, "y").coeffs
    scale = max(np.max(np.abs(v1h.coeffs)), np.max(np.abs(v2h.coeffs)))
    assert np.max(np.abs(div)) < 1e-13 * scale


def test_dealias_masks_upper_third():
    grid = GridSpec(16, 16, 1)
    X, Y, _ = mesh(grid)
    # modes 3 and 7: only 3 survives |s| <= 16/3
    fh = SpectralField(grid, fwd(grid, np.cos(3 * X) + np.cos(7 * X)))
    cut = dealias(fh)
    assert np.max(np.abs(inv(grid, cut.coeffs) - np.cos(3 * X))) < 1e-13


BLOCK_GRIDS = [GridSpec(64, 64, 64), GridSpec(16, 16, 8), GridSpec(8, 4, 2), GridSpec(2, 4, 8),
               GridSpec(8, 1, 1)]


@pytest.mark.parametrize("grid", BLOCK_GRIDS, ids=lambda g: f"{g.nx}x{g.ny}x{g.nz}")
def test_the_kept_blocks_tile_the_two_thirds_cube_z_ranges_first(grid):
    kx = grid.dealias_bounds[4]
    covered = np.zeros(grid.kshape, dtype=int)
    for index, _ in grid.cube_blocks:
        assert covered[index].size > 0
        covered[index] += 1
    assert covered.max() == 1
    assert np.array_equal(covered[:, :, :kx] == 1, grid.dealias_mask[:, :, :kx])
    assert not grid.dealias_mask[:, :, kx:].any()
    starts = [(index[0].start, index[1].start) for index, _ in grid.cube_blocks]
    assert starts == sorted(starts)
    # a block's rows in the tracer's table are its kept y rows, positive
    # modes first, then the negative ones
    kept_rows = np.flatnonzero(grid.dealias_mask.any(axis=(0, 2)))
    for (_, ys, _), rows in grid.cube_blocks:
        assert np.array_equal(kept_rows[rows], np.arange(grid.ny)[ys])


@pytest.mark.parametrize("grid", BLOCK_GRIDS, ids=lambda g: f"{g.nx}x{g.ny}x{g.nz}")
def test_the_cube_and_the_tracer_weights_take_their_blocks_from_the_grid(grid):
    _, blocks = _new_cube(grid)
    assert [index for index, _ in blocks] == [index for index, _ in grid.cube_blocks]
    weights, _, _ = _level_weights(grid, grid.dealias_bounds, 1.0, 0.5)
    assert [(index, rows) for index, rows, _ in weights] == list(grid.cube_blocks)


def test_dealiased_product_is_exact_convolution():
    # cos(4x) * cos(3x) = cos(7x)/2 + cos(x)/2; the 2/3 mask keeps only cos(x)/2
    grid = GridSpec(16, 1, 1)
    x = grid.x.reshape(grid.shape)
    a = np.cos(4 * x)
    b = np.cos(3 * x)
    prod = SpectralField(grid, fwd(grid, a * b))
    cut = dealias(prod)
    assert np.max(np.abs(inv(grid, cut.coeffs) - 0.5 * np.cos(x))) < 1e-13


def test_parseval():
    grid = GridSpec(16, 16, 16)
    f = random_field(grid, seed=11)
    f -= np.mean(f)
    fh = SpectralField(grid, fwd(grid, f))
    quad = np.sqrt(np.sum(f * f) * grid.cell_volume)
    assert abs(l2_norm(fh) - quad) < 1e-12 * quad


def test_inner_product_matches_quadrature():
    grid = GridSpec(16, 16, 8)
    f = random_field(grid, seed=12)
    g = random_field(grid, seed=13)
    fh = SpectralField(grid, fwd(grid, f))
    gh = SpectralField(grid, fwd(grid, g))
    quad = np.sum(f * g) * grid.cell_volume
    assert abs(inner_product(fh, gh) - quad) < 1e-12 * abs(quad)
    assert abs(inner_product(fh, fh) - l2_norm(fh) ** 2) < 1e-12 * l2_norm(fh) ** 2


def test_norms_single_mode():
    # A cos(x): L2 = A sqrt(V/2), H^s = A sqrt(V/2) 2^(s/2) for |k| = 1
    grid = GridSpec(16, 16, 16)
    X, _, _ = mesh(grid)
    A = 0.7
    fh = SpectralField(grid, fwd(grid, A * np.cos(X)))
    expected = A * np.sqrt(V / 2.0)
    assert abs(l2_norm(fh) - expected) < 1e-12 * expected
    assert abs(sobolev_norm(fh, 0.0) - expected) < 1e-12 * expected
    s = 2.5
    assert abs(sobolev_norm(fh, s) - expected * 2 ** (s / 2)) < 1e-12 * expected


def test_sobolev_ladder_monotone():
    grid = GridSpec(16, 16, 8)
    c = fwd(grid, random_field(grid, seed=4))
    fh = SpectralField(grid, c)
    norms = [sobolev_norm(fh, s) for s in (0.0, 0.5, 1.0, 2.0, 4.0)]
    assert all(a <= b * (1 + 1e-15) for a, b in zip(norms, norms[1:]))


def test_sobolev_s1_physical_oracle():
    # H^1 of sin(x): sqrt(||f||^2 + ||grad f||^2) computed by quadrature
    grid = GridSpec(32, 8, 8)
    X, _, _ = mesh(grid)
    f = np.sin(X)
    fh = SpectralField(grid, fwd(grid, f))
    grad2 = np.cos(X) ** 2
    oracle = np.sqrt(np.sum(f * f + grad2) * grid.cell_volume)
    assert abs(sobolev_norm(fh, 1.0) - oracle) < 1e-12 * oracle


def test_field_wrappers_validate():
    grid = GridSpec(8, 8, 8)
    with pytest.raises(ValueError):
        SpectralField(grid, np.zeros(grid.shape, dtype=np.complex128))
    other = GridSpec(16, 8, 8)
    fh = SpectralField(grid, np.zeros(grid.kshape, dtype=np.complex128))
    gh = SpectralField(other, np.zeros(other.kshape, dtype=np.complex128))
    with pytest.raises(GridMismatchError):
        inner_product(fh, gh)



def test_samples_must_have_the_grid_shape_and_do_not_survive_a_copy():
    grid = GridSpec(8, 4, 2)
    q = random_field(grid)
    field = SpectralField(grid, fwd(grid, q), samples=q)
    assert field.samples is q
    with pytest.raises(ValueError, match="samples shape"):
        SpectralField(grid, fwd(grid, q), samples=q.T)
    with pytest.raises(ValueError, match="samples shape"):
        SpectralField(grid, fwd(grid, q), samples=q.ravel())
    # the copy's coefficients may change, so it keeps no samples
    assert field.copy().samples is None


@pytest.mark.parametrize(
    "grid", [GridSpec(8, 8, 8), GridSpec(16, 8, 4), GridSpec(8, 1, 1), GridSpec(64, 64, 1)]
)
def test_in_cube_tests_the_values_outside_the_two_thirds_cube(grid):
    inside = np.where(grid.dealias_mask, fwd(grid, random_field(grid, 5)), 0.0)
    assert _in_cube(grid, inside)
    # a value test: -0.0 outside passes; a tiny value or a NaN outside fails
    assert _in_cube(grid, np.where(grid.dealias_mask, inside, -0.0))
    for spot in zip(*np.nonzero(~grid.dealias_mask)):
        for value in (1e-300, 1e-300j, np.nan):
            c = inside.copy()
            c[spot] = value
            assert not _in_cube(grid, c), (spot, value)
    # whatever lies inside the cube does not matter
    c = inside.copy()
    c[0, 0, 1] = np.nan
    assert _in_cube(grid, c)
