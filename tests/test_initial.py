"""Generator oracles: dispersion relation, seeded determinism, spectrum
shape, Gaussian closed forms, and manufactured-solution consistency."""

import re

import numpy as np
import pytest

from qg3d.dynamics import PhysicsParams, tendency_raw
from qg3d.errors import EmptyBandError, ZeroModeError
from qg3d.grid import GridSpec
from qg3d.initial import (
    make_blob,
    make_mms,
    make_random,
    make_rossby,
    make_zonal,
    manufactured_solution,
)
from qg3d.spectral import SpectralField, fwd, inv, l2_norm
from qg3d.stepping import State, StepControl, run
from reference_forms import mesh

V = (2.0 * np.pi) ** 3


def test_rossby_dispersion_examples():
    grid = GridSpec(16, 16, 16)
    _, exact_100 = make_rossby(grid, 1.0, 1.0, 1, 0, 0, 1.0)
    _, exact_111 = make_rossby(grid, 1.0, 1.0, 1, 1, 1, 1.0)
    # omega = -beta kx / K^2: -1 for (1,0,0), -1/3 for (1,1,1)
    t = 0.8
    c0 = exact_100(0.0).coeffs[0, 0, 1]
    ct = exact_100(t).coeffs[0, 0, 1]
    assert abs(ct - c0 * np.exp(-1j * (-1.0) * t)) < 1e-14
    c0 = exact_111(0.0).coeffs[1, 1, 1]
    ct = exact_111(t).coeffs[1, 1, 1]
    assert abs(ct - c0 * np.exp(-1j * (-1.0 / 3.0) * t)) < 1e-14


def test_rossby_exact_solution_satisfies_discrete_tendency():
    grid = GridSpec(16, 16, 16)
    F, beta = 1.5, 2.0
    state, exact = make_rossby(grid, F, beta, 1, 2, 1, 0.7)
    k2 = 1.0 + 4.0 + F * F
    omega = -beta / k2
    for t in (0.0, 0.37, 1.1):
        sampled = State(exact(t), t, state.params)
        T = tendency_raw(grid, sampled.q_hat.coeffs, t, sampled.params)
        expected = -1j * omega * sampled.q_hat.coeffs
        assert np.max(np.abs(T - expected)) < 1e-12


def test_rossby_beta_zero_is_steady():
    grid = GridSpec(8, 8, 8)
    state, exact = make_rossby(grid, 1.0, 0.0, 1, 1, 0, 1.0)
    assert np.array_equal(exact(5.0).coeffs, exact(0.0).coeffs)


def test_rossby_zero_mode_rejected():
    grid = GridSpec(8, 8, 8)
    with pytest.raises(ZeroModeError):
        make_rossby(grid, 1.0, 1.0, 0, 0, 0, 1.0)


def test_rossby_mode_beyond_grid_rejected():
    # |s| = 3 is below Nyquist on 8 points but outside the two-thirds cube
    grid = GridSpec(8, 8, 8)
    for mode in ((4, 0, 0), (3, 0, 0), (0, -3, 1), (1, 0, 3)):
        with pytest.raises(ValueError, match=re.escape(f"mode {mode}")):
            make_rossby(grid, 1.0, 1.0, *mode, 1.0)


def test_rossby_mode_that_wraps_around_the_grid_rejected():
    # 9 = 1 mod 8: a mode past the grid must not alias to a kept one
    grid = GridSpec(8, 8, 8)
    for mode in ((9, 0, 0), (0, 9, 0), (0, 0, -9)):
        with pytest.raises(ValueError, match=re.escape(f"mode {mode} lies outside")):
            make_rossby(grid, 1.0, 1.0, *mode, 1.0)


def test_rossby_negative_mode_is_same_field():
    grid = GridSpec(16, 16, 16)
    a, _ = make_rossby(grid, 1.0, 1.0, 1, -2, 1, 1.0)
    b, _ = make_rossby(grid, 1.0, 1.0, -1, 2, -1, 1.0)
    assert np.array_equal(a.q_hat.coeffs, b.q_hat.coeffs)


def test_random_seeded_determinism():
    grid = GridSpec(32, 32, 32)
    a = make_random(grid, -2.0, 1.0, 42)
    b = make_random(grid, -2.0, 1.0, 42)
    assert np.array_equal(a.q_hat.coeffs, b.q_hat.coeffs)
    c = make_random(grid, -2.0, 1.0, 43)
    assert not np.array_equal(a.q_hat.coeffs, c.q_hat.coeffs)


def test_random_hits_requested_norm():
    grid = GridSpec(16, 16, 16)
    state = make_random(grid, -3.0, 0.75, 7)
    assert abs(l2_norm(state.q_hat) - 0.75) < 1e-12


def test_random_zero_energy_is_zero_field():
    grid = GridSpec(16, 16, 16)
    state = make_random(grid, -3.0, 0.0, 7)
    assert np.all(state.q_hat.coeffs == 0.0)


def test_random_field_is_real_and_zero_mean():
    grid = GridSpec(16, 16, 8)
    state = make_random(grid, -2.5, 1.0, 3)
    q = inv(grid, state.q_hat.coeffs)
    back = fwd(grid, q)
    assert state.q_hat.coeffs[0, 0, 0] == 0.0
    # Hermitian storage means the physical field reproduces the spectrum
    assert np.max(np.abs(back - state.q_hat.coeffs)) < 1e-13


def test_random_shell_power_follows_slope():
    # per-shell power is exactly m^slope after the global rescale
    grid = GridSpec(32, 32, 32)
    slope = -3.0
    state = make_random(grid, slope, 1.0, 11, band=(2, 6))
    c = state.q_hat.coeffs
    SX = grid.sx.reshape(1, 1, -1)
    SY = grid.sy.reshape(1, -1, 1)
    SZ = grid.sz.reshape(-1, 1, 1)
    shell = np.rint(np.sqrt((SX**2 + SY**2 + SZ**2).astype(float))).astype(int)
    w = grid.hermitian_weight

    def shell_power(m):
        return float(np.sum((w * np.abs(c) ** 2)[shell == m]))

    p2, p4 = shell_power(2), shell_power(4)
    assert abs(p4 / p2 - (4.0 / 2.0) ** slope) < 1e-12


def test_random_empty_band_rejected():
    grid = GridSpec(16, 16, 16)
    with pytest.raises(EmptyBandError):
        make_random(grid, -2.0, 1.0, 0, band=(4, 3))
    with pytest.raises(EmptyBandError):
        # shells entirely beyond the dealias cutoff
        make_random(grid, -2.0, 1.0, 0, band=(40, 50))


def test_blob_zero_mean_and_l2_closed_form():
    grid = GridSpec(32, 32, 32)
    A, w = 2.0, 0.5
    state = make_blob(grid, (np.pi, np.pi, np.pi), w, A)
    assert abs(state.q_hat.coeffs[0, 0, 0]) <= 1e-15
    # || G - mean ||^2 = integral(G^2) - V mean^2 with Gaussian integrals
    int_g2 = (w * np.sqrt(np.pi)) ** 3
    mean = (w * np.sqrt(2.0 * np.pi)) ** 3 / V
    expected = A * np.sqrt(int_g2 - V * mean**2)
    assert abs(l2_norm(state.q_hat) - expected) < 1e-6 * expected


def test_blob_zero_amplitude():
    grid = GridSpec(16, 16, 16)
    state = make_blob(grid, (1.0, 2.0, 3.0), 0.4, 0.0)
    assert np.all(state.q_hat.coeffs == 0.0)


def test_blob_bad_width_rejected():
    grid = GridSpec(8, 8, 8)
    with pytest.raises(ValueError):
        make_blob(grid, (0.0, 0.0, 0.0), -0.5, 1.0)


def test_zonal_scalar_closed_form():
    # psi = cos(2y) gives q = psi_yy = -4 cos(2y)
    grid = GridSpec(8, 16, 8)
    state = make_zonal(grid, np.cos(2 * grid.y))
    q = inv(grid, state.q_hat.coeffs)
    _, Y, _ = mesh(grid)
    assert np.max(np.abs(q - (-4.0) * np.cos(2 * Y))) < 1e-12


def test_zonal_profile_length_checked():
    grid = GridSpec(8, 16, 8)
    with pytest.raises(ValueError):
        make_zonal(grid, np.cos(grid.x))  # 8 samples, need 16


def traveling_wave(grid, amplitude, s, omega):
    """Target A cos(k.x - omega t) as the two separable terms
    cos(k.x) cos(omega t) + sin(k.x) sin(omega t)."""
    X, Y, Z = mesh(grid)
    phase = s[0] * X + s[1] * Y + s[2] * Z
    c, s_ = fwd(grid, amplitude * np.cos(phase)), fwd(grid, amplitude * np.sin(phase))

    def target(t):
        cw, sw = np.cos(omega * t), np.sin(omega * t)
        return cw * c + sw * s_, omega * (cw * s_ - sw * c)

    return target


def steady(phi):
    return lambda t: (phi, np.zeros_like(phi))


def test_mms_rossby_target_needs_no_forcing():
    # the dispersion relation cancels every term, so the source vanishes
    grid = GridSpec(16, 16, 16)
    beta, F = 1.0, 1.0
    k2 = 3.0
    omega = -beta / k2
    target = traveling_wave(grid, 1.0, (1, 1, 1), omega)
    params = PhysicsParams(beta=beta, nu=0.0, F=F)
    state, forcing = make_mms(grid, params, target)
    scale = np.max(np.abs(state.q_hat.coeffs))
    for t in (0.0, 0.4, 1.3):
        assert np.max(np.abs(forcing.spectral(grid, t))) < 1e-12 * scale


def test_mms_zonal_target_needs_no_forcing():
    grid = GridSpec(8, 16, 8)
    _, Y, _ = mesh(grid)
    target = steady(fwd(grid, np.cos(2 * Y)))
    state, forcing = make_mms(grid, PhysicsParams(), target)
    scale = np.max(np.abs(state.q_hat.coeffs))
    assert np.max(np.abs(forcing.spectral(grid, 0.5))) < 1e-13 * scale


def test_mms_forcing_closed_form_single_term():
    # psi* = cos(t) sin(x) with beta = 0: q* = -cos(t) sin(x) and the
    # advection vanishes, so F = q*_t = sin(t) sin(x)
    grid = GridSpec(16, 8, 8)
    X, _, _ = mesh(grid)
    phi = fwd(grid, np.sin(X))
    params = PhysicsParams(beta=0.0, nu=0.0, F=1.0)
    state, forcing = make_mms(grid, params, lambda t: (np.cos(t) * phi, -np.sin(t) * phi))
    for t in (0.2, 0.9):
        got = inv(grid, forcing.spectral(grid, t))
        assert np.max(np.abs(got - np.sin(t) * np.sin(X))) < 1e-13


def test_mms_run_reproduces_target():
    grid = GridSpec(16, 16, 4)
    X, Y, _ = mesh(grid)
    phi = fwd(grid, np.sin(X) * np.sin(Y))

    def target(t):
        return np.cos(t) * phi, -np.sin(t) * phi

    params = PhysicsParams(beta=1.0, nu=0.0, F=1.0)
    state, forcing = make_mms(grid, params, target)
    t_end = 0.5
    out = run(state, t_end, StepControl(mode="fixed", dt_fixed=1e-3), forcing=forcing)
    want = manufactured_solution(grid, target, params.F, t_end)
    err = np.max(np.abs(inv(grid, out.q_hat.coeffs - want.coeffs)))
    assert err < 1e-11


def test_manufactured_solution_is_symbol_times_target():
    grid = GridSpec(16, 16, 8)
    X, _, Z = mesh(grid)
    psi = 0.5 * np.cos(2 * X) * np.sin(Z)
    got = manufactured_solution(grid, steady(fwd(grid, psi)), 2.0, 0.0)
    # q = (dxx + F^2 dzz) psi = -(4 + 4) psi for modes (2, 0, 1), F = 2
    assert np.max(np.abs(inv(grid, got.coeffs) - (-8.0) * psi)) < 1e-12


def test_generators_emit_zero_mean():
    grid = GridSpec(16, 16, 8)
    states = [
        make_rossby(grid, 1.0, 1.0, 1, 1, 0, 1.0)[0],
        make_random(grid, -3.0, 1.0, 1),
        make_blob(grid, (1.0, 2.0, 3.0), 0.6, 1.5),
        make_zonal(grid, np.sin(grid.y)),
    ]
    for state in states:
        norm = l2_norm(state.q_hat)
        assert abs(state.q_hat.coeffs[0, 0, 0]) <= 1e-15 * max(norm, 1.0)
