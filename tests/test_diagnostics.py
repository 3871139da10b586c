"""Norm closed forms, conservation/growth check behavior (including a run
engineered to fail), and the CSV emission contract."""

import dataclasses
import math

import numpy as np
import pytest

from qg3d.diagnostics import (
    CSV_COLUMNS,
    RATIOS_HEADER,
    SPATIAL_FLOOR_TOL,
    CheckResult,
    DiagnosticsRecord,
    _norms,
    _wave_error,
    check_conservation,
    check_growth_bounds,
    check_lp_interpolation,
    monitor_ratios,
    neutrality_checks,
    record,
    spatial_floor_errors,
    write_diagnostics_csv,
    write_ratios_csv,
)
from qg3d.dynamics import PhysicsParams
from qg3d.errors import InsufficientHistoryError
from qg3d.grid import GridSpec
from qg3d.initial import make_random, make_rossby, make_zonal
from qg3d.spectral import (
    SpectralField,
    fwd,
    inv,
    solve_stratified_poisson,
)
from qg3d.stepping import Observer, State, StepControl, run
from reference_forms import derivative, mesh, velocity_spectra

V = (2.0 * np.pi) ** 3


def rec(**kw) -> DiagnosticsRecord:
    base = {name: 0.0 for name in DiagnosticsRecord.__dataclass_fields__}
    base["beta"] = 1.0
    base.update(kw)
    return DiagnosticsRecord(**base)


def test_lp_norm_constants():
    grid = GridSpec(8, 8, 8)
    f = np.full(grid.shape, 2.0)
    dv = grid.cell_volume
    assert abs(_norms(dv, f, 2)[0] - 2.0 * V**0.5) < 1e-12
    assert abs(_norms(dv, f, 4)[0] - 2.0 * V**0.25) < 1e-12
    assert _norms(dv, f, math.inf)[0] == 2.0


def test_lp_norm_sine_closed_forms():
    # mean of sin^2 is 1/2, sin^4 is 3/8, sin^6 is 5/16; exact on the grid
    grid = GridSpec(16, 8, 8)
    X, _, _ = mesh(grid)
    f = np.sin(X)
    dv = grid.cell_volume
    assert abs(_norms(dv, f, 2)[0] - np.sqrt(V / 2.0)) < 1e-12
    assert abs(_norms(dv, f, 4)[0] - (3.0 * V / 8.0) ** 0.25) < 1e-12
    assert abs(_norms(dv, f, 6)[0] - (5.0 * V / 16.0) ** (1.0 / 6.0)) < 1e-12
    assert _norms(dv, f, math.inf)[0] == 1.0


def test_lp_norm_rejects_p_below_one():
    grid = GridSpec(8, 8, 8)
    with pytest.raises(ValueError):
        _norms(grid.cell_volume, np.ones(grid.shape), 0.5)


def test_record_zero_state():
    grid = GridSpec(8, 8, 8)
    state = State(
        SpectralField(grid, np.zeros(grid.kshape, dtype=np.complex128)),
        0.0,
        PhysicsParams(),
    )
    r = record(state)
    assert all(
        getattr(r, name) == 0.0
        for name in DiagnosticsRecord.__dataclass_fields__
        if name not in ("t", "beta")
    )
    assert r.beta == state.params.beta


def test_record_single_harmonic_closed_forms():
    # psi = A cos x: q = -A cos x, v = (0, -A sin x, 0)
    grid = GridSpec(16, 16, 16)
    A = 2.0
    state, _ = make_rossby(grid, 1.0, 1.0, 1, 0, 0, A)
    r = record(state, m=4)
    l2 = A * np.sqrt(V / 2.0)
    assert abs(r.q_l2 - l2) < 1e-12 * l2
    assert abs(r.v_l2 - l2) < 1e-12 * l2
    assert abs(r.q_l4 - A * (3.0 * V / 8.0) ** 0.25) < 1e-12 * l2
    assert abs(r.q_l6 - A * (5.0 * V / 16.0) ** (1.0 / 6.0)) < 1e-12 * l2
    assert abs(r.q_linf - A) < 1e-12
    assert abs(r.v_linf - A) < 1e-12
    assert abs(r.v2_linf - A) < 1e-12
    assert abs(r.dq_l2 - l2) < 1e-12 * l2
    # |k| = 1: H^(m-1) of q is 2^((m-1)/2) times its L2 norm
    assert abs(r.hm_q - l2 * 2.0**1.5) < 1e-12 * r.hm_q
    assert abs(r.hm_v - l2 * 2.0**2.0) < 1e-12 * r.hm_v
    # Hessian has the single entry q_xx = A cos x; mean |cos|^3 = 4/(3 pi).
    # |cos|^3 has kinks, so the grid quadrature converges algebraically:
    # only a loose agreement with the continuum value is available here.
    want = A * (V * 4.0 / (3.0 * np.pi)) ** (1.0 / 3.0)
    assert abs(r.d2q_l3 - want) < 2e-3 * want
    assert abs(r.grad_v_linf - A) < 1e-12

    # F = 2, psi = A cos(x + z): q = -(1 + F^2) psi, v = (0, -A sin, -A sin).
    # v_l2 is the energy norm ||v1||^2 + ||v2||^2 + F^2 ||v3||^2, so it
    # counts the vertical component four times; v_linf is the plain |v|.
    F = 2.0
    state, _ = make_rossby(grid, F, 1.0, 1, 0, 1, A)
    r = record(state, m=4)
    assert abs(r.q_l2 - (1.0 + F * F) * l2) < 1e-12 * r.q_l2
    assert abs(r.v_l2 - np.sqrt(1.0 + F * F) * l2) < 1e-12 * r.v_l2
    assert abs(r.v_linf - np.sqrt(2.0) * A) < 1e-12
    assert abs(r.v2_linf - A) < 1e-12


def test_record_grad_v_matches_nine_component_reference():
    # a state with every mode of the two-thirds cube populated, and F != 1
    grid = GridSpec(16, 16, 8)
    q = fwd(grid, np.random.default_rng(4).standard_normal(grid.shape), truncate=True)
    q[0, 0, 0] = 0.0
    state = State(SpectralField(grid, q), 0.0, PhysicsParams(F=1.5))
    psi = solve_stratified_poisson(state.q_hat, 1.5)
    g2 = np.zeros(grid.shape)
    for vh in velocity_spectra(psi):
        for axis in ("x", "y", "z"):
            comp = inv(grid, derivative(vh, axis).coeffs)
            g2 += comp * comp
    g = np.sqrt(g2)
    dv = grid.cell_volume
    want = {"grad_v_linf": np.max(g)}
    for p in (2, 4, 6):
        want[f"grad_v_l{p}"] = (np.sum(g**p) * dv) ** (1.0 / p)
    r = record(state)
    for name, value in want.items():
        assert getattr(r, name) == pytest.approx(value, rel=1e-14, abs=0.0), name


def test_record_time_field():
    grid = GridSpec(8, 8, 8)
    state, exact = make_rossby(grid, 1.0, 1.0, 1, 0, 0, 1.0)
    r = record(State(exact(0.7), 0.7, state.params))
    assert r.t == 0.7


def test_conservation_passes_on_wave_run():
    grid = GridSpec(16, 16, 16)
    state, _ = make_rossby(grid, 1.0, 1.0, 1, 1, 0, 1.0)
    history = []
    run(
        state,
        0.5,
        StepControl(mode="fixed", dt_fixed=0.01),
        observers=[Observer(lambda s: history.append(record(s)), every=0.1)],
    )
    results = check_conservation(history, 1e-6)
    assert [r.passed for r in results] == [True, True]
    assert {r.name for r in results} == {"v_l2 conservation", "q_l2 conservation"}


def conservation_results(dealiased=False):
    grid = GridSpec(16, 16, 16)
    if not dealiased:
        grid.__dict__["dealias_mask"] = np.ones(grid.kshape, dtype=bool)
    state = make_random(grid, -1.0, 4.0, 12, band=(3, 7))
    history = []
    run(
        state,
        0.5,
        StepControl(mode="fixed", dt_fixed=5e-3),
        observers=[Observer(lambda s: history.append(record(s)), every=0.1)],
    )
    return check_conservation(history, 1e-6)


def test_conservation_fails_without_dealiasing():
    # regression that the check *can* fail: disabling the product mask breaks
    # the skew symmetry of advection, and the drift shows up immediately
    assert not all(r.passed for r in conservation_results())


def test_conservation_fails_without_dealiasing_after_an_ordinary_grid():
    # equal grids with and without the usual mask, in both orders: neither
    # may truncate by the other's cube
    assert all(r.passed for r in conservation_results(dealiased=True))
    assert not all(r.passed for r in conservation_results())
    assert all(r.passed for r in conservation_results(dealiased=True))


def test_conservation_requires_history():
    with pytest.raises(InsufficientHistoryError):
        check_conservation([], 1e-6)


def test_neutrality_holds_away_from_F_1_and_beta_1():
    # <dq/dt, psi> depends on F through psi, so check neutrality where F != 1
    params = PhysicsParams(beta=3.0, nu=0.0, F=2.0)
    results = neutrality_checks(GridSpec(16, 16, 16), params, range(5))
    assert [r.name for r in results] == [
        "enstrophy neutrality <dq/dt, q>",
        "energy neutrality <dq/dt, psi>",
    ]
    assert all(r.passed and r.bound_rhs == 1e-12 for r in results), results


def test_neutrality_check_fails_when_the_tendency_ignores_F(monkeypatch):
    # a tendency that inverts with F = 1 stays enstrophy-neutral but no
    # longer conserves the F = 2 energy; at F = 1 the two would agree
    monkeypatch.setattr(
        "qg3d.dynamics.solve_stratified_poisson",
        lambda q_hat, F, **kwargs: solve_stratified_poisson(q_hat, 1.0, **kwargs),
    )
    params = PhysicsParams(beta=3.0, nu=0.0, F=2.0)
    enstrophy, energy = neutrality_checks(GridSpec(16, 16, 16), params, range(5))
    assert enstrophy.passed
    assert not energy.passed


def test_neutrality_check_fails_without_dealiasing(monkeypatch):
    # the check's states fill the whole spectrum, so a Jacobian that skips
    # the two-thirds truncation aliases and stops being neutral
    # it takes the callers' keywords and returns a new array, as
    # jacobian_raw does without out=
    def untruncated_jacobian(grid, psi_c, q_c, **kwargs):
        psi_x, psi_y = inv(grid, psi_c * grid.ikx), inv(grid, psi_c * grid.iky)
        q_x, q_y = inv(grid, q_c * grid.ikx), inv(grid, q_c * grid.iky)
        jac = fwd(grid, psi_x * q_y - psi_y * q_x)
        jac[0, 0, 0] = 0.0
        return jac

    monkeypatch.setattr("qg3d.dynamics.jacobian_raw", untruncated_jacobian)
    params = PhysicsParams(beta=3.0, nu=0.0, F=2.0)
    results = neutrality_checks(GridSpec(16, 16, 16), params, range(5))
    assert not any(r.passed for r in results), results


def test_growth_bounds_steady_zonal_zero_margin():
    grid = GridSpec(8, 16, 8)
    state = make_zonal(grid, np.cos(grid.y))
    history = [record(State(state.q_hat, t, state.params)) for t in (0.0, 0.5, 1.0)]
    # v2 = 0 for zonal flow: both sides constant, slack exactly zero
    for result in check_growth_bounds(history, 1e-3):
        assert result.passed
        assert abs(result.slack) < 1e-14 * max(result.bound_rhs, 1.0)


def test_growth_bounds_wave_has_positive_slack():
    grid = GridSpec(16, 16, 16)
    state, exact = make_rossby(grid, 1.0, 1.0, 1, 1, 0, 1.0)
    history = [
        record(State(exact(t), t, state.params)) for t in np.linspace(0.0, 1.0, 11)
    ]
    results = check_growth_bounds(history, 1e-3)
    assert all(r.passed for r in results)
    assert all(r.slack > 0.0 for r in results), results


def test_growth_bounds_detect_violation():
    # lhs doubles while the claimed source stays zero
    history = [
        rec(t=0.0, q_l6=1.0, q_linf=1.0),
        rec(t=1.0, q_l6=2.0, q_linf=2.0),
    ]
    results = check_growth_bounds(history, 1e-3)
    assert not any(r.passed for r in results)


@pytest.fixture(scope="module")
def beta_20_history():
    # 16^3, shells 1-3, L2 norm 1e-4, seed 3, beta = 20: q_linf rises by
    # 6.5e-6, far above the integral of ||v2||_Linf alone (1.6e-6)
    grid = GridSpec(16, 16, 16)
    state = make_random(grid, -3.0, 1e-4, 3, band=(1, 3), params=PhysicsParams(beta=20.0))
    history = []
    run(
        state,
        1.0,
        StepControl(mode="fixed", dt_fixed=1e-3),
        observers=[Observer(lambda s: history.append(record(s)), every=0.01)],
    )
    return history


def test_growth_bounds_scale_the_v2_integral_by_beta(beta_20_history):
    assert all(r.beta == 20.0 for r in beta_20_history)
    results = check_growth_bounds(beta_20_history, 1e-3)
    assert all(r.passed for r in results), results


def test_growth_bounds_without_beta_fail_at_beta_20(beta_20_history):
    # the same history checked as if beta were 1: the bound is 20 times
    # too tight and both checks fail
    history = [dataclasses.replace(r, beta=1.0) for r in beta_20_history]
    results = check_growth_bounds(history, 1e-3)
    assert not any(r.passed for r in results), results


def test_growth_bounds_need_two_records():
    with pytest.raises(InsufficientHistoryError):
        check_growth_bounds([rec(t=0.0)], 1e-3)


def test_spatial_floor_sees_a_wrong_derivative_multiplier(monkeypatch):
    # i kx scaled by 1.001 for every s_x >= 2 shifts the beta term's
    # frequency: the (n/4)^3 waves drift by 5e-4 and 1e-3, while the
    # wave (1, 1, 1) is blind to it
    plain = GridSpec.ikx.func

    def skewed(grid):
        m = plain(grid).copy()
        m[..., 2:] *= 1.001
        return m

    monkeypatch.setattr(GridSpec, "ikx", property(skewed))
    assert all(err > SPATIAL_FLOOR_TOL for err in spatial_floor_errors(1.0, (8, 16)))
    assert _wave_error(GridSpec(8, 8, 8), 1.0, 1.0, (1, 1, 1), 1e-3, 0.25) <= SPATIAL_FLOOR_TOL


def test_interpolation_check_on_real_field():
    grid = GridSpec(16, 16, 16)
    state = make_random(grid, -3.0, 1.0, 5)
    result = check_lp_interpolation([record(state)])
    assert result.passed


def test_interpolation_check_detects_violation():
    bad = rec(t=0.0, q_l2=1.0, q_l4=5.0, q_l6=1.0)
    assert not check_lp_interpolation([bad]).passed


def test_check_result_from_bound():
    r = CheckResult.from_bound("demo", 1.0, 2.0, 0.1)
    assert r.passed and r.slack == 1.0
    r = CheckResult.from_bound("demo", 2.0, 1.0, 0.1)
    assert not r.passed and r.slack == -1.0
    # tolerance absorbs a small violation
    assert CheckResult.from_bound("demo", 1.05, 1.0, 0.1).passed


def test_monitor_ratios_zero_field_is_nan():
    report = monitor_ratios([rec(t=0.0)])
    assert math.isnan(report.columns["cz_ratio_l2"][0])
    assert math.isnan(report.columns["gn_ratio"][0])


def test_monitor_ratios_single_mode_cz_is_one():
    grid = GridSpec(16, 16, 16)
    state, _ = make_rossby(grid, 1.0, 1.0, 1, 0, 0, 1.0)
    report = monitor_ratios([record(state)])
    assert abs(report.columns["cz_ratio_l2"][0] - 1.0) < 1e-12
    assert abs(report.columns["q_l2_over_poly"][0] - record(state).q_l2) < 1e-12


def test_diagnostics_csv_contract(tmp_path):
    grid = GridSpec(8, 8, 8)
    state, _ = make_rossby(grid, 1.0, 1.0, 1, 0, 0, 1.0)
    history = [record(state), record(state)]
    path = tmp_path / "diag.csv"
    write_diagnostics_csv(path, history)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 3
    values = [float(x) for x in lines[1].split(",")]
    assert len(values) == len(CSV_COLUMNS)
    # full-precision round trip
    assert values[CSV_COLUMNS.index("q_l2")] == history[0].q_l2


def test_ratios_csv_shape(tmp_path):
    grid = GridSpec(8, 8, 8)
    state, _ = make_rossby(grid, 1.0, 1.0, 1, 0, 0, 1.0)
    report = monitor_ratios([record(state)])
    path = tmp_path / "ratios.csv"
    write_ratios_csv(path, report)
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    assert header[0] == "t"
    # the header a continuation compares with, in the report's column order
    assert tuple(header) == RATIOS_HEADER == ("t", *report.columns)
    assert len(lines) == 2
    assert len(lines[1].split(",")) == len(header)
