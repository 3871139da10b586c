"""End-to-end acceptance runs, one test per numbered criterion.

Each test measures the stated quantity at the stated tolerance and prints a
single line with the numbers behind its verdict (visible with ``-s`` or on
failure).  The long 64-cubed reference run is computed once and shared by
the conservation, growth-bound, and particle-consistency criteria.
"""

import math

import numpy as np
import pytest

from qg3d.config import (
    build_initial_state,
    build_particle_sets,
    parse_config,
    step_control,
)
from qg3d.diagnostics import (
    SPATIAL_FLOOR_TOL,
    TEMPORAL_RATIO_RANGE,
    check_conservation,
    check_growth_bounds,
    neutrality_checks,
    record,
    spatial_floor_errors,
    temporal_order_errors,
)
from qg3d.dynamics import PhysicsParams
from qg3d.grid import GridSpec
from qg3d.initial import (
    make_mms,
    make_random,
    make_rossby,
    manufactured_solution,
)
from qg3d.particles import TrajectoryTracer
from qg3d.snapshots import (
    read_checkpoint,
    read_snapshot,
    snapshot_bytes,
    write_checkpoint,
    write_snapshot,
)
from qg3d.spectral import SpectralField, fwd, inv, l2_norm
from qg3d.stepping import Observer, State, StepControl, run
from reference_forms import mesh

REFERENCE_CONFIG = """\
grid.nx = 64
grid.ny = 64
grid.nz = 64
physics.beta = 1.0
physics.F = 1.0
physics.nu = 0.0
ic.kind = random_spectrum
ic.seed = 42
ic.band_lo = 2
ic.band_hi = 8
ic.energy = 1.0
time.mode = fixed
time.dt = 1e-3
time.t_end = 2.0
output.record_every = 0.02
lagrangian.enabled = true
lagrangian.particles = 512
lagrangian.z_levels = 0.0, 3.141592653589793
lagrangian.seed = 42
"""


def verdict(criterion: int, detail: str, ok: bool) -> bool:
    print(f"[criterion {criterion:2d}] {detail} -> {'PASS' if ok else 'FAIL'}")
    return ok


@pytest.fixture(scope="module")
def reference_run():
    """Seed-42 banded spectrum on 64^3, dt = 1e-3 to t = 2, with 512
    particles on the z = 0 and z = pi planes traced until t = 1."""
    cfg = parse_config(REFERENCE_CONFIG)
    state = build_initial_state(cfg)
    sets = build_particle_sets(cfg, state.grid)
    tracer = TrajectoryTracer(sets, state.q_hat, beta=cfg.beta)
    history = []
    final = run(
        state,
        cfg.time.t_end,
        step_control(cfg),
        observers=[
            Observer(lambda s: history.append(record(s)), every=cfg.output.record_every),
            Observer(lambda s: tracer(s) if s.t <= 1.0 + 1e-12 else None),
        ],
    )
    tracer.finalize()
    return history, tracer, final


def test_criterion_01_l2_conservation(reference_run):
    history, _, final = reference_run
    assert abs(history[0].q_l2 - 1.0) < 1e-12  # IC normalized as stated
    assert final.t == 2.0
    results = check_conservation(history, 1e-6)
    drifts = {r.name: r.bound_lhs for r in results}
    ok = all(r.passed for r in results)
    detail = (
        f"v_l2 drift {drifts['v_l2 conservation']:.3e}, "
        f"q_l2 drift {drifts['q_l2 conservation']:.3e} (tol 1e-6)"
    )
    assert verdict(1, detail, ok), detail


def test_criterion_02_rossby_dispersion():
    grid = GridSpec(32, 32, 32)
    state, _ = make_rossby(grid, 1.0, 1.0, 1, 1, 1, 1.0)
    samples = []
    run(
        state,
        5.0,
        StepControl(mode="fixed", dt_fixed=1e-3),
        observers=[
            Observer(lambda s: samples.append((s.t, complex(s.q_hat.coeffs[1, 1, 1]))), every=0.05)
        ],
    )
    ts = np.array([t for t, _ in samples])
    cs = np.array([c for _, c in samples])
    phase = np.unwrap(np.angle(cs / cs[0]))
    slope = np.polyfit(ts, phase, 1)[0]  # coefficient evolves as e^{-i omega t}
    omega = -slope
    rel = abs(omega - (-1.0 / 3.0)) / (1.0 / 3.0)

    floors = spatial_floor_errors(1.0, (8, 16, 32))

    ok = rel <= 1e-4 and all(f <= SPATIAL_FLOOR_TOL for f in floors)
    detail = (
        f"omega {omega:.9f} vs -1/3, rel err {rel:.3e} (tol 1e-4); "
        f"spatial floors {', '.join(f'{f:.1e}' for f in floors)} for n = 8, 16, 32 "
        f"(tol {SPATIAL_FLOOR_TOL:g})"
    )
    assert verdict(2, detail, ok), detail


def test_criterion_03_temporal_order():
    errors = temporal_order_errors()
    ratios = [errors[i] / errors[i + 1] for i in range(2)]
    lo, hi = TEMPORAL_RATIO_RANGE
    ok = all(lo <= r <= hi for r in ratios)
    detail = (
        f"errors {', '.join(f'{e:.2e}' for e in errors)}; "
        f"ratios {ratios[0]:.2f}, {ratios[1]:.2f} (need [{lo:g}, {hi:g}])"
    )
    assert verdict(3, detail, ok), detail


def test_criterion_04_growth_bounds(reference_run):
    history, _, _ = reference_run
    results = check_growth_bounds(history, 1e-3)
    ok = all(r.passed for r in results)
    detail = "; ".join(
        f"{r.name}: lhs {r.bound_lhs:.6f} <= rhs {r.bound_rhs:.6f}" for r in results
    ) + " (tol_rel 1e-3)"
    assert verdict(4, detail, ok), detail


def test_criterion_05_lagrangian_consistency(reference_run):
    _, tracer, _ = reference_run
    assert sum(len(ps) for ps in tracer.sets) == 512
    residual = tracer.max_residual()
    ok = residual <= 1e-5
    detail = f"max |duhamel residual| {residual:.3e} over 512 particles to t = 1 (tol 1e-5)"
    assert verdict(5, detail, ok), detail


def test_criterion_06_planar_transport_invariants():
    grid = GridSpec(1024, 1024, 1)
    params = PhysicsParams(beta=0.0, nu=0.0, F=1.0)
    state = make_random(grid, -4.0, 1.0, seed=0, band=(2, 5), params=params)
    history = []
    run(
        state,
        2.0,
        StepControl(mode="fixed", dt_fixed=1e-2),
        observers=[Observer(lambda s: history.append(record(s)), every=0.1)],
    )
    first = history[0]
    drifts = {
        p: max(
            abs(getattr(r, f"q_l{p}") - getattr(first, f"q_l{p}"))
            / getattr(first, f"q_l{p}")
            for r in history
        )
        for p in (2, 4, 6)
    }
    linf_rise = max((r.q_linf - first.q_linf) / first.q_linf for r in history)
    ok = all(d <= 1e-5 for d in drifts.values()) and linf_rise <= 1e-4
    detail = (
        f"L2/L4/L6 drift {drifts[2]:.1e}/{drifts[4]:.1e}/{drifts[6]:.1e} (tol 1e-5); "
        f"Linf rise {linf_rise:.1e} (tol 1e-4)"
    )
    assert verdict(6, detail, ok), detail


def test_criterion_07_manufactured_solution():
    grid = GridSpec(32, 32, 32)
    params = PhysicsParams(beta=1.0, nu=0.0, F=1.0)
    X, Y, _ = mesh(grid)
    phi = fwd(grid, np.sin(X) * np.sin(Y))

    def target(t):
        return np.cos(t) * phi, -np.sin(t) * phi

    state, forcing = make_mms(grid, params, target)
    final = run(state, 1.0, StepControl(mode="fixed", dt_fixed=1e-3), forcing=forcing)
    want = manufactured_solution(grid, target, params.F, 1.0)
    err = float(np.max(np.abs(inv(grid, final.q_hat.coeffs - want.coeffs))))
    ok = err <= 1e-10
    detail = f"max-norm error vs cos(t) sin(x) sin(y) target {err:.3e} (tol 1e-10)"
    assert verdict(7, detail, ok), detail


def test_criterion_08_viscous_decay():
    grid = GridSpec(16, 16, 16)
    wave, _ = make_rossby(grid, 1.0, 0.0, 1, 1, 1, 1.0)  # |k|^2 = 3
    state = State(wave.q_hat, 0.0, PhysicsParams(beta=0.0, nu=0.1, F=1.0))
    c0 = state.q_hat.coeffs[1, 1, 1]
    final = run(state, 1.0, StepControl(mode="fixed", dt_fixed=1e-3))
    ratio = abs(final.q_hat.coeffs[1, 1, 1]) / abs(c0)
    err = abs(ratio - math.exp(-0.3))
    ok = err <= 1e-8
    detail = f"amplitude ratio {ratio:.12f} vs exp(-0.3), err {err:.3e} (tol 1e-8)"
    assert verdict(8, detail, ok), detail


def test_criterion_09_neutrality_identities():
    params = PhysicsParams(beta=1.0, nu=0.0, F=1.0)
    results = neutrality_checks(GridSpec(32, 32, 32), params, range(100))
    worst_q, worst_psi = (r.bound_lhs for r in results)
    ok = all(r.passed for r in results)
    detail = (
        f"worst <tendency, q> {worst_q:.3e}, worst <tendency, psi> {worst_psi:.3e} "
        f"over 100 seeds (tol 1e-12)"
    )
    assert verdict(9, detail, ok), detail


def test_criterion_10_checkpoint_restart_and_snapshot_roundtrip(tmp_path):
    grid = GridSpec(32, 32, 32)
    params = PhysicsParams(beta=1.0, nu=0.0, F=1.0)
    state0 = make_random(grid, -3.0, 1.0, seed=9, band=(2, 5), params=params)
    control = StepControl(mode="fixed", dt_fixed=1e-3)

    direct = run(state0, 1.0, control)

    half = run(state0, 0.5, control)
    ckpt = tmp_path / "half.qg3d"
    write_checkpoint(half, ckpt, "acceptance-digest")
    resumed, meta = read_checkpoint(ckpt)
    assert meta["time"] == 0.5
    restarted = run(resumed, 1.0, control)

    diff = SpectralField(grid, restarted.q_hat.coeffs - direct.q_hat.coeffs)
    rel = l2_norm(diff) / l2_norm(direct.q_hat)
    ok_equiv = rel <= 1e-12

    # the same step sequence from the same checkpoint is bitwise reproducible
    again = run(read_checkpoint(ckpt)[0], 1.0, control)
    ok_repeat = snapshot_bytes(again) == snapshot_bytes(restarted)

    # snapshot write -> read -> write is byte-identical
    a, b = tmp_path / "a.qg3d", tmp_path / "b.qg3d"
    write_snapshot(direct, a)
    write_snapshot(read_snapshot(a), b)
    ok_snapshot = a.read_bytes() == b.read_bytes()

    ok = ok_equiv and ok_repeat and ok_snapshot
    detail = (
        f"restart vs direct rel diff {rel:.3e} (tol 1e-12); "
        f"repeat bitwise {ok_repeat}; snapshot round-trip bitwise {ok_snapshot}"
    )
    assert verdict(10, detail, ok), detail
