"""Norm time series, conservation checks, and growth-bound verification.

A DiagnosticsRecord is one time sample of every monitored norm.  The checks
compare those series against the identities the dynamics are supposed to
satisfy: exact conservation of the quadratic invariants and integral-form
growth bounds driven by the second velocity component.  The neutrality
identities and the temporal and spatial convergence runs are computed here
too, once, for both ``qg3d verify``/``qg3d converge`` and the acceptance tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Iterable, Sequence

import numpy as np

from .dynamics import PhysicsParams, tendency_raw
from .errors import InsufficientHistoryError
from .grid import GridSpec
from .initial import make_rossby
from .spectral import (
    Pool,
    SpectralField,
    cube_derivative,
    fwd,
    inner_product,
    inv,
    l2_norm,
    pool_for,
    sobolev_norm,
    solve_stratified_poisson,
)
from .stepping import State, StepControl, run

#: The header of the ratios CSV: "t", then ``monitor_ratios``' columns.
RATIOS_HEADER = (
    "t",
    "cz_ratio_l2",
    "cz_ratio_l4",
    "gn_ratio",
    "q_l2_over_poly",
    "q_l4_over_poly",
    "q_l6_over_poly",
    "d2q_l3",
)


@dataclass(frozen=True)
class DiagnosticsRecord:
    """All monitored norms at one instant.

    ``v_l2`` is the L2 norm of (v1, v2, F v3), whose square is the energy
    the inviscid dynamics conserve; ``v_linf`` is the plain |v| maximum.
    The trailing grad_v_l2/l4/l6 entries feed the reported (never asserted)
    inequality ratios, and ``beta`` is the state's beta, which scales the
    growth bounds; none of the four is part of the CSV schema.
    """

    t: float
    v_l2: float
    q_l2: float
    q_l4: float
    q_l6: float
    q_linf: float
    v_linf: float
    v2_l6: float
    v2_linf: float
    dq_l2: float
    dq_l3: float
    dq_l4: float
    d2q_l3: float
    hm_q: float
    hm_v: float
    grad_v_linf: float
    grad_v_l2: float
    grad_v_l4: float
    grad_v_l6: float
    beta: float


#: CSV column order, the record's fields but the last four; the header is
#: part of the on-disk contract.
CSV_COLUMNS = tuple(f.name for f in fields(DiagnosticsRecord)[:-4])


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one verified bound: passed iff slack >= -tolerance."""

    name: str
    bound_lhs: float
    bound_rhs: float
    slack: float
    passed: bool
    tolerance: float

    @classmethod
    def from_bound(cls, name: str, lhs: float, rhs: float, tolerance: float) -> "CheckResult":
        slack = rhs - lhs
        return cls(name, lhs, rhs, slack, slack >= -tolerance, tolerance)


def _norms(cell_volume: float, values: np.ndarray, *ps: float, scratch=None) -> list[float]:
    """The Lp norms of the grid values for each p (>= 1 or inf).

    ``values`` is overwritten with |values|, and |values|^p is formed in
    ``scratch``, an array of the same shape, or in a new one if it is None.
    """
    magnitude = np.abs(values, out=values)
    out = []
    for p in ps:
        if p == math.inf:
            out.append(float(np.max(magnitude)) if magnitude.size else 0.0)
            continue
        if p < 1:
            raise ValueError(f"p must be >= 1 or inf, got {p}")
        if scratch is None:
            scratch = np.empty_like(magnitude)
        # |f|^p can overflow on a diverging state; inf is the right saturation
        with np.errstate(over="ignore"):
            np.power(magnitude, p, out=scratch)
            out.append(float((np.sum(scratch) * cell_volume) ** (1.0 / p)))
    return out


def _gradient_magnitude(grid: GridSpec, coeffs: np.ndarray, pool: Pool) -> np.ndarray:
    """|grad f| = sqrt(fx * fx + fy * fy + fz * fz) on the grid, in the
    pool's ``real(0)``; ``real(1)`` holds each further component."""
    out = inv(grid, cube_derivative(grid, coeffs, "x"), out=pool.real(0))
    out *= out
    comp = pool.real(1)
    for axis in "yz":
        inv(grid, cube_derivative(grid, coeffs, axis), out=comp)
        comp *= comp
        out += comp
    return np.sqrt(out, out=out)


def _hessian_magnitude(grid: GridSpec, coeffs: np.ndarray, pool: Pool) -> np.ndarray:
    """Frobenius norm of the Hessian on the grid, off-diagonal entries
    counted twice, in the pool's ``real(0)``; ``real(1)`` and ``real(2)``
    hold each entry."""
    h2 = pool.real(0)
    h2.fill(0.0)
    term = pool.real(1)
    comp = pool.real(2)
    for ax1, ax2, mult in (
        ("x", "x", 1.0), ("y", "y", 1.0), ("z", "z", 1.0),
        ("x", "y", 2.0), ("x", "z", 2.0), ("y", "z", 2.0),
    ):
        # the operand order of derivative(derivative(fh, ax1), ax2)
        inv(grid, cube_derivative(grid, coeffs, ax1, ax2), out=comp)
        # h2 += mult * comp * comp, without its two temporaries
        np.multiply(mult, comp, out=term)
        term *= comp
        h2 += term
    return np.sqrt(h2, out=h2)


def record(state: State, m: int = 4) -> DiagnosticsRecord:
    """Compute every monitored norm from the prognostic coefficients.

    m sets the Sobolev monitoring order: the scalar is tracked in H^(m-1)
    and the velocity in H^m.  The fields on the grid are formed in the
    pool's ``real(0)`` to ``real(2)``, each reduced to its norms before its
    array is reused, with |f|^p in ``real(3)``; squares and |f| are taken
    in place.  The streamfunction is the pool's ``half("psi")``.

    A state lies inside the two-thirds cube, and so does every spectrum
    derived from it: the 19 spectra are formed in the cube array, which
    ``inv`` prunes, with the bits of the full products.
    """
    grid = state.grid
    q_hat = state.q_hat
    F = state.params.F
    dv = grid.cell_volume
    pool = pool_for(grid)
    psi = solve_stratified_poisson(q_hat, F, out=pool.half("psi")).coeffs
    scratch = pool.real(3)

    def velocity(axis, i):
        # H^m norm and grid values, in real(i), of a velocity component, up
        # to sign: v1 = -psi_y enters only squared
        vh = cube_derivative(grid, psi, axis)
        return sobolev_norm(SpectralField(grid, vh), m), inv(grid, vh, out=pool.real(i))

    q = inv(grid, cube_derivative(grid, q_hat.coeffs), out=pool.real(0))
    q_l2, q_l4, q_l6, q_linf = _norms(dv, q, 2, 4, 6, math.inf, scratch=scratch)

    hm_v2, v2 = velocity("x", 0)
    # v2 becomes |v2|, whose square is that of v2
    v2_l6, v2_linf = _norms(dv, v2, 6, math.inf, scratch=scratch)
    # |v|^2 = (v1 * v1 + v2 * v2) + v3 * v3, each square formed in place
    hm_v1, vh_sq = velocity("y", 1)
    vh_sq *= vh_sq
    v2 *= v2
    vh_sq += v2
    hm_v3, v3_sq = velocity("z", 0)
    v3_sq *= v3_sq
    vmag = np.add(vh_sq, v3_sq, out=pool.real(2))
    (v_linf,) = _norms(dv, np.sqrt(vmag, out=vmag), math.inf)
    # the conserved energy weights the vertical component by F^2
    v3_sq *= F * F
    vh_sq += v3_sq
    (v_l2,) = _norms(dv, np.sqrt(vh_sq, out=vh_sq), 2, scratch=scratch)

    dq_l2, dq_l3, dq_l4 = _norms(
        dv, _gradient_magnitude(grid, q_hat.coeffs, pool), 2, 3, 4, scratch=scratch
    )
    (d2q_l3,) = _norms(dv, _hessian_magnitude(grid, q_hat.coeffs, pool), 3, scratch=scratch)
    # v = (-psi_y, psi_x, psi_z), so the sum of (d_j v_i)^2 over all nine
    # entries is the Hessian of psi with the off-diagonal entries twice
    grad_v_linf, grad_v_l2, grad_v_l4, grad_v_l6 = _norms(
        dv, _hessian_magnitude(grid, psi, pool), math.inf, 2, 4, 6, scratch=scratch
    )

    return DiagnosticsRecord(
        t=state.t,
        v_l2=v_l2,
        q_l2=q_l2,
        q_l4=q_l4,
        q_l6=q_l6,
        q_linf=q_linf,
        v_linf=v_linf,
        v2_l6=v2_l6,
        v2_linf=v2_linf,
        dq_l2=dq_l2,
        dq_l3=dq_l3,
        dq_l4=dq_l4,
        d2q_l3=d2q_l3,
        hm_q=sobolev_norm(q_hat, m - 1),
        hm_v=float(np.sqrt(sum(n**2 for n in (hm_v1, hm_v2, hm_v3)))),
        grad_v_linf=grad_v_linf,
        grad_v_l2=grad_v_l2,
        grad_v_l4=grad_v_l4,
        grad_v_l6=grad_v_l6,
        beta=state.params.beta,
    )


def check_conservation(
    history: Sequence[DiagnosticsRecord], tol_rel: float
) -> list[CheckResult]:
    """Relative drift of the two exactly conserved norms.

    Valid for inviscid unforced runs.  ``v_l2`` is the F-weighted energy
    norm, which is the conserved one for every stratification ratio.
    """
    if not history:
        raise InsufficientHistoryError("need at least one record")
    results = []
    for name in ("v_l2", "q_l2"):
        series = np.array([getattr(r, name) for r in history])
        scale = series[0] if series[0] > 0.0 else 1.0
        drift = float(np.max(np.abs(series - series[0])) / scale)
        results.append(
            CheckResult.from_bound(f"{name} conservation", drift, tol_rel, 0.0)
        )
    return results


def neutrality_checks(
    grid: GridSpec, params: PhysicsParams, seeds: Iterable[int]
) -> list[CheckResult]:
    """Max relative inner products of the inviscid tendency with the scalar
    and the streamfunction over seeded states; both must vanish to 1e-12.

    Each state is the transform of seeded white noise with its mean removed,
    so it fills the whole spectrum: products of modes beyond the dealias
    cube alias, and only the Jacobian's truncation keeps the tendency
    neutral.  A state whose tendency is exactly zero has nothing to measure
    and is skipped."""
    worst_q = 0.0
    worst_psi = 0.0
    for seed in seeds:
        coeffs = fwd(grid, np.random.default_rng(seed).standard_normal(grid.shape))
        coeffs[0, 0, 0] = 0.0
        q_hat = SpectralField(grid, coeffs)
        tend = SpectralField(grid, tendency_raw(grid, coeffs, 0.0, params))
        psi_hat = solve_stratified_poisson(q_hat, params.F)
        scale_t = l2_norm(tend)
        if scale_t == 0.0:
            continue
        worst_q = max(
            worst_q, abs(inner_product(tend, q_hat)) / (scale_t * l2_norm(q_hat))
        )
        worst_psi = max(
            worst_psi, abs(inner_product(tend, psi_hat)) / (scale_t * l2_norm(psi_hat))
        )
    return [
        CheckResult.from_bound("enstrophy neutrality <dq/dt, q>", worst_q, 1e-12, 0.0),
        CheckResult.from_bound("energy neutrality <dq/dt, psi>", worst_psi, 1e-12, 0.0),
    ]


def _wave_error(
    grid: GridSpec, F: float, beta: float, mode: tuple[int, int, int], dt: float, t_end: float
) -> float:
    """Max-norm error at t_end of a fixed-dt run of one exact Rossby wave."""
    state, exact = make_rossby(grid, F, beta, *mode, 1.0)
    final = run(state, t_end, StepControl(mode="fixed", dt_fixed=dt))
    return float(np.max(np.abs(inv(grid, final.q_hat.coeffs - exact(t_end).coeffs))))


#: Step sizes of the temporal refinement ladder, largest first.
TEMPORAL_DTS = (4e-3, 2e-3, 1e-3)
#: Accepted range of successive temporal error ratios: fourth order is 2^4 = 16.
TEMPORAL_RATIO_RANGE = (14.0, 18.0)
#: Largest accepted spatial floor error, on grids of 8^3 and finer.
SPATIAL_FLOOR_TOL = 1e-10


def temporal_order_errors() -> list[float]:
    """Wave error at t = 1 on 16^3, one per dt of ``TEMPORAL_DTS``.  The
    fast wave (frequency 8) keeps the dt^4 error far above the rounding
    floor, so successive ratios near 16 show fourth order."""
    grid = GridSpec(16, 16, 16)
    return [_wave_error(grid, 1.0, 8.0, (1, 0, 0), dt, 1.0) for dt in TEMPORAL_DTS]


def spatial_floor_errors(F: float, sizes: Iterable[int]) -> list[float]:
    """Error at t = 0.25 (dt = 1e-3) of the wave (m, m, m), m = max(1, n // 4),
    on an n^3 grid, one per n in ``sizes``.  The mode is resolved exactly, so
    the error is the time-stepping and rounding floor; a wave at a quarter of
    the grid's modes lets a wrong derivative multiplier above s = 1 show."""
    return [
        _wave_error(GridSpec(n, n, n), F, 1.0, (max(1, n // 4),) * 3, 1e-3, 0.25)
        for n in sizes
    ]


def _integral_bound_check(
    name: str,
    t: np.ndarray,
    lhs_series: np.ndarray,
    rate_series: np.ndarray,
    tol_rel: float,
) -> CheckResult:
    rhs_series = lhs_series[0] + _cumtrapz(rate_series, t)
    margins = rhs_series - lhs_series
    # both sides are ||q0|| at the first record, so its margin is always 0;
    # the worst record is sought among the later ones
    relative = margins[1:] / np.maximum(np.abs(rhs_series[1:]), 1e-300)
    worst = 1 + int(np.argmin(relative))
    lhs, rhs = float(lhs_series[worst]), float(rhs_series[worst])
    return CheckResult.from_bound(name, lhs, rhs, tol_rel * max(abs(rhs), 1e-300))


def _cumtrapz(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    out = np.zeros_like(y)
    if y.shape[0] > 1:
        out[1:] = np.cumsum(0.5 * (y[1:] + y[:-1]) * np.diff(x))
    return out


def check_growth_bounds(
    history: Sequence[DiagnosticsRecord], tol_rel: float
) -> list[CheckResult]:
    """Integral-form growth bounds along the recorded time series.

    Checks, with trapezoid path integrals over the record cadence,
      (a) ||q(t)||_L6   <= ||q0||_L6   + integral of |beta| ||v2||_L6, and
      (b) ||q(t)||_Linf <= ||q0||_Linf + integral of |beta| ||v2||_Linf;
    both follow from integrating dq/dt = -beta v2 along horizontal particle
    paths.  Each record carries its own beta.  Valid for inviscid unforced
    runs.
    """
    if len(history) < 2:
        raise InsufficientHistoryError("growth bounds need at least two records")
    t = np.array([r.t for r in history])
    return [
        _integral_bound_check(
            "q_l6 growth bound",
            t,
            np.array([r.q_l6 for r in history]),
            np.array([abs(r.beta) * r.v2_l6 for r in history]),
            tol_rel,
        ),
        _integral_bound_check(
            "q_linf growth bound",
            t,
            np.array([r.q_linf for r in history]),
            np.array([abs(r.beta) * r.v2_linf for r in history]),
            tol_rel,
        ),
    ]


def check_lp_interpolation(history: Sequence[DiagnosticsRecord]) -> CheckResult:
    """Holder interpolation sanity: ||q||_L4 <= ||q||_L2^(1/4) ||q||_L6^(3/4).

    Asserted with a 1e-12 relative cushion at the worst record.
    """
    if not history:
        raise InsufficientHistoryError("need at least one record")
    lhs = np.array([r.q_l4 for r in history])
    rhs = np.array([r.q_l2 ** 0.25 * r.q_l6 ** 0.75 for r in history]) * (1.0 + 1e-12)
    worst = int(np.argmax(lhs - rhs))
    return CheckResult.from_bound(
        "l4 interpolation", float(lhs[worst]), float(rhs[worst]), 0.0
    )


@dataclass(frozen=True)
class RatioReport:
    """Reported-only inequality ratios; nan marks an undefined sample."""

    t: tuple[float, ...]
    columns: dict[str, tuple[float, ...]]


def monitor_ratios(history: Sequence[DiagnosticsRecord]) -> RatioReport:
    """Time series of the unquantified-constant inequality ratios.

    These come from bounds whose constants are unknown, so nothing here is
    asserted; the report exists so a human can eyeball boundedness.
    """

    def ratio(num: Iterable[float], den: Iterable[float]) -> tuple[float, ...]:
        return tuple(
            (n / d) if d > 0.0 else math.nan for n, d in zip(num, den)
        )

    t = tuple(r.t for r in history)
    poly = [1.0 + r.t**2 for r in history]
    columns = {
        "cz_ratio_l2": ratio((r.grad_v_l2 for r in history), (r.q_l2 for r in history)),
        "cz_ratio_l4": ratio((r.grad_v_l4 for r in history), (r.q_l4 for r in history)),
        "gn_ratio": ratio(
            (r.v_linf for r in history),
            (r.grad_v_l6**0.75 * r.v_l2**0.25 for r in history),
        ),
        "q_l2_over_poly": ratio((r.q_l2 for r in history), poly),
        "q_l4_over_poly": ratio((r.q_l4 for r in history), poly),
        "q_l6_over_poly": ratio((r.q_l6 for r in history), poly),
        "d2q_l3": tuple(r.d2q_l3 for r in history),
    }
    return RatioReport(t=t, columns=columns)


def _write_csv(path, header: Sequence[str], rows: Iterable[Sequence[float]]) -> None:
    """The header, then one line per row of comma-joined ``%.17g`` fields
    (17 significant digits give every float64 back exactly)."""
    lines = [",".join(header)]
    lines += (",".join("%.17g" % v for v in row) for row in rows)
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def write_diagnostics_csv(path, history: Sequence[DiagnosticsRecord], *, earlier=()) -> None:
    """One row per record, after the ``earlier`` rows of an interrupted run."""
    rows = ([getattr(r, c) for c in CSV_COLUMNS] for r in history)
    _write_csv(path, CSV_COLUMNS, [*earlier, *rows])


def write_ratios_csv(path, report: RatioReport, *, earlier=()) -> None:
    """One row per record time, after the ``earlier`` rows of an interrupted run."""
    names = RATIOS_HEADER[1:]
    rows = ([t] + [report.columns[n][i] for n in names] for i, t in enumerate(report.t))
    _write_csv(path, RATIOS_HEADER, [*earlier, *rows])
