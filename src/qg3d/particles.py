"""Characteristics tracer: particles on fixed z-levels cross-validate the
grid solver through the along-path integral identity for the scalar.

Trajectories follow the horizontal velocity only; nothing is advected
vertically, so each particle stays on its level.  Velocities at off-grid
positions come from exact summation of the retained Fourier modes (Boyd,
*Chebyshev and Fourier Spectral Methods*, 2nd ed., 2001, ch. 2), which
keeps interpolation error out of the comparison entirely.  Every state lies
inside the two-thirds cube, so the tracer's tables hold only the cube's
kept rows and columns, summed over kz straight from q.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .diagnostics import _write_csv
from .grid import GridSpec
from .spectral import SpectralField, _gauged_symbol
from .stepping import State


def wrap_positions(xy: np.ndarray, grid: GridSpec) -> np.ndarray:
    out = np.array(xy, dtype=np.float64)
    out[:, 0] %= grid.lx
    out[:, 1] %= grid.ly
    return out


@dataclass(frozen=True)
class ParticleSet:
    """Markers on one z-level: labels (start positions), current positions,
    and the accumulated along-path integral of the second velocity."""

    grid: GridSpec
    labels: np.ndarray
    z_level: float
    positions: np.ndarray
    integrals: np.ndarray

    def __post_init__(self):
        if self.labels.shape != self.positions.shape or self.labels.ndim != 2:
            raise ValueError("labels and positions must both be (n, 2) arrays")
        if self.labels.shape[1] != 2:
            raise ValueError("positions are planar (x, y) pairs")
        if self.integrals.shape != (self.labels.shape[0],):
            raise ValueError("need one accumulated integral per particle")
        object.__setattr__(self, "positions", wrap_positions(self.positions, self.grid))

    @classmethod
    def at_rest(cls, grid: GridSpec, labels: np.ndarray, z_level: float) -> "ParticleSet":
        labels = wrap_positions(np.asarray(labels, dtype=np.float64), grid)
        return cls(
            grid=grid,
            labels=labels,
            z_level=float(z_level),
            positions=labels.copy(),
            integrals=np.zeros(labels.shape[0]),
        )

    def __len__(self) -> int:
        return self.labels.shape[0]


# OpenBLAS (scipy-openblas 0.3.31, measured on 2 cores) runs a complex
# matrix product of m * n * k < 65,536 on the calling thread; from 65,536 up
# it wakes a worker, which then spins on the other core between calls.  So
# the point sums multiply one table by at most 64 points at a time, and
# fewer where the table is larger: 64 points by a 43 x 22 cube table at
# 64^3 is m * n * k = 60,544.
_SERIAL_PRODUCT = 65_535
_BLOCK_POINTS = 64


def _running_phases(coord: np.ndarray, step: float, count: int) -> np.ndarray:
    """exp(i j step coord) for j = 0 .. count - 1, shape (count, n), as
    running products of exp(i step coord)."""
    out = np.empty((count, coord.shape[0]), dtype=np.complex128)
    out[0] = 1.0
    if count > 1:
        np.exp(1j * step * coord, out=out[1])
        for j in range(2, count):
            np.multiply(out[j - 1], out[1], out=out[j])
    return out


def _sum_at_points(tables: np.ndarray, grid: GridSpec, xy: np.ndarray, npos: int) -> np.ndarray:
    """Real values at (x, y) points, shape (n, m), of planar half-spectrum
    tables (m, rows, cols).  Column j holds the x mode j; the first ``npos``
    rows hold the y modes 0 .. npos - 1 and the rest the modes -(rows -
    npos) .. -1.  The phases of the negative modes are the conjugates of
    the positive ones."""
    m, rows, cols = tables.shape
    n, nneg = xy.shape[0], rows - npos
    ex = _running_phases(xy[:, 0], 2.0 * np.pi / grid.lx, cols)
    ex *= grid.hermitian_weight[0, 0, :cols, np.newaxis]
    positive = _running_phases(xy[:, 1], 2.0 * np.pi / grid.ly, max(npos, nneg + 1))
    ey = np.empty((rows, n), dtype=np.complex128)
    ey[:npos] = positive[:npos]
    np.conjugate(positive[nneg:0:-1], out=ey[npos:])
    block = max(1, min(_BLOCK_POINTS, _SERIAL_PRODUCT // (rows * cols)))
    sums = np.empty((n, rows), dtype=np.complex128)
    out = np.empty((n, m))
    for i in range(m):
        for start in range(0, n, block):
            part = slice(start, start + block)
            np.matmul(ex[:, part].T, tables[i].T, out=sums[part])
        out[:, i] = np.einsum("nr,rn->n", sums, ey).real
    return out


def evaluate_at_points(fh: SpectralField, xy: np.ndarray, z_level: float) -> np.ndarray:
    """Exact Fourier-series values of a real field at arbitrary (x, y) points
    on a fixed z plane: the z sum collapses first, then the planar sum.
    Any half spectrum, the modes outside the two-thirds cube included."""
    grid = fh.grid
    plane = np.einsum("z,zyx->yx", np.exp(1j * grid.kz * z_level), fh.coeffs)
    return _sum_at_points(plane[np.newaxis], grid, xy, (grid.ny + 1) // 2)[:, 0]


@lru_cache(maxsize=16)
def _level_weights(grid: GridSpec, bounds: tuple, F: float, z_level: float):
    """exp(i kz z_level) / gauged symbol on each of ``grid.cube_blocks``, as
    (q index, table rows, weight), with 0 at the gauge slot; and the kept
    rows of iky and columns of ikx.  Keyed by ``grid.dealias_bounds`` too,
    as ``spectral._cube`` is, so equal grids whose masks differ share none."""
    _, _, lo, hi, kx = bounds
    sym = _gauged_symbol(grid, F)
    phase = np.exp(1j * grid.kz * z_level).reshape(-1, 1, 1)
    blocks = tuple((index, rows, phase[index[0]] / sym[index]) for index, rows in grid.cube_blocks)
    blocks[0][2][0, 0, 0] = 0.0
    iky = np.concatenate((grid.iky[0, :lo], grid.iky[0, hi:]))
    return blocks, iky, grid.ikx[0, :, :kx]


def velocity_table(state: State, z_level: float) -> np.ndarray:
    """Planar coefficients of (v1, v2) = (-dpsi/dy, dpsi/dx) on one z plane,
    on the kept rows and columns of the two-thirds cube: shape (2, rows,
    kx), with the rows of y modes 0 .. lo - 1 then the negative ones, as
    ``GridSpec.cube_blocks`` lays them out.  Summed straight from q over kz,
    with no Poisson solve."""
    q = state.q_hat.coeffs
    grid = state.grid
    blocks, iky, ikx = _level_weights(grid, grid.dealias_bounds, state.params.F, z_level)
    plane = np.zeros((iky.shape[0], ikx.shape[1]), dtype=np.complex128)
    for index, rows, weight in blocks:
        plane[rows] += np.einsum("zyx,zyx->yx", q[index], weight)
    return np.stack((-(plane * iky), plane * ikx))


def advance_particles(
    pset: ParticleSet,
    tables: tuple[np.ndarray, np.ndarray, np.ndarray],
    dt: float,
    integrand_scale: float = 1.0,
) -> ParticleSet:
    """One RK4 step of the characteristics, integral accumulated in-stage.

    ``tables`` are the particles' level's velocity tables (``velocity_table``)
    at the start, the midpoint and the end of the step.  The along-path
    integral of (scaled) v2 rides as an extra component of the same RK4
    system, so its quadrature carries the scheme's full order.
    ``integrand_scale`` multiplies the integrand; a zero turns accumulation
    off for runs where the scalar is purely transported.
    """
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    start, mid, end = tables
    grid = pset.grid
    npos = grid.dealias_bounds[2]
    x0 = pset.positions
    k1 = _sum_at_points(start, grid, x0, npos)
    k2 = _sum_at_points(mid, grid, x0 + 0.5 * dt * k1, npos)
    k3 = _sum_at_points(mid, grid, x0 + 0.5 * dt * k2, npos)
    k4 = _sum_at_points(end, grid, x0 + dt * k3, npos)
    new_pos = x0 + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    incr = (dt / 6.0) * (k1[:, 1] + 2.0 * k2[:, 1] + 2.0 * k3[:, 1] + k4[:, 1])
    return replace(
        pset,
        positions=new_pos,
        integrals=pset.integrals + integrand_scale * incr,
    )


def duhamel_residual(
    q_hat_t: SpectralField, pset: ParticleSet, q0_hat: SpectralField
) -> np.ndarray:
    """Per-particle defect of the along-path identity.

    Evaluates the current scalar at the particle positions, the initial
    scalar at the labels, and returns q(X(a,t),z,t) - q0(a,z) + integral.
    Zero (to discretization error) when grid and particles agree.
    """
    q_now = evaluate_at_points(q_hat_t, pset.positions, pset.z_level)
    q_init = evaluate_at_points(q0_hat, pset.labels, pset.z_level)
    return q_now - q_init + pset.integrals


@dataclass
class TrajectorySample:
    """Particle rows captured at one time, ready for CSV export."""

    t: float
    z_level: float
    first_id: int
    positions: np.ndarray
    integrals: np.ndarray
    residuals: np.ndarray


class TrajectoryTracer:
    """Observer that advances particles alongside an Eulerian run.

    Register with the time loop so it sees every accepted step.  Each
    observed state costs one velocity table per z-level, and no Poisson
    solve.  Two solver steps form one particle step: the buffered tables
    at t, t+dt, t+2dt supply exactly the RK4 stage times.  An odd step at
    the end (or a step pair broken by event landing) falls back to the
    average of the start and end tables for the middle stage, which costs
    one formally lower-order step.  ``beta`` scales the integrand and must
    equal the observed states' ``params.beta``.
    """

    def __init__(
        self,
        particle_sets: Sequence[ParticleSet],
        q0_hat: SpectralField,
        beta: float = 1.0,
        sample_every: int = 0,
    ):
        self.sets = list(particle_sets)
        self.q0_hat = q0_hat
        self.beta = beta
        self.sample_every = sample_every
        self.samples: list[TrajectorySample] = []
        self.time: Optional[float] = None
        # (t, one velocity table per particle set)
        self._buffer: list[tuple[float, list[np.ndarray]]] = []
        self._latest_q: Optional[SpectralField] = None
        self._pair_count = 0

    def __call__(self, state: State) -> None:
        if state.params.beta != self.beta:
            raise ValueError(
                f"tracer beta = {self.beta!r} differs from the state's beta = "
                f"{state.params.beta!r}"
            )
        tables = [velocity_table(state, ps.z_level) for ps in self.sets]
        self._buffer.append((state.t, tables))
        self._latest_q = state.q_hat
        if self.time is None:
            self.time = state.t
        if len(self._buffer) == 3:
            self._consume()

    def _consume(self) -> None:
        (t0, a), (tm, b), (t1, c) = self._buffer
        if abs((tm - t0) - (t1 - tm)) <= 1e-9 * max(t1 - t0, 1e-300):
            self._advance(a, b, c, t1 - t0)
        else:
            # uneven pair: take each half as its own step with averaged
            # midpoint tables
            self._advance_single(self._buffer[0], self._buffer[1])
            self._advance_single(self._buffer[1], self._buffer[2])
        self._buffer = [self._buffer[-1]]
        self.time = t1
        self._pair_count += 1
        if self.sample_every > 0 and self._pair_count % self.sample_every == 0:
            self._take_sample()

    def _advance_single(self, start, end) -> None:
        (t0, a), (t1, c) = start, end
        mid = [0.5 * (ta + tc) for ta, tc in zip(a, c)]
        self._advance(a, mid, c, t1 - t0)

    def _advance(self, start, mid, end, dt: float) -> None:
        self.sets = [
            advance_particles(ps, (s, m, e), dt, integrand_scale=self.beta)
            for ps, s, m, e in zip(self.sets, start, mid, end)
        ]

    def finalize(self) -> None:
        """Flush a trailing odd step and take the final sample."""
        if len(self._buffer) == 2:
            self._advance_single(self._buffer[0], self._buffer[1])
            self.time = self._buffer[1][0]
        self._buffer = []
        self._take_sample()

    def residuals(self) -> list[np.ndarray]:
        if self._latest_q is None:
            return [np.zeros(len(ps)) for ps in self.sets]
        return [duhamel_residual(self._latest_q, ps, self.q0_hat) for ps in self.sets]

    def max_residual(self) -> float:
        return max(
            (float(np.max(np.abs(r))) for r in self.residuals() if r.size),
            default=0.0,
        )

    def _take_sample(self) -> None:
        if self.time is None:
            return
        if self.samples and self.samples[-1].t == self.time:
            return
        first = 0
        for ps, res in zip(self.sets, self.residuals()):
            self.samples.append(
                TrajectorySample(
                    t=self.time,
                    z_level=ps.z_level,
                    first_id=first,
                    positions=ps.positions.copy(),
                    integrals=ps.integrals.copy(),
                    residuals=res,
                )
            )
            first += len(ps)


def write_trajectories_csv(path, samples: Sequence[TrajectorySample]) -> None:
    rows = (
        (s.first_id + i, s.t, s.positions[i, 0], s.positions[i, 1], s.z_level,
         s.integrals[i], s.residuals[i])
        for s in samples
        for i in range(s.positions.shape[0])
    )
    _write_csv(path, ("particle_id", "t", "x", "y", "z", "integral", "residual"), rows)
