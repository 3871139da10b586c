"""Transforms, the stratified elliptic solve, the two-thirds cube, norms.

The operators return new arrays and mutate no input, except that ``inv``
consumes the cube array of ``cube_derivative`` and ``_truncate`` works in
place.
The transform pair uses the "forward" normalization, so the zero
coefficient of a transformed field is exactly its box mean.

``fwd`` and ``inv`` call the pocketfft kernels that ``scipy.fft``'s
wrappers end in (``r2c``, ``c2c``, ``c2r``), with the normalization codes
and the worker count (``scipy.fft.get_workers()``) the wrappers would pass,
so their bits are those of ``scipy.fft`` without its per-call dispatch.
The kernels' signatures were checked against scipy 1.17.1; this is the one
module that imports ``scipy.fft``.  Both take an ``out=`` array, as
``solve_stratified_poisson`` does; without one each returns a new array.

One half spectrum is kept per thread, for the grid it used last: the cube
array of ``cube_derivative``.  It holds the spectra that the Jacobian, the
CFL bound and the diagnostics transform, and is +0.0 outside the two-thirds
cube by construction.  The three regions outside that cube have one owner,
``_outside_cube``: ``_in_cube`` tests them and ``_truncate`` zeroes them.  A
state is refused unless it lies inside the cube, so the spectra of the CFL
bound and the diagnostics are the full products.
``inv`` transforms the array in place and skips the lines the two-thirds
rule leaves empty, so its contents do not survive the call; a norm of the
spectrum is taken before it.

``fwd(..., truncate=True)`` computes only the kept cube of the forward
transform, for results the two-thirds rule truncates anyway.

The grid arrays the time step and the diagnostics work in come from a
``Pool``: ``run`` holds one for its grid while it runs (``hold_pool``), and
``pool_for(grid)`` hands it out, or a new pool outside a run.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.fft import get_workers
from scipy.fft._pocketfft import pypocketfft as _pocketfft

from .errors import GridMismatchError, NonZeroMeanError
from .grid import GridSpec


@dataclass(frozen=True)
class SpectralField:
    """Half-spectrum coefficients, shape (nz, ny, nx // 2 + 1), complex128,
    and the ``samples`` of the file they were read from, if any: writing
    those back reproduces the file, which a transform round trip (it
    rounds) cannot promise."""

    grid: GridSpec
    coeffs: np.ndarray
    samples: np.ndarray | None = field(default=None, compare=False)

    def __post_init__(self):
        c = self.coeffs
        if c.shape != self.grid.kshape:
            raise ValueError(f"coeffs shape {c.shape} != grid kshape {self.grid.kshape}")
        if c.dtype != np.complex128:
            raise ValueError(f"coeffs must be complex128, got {c.dtype}")
        q = self.samples
        if q is not None and q.shape != self.grid.shape:
            raise ValueError(f"samples shape {q.shape} != grid shape {self.grid.shape}")

    def copy(self) -> "SpectralField":
        """New coefficients, free to change, so no ``samples``."""
        return SpectralField(self.grid, self.coeffs.copy())


def require_same_grid(*fields) -> GridSpec:
    grid = fields[0].grid
    for f in fields[1:]:
        if f.grid != grid:
            raise GridMismatchError(f"fields live on different grids: {f.grid} vs {grid}")
    return grid


# ---- raw-array transform helpers used by the hot loops -------------------

# the kernels' ``inorm`` codes for norm="forward", as scipy.fft maps it: the
# forward transform divides by the transformed length, the inverse does not
_FORWARD_NORM = 2
_INVERSE_NORM = 0


def fwd(
    grid: GridSpec,
    values: np.ndarray,
    *,
    truncate: bool = False,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Half spectrum of a real field: the bits of ``scipy.fft.rfftn``.

    With ``truncate`` every coefficient outside the two-thirds cube comes
    out +0.0, as if the ``rfftn`` result were masked; only the kept part is
    computed.  The real x pass runs on every line, the z pass on the kept x
    columns and the y pass on the kept z planes of those columns, each in
    place in the x pass's output.  That order is byte-equal to ``rfftn``;
    the y pass before the z pass is not.

    The result is written to ``out`` (C-contiguous complex128 of the
    grid's ``kshape``, not overlapping ``values``) when one is given.
    """
    values = np.asarray(values, dtype=np.float64)
    workers = get_workers()
    if not truncate:
        return _pocketfft.r2c(values, (0, 1, 2), True, _FORWARD_NORM, out, workers)
    zlo, zhi, _, _, kx = grid.dealias_bounds
    out = _pocketfft.r2c(values, (2,), True, _FORWARD_NORM, out, workers)
    cols = out[:, :, :kx]
    _pocketfft.c2c(cols, (0,), True, _FORWARD_NORM, cols, workers)
    for planes in (out[:zlo, :, :kx], out[zhi:, :, :kx]):
        _pocketfft.c2c(planes, (1,), True, _FORWARD_NORM, planes, workers)
    return _truncate(grid, out)


def inv(grid: GridSpec, coeffs: np.ndarray, *, out: np.ndarray | None = None) -> np.ndarray:
    """Real field of a half spectrum: the bits of ``scipy.fft.irfftn``.

    Any spectrum but the cube array of ``cube_derivative`` is transformed
    on all three axes at once and left as it was.  The cube array holds
    +0.0 outside the two-thirds cube by construction, so ``irfftn``'s passes
    run on it in place and skip the lines that are zero before and after
    their transform: the z pass skips the dropped y rows and x columns, the
    y pass the dropped x columns.  Its contents are then lost.

    The result is written to ``out`` (C-contiguous float64 of the grid's
    ``shape``) when one is given.
    """
    workers = get_workers()
    bounds = grid.dealias_bounds
    ws = _cube(grid, bounds)[0]
    if coeffs is not ws:
        coeffs = np.asarray(coeffs, dtype=np.complex128)
        return _pocketfft.c2r(coeffs, (0, 1, 2), grid.nx, False, _INVERSE_NORM, out, workers)
    _, _, lo, hi, kx = bounds
    for lines in (ws[:, :lo, :kx], ws[:, hi:, :kx]):
        _pocketfft.c2c(lines, (0,), False, _INVERSE_NORM, lines, workers)
    cols = ws[:, :, :kx]
    _pocketfft.c2c(cols, (1,), False, _INVERSE_NORM, cols, workers)
    return _pocketfft.c2r(ws, (2,), grid.nx, False, _INVERSE_NORM, out, workers)


def cube_derivative(grid: GridSpec, coeffs: np.ndarray, *axes: str) -> np.ndarray:
    """The product of ``coeffs`` with the derivative multipliers of ``axes``
    (each "x", "y" or "z"; none gives ``coeffs`` itself), truncated to the
    two-thirds cube and formed in the grid's cube array, for ``inv``.

    The products are formed only in the kept blocks (``grid.cube_blocks``),
    8/27 of the array; everything else holds +0.0.
    The last ``inv`` of the array filled only the dropped y rows and z
    planes of those columns, so only they are zeroed again.  A kept
    coefficient has the bits of the full product ``coeffs * grid.ik<a> *
    grid.ik<b> ...``, multiplied in the order of ``axes``.
    """
    bounds = grid.dealias_bounds
    zlo, zhi, lo, hi, kx = bounds
    ws, blocks = _cube(grid, bounds)
    ws[:, lo:hi, :kx] = 0.0
    ws[zlo:zhi, :, :kx] = 0.0
    for block, mults in blocks:
        out = ws[block]
        if not axes:
            np.copyto(out, coeffs[block])
            continue
        np.multiply(coeffs[block], mults[axes[0]], out=out)
        for axis in axes[1:]:
            out *= mults[axis]
    return ws


def _outside_cube(grid: GridSpec, c: np.ndarray) -> tuple[np.ndarray, ...]:
    """The three regions of ``c`` outside the two-thirds cube, as views: the
    dropped x columns, then the dropped z planes and y rows of the kept
    columns.  Read off ``grid.dealias_bounds``."""
    zlo, zhi, lo, hi, kx = grid.dealias_bounds
    return c[:, :, kx:], c[zlo:zhi, :, :kx], c[:, lo:hi, :kx]


def _in_cube(grid: GridSpec, coeffs: np.ndarray) -> bool:
    """Whether ``coeffs`` is zero on the regions ``_outside_cube`` gives.  A
    test of values, not bits: -0.0 passes and NaN fails."""
    return not any(region.any() for region in _outside_cube(grid, coeffs))


def _truncate(grid: GridSpec, c: np.ndarray) -> np.ndarray:
    """Write +0.0 outside the two-thirds cube of ``c``, in place, and return
    it: the bits of ``np.where(grid.dealias_mask, c, 0.0)``."""
    for region in _outside_cube(grid, c):
        region.fill(0.0)
    return c


# each thread's last cube, as ((grid, bounds), cube); a thread's array goes
# when it ends, the main thread's stays with the process
_cubes = threading.local()


def _cube(grid: GridSpec, bounds: tuple[int, int, int, int, int]):
    """The cube array, +0.0 outside the cube ``bounds`` whenever
    ``cube_derivative`` hands it to ``inv``, and the grid's kept blocks as
    (index, {axis: multiplier}), each multiplier cut to the block.  Kept per
    thread for the (grid, bounds) it used last: equal grids whose masks
    differ share nothing, and runs in two threads never write into each
    other's array."""
    key = (grid, bounds)
    kept = getattr(_cubes, "kept", None)
    if kept is None or kept[0] != key:
        kept = _cubes.kept = (key, _new_cube(grid))
    return kept[1]


def _new_cube(grid: GridSpec):
    blocks = tuple(
        ((zs, ys, xs), {"x": grid.ikx[:, :, xs], "y": grid.iky[:, ys], "z": grid.ikz[zs]})
        for (zs, ys, xs), _ in grid.cube_blocks
    )
    return np.zeros(grid.kshape, dtype=np.complex128), blocks


# ---- the pool of grid arrays ----------------------------------------------


class Pool:
    """Grid arrays reused across calls instead of allocated per call: real
    grid arrays (``real(i)``) and complex half spectra (``half(name)``),
    each made on first use and handed out again on every later one.

    A function takes its slots for the span of its call only, and every
    caller of it must leave those slots free.  Who takes which:

    - ``half("psi")``: the streamfunction of ``tendency_raw`` and of
      ``record``;
    - ``half("stage")``, ``"base"``, ``"k2"``, ``"k3"``, ``"k4"``:
      ``rk4_step``, across its ``tendency_raw`` calls;
    - ``real(0)`` to ``real(3)``: the four derivatives of ``jacobian_raw``,
      and the grid fields and the |f|^p scratch of ``record``.

    ``record`` runs between steps and a forcing is evaluated after the
    Jacobian, so those never overlap.
    """

    def __init__(self, grid: GridSpec):
        self.grid = grid
        self._real: dict[int, np.ndarray] = {}
        self._half: dict[str, np.ndarray] = {}

    def real(self, i: int) -> np.ndarray:
        a = self._real.get(i)
        if a is None:
            a = self._real[i] = np.empty(self.grid.shape)
        return a

    def half(self, name: str) -> np.ndarray:
        a = self._half.get(name)
        if a is None:
            a = self._half[name] = np.empty(self.grid.kshape, dtype=np.complex128)
        return a


# the pools held by ``hold_pool`` in this thread, innermost last
_held = threading.local()


def pool_for(grid: GridSpec) -> Pool:
    """The innermost held pool if it is for ``grid``'s shape, else a new
    pool, which lives as long as the caller keeps it."""
    pools = getattr(_held, "pools", None)
    if pools and pools[-1].grid.shape == grid.shape:
        return pools[-1]
    return Pool(grid)


@contextmanager
def hold_pool(grid: GridSpec):
    """Hold a new pool for ``grid`` for the block, in which ``pool_for(grid)``
    returns it; it is dropped when the block ends or raises."""
    pools = _held.__dict__.setdefault("pools", [])
    held = Pool(grid)
    pools.append(held)
    try:
        yield held
    finally:
        pools.pop()


# ---- spectral-space operators ---------------------------------------------

#: The largest zero mode a state's scalar may carry, relative to its L2
#: norm: rounding, not a mean.
ZERO_MEAN_TOL = 1e-12


def solve_stratified_poisson(
    q_hat: SpectralField, F: float, *, out: np.ndarray | None = None
) -> SpectralField:
    """Invert the stratified Laplacian with the zero-mean gauge.

    The right-hand side must have (numerically) no mean: the zero mode is
    compared against ``ZERO_MEAN_TOL`` times the L2 norm of the field and a
    NonZeroMeanError is raised when it is larger.  The zero mode of the
    result is set to zero, which pins the otherwise arbitrary constant.
    The coefficients are written to ``out`` (C-contiguous complex128 of the
    grid's ``kshape``) when one is given.
    """
    grid = q_hat.grid
    q = np.ascontiguousarray(q_hat.coeffs)
    mean = abs(q[0, 0, 0])
    if mean > 0.0:  # an exactly zero mean passes without the norm
        tol = ZERO_MEAN_TOL * l2_norm(q_hat)
        if mean > tol:
            raise NonZeroMeanError(
                f"zero mode {mean:.3e} exceeds {ZERO_MEAN_TOL:g} * ||q||_L2 = {tol:.3e}"
            )
    # numpy divides a complex by a real as a product with the reciprocal, so
    # multiplying the real and imaginary parts by 1/symbol gives the same bits
    if out is None:
        out = np.empty_like(q)
    np.multiply(q.view(np.float64), _inverse_symbol(grid, F), out=out.view(np.float64))
    out[0, 0, 0] = 0.0
    return SpectralField(grid, out)


def _gauged_symbol(grid: GridSpec, F: float) -> np.ndarray:
    """The stratified symbol with 1 in the gauge slot (0, 0, 0), where the
    solve sets the result's mean to zero instead of dividing."""
    sym = grid.stratified_symbol(F)
    sym[0, 0, 0] = 1.0
    return sym


@lru_cache(maxsize=8)
def _inverse_symbol(grid: GridSpec, F: float) -> np.ndarray:
    """1 / gauged symbol, each entry twice: the real and imaginary parts of
    a complex128 half spectrum viewed as float64."""
    return np.repeat(1.0 / _gauged_symbol(grid, F), 2, axis=-1)


# ---- Parseval-side norms and inner products -------------------------------

def l2_norm(fh: SpectralField) -> float:
    """L2 norm of the real field represented by ``fh`` (volume weighted)."""
    g = fh.grid
    total = np.sum(g.hermitian_weight * (fh.coeffs.real**2 + fh.coeffs.imag**2))
    return float(np.sqrt(g.volume * total))


def inner_product(ah: SpectralField, bh: SpectralField) -> float:
    """Real L2 inner product of the two represented fields."""
    g = require_same_grid(ah, bh)
    total = np.sum(g.hermitian_weight * (ah.coeffs * np.conj(bh.coeffs)).real)
    return float(g.volume * total)


def sobolev_norm(fh: SpectralField, s: float) -> float:
    """Norm with weight (1 + |k|^2)^s on the isotropic wavenumber."""
    g = fh.grid
    total = np.sum(_sobolev_weight(g, s) * (fh.coeffs.real**2 + fh.coeffs.imag**2))
    return float(np.sqrt(g.volume * total))


@lru_cache(maxsize=8)
def _sobolev_weight(grid: GridSpec, s: float) -> np.ndarray:
    """hermitian_weight * (1 + |k|^2)^s, the product ``sobolev_norm`` forms
    first, so caching it keeps the norm's bits."""
    return grid.hermitian_weight * (1.0 + grid.k2_iso) ** s
