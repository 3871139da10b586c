"""Transforms, spectral derivatives, the stratified elliptic solve, dealiasing.

All operators act on whole fields and return new fields; none mutates its
input, except that ``inv`` consumes the grid's kept workspace,
``_workspace(grid)``.  The transform pair uses the "forward" normalization,
so the zero coefficient of a transformed field is exactly its box mean.  A
spectrum that only feeds an inverse transform is formed in the workspace,
which never leaves the function that fills it; ``inv`` transforms there in
place and skips the lines the two-thirds rule leaves empty.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.fft as sfft

from .errors import GridMismatchError, NonZeroMeanError
from .grid import GridSpec


@dataclass(frozen=True)
class SpectralField:
    """Half-spectrum coefficients, shape (nz, ny, nx // 2 + 1), complex128."""

    grid: GridSpec
    coeffs: np.ndarray

    def __post_init__(self):
        c = self.coeffs
        if c.shape != self.grid.kshape:
            raise ValueError(f"coeffs shape {c.shape} != grid kshape {self.grid.kshape}")
        if c.dtype != np.complex128:
            raise ValueError(f"coeffs must be complex128, got {c.dtype}")

    def copy(self) -> "SpectralField":
        return SpectralField(self.grid, self.coeffs.copy())


def require_same_grid(*fields) -> GridSpec:
    grid = fields[0].grid
    for f in fields[1:]:
        if f.grid != grid:
            raise GridMismatchError(f"fields live on different grids: {f.grid} vs {grid}")
    return grid


# ---- raw-array transform helpers used by the hot loops -------------------

def fwd(grid: GridSpec, values: np.ndarray) -> np.ndarray:
    return sfft.rfftn(values, norm="forward")


def inv(grid: GridSpec, coeffs: np.ndarray) -> np.ndarray:
    """Real field of a half spectrum: the bits of ``scipy.fft.irfftn``.

    The three passes of ``irfftn`` (z, y, then the real x pass) run in place
    in the workspace, into which ``coeffs`` is first copied unless it is the
    workspace itself, whose contents are then lost.  When every x column and
    every y row outside the two-thirds cube is zero, a line of the z pass
    that meets one of them is zero before and after its transform, and so is
    a line of the y pass in one of those columns; both passes skip them.
    """
    ws = _workspace(grid)
    if coeffs is not ws:
        np.copyto(ws, coeffs)
    lo, hi, kx = _kept_extents(grid)
    # a test of the bits is faster than one of the values, and stricter:
    # only +0.0 counts as zero
    bits = ws.view(np.uint64)
    if bits[:, :, 2 * kx:].any() or bits[:, lo:hi, : 2 * kx].any():
        z_lines, y_lines = (ws,), ws
    else:
        z_lines, y_lines = (ws[:, :lo, :kx], ws[:, hi:, :kx]), ws[:, :, :kx]
    for lines in z_lines:
        sfft.ifft(lines, axis=0, norm="forward", overwrite_x=True)
    sfft.ifft(y_lines, axis=1, norm="forward", overwrite_x=True)
    return sfft.irfft(ws, n=grid.nx, axis=2, norm="forward")


@lru_cache(maxsize=8)
def _workspace(grid: GridSpec) -> np.ndarray:
    """One half spectrum kept per grid for temporaries that only feed ``inv``.

    A fresh 2-MB product per inverse transform at 64^3 is memory that glibc
    hands back to the system between calls, so each one costs page faults;
    the kept array costs them once.  ``inv`` transforms in it in place, so
    its contents do not survive a call.
    """
    return np.empty(grid.kshape, dtype=np.complex128)


@lru_cache(maxsize=8)
def _kept_extents(grid: GridSpec) -> tuple[int, int, int]:
    """The two-thirds cube of ``grid.dealias_mask`` as slice bounds: the y
    rows [lo, hi) and the x columns [kx, nx // 2 + 1) are dropped."""
    keep = grid.dealias_mask
    dropped_rows = np.flatnonzero(~keep.any(axis=(0, 2)))
    lo, hi = (dropped_rows[0], dropped_rows[-1] + 1) if dropped_rows.size else (grid.ny,) * 2
    return int(lo), int(hi), int(keep.any(axis=(0, 1)).sum())


# ---- spectral-space operators ---------------------------------------------

_AXES = {"x": "ikx", "y": "iky", "z": "ikz"}


def derivative(fh: SpectralField, axis: str) -> SpectralField:
    """Spectral partial derivative along ``axis`` in {"x", "y", "z"}.

    The Nyquist coefficient of the differentiated axis is zeroed, so applying
    the same derivative twice is not identical to one second derivative on
    that mode; fields kept dealiased never populate it anyway.
    """
    try:
        mult = getattr(fh.grid, _AXES[axis])
    except KeyError:
        raise ValueError(f"axis must be one of 'x', 'y', 'z', got {axis!r}") from None
    return SpectralField(fh.grid, fh.coeffs * mult)


def solve_stratified_poisson(q_hat: SpectralField, F: float) -> SpectralField:
    """Invert the stratified Laplacian with the zero-mean gauge.

    The right-hand side must have (numerically) no mean: the zero mode is
    compared against 1e-12 times the L2 norm of the field and a
    NonZeroMeanError is raised when it is larger.  The zero mode of the
    result is set to zero, which pins the otherwise arbitrary constant.
    """
    grid = q_hat.grid
    q = np.ascontiguousarray(q_hat.coeffs)
    mean = abs(q[0, 0, 0])
    if mean > 0.0:  # an exactly zero mean passes without the norm
        norm = l2_norm(q_hat)
        if mean > 1e-12 * norm:
            raise NonZeroMeanError(
                f"zero mode {mean:.3e} exceeds 1e-12 * ||q||_L2 = {1e-12 * norm:.3e}"
            )
    # numpy divides a complex by a real as a product with the reciprocal, so
    # multiplying the real and imaginary parts by 1/symbol gives the same bits
    out = np.empty_like(q)
    np.multiply(q.view(np.float64), _inverse_symbol(grid, F), out=out.view(np.float64))
    out[0, 0, 0] = 0.0
    return SpectralField(grid, out)


@lru_cache(maxsize=8)
def _inverse_symbol(grid: GridSpec, F: float) -> np.ndarray:
    """1 / stratified symbol, each entry twice: the real and imaginary parts
    of a complex128 half spectrum viewed as float64."""
    sym = grid.stratified_symbol(F).copy()
    sym[0, 0, 0] = 1.0  # gauge slot, solution mean forced to zero by the caller
    return np.repeat(1.0 / sym, 2, axis=-1)


def dealias(fh: SpectralField) -> SpectralField:
    """Zero every mode outside the two-thirds-rule ball.  Idempotent."""
    return SpectralField(fh.grid, np.where(fh.grid.dealias_mask, fh.coeffs, 0.0))


def velocity_spectra(psi_hat: SpectralField) -> tuple[SpectralField, SpectralField, SpectralField]:
    """Spectra of the velocity components (-dpsi/dy, dpsi/dx, dpsi/dz)."""
    v1 = SpectralField(psi_hat.grid, -(psi_hat.coeffs * psi_hat.grid.iky))
    v2 = derivative(psi_hat, "x")
    v3 = derivative(psi_hat, "z")
    return v1, v2, v3


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
    w = (1.0 + g.k2_iso) ** s
    total = np.sum(g.hermitian_weight * w * (fh.coeffs.real**2 + fh.coeffs.imag**2))
    return float(np.sqrt(g.volume * total))
