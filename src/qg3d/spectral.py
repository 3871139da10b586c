"""Transforms, spectral derivatives, the stratified elliptic solve, dealiasing.

All operators act on whole fields and return new fields; nothing mutates its
input.  The transform pair uses the "forward" normalization, so the zero
coefficient of a transformed field is exactly its box mean.  A spectrum that
only feeds an inverse transform is formed in the grid's kept workspace,
``_workspace(grid)``, which never leaves the function that fills it.
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
    return sfft.irfftn(coeffs, s=grid.shape, norm="forward")


@lru_cache(maxsize=8)
def _workspace(grid: GridSpec) -> np.ndarray:
    """One half spectrum kept per grid for temporaries that only feed ``inv``.

    A fresh 2-MB product per inverse transform at 64^3 is memory that glibc
    hands back to the system between calls, so each one costs page faults;
    the kept array costs them once.
    """
    return np.empty(grid.kshape, dtype=np.complex128)


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
