"""Field-level reference forms that only the tests use.

The solver works on raw half spectra in the two-thirds cube; these are the
plain whole-field operators the tests state their closed forms and
reference records with.  pytest does not collect this module; tests import
it as ``from reference_forms import ...``.
"""

import numpy as np

from qg3d.grid import GridSpec
from qg3d.spectral import SpectralField


def mesh(grid: GridSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Full coordinate arrays (X, Y, Z), each shaped like a physical field."""
    Z, Y, X = np.meshgrid(grid.z, grid.y, grid.x, indexing="ij")
    return X, Y, Z


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


def dealias(fh: SpectralField) -> SpectralField:
    """Zero every mode outside the two-thirds cube.  Idempotent."""
    return SpectralField(fh.grid, np.where(fh.grid.dealias_mask, fh.coeffs, 0.0))


def velocity_spectra(psi_hat: SpectralField) -> tuple[SpectralField, SpectralField, SpectralField]:
    """Spectra of the velocity components (-dpsi/dy, dpsi/dx, dpsi/dz)."""
    v1 = SpectralField(psi_hat.grid, -(psi_hat.coeffs * psi_hat.grid.iky))
    v2 = derivative(psi_hat, "x")
    v3 = derivative(psi_hat, "z")
    return v1, v2, v3
