"""Periodic box bookkeeping: coordinates, wavenumbers, masks, weights.

Physical arrays are shaped ``(nz, ny, nx)`` in C order, so flattening one
yields x varying fastest.  Spectral arrays store the half spectrum of a
real-input transform along x and are shaped ``(nz, ny, nx // 2 + 1)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid on a periodic box, with derived spectral machinery.

    Axis sizes must be >= 1 and even whenever they exceed 1; the even
    constraint keeps the Nyquist bookkeeping of the real transform simple.
    ``F`` is the stratification ratio that weights the vertical second
    derivative inside the elliptic operator relating the streamfunction to
    the advected scalar.
    """

    nx: int
    ny: int
    nz: int
    lx: float = 2.0 * np.pi
    ly: float = 2.0 * np.pi
    lz: float = 2.0 * np.pi
    F: float = 1.0

    def __post_init__(self):
        for name in ("nx", "ny", "nz"):
            n = getattr(self, name)
            if not isinstance(n, (int, np.integer)) or n < 1:
                raise ValueError(f"{name} must be a positive integer, got {n!r}")
            if n > 1 and n % 2 != 0:
                raise ValueError(f"{name} must be even when > 1, got {n}")
        for name in ("lx", "ly", "lz"):
            length = getattr(self, name)
            if not length > 0.0:
                raise ValueError(f"{name} must be positive, got {length!r}")
        if not self.F > 0.0:
            raise ValueError(f"F must be positive, got {self.F!r}")

    # ---- shapes and cell geometry -------------------------------------

    @property
    def shape(self) -> tuple[int, int, int]:
        """Physical array shape (nz, ny, nx)."""
        return (self.nz, self.ny, self.nx)

    @property
    def kshape(self) -> tuple[int, int, int]:
        """Half-spectrum array shape (nz, ny, nx // 2 + 1)."""
        return (self.nz, self.ny, self.nx // 2 + 1)

    @property
    def dx(self) -> float:
        return self.lx / self.nx

    @property
    def dy(self) -> float:
        return self.ly / self.ny

    @property
    def dz(self) -> float:
        return self.lz / self.nz

    @property
    def volume(self) -> float:
        return self.lx * self.ly * self.lz

    @property
    def cell_volume(self) -> float:
        return self.dx * self.dy * self.dz

    @cached_property
    def x(self) -> np.ndarray:
        return np.arange(self.nx) * self.dx

    @cached_property
    def y(self) -> np.ndarray:
        return np.arange(self.ny) * self.dy

    @cached_property
    def z(self) -> np.ndarray:
        return np.arange(self.nz) * self.dz

    def mesh(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Full coordinate arrays (X, Y, Z), each shaped like a physical field."""
        Z, Y, X = np.meshgrid(self.z, self.y, self.x, indexing="ij")
        return X, Y, Z

    # ---- wavenumbers ----------------------------------------------------

    @cached_property
    def sx(self) -> np.ndarray:
        """Integer mode numbers along x for the stored half spectrum."""
        return np.arange(self.nx // 2 + 1)

    @cached_property
    def sy(self) -> np.ndarray:
        """Signed integer mode numbers along y, transform order."""
        return np.rint(np.fft.fftfreq(self.ny) * self.ny).astype(int)

    @cached_property
    def sz(self) -> np.ndarray:
        return np.rint(np.fft.fftfreq(self.nz) * self.nz).astype(int)

    @cached_property
    def kx(self) -> np.ndarray:
        """Physical wavenumbers 2*pi*s/L along x (half spectrum)."""
        return 2.0 * np.pi * self.sx / self.lx

    @cached_property
    def ky(self) -> np.ndarray:
        return 2.0 * np.pi * self.sy / self.ly

    @cached_property
    def kz(self) -> np.ndarray:
        return 2.0 * np.pi * self.sz / self.lz

    # Derivative multipliers, broadcastable against a half-spectrum array.
    # The Nyquist entry of each even-sized axis is zeroed: that mode carries
    # no sign information, so the only symmetric choice of derivative there
    # is zero.

    @cached_property
    def ikx(self) -> np.ndarray:
        m = 1j * self.kx.copy()
        if self.nx > 1 and self.nx % 2 == 0:
            m[-1] = 0.0
        return m.reshape(1, 1, -1)

    @cached_property
    def iky(self) -> np.ndarray:
        m = 1j * self.ky.copy()
        if self.ny > 1 and self.ny % 2 == 0:
            m[self.ny // 2] = 0.0
        return m.reshape(1, -1, 1)

    @cached_property
    def ikz(self) -> np.ndarray:
        m = 1j * self.kz.copy()
        if self.nz > 1 and self.nz % 2 == 0:
            m[self.nz // 2] = 0.0
        return m.reshape(-1, 1, 1)

    # The x and y multipliers with every mode outside the two-thirds ball
    # zeroed, shaped like a half-spectrum array: one product both truncates
    # and differentiates.

    @cached_property
    def ikx_dealiased(self) -> np.ndarray:
        return np.where(self.dealias_mask, self.ikx, 0.0)

    @cached_property
    def iky_dealiased(self) -> np.ndarray:
        return np.where(self.dealias_mask, self.iky, 0.0)

    @cached_property
    def k2_iso(self) -> np.ndarray:
        """Isotropic |k|^2 = kx^2 + ky^2 + kz^2 on the half spectrum."""
        kx2 = (self.kx**2).reshape(1, 1, -1)
        ky2 = (self.ky**2).reshape(1, -1, 1)
        kz2 = (self.kz**2).reshape(-1, 1, 1)
        return kx2 + ky2 + kz2

    def stratified_symbol(self, F: float | None = None) -> np.ndarray:
        """Symbol of the elliptic operator: -(kx^2 + ky^2 + F^2 kz^2)."""
        if F is None:
            F = self.F
        if F == self.F:
            return self._stratified_symbol_own
        return self._build_stratified_symbol(F)

    @cached_property
    def _stratified_symbol_own(self) -> np.ndarray:
        return self._build_stratified_symbol(self.F)

    def _build_stratified_symbol(self, F: float) -> np.ndarray:
        kx2 = (self.kx**2).reshape(1, 1, -1)
        ky2 = (self.ky**2).reshape(1, -1, 1)
        kz2 = (self.kz**2).reshape(-1, 1, 1)
        return -(kx2 + ky2 + (F * F) * kz2)

    # ---- dealiasing and Parseval weights --------------------------------

    @cached_property
    def dealias_mask(self) -> np.ndarray:
        """Boolean keep-mask implementing the two-thirds rule per axis.

        A mode survives when |s| <= n/3 on every axis.  Axes of size 1 only
        carry s = 0 and are always kept.
        """
        keep_x = (np.abs(self.sx) <= self.nx / 3.0).reshape(1, 1, -1)
        keep_y = (np.abs(self.sy) <= self.ny / 3.0).reshape(1, -1, 1)
        keep_z = (np.abs(self.sz) <= self.nz / 3.0).reshape(-1, 1, 1)
        return keep_x & keep_y & keep_z

    @cached_property
    def hermitian_weight(self) -> np.ndarray:
        """Multiplicity of each stored column in the full spectrum.

        Interior x columns stand for a conjugate pair, so they count twice;
        the s = 0 column and (for even nx) the Nyquist column count once.
        """
        w = np.full(self.nx // 2 + 1, 2.0)
        w[0] = 1.0
        if self.nx > 1 and self.nx % 2 == 0:
            w[-1] = 1.0
        if self.nx == 1:
            w[:] = 1.0
        return w.reshape(1, 1, -1)
