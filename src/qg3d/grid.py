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
    """

    nx: int
    ny: int
    nz: int
    lx: float = 2.0 * np.pi
    ly: float = 2.0 * np.pi
    lz: float = 2.0 * np.pi

    def __post_init__(self):
        for name in ("nx", "ny", "nz"):
            n = getattr(self, name)
            if not isinstance(n, (int, np.integer)) or n < 1:
                raise ValueError(f"{name} must be a positive integer, got {n!r}")
            if n > 1 and n % 2 != 0:
                raise ValueError(f"{name} must be even when > 1, got {n}")
        for name in ("lx", "ly", "lz"):
            length = getattr(self, name)
            if not 0.0 < length < np.inf:
                raise ValueError(f"{name} must be finite and positive, got {length!r}")

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
        m = 1j * self.kx
        if self.nx > 1 and self.nx % 2 == 0:
            m[-1] = 0.0
        return m.reshape(1, 1, -1)

    @cached_property
    def iky(self) -> np.ndarray:
        m = 1j * self.ky
        if self.ny > 1 and self.ny % 2 == 0:
            m[self.ny // 2] = 0.0
        return m.reshape(1, -1, 1)

    @cached_property
    def ikz(self) -> np.ndarray:
        m = 1j * self.kz
        if self.nz > 1 and self.nz % 2 == 0:
            m[self.nz // 2] = 0.0
        return m.reshape(-1, 1, 1)

    @cached_property
    def k2_iso(self) -> np.ndarray:
        """Isotropic |k|^2 = kx^2 + ky^2 + kz^2 on the half spectrum, the
        negated symbol at F = 1."""
        return -self.stratified_symbol(1.0)

    def stratified_symbol(self, F: float) -> np.ndarray:
        """Symbol of the elliptic operator: -(kx^2 + ky^2 + F^2 kz^2)."""
        kx2 = (self.kx**2).reshape(1, 1, -1)
        ky2 = (self.ky**2).reshape(1, -1, 1)
        kz2 = (self.kz**2).reshape(-1, 1, 1)
        return -(kx2 + ky2 + (F * F) * kz2)

    # ---- dealiasing and Parseval weights --------------------------------

    @cached_property
    def dealias_mask(self) -> np.ndarray:
        """Boolean keep-mask of the two-thirds rule, ``keeps_mode``."""
        return self.keeps_mode((self.sx.reshape(1, 1, -1), self.sy.reshape(1, -1, 1),
                                self.sz.reshape(-1, 1, 1)))

    def keeps_mode(self, s):
        """The two-thirds rule: whether mode numbers (s_x, s_y, s_z), ints
        or broadcastable arrays, have |s| <= n/3 on every axis.  Axes of
        size 1 only carry s = 0, which is kept; modes beyond Nyquist are not."""
        sx, sy, sz = s
        return (abs(sx) <= self.nx / 3.0) & (abs(sy) <= self.ny / 3.0) & (abs(sz) <= self.nz / 3.0)

    @cached_property
    def dealias_bounds(self) -> tuple[int, int, int, int, int]:
        """The cube of ``dealias_mask`` as slice bounds (zlo, zhi, lo, hi, kx):
        the z planes [zlo, zhi), the y rows [lo, hi) and the x columns
        [kx, nx // 2 + 1) are dropped; (n, n) stands for none dropped.

        Read off this instance's mask, so a grid whose mask is replaced
        before first use truncates by the replacement.
        """
        keep = self.dealias_mask

        def dropped(kept_along: np.ndarray, n: int) -> tuple[int, int]:
            out = np.flatnonzero(~kept_along)
            return (int(out[0]), int(out[-1]) + 1) if out.size else (n, n)

        zlo, zhi = dropped(keep.any(axis=(1, 2)), self.nz)
        lo, hi = dropped(keep.any(axis=(0, 2)), self.ny)
        return zlo, zhi, lo, hi, int(keep.any(axis=(0, 1)).sum())

    @cached_property
    def cube_blocks(self) -> tuple[tuple[tuple[slice, slice, slice], slice], ...]:
        """The cube of ``dealias_bounds`` as its non-empty (z range x y
        range) blocks of the first kx columns, z ranges outer: each as its
        index into a half spectrum and its rows in a table of the kept y rows
        (modes 0 .. lo - 1, then the negative ones).  The first holds (0, 0, 0)."""
        zlo, zhi, lo, hi, kx = self.dealias_bounds
        return tuple(
            ((zs, ys, slice(0, kx)), rows)
            for zs in (slice(0, zlo), slice(zhi, self.nz))
            for ys, rows in ((slice(0, lo), slice(0, lo)), (slice(hi, self.ny), slice(lo, None)))
            if zs.start < zs.stop and ys.start < ys.stop
        )

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
