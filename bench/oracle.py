"""Checks computed apart from qg3d: numpy.fft, struct and the documented
snapshot layout, never a stored copy of earlier output."""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

# magic "QG3D" | u32 version | u64 nx, ny, nz | f64 lx, ly, lz, F, beta, nu, t
SNAPSHOT_HEADER = struct.Struct("<4sI3Q7d")


def wavenumbers(shape, lengths):
    """(kz, ky, kx) broadcastable over a half spectrum of a (nz, ny, nx) field."""
    (nz, ny, nx), (lz, ly, lx) = shape, lengths
    kx = 2.0 * np.pi * np.fft.rfftfreq(nx, d=lx / nx)
    ky = 2.0 * np.pi * np.fft.fftfreq(ny, d=ly / ny)
    kz = 2.0 * np.pi * np.fft.fftfreq(nz, d=lz / nz)
    return kz.reshape(-1, 1, 1), ky.reshape(1, -1, 1), kx.reshape(1, 1, -1)


def samples(coeffs, shape):
    """Grid values of a half spectrum stored with the forward normalization."""
    return np.fft.irfftn(coeffs, s=shape, axes=(0, 1, 2), norm="forward")


def velocity(coeffs, shape, lengths, F):
    """(v1, v2, v3) = (-psi_y, psi_x, psi_z) with q = psi_xx + psi_yy + F^2 psi_zz."""
    kz, ky, kx = wavenumbers(shape, lengths)
    symbol = -(kx * kx + ky * ky + (F * F) * kz * kz)
    symbol[0, 0, 0] = 1.0
    psi = coeffs / symbol
    psi[0, 0, 0] = 0.0
    return (samples(-1j * ky * psi, shape), samples(1j * kx * psi, shape),
            samples(1j * kz * psi, shape))


def lp(values, cell_volume, p):
    return float((np.sum(np.abs(values) ** p) * cell_volume) ** (1.0 / p))


def cfl_bound(coeffs, shape, lengths, F, cfl, dt_max):
    """min(cfl * min(dx / max|v1|, dy / max|v2|), dt_max)."""
    v1, v2, _ = velocity(coeffs, shape, lengths, F)
    nz, ny, nx = shape
    lz, ly, lx = lengths
    bound = np.inf
    m1, m2 = np.max(np.abs(v1)), np.max(np.abs(v2))
    if m1 > 0.0:
        bound = (lx / nx) / m1
    if m2 > 0.0:
        bound = min(bound, (ly / ny) / m2)
    return min(cfl * bound, dt_max)


def read_snapshot_file(path):
    """(header dict, samples shaped (nz, ny, nx)) from the documented layout."""
    blob = Path(path).read_bytes()
    magic, version, nx, ny, nz, lx, ly, lz, F, beta, nu, t = SNAPSHOT_HEADER.unpack_from(blob)
    payload = blob[SNAPSHOT_HEADER.size:]
    if magic != b"QG3D" or version != 1 or len(payload) != 8 * nx * ny * nz:
        raise ValueError(f"{path}: not a version-1 snapshot of {nx}x{ny}x{nz}")
    q = np.frombuffer(payload, dtype="<f8").reshape(nz, ny, nx)
    header = dict(nx=nx, ny=ny, nz=nz, lx=lx, ly=ly, lz=lz, F=F, beta=beta, nu=nu, t=t)
    return header, q


def csv_times(path):
    with open(path, encoding="ascii") as fh:
        next(fh)
        return [float(line.split(",", 1)[0]) for line in fh if line.strip()]


def on_multiples(times, every, t_first, t_last) -> bool:
    """Rows at t_first, t_first + every, ..., t_last, each a multiple of every."""
    want = round((t_last - t_first) / every) + 1
    return len(times) == want and all(
        abs(t - (t_first + k * every)) <= 1e-12 * max(1.0, abs(t))
        and abs(t / every - round(t / every)) <= 1e-9
        for k, t in enumerate(times))
