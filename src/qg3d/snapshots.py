"""Binary state snapshots and restart checkpoints.

Layout: an 88-byte little-endian header (magic "QG3D", version, the three
mode counts as u64, then box lengths, stratification ratio, beta, nu and
time as f64), followed by the scalar in physical space as f64 with x
varying fastest.  Checkpoints are snapshots plus a JSON sidecar carrying
the integrator time and a config digest.  All writes go through a
temporary file and an atomic rename.
"""

from __future__ import annotations

import json
import os
import struct
import tempfile
from pathlib import Path

import numpy as np

from .dynamics import PhysicsParams
from .errors import SnapshotFormatError
from .grid import GridSpec
from .spectral import SpectralField, fwd, inv
from .stepping import State

MAGIC = b"QG3D"
VERSION = 1
_HEADER = struct.Struct("<4sI3Q7d")


def _umask() -> int:
    mask = os.umask(0)
    os.umask(mask)
    return mask


def _atomic_write(path, payload: bytes) -> None:
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."), prefix=path.name + ".")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        # mkstemp creates the file 0600; give it the mode open() would
        os.chmod(tmp, 0o666 & ~_umask())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def snapshot_bytes(state: State) -> bytes:
    grid = state.grid
    header = _HEADER.pack(
        MAGIC,
        VERSION,
        grid.nx,
        grid.ny,
        grid.nz,
        grid.lx,
        grid.ly,
        grid.lz,
        state.params.F,
        state.params.beta,
        state.params.nu,
        state.t,
    )
    # A state that came straight from a file still carries its original
    # samples; reusing them keeps read-then-write byte-identical, which a
    # transform round trip alone cannot promise (it rounds).
    q = getattr(state.q_hat, "_physical", None)
    if q is None or q.shape != grid.shape:
        q = inv(grid, state.q_hat.coeffs)
    return header + np.ascontiguousarray(q, dtype="<f8").tobytes()


def write_snapshot(state: State, path) -> None:
    _atomic_write(path, snapshot_bytes(state))


def read_snapshot(path) -> State:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _HEADER.size:
        raise SnapshotFormatError(f"{path}: truncated header ({len(blob)} bytes)")
    magic, version, nx, ny, nz, lx, ly, lz, F, beta, nu, t = _HEADER.unpack_from(blob)
    if magic != MAGIC:
        raise SnapshotFormatError(f"{path}: bad magic {magic!r}")
    if version != VERSION:
        raise SnapshotFormatError(f"{path}: unsupported version {version}")
    expected = nx * ny * nz * 8
    payload = blob[_HEADER.size:]
    if len(payload) != expected:
        raise SnapshotFormatError(
            f"{path}: payload is {len(payload)} bytes, header promises {expected}"
        )
    try:
        grid = GridSpec(nx=int(nx), ny=int(ny), nz=int(nz), lx=lx, ly=ly, lz=lz, F=F)
        params = PhysicsParams(beta=beta, nu=nu, F=F)
        if not (np.isfinite(t) and t >= 0.0):
            raise ValueError(f"time must be finite and >= 0, got {t}")
    except ValueError as exc:
        raise SnapshotFormatError(f"{path}: invalid header fields: {exc}") from None
    q = np.frombuffer(payload, dtype="<f8").reshape(grid.shape).astype(np.float64)
    if not np.all(np.isfinite(q)):
        raise SnapshotFormatError(f"{path}: non-finite samples in payload")
    field = SpectralField(grid, fwd(grid, q))
    # Keep the exact file samples alongside the coefficients so writing this
    # state back out reproduces the file byte for byte.
    object.__setattr__(field, "_physical", q)
    return State(field, t, params)


def checkpoint_meta_path(path) -> Path:
    return Path(str(path) + ".meta.json")


def write_checkpoint(state: State, path, config_digest: str) -> None:
    write_snapshot(state, path)
    meta = {"time": state.t, "config_sha256": config_digest}
    _atomic_write(checkpoint_meta_path(path), json.dumps(meta).encode("ascii"))


def read_checkpoint(path) -> tuple[State, dict]:
    state = read_snapshot(path)
    meta_path = checkpoint_meta_path(path)
    meta = {}
    if meta_path.exists():
        meta = json.loads(meta_path.read_text(encoding="ascii"))
    return state, meta
