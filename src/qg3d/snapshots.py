"""Binary state snapshots and restart checkpoints.

Layout: an 88-byte little-endian header (magic "QG3D", version, the three
mode counts as u64, then box lengths, stratification ratio, beta, nu and
time as f64), followed by the scalar in physical space as f64 with x
varying fastest.  Checkpoints are snapshots plus a JSON sidecar carrying
the integrator time and a config digest.  All writes go through a
temporary file and an atomic rename.  A read state holds the two-thirds
cube of the samples' transform, with zero mean; see ``read_snapshot``.
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
from .spectral import ZERO_MEAN_TOL, SpectralField, _truncate, fwd, inv, l2_norm
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
    q = state.q_hat.samples
    if q is None:
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
    q = np.frombuffer(payload, dtype="<f8").astype(np.float64)
    if not np.all(np.isfinite(q)):
        raise SnapshotFormatError(f"{path}: non-finite samples in payload")
    try:
        grid = GridSpec(nx=int(nx), ny=int(ny), nz=int(nz), lx=lx, ly=ly, lz=lz)
        params = PhysicsParams(beta=beta, nu=nu, F=F)
        return State(_read_field(path, grid, q.reshape(grid.shape)), t, params)
    except ValueError as exc:
        raise SnapshotFormatError(f"{path}: invalid header fields: {exc}") from None


def _read_field(path, grid: GridSpec, q: np.ndarray) -> SpectralField:
    """The state of the samples ``q``: the two-thirds cube of their
    transform (``_truncate``), with zero mean.

    Samples whose mean exceeds ``ZERO_MEAN_TOL * ||q||_L2``, the Poisson
    solve's test, are refused.  The samples are kept, so a write of the
    state reproduces the file, only if what the cube and the zero mean drop
    is within that same rounding bound, as for every file qg3d writes;
    otherwise the state writes its own samples.
    """
    full = fwd(grid, q)
    tol = ZERO_MEAN_TOL * l2_norm(SpectralField(grid, full))
    mean = abs(full[0, 0, 0])
    if mean > tol:
        raise SnapshotFormatError(
            f"{path}: samples have mean {mean:.3e} > {ZERO_MEAN_TOL:g} * ||q||_L2 = {tol:.3e};"
            " a state has zero mean"
        )
    coeffs = _truncate(grid, full.copy())
    coeffs[0, 0, 0] = 0.0
    full -= coeffs
    exact = l2_norm(SpectralField(grid, full)) <= tol
    return SpectralField(grid, coeffs, samples=q if exact else None)


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
        try:
            meta = json.loads(meta_path.read_text(encoding="ascii"))
        except ValueError as exc:  # not ASCII, or not JSON
            raise SnapshotFormatError(f"{meta_path}: sidecar is not ASCII JSON: {exc}") from None
        if not isinstance(meta, dict):
            raise SnapshotFormatError(f"{meta_path}: sidecar is a JSON {type(meta).__name__}")
        # the snapshot and its sidecar are two writes; a crash between them
        # leaves a sidecar that describes an older state
        if meta.get("time") != state.t:
            raise SnapshotFormatError(
                f"{path}: sidecar time {meta.get('time')!r} != snapshot time {state.t!r}"
            )
    return state, meta
