"""On-disk format contract: bitwise payload round-trips, header rejection
paths, and checkpoint sidecar metadata."""

import json
import os
import stat
import struct

import numpy as np
import pytest

from qg3d.dynamics import PhysicsParams
from qg3d.errors import SnapshotFormatError
from qg3d.grid import GridSpec
from qg3d.initial import make_random
from qg3d.snapshots import (
    checkpoint_meta_path,
    read_checkpoint,
    read_snapshot,
    snapshot_bytes,
    write_checkpoint,
    write_snapshot,
)
from qg3d.spectral import SpectralField, inv
from qg3d.stepping import State


def sample_state(seed=0, t=1.5):
    grid = GridSpec(16, 16, 16, F=2.0)
    params = PhysicsParams(beta=0.5, nu=0.01, F=2.0)
    state = make_random(grid, -3.0, 1.0, seed, params=params)
    return State(state.q_hat, t, params)


def test_round_trip_physical_payload_bitwise(tmp_path):
    state = sample_state()
    path = tmp_path / "s.qg3d"
    write_snapshot(state, path)
    back = read_snapshot(path)
    # The payload is exactly the physical samples of the written state, and
    # re-serializing the read state reproduces it bit for bit.
    header_size = struct.calcsize("<4sI3Q7d")
    payload = np.frombuffer(path.read_bytes()[header_size:], dtype="<f8")
    original = inv(state.grid, state.q_hat.coeffs)
    assert np.array_equal(payload, original.ravel())
    assert snapshot_bytes(back) == path.read_bytes()
    # The coefficients of the read state agree with the transform of that
    # payload to rounding; the samples themselves are what the format keeps.
    recovered = inv(back.grid, back.q_hat.coeffs)
    scale = np.max(np.abs(original))
    assert np.max(np.abs(recovered - original)) < 1e-13 * scale
    assert back.t == state.t
    assert back.grid == state.grid
    assert back.params == state.params


def test_rewrite_is_byte_identical(tmp_path):
    state = sample_state()
    a, b = tmp_path / "a.qg3d", tmp_path / "b.qg3d"
    write_snapshot(state, a)
    write_snapshot(read_snapshot(a), b)
    assert a.read_bytes() == b.read_bytes()


def test_zero_field_round_trip(tmp_path):
    grid = GridSpec(8, 8, 8)
    state = State(
        SpectralField(grid, np.zeros(grid.kshape, dtype=np.complex128)),
        0.0,
        PhysicsParams(),
    )
    path = tmp_path / "zero.qg3d"
    write_snapshot(state, path)
    back = read_snapshot(path)
    assert np.all(inv(back.grid, back.q_hat.coeffs) == 0.0)


def test_header_layout_is_the_documented_struct(tmp_path):
    state = sample_state(t=0.25)
    blob = snapshot_bytes(state)
    magic, version, nx, ny, nz, lx, ly, lz, F, beta, nu, t = struct.unpack_from(
        "<4sI3Q7d", blob
    )
    assert magic == b"QG3D" and version == 1
    assert (nx, ny, nz) == (16, 16, 16)
    assert (F, beta, nu, t) == (2.0, 0.5, 0.01, 0.25)
    payload = np.frombuffer(blob, dtype="<f8", offset=struct.calcsize("<4sI3Q7d"))
    assert payload.shape == (16 * 16 * 16,)
    # x-fastest ordering: the C-order flattening of the physical values
    assert np.array_equal(payload, inv(state.grid, state.q_hat.coeffs).ravel())


def test_truncated_file_rejected(tmp_path):
    state = sample_state()
    path = tmp_path / "s.qg3d"
    write_snapshot(state, path)
    data = path.read_bytes()
    for cut in (0, 10, len(data) - 8):
        short = tmp_path / "short.qg3d"
        short.write_bytes(data[:cut])
        with pytest.raises(SnapshotFormatError):
            read_snapshot(short)


def test_bad_magic_and_version_rejected(tmp_path):
    state = sample_state()
    path = tmp_path / "s.qg3d"
    write_snapshot(state, path)
    data = bytearray(path.read_bytes())
    wrong_magic = tmp_path / "m.qg3d"
    wrong_magic.write_bytes(b"NOPE" + bytes(data[4:]))
    with pytest.raises(SnapshotFormatError):
        read_snapshot(wrong_magic)
    wrong_version = tmp_path / "v.qg3d"
    bumped = bytearray(data)
    bumped[4] = 9
    wrong_version.write_bytes(bytes(bumped))
    with pytest.raises(SnapshotFormatError):
        read_snapshot(wrong_version)


def test_nonfinite_payload_rejected(tmp_path):
    state = sample_state()
    blob = bytearray(snapshot_bytes(state))
    offset = struct.calcsize("<4sI3Q7d")
    blob[offset : offset + 8] = struct.pack("<d", np.nan)
    path = tmp_path / "nan.qg3d"
    path.write_bytes(bytes(blob))
    with pytest.raises(SnapshotFormatError):
        read_snapshot(path)


def test_checkpoint_sidecar(tmp_path):
    state = sample_state(t=0.75)
    path = tmp_path / "ck.qg3d"
    write_checkpoint(state, path, config_digest="ab" * 32)
    meta_file = checkpoint_meta_path(path)
    assert meta_file.exists()
    meta = json.loads(meta_file.read_text())
    assert meta["config_sha256"] == "ab" * 32
    assert meta["time"] == 0.75
    back, meta2 = read_checkpoint(path)
    assert back.t == 0.75
    assert meta2 == meta


def test_written_files_follow_the_umask(tmp_path):
    path = tmp_path / "s.qg3d"
    saved = os.umask(0o027)
    try:
        write_checkpoint(sample_state(), path, "digest")
    finally:
        os.umask(saved)
    for p in (path, checkpoint_meta_path(path)):
        assert stat.S_IMODE(os.stat(p).st_mode) == 0o640


def test_missing_file_raises_io_error(tmp_path):
    with pytest.raises(FileNotFoundError):
        read_snapshot(tmp_path / "absent.qg3d")
