import struct
import tracemalloc

import numpy as np
import pytest

import kpilab as kl
from kpilab.experiments import random_field
from kpilab.propagate import _STACK_BYTES
from kpilab.storage import (
    eigenvalues_to_csv,
    field_to_csv,
    read_field,
    read_gramian,
    write_field,
    write_gramian,
    write_trajectory,
)


def test_field_container_round_trip_1d(tmp_path, rng):
    field = random_field(kl.TorusGrid(64), rng)
    path = tmp_path / "f.bin"
    write_field(field, path)
    back = read_field(path)
    assert back.grid == field.grid
    assert np.array_equal(back.coeffs, field.coeffs)


def test_field_container_round_trip_2d(tmp_path, rng):
    field = random_field(kl.TorusGrid(32, 8), rng)
    path = tmp_path / "f.bin"
    write_field(field, path)
    back = read_field(path)
    assert back.grid == field.grid
    assert np.array_equal(back.coeffs, field.coeffs)


def test_field_csv_layout(tmp_path):
    field = kl.mode_field(kl.TorusGrid(4, 4), 1, -1, amplitude=2.0 + 0.5j)
    path = tmp_path / "f.csv"
    field_to_csv(field, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "k,l,re,im"
    assert len(lines) == 1 + 16
    hit = [ln for ln in lines if ln.startswith("1,-1,")]
    assert hit and hit[0] == "1,-1,2,0.5"


def test_gramian_container_round_trip(tmp_path, profile_64, kp_params):
    block = kl.assemble_observability_gramian(1.0, 5, 2, profile_64, kp_params)
    path = tmp_path / "g.bin"
    write_gramian(block, path)
    back = read_gramian(path)
    assert back.fixed_freq == 2
    assert back.horizon == 1.0
    assert np.array_equal(back.indices, block.indices)
    assert np.max(np.abs(back.matrix - block.matrix)) == 0.0


def test_eigenvalue_csv(tmp_path, profile_64, kp_params):
    blocks = [
        kl.assemble_observability_gramian(1.0, 4, l, profile_64, kp_params)
        for l in (-1, 0, 1)
    ]
    path = tmp_path / "eigs.csv"
    eigenvalues_to_csv(blocks, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "fixed_freq,index,eigenvalue"
    assert len(lines) == 1 + 3 * 8


def test_trajectory_container(tmp_path, rng):
    grid = kl.TorusGrid(16, 4)
    params = kl.DispersionParams.kp1(2.0)
    profile = kl.make_control_profile(np.pi / 4, 3 * np.pi / 4, "smooth-exp", kl.TorusGrid(16))
    u0 = random_field(grid, rng, kmax=3, lmax=1)
    traj = kl.synthesize_control(u0, u0 * 0.0, 1.0, profile, params)
    path = tmp_path / "t.bin"
    write_trajectory(traj, path)
    raw = path.read_bytes()
    assert raw[:4] == b"KPIT"
    # header + phi + 256 samples of (time, field)
    import struct

    head = struct.calcsize("<4sBBIIId")
    per_field = 16 * 4 * 16
    assert len(raw) == head + per_field + 256 * (8 + per_field)


def test_container_magic_guard(tmp_path):
    import pytest
    from kpilab.errors import DimensionError

    bad = tmp_path / "junk.bin"
    bad.write_bytes(b"NOPE" + bytes(64))
    with pytest.raises(DimensionError):
        read_field(bad)
    with pytest.raises(DimensionError):
        read_gramian(bad)


def test_gramian_container_length_guard(tmp_path, profile_64, kp_params):
    import pytest
    from kpilab.errors import DimensionError

    path = tmp_path / "g.bin"
    write_gramian(kl.assemble_observability_gramian(1.0, 3, 1, profile_64, kp_params), path)
    raw = path.read_bytes()
    for data in (raw[:-8], raw + bytes(16), raw[:12], raw[:5] + bytes([2]) + raw[6:]):
        path.write_bytes(data)
        with pytest.raises(DimensionError):
            read_gramian(path)


@pytest.mark.parametrize("horizon", [-1.5, 0.0, float("nan"), float("inf")])
def test_gramian_container_horizon_guard(tmp_path, profile_64, kp_params, horizon):
    from kpilab.errors import DimensionError
    from kpilab.storage import _MATRIX_HEADER

    path = tmp_path / "g.bin"
    write_gramian(kl.assemble_observability_gramian(1.0, 3, 1, profile_64, kp_params), path)
    raw = path.read_bytes()
    # the horizon is the header's last field, a little-endian float64
    head = _MATRIX_HEADER.size
    path.write_bytes(raw[: head - 8] + struct.pack("<d", horizon) + raw[head:])
    with pytest.raises(DimensionError, match="horizon"):
        read_gramian(path)


def _struct_pairs(values) -> bytes:
    """Little-endian ``(re, im)`` float64 pairs, one ``struct`` call per value."""
    return b"".join(struct.pack("<dd", z.real, z.imag) for z in np.ravel(values).tolist())


def test_containers_are_their_struct_built_bytes(tmp_path, rng, profile_64, kp_params):
    for grid in (kl.TorusGrid(16), kl.TorusGrid(16, 4)):
        field = random_field(grid, rng)
        write_field(field, tmp_path / "f.bin")
        head = struct.pack("<4sBBIII", b"KPIF", 1, grid.dimension, 16, grid.ny or 0, 8)
        assert (tmp_path / "f.bin").read_bytes() == head + _struct_pairs(field.coeffs)

    block = kl.assemble_observability_gramian(0.5, 3, -2, profile_64, kp_params)
    write_gramian(block, tmp_path / "g.bin")
    head = struct.pack("<4sBBiId", b"KPIM", 1, 0, -2, 6, 0.5)
    indices = b"".join(struct.pack("<i", k) for k in block.indices.tolist())
    assert (tmp_path / "g.bin").read_bytes() == head + indices + _struct_pairs(block.matrix)

    grid = kl.TorusGrid(16, 4)
    profile = kl.make_control_profile(np.pi / 4, 3 * np.pi / 4, "smooth-exp", kl.TorusGrid(16))
    u0 = random_field(grid, rng, kmax=3, lmax=1)
    traj = kl.synthesize_control(u0, u0 * 0.0, 1.0, profile, kp_params)
    write_trajectory(traj, tmp_path / "t.bin")
    expect = struct.pack("<4sBBIIId", b"KPIT", 1, 2, 16, 4, 256, 1.0)
    expect += _struct_pairs(traj.phi_final.coeffs)
    for t, sample in zip(traj.times.tolist(), traj.samples):
        expect += struct.pack("<d", t) + _struct_pairs(sample)
    assert (tmp_path / "t.bin").read_bytes() == expect


def test_reading_a_gramian_allocates_one_matrix(tmp_path):
    # the file's bytes, a slice of them and a converted copy once made three matrices
    rng = np.random.default_rng(7)
    a = rng.standard_normal((300, 300)) + 1j * rng.standard_normal((300, 300))
    path = tmp_path / "g.bin"
    write_gramian(kl.GramianBlock(np.arange(300), 0, 1.0, a @ a.conj().T), path)
    read_gramian(path)
    tracemalloc.start()
    try:
        back = read_gramian(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert back.matrix.shape == (300, 300) and not back.matrix.flags.writeable
    # the matrix and the block check's row stacks
    assert peak <= back.matrix.nbytes + 4 * _STACK_BYTES
