"""Binary containers and CSV export for fields, Gramian blocks, trajectories.

Field container layout (all little-endian):

    magic  b"KPIF" | u8 version | u8 dimension | u32 nx | u32 ny (0 in 1D)
    | u32 truncation | nx[*ny] coefficients, each an (re, im) float64 pair

Matrix and trajectory containers follow the same pattern with magics
``KPIM`` and ``KPIT``. CSV exports use one row per coefficient with columns
``k, l, re, im`` and a fixed 17-significant-digit float format so reruns are
byte-identical.
"""

from __future__ import annotations

import json
import struct
from collections.abc import Iterable, Sequence
from pathlib import Path

import numpy as np

from .errors import DimensionError, NumericalConsistencyError
from .fourier import SpectralField, TorusGrid
from .observe import GramianBlock

FIELD_MAGIC = b"KPIF"
MATRIX_MAGIC = b"KPIM"
TRAJECTORY_MAGIC = b"KPIT"
_VERSION = 1
_FIELD_HEADER = struct.Struct("<4sBBIII")
_MATRIX_HEADER = struct.Struct("<4sBBiId")


def json_text(obj, **kwargs) -> str:
    """Standard JSON of ``obj``; a NaN or infinity in it is a numerical fault."""
    try:
        return json.dumps(obj, allow_nan=False, **kwargs)
    except ValueError as exc:
        raise NumericalConsistencyError(f"cannot write JSON output: {exc}") from None


def _unpack_header(raw: bytes, header: struct.Struct, magic: bytes, kind: str, path) -> tuple:
    """Header fields of a container, after checking its length, magic and version."""
    if len(raw) < header.size:
        raise DimensionError(f"{path} is too short for a {kind} container header")
    fields = header.unpack_from(raw)
    if fields[0] != magic or fields[1] != _VERSION:
        raise DimensionError(f"{path} is not a version-{_VERSION} {kind} container")
    return fields


def _check_payload_size(raw: bytes, header: struct.Struct, expected: int, path) -> None:
    size = len(raw) - header.size
    if size != expected:
        raise DimensionError(f"{path} holds {size} payload bytes, expected {expected}")


def write_field(field: SpectralField, path: str | Path) -> None:
    grid = field.grid
    ny = grid.ny or 0
    header = _FIELD_HEADER.pack(
        FIELD_MAGIC, _VERSION, grid.dimension, grid.nx, ny, grid.nx // 2
    )
    Path(path).write_bytes(header + field.coeffs.astype("<c16").tobytes())


def read_field(path: str | Path) -> SpectralField:
    raw = Path(path).read_bytes()
    _, _, dim, nx, ny, _trunc = _unpack_header(raw, _FIELD_HEADER, FIELD_MAGIC, "field", path)
    if dim not in (1, 2):
        raise DimensionError(f"{path} declares dimension {dim}, not 1 or 2")
    _check_payload_size(raw, _FIELD_HEADER, 16 * nx * (ny if dim == 2 else 1), path)
    grid = TorusGrid(nx) if dim == 1 else TorusGrid(nx, ny)
    coeffs = np.frombuffer(raw[_FIELD_HEADER.size :], dtype="<c16").reshape(grid.shape)
    return SpectralField(grid, coeffs.astype(np.complex128))


def _coefficient_rows(field: SpectralField):
    """``(k, l, coefficient)`` in storage order; a 1D field has the single l = 0."""
    k, l = (field.grid.frequencies + (np.zeros(1, dtype=int),))[:2]
    coeffs = field.coeffs.reshape(k.size, l.size)
    for i, kk in enumerate(k.tolist()):
        for j, ll in enumerate(l.tolist()):
            yield kk, ll, coeffs[i, j]


def field_to_csv(field: SpectralField, path: str | Path) -> None:
    rows = ((k, l, c.real, c.imag) for k, l, c in _coefficient_rows(field))
    rows_to_csv(["k", "l", "re", "im"], rows, path)


def field_to_json(field: SpectralField, path: str | Path) -> None:
    grid = field.grid
    records = [{"k": k, "l": l, "re": c.real, "im": c.imag} for k, l, c in _coefficient_rows(field)]
    payload = {"dimension": grid.dimension, "nx": grid.nx, "ny": grid.ny, "coefficients": records}
    Path(path).write_text(json_text(payload) + "\n")


def write_gramian(block: GramianBlock, path: str | Path) -> None:
    n = block.matrix.shape[0]
    header = _MATRIX_HEADER.pack(
        MATRIX_MAGIC,
        _VERSION,
        0 if block.axis == "x" else 1,
        block.fixed_freq,
        n,
        block.horizon,
    )
    body = block.indices.astype("<i4").tobytes() + block.matrix.astype("<c16").tobytes()
    Path(path).write_bytes(header + body)


def read_gramian(path: str | Path) -> GramianBlock:
    raw = Path(path).read_bytes()
    _, _, axis, fixed, n, horizon = _unpack_header(
        raw, _MATRIX_HEADER, MATRIX_MAGIC, "matrix", path
    )
    if axis not in (0, 1):
        raise DimensionError(f"{path} declares axis {axis}, not 0 (x) or 1 (y)")
    if not 0.0 < horizon < np.inf:
        raise DimensionError(f"{path} declares horizon {horizon}, not a positive finite time")
    _check_payload_size(raw, _MATRIX_HEADER, 4 * n + 16 * n * n, path)
    head = _MATRIX_HEADER.size
    indices = np.frombuffer(raw[head : head + 4 * n], dtype="<i4").astype(int)
    matrix = np.frombuffer(raw[head + 4 * n :], dtype="<c16").reshape(n, n)
    return GramianBlock(
        indices=indices,
        fixed_freq=fixed,
        horizon=horizon,
        matrix=matrix.astype(np.complex128),
        axis="x" if axis == 0 else "y",
    )


def eigenvalues_to_csv(blocks, path: str | Path) -> None:
    rows = ((b.fixed_freq, i, float(lam)) for b in blocks for i, lam in enumerate(b.eigenvalues))
    rows_to_csv(["fixed_freq", "index", "eigenvalue"], rows, path)


def write_trajectory(traj, path: str | Path) -> None:
    grid = traj.phi_final.grid
    ny = grid.ny or 0
    header = struct.pack(
        "<4sBBIIId",
        TRAJECTORY_MAGIC,
        _VERSION,
        grid.dimension,
        grid.nx,
        ny,
        len(traj.samples),
        traj.horizon,
    )
    chunks = [header, traj.phi_final.coeffs.astype("<c16").tobytes()]
    for t, sample in zip(traj.times, traj.samples):
        chunks.append(struct.pack("<d", float(t)))
        chunks.append(sample.astype("<c16").tobytes())
    Path(path).write_bytes(b"".join(chunks))


def rows_to_csv(header: list[str], rows: Iterable[Sequence], path: str | Path) -> None:
    """Write rows with deterministic float formatting: floats in 17 significant digits."""
    lines = [",".join(header)]
    for row in rows:
        cells = [f"{c:.17g}" if isinstance(c, float) else str(c) for c in row]
        lines.append(",".join(cells))
    Path(path).write_text("\n".join(lines) + "\n")
