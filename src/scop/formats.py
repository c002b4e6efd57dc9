"""Vector and matrix files holding binary16 payloads, bit-exact either way.

Binary layout (little-endian throughout):

  vector: magic 'ESOV' | version u16 | count u32 | count x u16 payload
  matrix: magic 'ESOM' | version u16 | rows u32 | cols u32 | row-major u16

Each u16 payload word is the raw binary16 encoding, so a write/read trip
reproduces the array bit for bit, signed zeros and subnormals included.
The CSV alternative stores one shortest-repr decimal per value; because
every binary16 value survives a float round trip through repr, CSV trips
are bit-exact too.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .errors import DomainError
from .fp16 import ROUNDS_TO_INF

MAGIC_VECTOR = b"ESOV"
MAGIC_MATRIX = b"ESOM"
VERSION = 1


# rank -> (magic, noun, adjective) of the container holding arrays of that rank
_CONTAINERS = {
    1: (MAGIC_VECTOR, "vector", "one-dimensional"),
    2: (MAGIC_MATRIX, "matrix", "two-dimensional"),
}


def _write(path: str, values, fmt: str, rank: int) -> None:
    magic, noun, adjective = _CONTAINERS[rank]
    arr = np.asarray(values, dtype=np.float16)
    if arr.ndim != rank:
        raise DomainError(f"expected a {adjective} {noun}")
    if fmt == "bin":
        with open(path, "wb") as fh:
            fh.write(magic)
            fh.write(struct.pack(f"<H{rank}I", VERSION, *arr.shape))
            fh.write(arr.astype("<f2").view("<u2").tobytes())
    elif fmt == "csv":
        rows = arr.reshape(arr.shape + (1,) * (2 - rank))  # a vector is one column
        with open(path, "w") as fh:
            for row in rows:
                fh.write(",".join(repr(float(v)) for v in row) + "\n")
    else:
        raise DomainError(f"unknown format {fmt!r}")


def _read(path: str, rank: int) -> np.ndarray:
    magic, noun, _ = _CONTAINERS[rank]
    other_magic, other_noun, _ = _CONTAINERS[3 - rank]
    header = struct.Struct(f"<H{rank}I")  # version, then one u32 per dimension
    with open(path, "rb") as fh:
        head = fh.read(4)
        if head == magic:
            meta = fh.read(header.size)
            if len(meta) != header.size:
                raise DomainError(f"{path}: truncated header")
            version, *shape = header.unpack(meta)
            if version != VERSION:
                raise DomainError(f"{path}: unsupported version {version}")
            payload = fh.read()
            nbytes = 2 * math.prod(shape)
            if len(payload) != nbytes:
                raise DomainError(f"{path}: payload is {len(payload)} bytes, expected {nbytes}")
            flat = np.frombuffer(payload, dtype="<u2").view("<f2").astype(np.float16)
            return flat.reshape(shape)
        if head == other_magic:
            raise DomainError(f"{path}: holds a {other_noun}, expected a {noun}")
    rows = _read_csv_matrix(path)
    if rank == 1 and rows.shape[1] != 1:
        raise DomainError(f"{path}: expected one value per line")
    return rows[:, 0] if rank == 1 else rows


def write_vector(path: str, values, fmt: str = "bin") -> None:
    _write(path, values, fmt, 1)


def read_vector(path: str) -> np.ndarray:
    return _read(path, 1)


def write_matrix(path: str, values, fmt: str = "bin") -> None:
    _write(path, values, fmt, 2)


def read_matrix(path: str) -> np.ndarray:
    return _read(path, 2)


def read_text(path: str) -> str:
    """The text of a UTF-8 file; bytes that do not decode raise DomainError naming it."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise DomainError(f"{path}: not UTF-8 text ({exc.reason})") from exc


def csv_lines(path: str):
    """(line number, stripped text) of each nonblank line of a UTF-8 text file."""
    for lineno, line in enumerate(read_text(path).split("\n"), start=1):
        line = line.strip()
        if line:
            yield lineno, line


def _read_csv_matrix(path: str) -> np.ndarray:
    rows = []
    width = None
    for lineno, line in csv_lines(path):
        try:
            row = [float(v) for v in line.split(",")]
        except ValueError as exc:
            raise DomainError(f"{path}:{lineno}: {exc}") from exc
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise DomainError(f"{path}:{lineno}: ragged row")
        beyond = [v for v in row if math.isfinite(v) and abs(v) >= ROUNDS_TO_INF]
        if beyond:  # else numpy's cast would warn, and the inf be refused far from here
            raise DomainError(f"{path}:{lineno}: {beyond[0]!r} is beyond binary16's range")
        rows.append(row)
    if not rows:
        raise DomainError(f"{path}: no values")
    return np.asarray(rows, dtype=np.float16)
