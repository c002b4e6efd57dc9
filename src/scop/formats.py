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

import struct

import numpy as np

from .errors import DomainError

MAGIC_VECTOR = b"ESOV"
MAGIC_MATRIX = b"ESOM"
VERSION = 1


def _payload(values: np.ndarray) -> bytes:
    return values.astype("<f2").view("<u2").tobytes()


def _from_payload(data: bytes, count: int) -> np.ndarray:
    if len(data) != 2 * count:
        raise DomainError(f"payload truncated: expected {2 * count} bytes")
    return np.frombuffer(data, dtype="<u2").view("<f2").astype(np.float16)


def write_vector(path: str, values, fmt: str = "bin") -> None:
    vec = np.asarray(values, dtype=np.float16)
    if vec.ndim != 1:
        raise DomainError("expected a one-dimensional vector")
    if fmt == "bin":
        with open(path, "wb") as fh:
            fh.write(MAGIC_VECTOR)
            fh.write(struct.pack("<HI", VERSION, vec.size))
            fh.write(_payload(vec))
    elif fmt == "csv":
        with open(path, "w") as fh:
            for v in vec:
                fh.write(repr(float(v)) + "\n")
    else:
        raise DomainError(f"unknown format {fmt!r}")


def read_vector(path: str) -> np.ndarray:
    with open(path, "rb") as fh:
        head = fh.read(4)
        if head == MAGIC_VECTOR:
            meta = fh.read(6)
            if len(meta) != 6:
                raise DomainError(f"{path}: truncated header")
            version, count = struct.unpack("<HI", meta)
            if version != VERSION:
                raise DomainError(f"{path}: unsupported version {version}")
            return _from_payload(fh.read(), count)
        if head == MAGIC_MATRIX:
            raise DomainError(f"{path}: holds a matrix, expected a vector")
    return _read_csv_vector(path)


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


def _read_csv_vector(path: str) -> np.ndarray:
    column = _read_csv_matrix(path)
    if column.shape[1] != 1:
        raise DomainError(f"{path}: expected one value per line")
    return column[:, 0]


def write_matrix(path: str, values, fmt: str = "bin") -> None:
    mat = np.asarray(values, dtype=np.float16)
    if mat.ndim != 2:
        raise DomainError("expected a two-dimensional matrix")
    if fmt == "bin":
        with open(path, "wb") as fh:
            fh.write(MAGIC_MATRIX)
            fh.write(struct.pack("<HII", VERSION, mat.shape[0], mat.shape[1]))
            fh.write(_payload(mat.reshape(-1)))
    elif fmt == "csv":
        with open(path, "w") as fh:
            for row in mat:
                fh.write(",".join(repr(float(v)) for v in row) + "\n")
    else:
        raise DomainError(f"unknown format {fmt!r}")


def read_matrix(path: str) -> np.ndarray:
    with open(path, "rb") as fh:
        head = fh.read(4)
        if head == MAGIC_MATRIX:
            meta = fh.read(10)
            if len(meta) != 10:
                raise DomainError(f"{path}: truncated header")
            version, rows, cols = struct.unpack("<HII", meta)
            if version != VERSION:
                raise DomainError(f"{path}: unsupported version {version}")
            flat = _from_payload(fh.read(), rows * cols)
            return flat.reshape(rows, cols)
        if head == MAGIC_VECTOR:
            raise DomainError(f"{path}: holds a vector, expected a matrix")
    return _read_csv_matrix(path)


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
        rows.append(row)
    if not rows:
        raise DomainError(f"{path}: no values")
    return np.asarray(rows, dtype=np.float16)
