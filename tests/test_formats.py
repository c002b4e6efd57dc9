"""File format tests: bit-exact round trips and hostile inputs."""

import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from scop.errors import DomainError
from scop.formats import read_matrix, read_vector, write_matrix, write_vector

AWKWARD = np.array(
    [0.0, -0.0, 1.0, -1.0, 0.2998046875, 65504.0, 2.0 ** -24, -(2.0 ** -14)],
    dtype=np.float16,
)


def _bits(arr):
    return arr.view(np.uint16).tolist()


@pytest.mark.parametrize("fmt", ["bin", "csv"])
def test_vector_roundtrip_preserves_bits(tmp_path, fmt):
    path = str(tmp_path / f"v.{fmt}")
    write_vector(path, AWKWARD, fmt)
    back = read_vector(path)
    assert _bits(back) == _bits(AWKWARD)


@pytest.mark.parametrize("fmt", ["bin", "csv"])
def test_matrix_roundtrip_preserves_bits(tmp_path, fmt):
    mat = AWKWARD.reshape(2, 4)
    path = str(tmp_path / f"m.{fmt}")
    write_matrix(path, mat, fmt)
    back = read_matrix(path)
    assert back.shape == (2, 4)
    assert _bits(back.reshape(-1)) == _bits(mat.reshape(-1))


@given(st.lists(st.integers(min_value=0, max_value=0xFFFF), min_size=1, max_size=64))
def test_vector_roundtrip_random_payloads(tmp_path_factory, payload):
    bits = np.array(payload, dtype=np.uint16)
    if np.any((bits & 0x7C00) == 0x7C00):
        return  # inf/NaN payloads are not written by the engine
    vec = bits.view(np.float16)
    path = str(tmp_path_factory.mktemp("fmt") / "v.bin")
    write_vector(path, vec, "bin")
    assert _bits(read_vector(path)) == payload


def test_binary_header_layout(tmp_path):
    path = str(tmp_path / "v.bin")
    write_vector(path, np.array([1.0], dtype=np.float16), "bin")
    raw = Path(path).read_bytes()
    assert raw[:4] == b"ESOV"
    assert raw[4:6] == b"\x01\x00"  # version 1, little endian
    assert raw[6:10] == b"\x01\x00\x00\x00"  # count 1
    assert raw[10:] == b"\x00\x3c"  # 1.0 in binary16


def test_matrix_header_layout(tmp_path):
    path = str(tmp_path / "m.bin")
    write_matrix(path, np.zeros((2, 3), dtype=np.float16), "bin")
    raw = Path(path).read_bytes()
    assert raw[:4] == b"ESOM"
    assert raw[4:6] == b"\x01\x00"
    assert raw[6:10] == b"\x02\x00\x00\x00"
    assert raw[10:14] == b"\x03\x00\x00\x00"
    assert len(raw) == 14 + 12


def test_truncated_binary_rejected(tmp_path):
    path = str(tmp_path / "v.bin")
    write_vector(path, AWKWARD, "bin")
    raw = Path(path).read_bytes()
    Path(path).write_bytes(raw[:-3])
    with pytest.raises(DomainError):
        read_vector(path)


def test_trailing_bytes_rejected_with_both_lengths(tmp_path):
    path = tmp_path / "v.bin"
    write_vector(str(path), [1.0, -2.0], "bin")
    path.write_bytes(path.read_bytes() + b"\x00\x00")
    with pytest.raises(DomainError, match="payload is 6 bytes, expected 4$"):
        read_vector(str(path))  # once "payload truncated: expected 4 bytes"


def test_wrong_container_rejected(tmp_path):
    vpath = str(tmp_path / "v.bin")
    mpath = str(tmp_path / "m.bin")
    write_vector(vpath, AWKWARD, "bin")
    write_matrix(mpath, AWKWARD.reshape(2, 4), "bin")
    with pytest.raises(DomainError):
        read_matrix(vpath)
    with pytest.raises(DomainError):
        read_vector(mpath)


def test_bad_csv_rejected(tmp_path):
    path = str(tmp_path / "v.csv")
    Path(path).write_text("1.0\nnot-a-number\n")
    with pytest.raises(DomainError) as err:
        read_vector(path)
    assert ":2" in str(err.value)  # error names the line


@pytest.mark.parametrize("reader", [read_vector, read_matrix])
def test_non_utf8_csv_rejected(tmp_path, reader):
    path = tmp_path / "bad.csv"
    path.write_bytes(b"1.0\n\xff\xfe\n")
    with pytest.raises(DomainError) as err:
        reader(str(path))
    assert str(path) in str(err.value)  # error names the file


def test_ragged_csv_matrix_rejected(tmp_path):
    path = str(tmp_path / "m.csv")
    Path(path).write_text("1.0,2.0\n3.0\n")
    with pytest.raises(DomainError):
        read_matrix(path)


def test_empty_csv_rejected(tmp_path):
    path = str(tmp_path / "v.csv")
    Path(path).write_text("\n")
    with pytest.raises(DomainError):
        read_vector(path)


def test_unknown_format_rejected(tmp_path):
    with pytest.raises(DomainError):
        write_vector(str(tmp_path / "v.xml"), AWKWARD, "xml")


CONTAINERS = [
    (write_vector, read_vector, AWKWARD, 10),
    (write_matrix, read_matrix, AWKWARD.reshape(2, 4), 14),
]


@pytest.mark.parametrize("write, read, values, header", CONTAINERS)
def test_truncated_header_rejected(tmp_path, write, read, values, header):
    path = tmp_path / "a.bin"
    write(str(path), values, "bin")
    path.write_bytes(path.read_bytes()[: header - 1])
    with pytest.raises(DomainError, match="truncated header"):
        read(str(path))


@pytest.mark.parametrize("write, read, values, header", CONTAINERS)
def test_unsupported_version_rejected(tmp_path, write, read, values, header):
    path = tmp_path / "a.bin"
    write(str(path), values, "bin")
    raw = path.read_bytes()
    path.write_bytes(raw[:4] + b"\x02\x00" + raw[6:])
    with pytest.raises(DomainError, match="unsupported version 2"):
        read(str(path))


@pytest.mark.parametrize("fmt", ["bin", "csv"])
@pytest.mark.parametrize("write, read, values, header", CONTAINERS)
def test_wrong_rank_write_rejected(tmp_path, write, read, values, header, fmt):
    path = tmp_path / f"a.{fmt}"
    wrong = values.reshape(2, -1) if values.ndim == 1 else values.reshape(-1)
    with pytest.raises(DomainError, match="expected a (one|two)-dimensional"):
        write(str(path), wrong, fmt)
    assert not path.exists()


def test_two_column_csv_is_not_a_vector(tmp_path):
    path = str(tmp_path / "m.csv")
    Path(path).write_text("1.0,2.0\n3.0,4.0\n")
    with pytest.raises(DomainError, match="expected one value per line"):
        read_vector(path)
    assert read_matrix(path).shape == (2, 2)


@pytest.mark.parametrize("text, value", [("70000", 70000.0), ("-65520", -65520.0),
                                         ("1e300", 1e300)])
def test_csv_value_beyond_binary16_names_its_line(tmp_path, text, value):
    path = str(tmp_path / "v.csv")
    Path(path).write_text(f"1.0\n{text}\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's overflow warning once came first
        with pytest.raises(DomainError) as err:
            read_vector(path)
    assert str(err.value) == f"{path}:2: {value!r} is beyond binary16's range"


def test_csv_edge_of_binary16_and_literal_non_finite_values_read(tmp_path):
    path = str(tmp_path / "v.csv")
    Path(path).write_text("65519\n-65504\ninf\n-inf\nnan\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        back = read_vector(path)
    assert back[:4].tolist() == [65504.0, -65504.0, np.inf, -np.inf]
    assert np.isnan(back[4])
