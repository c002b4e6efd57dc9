"""Dataset generation and ingestion tests."""

import numpy as np
import pytest

from scop.datasets import generate_two_moons, load_digits_csv
from scop.errors import DomainError


def test_noiseless_points_lie_on_canonical_arcs():
    data = generate_two_moons(10, noise=0.0, seed=1)
    pts = np.concatenate([data.x_train, data.x_test])
    labels = np.concatenate([data.y_train, data.y_test])
    for (px, py), label in zip(pts, labels):
        if label == 0:
            r = px * px + py * py
        else:
            r = (px - 1.0) ** 2 + (py - 0.5) ** 2
        assert abs(r - 1.0) < 1e-12
        if label == 0:
            assert py >= -1e-12  # upper arc
        else:
            assert py <= 0.5 + 1e-12  # lower arc


def test_split_is_80_20():
    data = generate_two_moons(2000, noise=0.1, seed=7)
    assert data.x_train.shape == (1600, 2)
    assert data.x_test.shape == (400, 2)
    assert data.y_train.shape == (1600,)
    assert data.n_classes == 2


def test_generation_is_deterministic():
    a = generate_two_moons(100, noise=0.1, seed=42)
    b = generate_two_moons(100, noise=0.1, seed=42)
    assert np.array_equal(a.x_train, b.x_train)
    assert np.array_equal(a.y_test, b.y_test)
    c = generate_two_moons(100, noise=0.1, seed=43)
    assert not np.array_equal(a.x_train, c.x_train)


def test_both_classes_present():
    data = generate_two_moons(50, noise=0.05, seed=0)
    assert set(np.unique(data.y_train)) == {0, 1}


def test_two_moons_validation():
    with pytest.raises(DomainError):
        generate_two_moons(3, noise=0.1, seed=0)
    with pytest.raises(DomainError):
        generate_two_moons(100, noise=-0.1, seed=0)


@pytest.mark.parametrize("noise", [float("nan"), float("inf")])
def test_two_moons_rejects_non_finite_noise(noise):
    with pytest.raises(DomainError):
        generate_two_moons(100, noise=noise, seed=0)  # NaN once gave noiseless arcs


def _write_digits(path, rows):
    with open(path, "w") as fh:
        for pixels, label in rows:
            fh.write(",".join(str(p) for p in pixels) + f",{label}\n")


def test_digits_csv_roundtrip(tmp_path):
    path = str(tmp_path / "digits.csv")
    rows = [([i % 17] * 64, i % 10) for i in range(20)]
    _write_digits(path, rows)
    data = load_digits_csv(path, seed=5)
    assert data.x_train.shape == (16, 64)
    assert data.x_test.shape == (4, 64)
    assert data.n_classes == 10
    everything = np.concatenate([data.x_train, data.x_test])
    assert everything.min() >= 0.0 and everything.max() <= 16 / 16.0


def test_digits_csv_rejects_bad_width(tmp_path):
    path = str(tmp_path / "digits.csv")
    open(path, "w").write("1,2,3\n")
    with pytest.raises(DomainError) as err:
        load_digits_csv(path)
    assert "65" in str(err.value)


def test_digits_csv_rejects_bad_label(tmp_path):
    path = str(tmp_path / "digits.csv")
    _write_digits(path, [([0] * 64, 12)])
    with pytest.raises(DomainError):
        load_digits_csv(path)


def test_digits_csv_rejects_garbage(tmp_path):
    path = str(tmp_path / "digits.csv")
    open(path, "w").write(",".join(["x"] * 64) + ",1\n")
    with pytest.raises(DomainError) as err:
        load_digits_csv(path)
    assert ":1" in str(err.value)


def test_digits_csv_rejects_non_utf8_bytes(tmp_path):
    path = tmp_path / "digits.csv"
    path.write_bytes(b",".join([b"1"] * 64) + b",\xff3\n")
    with pytest.raises(DomainError, match="digits.csv: not UTF-8"):
        load_digits_csv(str(path))
