"""Toy datasets for the training harness.

Everything here is deterministic given a seed: generation, noise, and the
80/20 train/test split. Coordinates are returned in float64; the trainer
quantizes to binary16 at its own boundary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .formats import csv_lines


@dataclass(frozen=True)
class Dataset:
    x_train: np.ndarray
    y_train: np.ndarray
    x_test: np.ndarray
    y_test: np.ndarray
    n_classes: int

    @property
    def n_features(self) -> int:
        return self.x_train.shape[1]


def _split(features: np.ndarray, labels: np.ndarray, n_classes: int, rng) -> Dataset:
    n = features.shape[0]
    order = rng.permutation(n)
    cut = int(round(0.8 * n))
    tr, te = order[:cut], order[cut:]
    return Dataset(features[tr], labels[tr], features[te], labels[te], n_classes)


def generate_two_moons(n: int, noise: float, seed: int) -> Dataset:
    """Two interleaved half-circles with Gaussian jitter.

    Class 0 lies on the unit upper half-circle centered at the origin;
    class 1 on the lower half-circle centered at (1, 0.5). noise = 0 puts
    every point exactly on its arc.
    """
    if n < 4:
        raise DomainError("need at least 4 points")
    if not 0 <= noise < np.inf:  # NaN fails every compare
        raise DomainError("noise must be finite and nonnegative")
    rng = np.random.default_rng(seed)
    n0 = n // 2
    n1 = n - n0
    t0 = np.linspace(0.0, np.pi, n0)
    t1 = np.linspace(0.0, np.pi, n1)
    pts0 = np.stack([np.cos(t0), np.sin(t0)], axis=1)
    pts1 = np.stack([1.0 - np.cos(t1), 0.5 - np.sin(t1)], axis=1)
    features = np.concatenate([pts0, pts1], axis=0)
    labels = np.concatenate(
        [np.zeros(n0, dtype=np.int64), np.ones(n1, dtype=np.int64)]
    )
    if noise > 0:
        features = features + rng.normal(0.0, noise, size=features.shape)
    return _split(features, labels, 2, rng)


def load_digits_csv(path: str, seed: int = 0) -> Dataset:
    """8x8 grayscale digits from a local CSV: 64 pixel columns then a label.

    Pixel values 0..16 are scaled to [0, 1]. The split permutation comes
    from the seed, as with the synthetic data.
    """
    rows = []
    labels = []
    for lineno, line in csv_lines(path):
        row = line.split(",")
        if len(row) != 65:
            raise DomainError(
                f"{path}:{lineno}: expected 65 columns, got {len(row)}"
            )
        try:
            pixels = [float(v) for v in row[:64]]
            label = int(row[64])
        except ValueError as exc:
            raise DomainError(f"{path}:{lineno}: {exc}") from exc
        if not 0 <= label <= 9:
            raise DomainError(f"{path}:{lineno}: label {label} out of range")
        rows.append(pixels)
        labels.append(label)
    if len(rows) < 4:
        raise DomainError("need at least 4 rows")
    features = np.asarray(rows, dtype=np.float64) / 16.0
    labels = np.asarray(labels, dtype=np.int64)
    rng = np.random.default_rng(seed)
    return _split(features, labels, 10, rng)
