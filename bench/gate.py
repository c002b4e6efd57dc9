"""Per-op correctness gate: output digests, goldens and the scalar route.

Every op's output bits are hashed. A digest must equal the golden recorded
from the seed commit for that seed and op, when there is one, and otherwise
the digest the same op gave the first time it ran in this process; such a
run also checks the first round of an anchor seed against its goldens
(run.check_anchor). Sampled entries of each distinct op are recomputed
independently through the scalar route: Lfsr words, encode_with_words,
unit_cell_multiply at f_scale or f_scale_with_lr.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

GOLDENS = Path(__file__).resolve().parent / "goldens.json"


def digest(*parts) -> str:
    """Hash of arrays (dtype, shape and raw bits) and plain values."""
    h = hashlib.blake2b(digest_size=12)
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(f"{part.dtype.str}{part.shape}".encode())
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(repr(part).encode())
        h.update(b"|")
    return h.hexdigest()


def load_goldens(workload: str, seed: int) -> dict[str, str]:
    if not GOLDENS.is_file():
        return {}
    table = json.loads(GOLDENS.read_text())
    return table.get(workload, {}).get(str(seed), {})


class Gate:
    """Tracks which op keys produced wrong output, and why."""

    def __init__(self, goldens: dict[str, str]):
        self.expected = dict(goldens)
        self.golden_keys = set(goldens)
        self.bad: set[str] = set()
        self.failures: list[str] = []
        self.scalar_entries = 0

    def fail(self, key: str, why: str) -> None:
        self.bad.add(key)
        if len(self.failures) < 20:
            self.failures.append(f"{key}: {why}")

    def check_digest(self, key: str, value: str) -> bool:
        want = self.expected.setdefault(key, value)
        if value != want:
            source = "golden" if key in self.golden_keys else "first run"
            self.fail(key, f"digest {value} differs from {source} {want}")
            return False
        return True

    def check_equal(self, key: str, what: str, got, want) -> bool:
        if got != want:
            self.fail(key, f"{what}: got {got!r}, expected {want!r}")
            return False
        return True


def ceil_exponent(values: np.ndarray) -> int:
    """Smallest E with max |v| <= 2^E, for a vector with a nonzero entry."""
    frac, exp = math.frexp(float(np.max(np.abs(values.astype(np.float64)))))
    return exp - 1 if frac == 0.5 else exp


def _scale(scop, lr, e_x: int, e_d: int, seq_len: int):
    if lr is None:
        return scop.unit_cell.f_scale(e_x, e_d, seq_len)
    return scop.unit_cell.f_scale_with_lr(lr, e_x, e_d, seq_len)


def scalar_entries(scop, x, d, seq_len, seed_x, seed_d, lr, cells) -> list[int]:
    """binary16 bits of entries (j, i) of one job, by the scalar route."""
    words_x = scop.lfsr.Lfsr(seed_x).next_words(seq_len)
    words_d = scop.lfsr.Lfsr(seed_d).next_words(seq_len)
    e_x, e_d = ceil_exponent(x), ceil_exponent(d)
    scale = _scale(scop, lr, e_x, e_d, seq_len)
    enc = scop.encoder.encode_with_words
    return [
        scop.unit_cell.unit_cell_multiply(
            enc(float(d[j]), e_d, words_d), enc(float(x[i]), e_x, words_x), scale
        ).bits
        for j, i in cells
    ]


def scalar_moments(scop, x, d, seq_len, trials, base_x, base_d, cells):
    """(mean, variance) of entries (j, i) over seed pairs, by the scalar route.

    Every sample of one entry is a count times the same power of two, so the
    sums below are exact and must match the engine's bit for bit.
    """
    e_x, e_d = ceil_exponent(x), ceil_exponent(d)
    scale = _scale(scop, None, e_x, e_d, seq_len)
    enc = scop.encoder.encode_with_words
    samples = [[] for _ in cells]
    for t in range(trials):
        sx, sd = scop.engine.derive_seed_pair(base_x, base_d, t)
        words_x = scop.lfsr.Lfsr(sx).next_words(seq_len)
        words_d = scop.lfsr.Lfsr(sd).next_words(seq_len)
        for out, (j, i) in zip(samples, cells):
            bits = scop.unit_cell.unit_cell_multiply(
                enc(float(d[j]), e_d, words_d), enc(float(x[i]), e_x, words_x), scale
            ).bits
            out.append(float(np.uint16(bits).view(np.float16)))
    moments = []
    for values in samples:
        mean = math.fsum(values) / trials
        var = (math.fsum(v * v for v in values) - trials * mean * mean) / (trials - 1)
        moments.append((mean, max(var, 0.0)))
    return moments
