"""Bernoulli bitstream encoding of signed values against a shared exponent.

A value x with |x| <= 2^E is carried as (sign, bitstream): event k emits a 1
when |x| >= w_k / 2^16 * 2^E for the k-th pseudo-random word w_k, so
P(bit = 1) tracks |x| / 2^E. The threshold is built from the word by exponent
adjustment alone (ldexp), mirroring a comparator datapath with no multiplier
or divider; a threshold beyond the float range is inf, above every operand,
so any integer exponent works, a numpy one too (operator.index; a float is
a TypeError). encode_with_words is that reference; encode_levels shifts |x|
into a 16-bit level instead, which the engine compares with the words as
integers (level >= w), so every event is decided the same way. x = 0 is
the all-zero stream (no word is zero), which annihilates products
regardless of the partner stream.

Bitstreams are packed LSB-first: bit k of the integer is event k.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, is_int
from .fp16 import exponent_ceil
from .lfsr import WIDTH, Lfsr

# longest stream the unit cell's counter takes; every entry point checks it
MAX_SEQ_LEN = 2048


def check_seq_len(seq_len: int) -> None:
    """DomainError unless the stream length is an integer in [1, MAX_SEQ_LEN]."""
    if not (is_int(seq_len, 1) and seq_len <= MAX_SEQ_LEN):
        raise DomainError(f"seq_len must be an integer in [1, {MAX_SEQ_LEN}], got {seq_len}")


@dataclass(frozen=True)
class StochasticSequence:
    """A sign bit plus seq_len Bernoulli events packed into an int."""

    bits: int
    sign: int
    seq_len: int

    def __post_init__(self):
        if not is_int(self.seq_len, 1):
            raise DomainError(f"seq_len must be an integer of at least 1, got {self.seq_len!r}")
        if not (is_int(self.sign, 0) and self.sign <= 1):
            raise DomainError(f"sign must be 0 or 1, got {self.sign!r}")
        if not (is_int(self.bits, 0) and self.bits < 1 << self.seq_len):
            raise DomainError(f"bits must be an integer no wider than seq_len, got {self.bits!r}")

    @property
    def popcount(self) -> int:
        return self.bits.bit_count()


@dataclass(frozen=True)
class VectorExponent:
    """Shared normalization exponent for one vector."""

    exponent: int
    is_zero_vector: bool


def vector_exponent(values) -> VectorExponent:
    """Smallest E with max |v| <= 2^E; zero vectors report E = 0 and a flag."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise DomainError("expected a nonempty one-dimensional vector")
    if not np.all(np.isfinite(arr)):
        raise DomainError("vector entries must be finite")
    peak = float(np.max(np.abs(arr)))
    if peak == 0.0:
        return VectorExponent(0, True)
    return VectorExponent(exponent_ceil(peak), False)


def threshold(word: int, exponent: int) -> float:
    """w / 2^16 scaled by 2^E, composed by exponent adjustment only; inf past the float range."""
    try:
        return math.ldexp(word, operator.index(exponent) - WIDTH)
    except OverflowError:  # above every finite |x|: the event does not fire
        return math.inf


def encode_with_words(x: float, exponent: int, words) -> StochasticSequence:
    """Encode against caller-supplied pseudo-random words (one per event)."""
    exponent = _check_operand(x, exponent)
    if len(words) < 1:
        raise DomainError("need at least one word")
    sign = 1 if x < 0 else 0
    if x == 0:
        return StochasticSequence(0, 0, len(words))
    mag = abs(x)
    bits = 0
    for k, w in enumerate(words):
        if mag >= threshold(int(w), exponent):
            bits |= 1 << k
    return StochasticSequence(bits, sign, len(words))


def encode(x: float, exponent: int, rng: Lfsr, seq_len: int) -> StochasticSequence:
    """Draw seq_len words from rng and encode x.

    Always consumes exactly seq_len draws, including for x = 0: the
    comparator runs every cycle even when the answer is known.
    """
    check_seq_len(seq_len)
    return encode_with_words(x, exponent, rng.next_words(seq_len))


def probability_of(x: float, exponent: int) -> float:
    """Idealized event probability |x| / 2^E for an in-range operand."""
    return math.ldexp(abs(x), -_check_operand(x, exponent))


def encode_levels(magnitudes: np.ndarray, exponents) -> np.ndarray:
    """uint16 levels min(floor(m * 2^(16 - E)), 0xFFFF) of float64 magnitudes m <= 2^E."""
    # m >= w * 2^(E - 16) iff level >= w for each nonzero word w: the scaling is exact and
    # w an integer. m = 2^E caps at 0xFFFF, which is still >= every word.
    scaled = np.ldexp(magnitudes, WIDTH - exponents)
    return np.minimum(scaled, 0xFFFF, out=scaled).astype(np.uint16)  # truncation floors


def _check_operand(x: float, exponent: int) -> int:
    """The exponent as an int once x is finite and |x| <= 2^E; any integral type, not a float."""
    exponent = operator.index(exponent)
    if not math.isfinite(x):
        raise DomainError("operand must be finite")
    mantissa, power = math.frexp(abs(x))  # |x| > 2^E, decided without forming 2^E
    if x and power - (mantissa == 0.5) > exponent:
        raise DomainError(f"|x| = {abs(x)} exceeds 2^{exponent}")
    return exponent
