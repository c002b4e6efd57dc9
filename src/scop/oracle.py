"""Reference answers the stochastic datapath is judged against.

Three independent routes:

* exact_outer: the true outer product in float64.
* analytic_moments: closed-form mean and variance of a single cell's output
  under the idealized event probabilities p = |x|/2^E_X * |d|/2^E_D, with
  the folded power-of-two scale applied. Per event the AND of two streams is
  Bernoulli(p), so the popcount is Binomial(seq_len, p).
* enumerate_unit_cell: exhaustive enumeration over a reduced word space with
  exact rational arithmetic, assuming nothing about the distribution shape.

encode_value and quantize are a software binary16 encoder, built on the
double's bit layout alone: the reference that numpy's float16 rounding, and
so the datapath's output packing, is checked against.

empirical_stats runs the real engine over many seed pairs and reports
per-entry sample moments with a 95% confidence half-width.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .encoder import check_seq_len, probability_of
from .engine import derive_seed_pairs, outer_product_many
from .errors import ContractError, DomainError, is_int
from .fp16 import SIGN_MASK, as_binary16, decode_bits
from .unit_cell import f_scale, scale_exponents

# update entries per empirical_stats block: its float64 sums stay in cache
_BLOCK = 1 << 18
_MAX_TRIALS = 1 << 31  # empirical_stats' sums are exact below this many trials


def exact_outer(x, delta) -> np.ndarray:
    """Entry (j, i) = delta[j] * x[i] in float64."""
    x = np.asarray(x, dtype=np.float64)
    delta = np.asarray(delta, dtype=np.float64)
    if x.ndim != 1 or delta.ndim != 1:
        raise ContractError("x and delta must be 1-D vectors")
    return np.outer(delta, x)


def analytic_moments(
    x: float,
    delta: float,
    e_x: int,
    e_delta: int,
    seq_len: int,
    lr: float | None = None,
) -> tuple[float, float]:
    """Mean and variance of one cell's output before binary16 rounding.

    count ~ Binomial(seq_len, p) with p = (|x|/2^E_X)(|d|/2^E_D); the cell
    emits sign * count * F, F the folded scale. Rounding of the packed
    output is not modeled (exact for counts in range, and the subnormal
    grid error is below every tolerance used here).
    """
    p = probability_of(x, e_x) * probability_of(delta, e_delta)
    f = math.ldexp(1.0, int(scale_exponents(e_x, e_delta, seq_len, lr)))
    sign = -1.0 if (x < 0) != (delta < 0) else 1.0
    mean = sign * f * seq_len * p
    variance = f * f * seq_len * p * (1.0 - p)
    return mean, variance


@dataclass(frozen=True)
class EstimatorStats:
    """Per-entry sample moments across independent seed pairs."""

    mean: np.ndarray
    variance: np.ndarray
    trials: int
    confidence_halfwidth: np.ndarray  # 1.96 * sqrt(variance / trials)


def empirical_stats(
    x,
    delta,
    seq_len: int,
    trials: int,
    base_seed_x: int = 0xACE1,
    base_seed_delta: int = 0x2C9F,
    lr: float | None = None,
) -> EstimatorStats:
    """Sample moments of the engine's update entries over `trials` seed pairs.

    Seed pairs come from derive_seed_pairs over counters 0..trials-1, so the
    schedule is deterministic and collision-free within a trial. trials is
    an integer from 2 to 2^31 - 1, the bound of the exactness argument below.

    Trials run and are summed in blocks of about _BLOCK entries, each block
    deriving its own seed pairs (counters lo..hi-1). The engine packs a
    block's entries straight into one float64 buffer, allocated once per
    call, which is then summed, squared in place and summed again, so no
    block allocates an entry array of its own. The block size cannot change a bit of the result:
    every trial shares x, delta and lr, so every entry packs at one
    scale 2^e, and each is k * q for q = 2^min(max(e, -24), 5) and an integer
    |k| <= 2048 (a subnormal rounds onto the 2^-24 grid, a saturated entry
    latches at 65504 = 2047 * 2^5). A partial sum of entries is then q, and
    one of their squares q^2, times an integer below 2^53 for fewer than
    2^31 trials. float64 holds each such sum exactly, so every order of
    adding gives the same bits. A block is one engine group, x and delta
    broadcast over its trials, so the engine encodes it once.
    """
    if not (is_int(trials, 2) and trials < _MAX_TRIALS):
        raise DomainError(f"trials must be an integer from 2 to 2^31 - 1, got {trials}")
    x, delta = as_binary16(x, "x"), as_binary16(delta, "delta")
    if x.ndim != 1 or delta.ndim != 1:
        raise ContractError("x and delta must be 1-D vectors")

    shape = (delta.size, x.size)
    total = np.zeros(shape, dtype=np.float64)
    total_sq = np.zeros(shape, dtype=np.float64)
    block = min(trials, max(1, _BLOCK // max(1, delta.size * x.size)))  # trials per block
    buffer = np.empty((block, *shape), dtype=np.float64)
    for lo in range(0, trials, block):
        hi = min(lo + block, trials)
        seeds = derive_seed_pairs(base_seed_x, base_seed_delta, np.arange(lo, hi))
        xs = np.broadcast_to(x, (hi - lo, x.size))
        ds = np.broadcast_to(delta, (hi - lo, delta.size))
        e64, _ = outer_product_many(xs, ds, seq_len, *seeds, lr, out=buffer[: hi - lo])
        total += e64.sum(axis=0)
        total_sq += np.multiply(e64, e64, out=e64).sum(axis=0)

    mean = total / trials
    variance = (total_sq - trials * mean * mean) / (trials - 1)
    np.maximum(variance, 0.0, out=variance)  # guard tiny negative residue
    halfwidth = 1.96 * np.sqrt(variance / trials)
    return EstimatorStats(mean, variance, trials, halfwidth)


def effective_probability(x: float, exponent: int, word_bits: int) -> Fraction:
    """Exact P(bit = 1) when words are i.i.d. uniform on {0 .. 2^word_bits - 1}.

    Counts the words w with |x| >= (w / 2^word_bits) * 2^exponent. For x != 0
    that is floor(q * 2^word_bits) + 1 words (capped at the word count),
    with q = |x| / 2^exponent; w = 0 always fires.
    """
    if word_bits < 1:
        raise DomainError("word_bits must be at least 1")
    if x == 0:
        return Fraction(0)
    space = 1 << word_bits
    q = Fraction(abs(x)) / Fraction(2) ** exponent
    if q > 1:
        raise DomainError("operand exceeds 2^exponent")
    hits = min(math.floor(q * space) + 1, space)
    return Fraction(hits, space)


def enumerate_unit_cell(
    x: float,
    delta: float,
    e_x: int,
    e_delta: int,
    seq_len: int,
    word_bits: int,
) -> tuple[Fraction, Fraction]:
    """Exact output mean and variance by brute force over all word tuples.

    Walks every combination of seq_len words per operand drawn from the
    reduced i.i.d. space {0 .. 2^word_bits - 1}, applies the encode rule and
    the AND/popcount/scale datapath with exact rationals, and returns the
    exact moments of the emitted value. Feasible only for tiny spaces;
    2 * seq_len * word_bits bits of state are enumerated.
    """
    check_seq_len(seq_len)
    if word_bits < 1 or 2 * seq_len * word_bits > 20:
        raise DomainError("word space too large to enumerate")
    space = 1 << word_bits
    qx = Fraction(abs(x)) / Fraction(2) ** e_x
    qd = Fraction(abs(delta)) / Fraction(2) ** e_delta
    if qx > 1 or qd > 1:
        raise DomainError("operand exceeds its exponent range")

    def bit(q: Fraction, w: int) -> int:
        # encode rule: fire when |x| >= (w / 2^word_bits) * 2^E, i.e. q >= w / space
        if q == 0:
            return 0
        return 1 if q >= Fraction(w, space) else 0

    bits_x = [bit(qx, w) for w in range(space)]
    bits_d = [bit(qd, w) for w in range(space)]

    # per-event outcome for every (w_x, w_d) pair; events are separate axes,
    # so tensor-summing one axis per event walks every word tuple exactly once
    event = np.array(
        [[a & b for b in bits_d] for a in bits_x], dtype=np.int64
    ).reshape(-1)
    counts = event
    for _ in range(seq_len - 1):
        counts = (counts[:, None] + event[None, :]).reshape(-1)

    outcomes = Fraction(space) ** (2 * seq_len)
    f = Fraction(2) ** f_scale(e_x, e_delta, seq_len)
    sign = -1 if (x < 0) != (delta < 0) else 1
    total = int(counts.sum())
    total_sq = int((counts * counts).sum())
    mean = sign * f * Fraction(total) / outcomes
    variance = f * f * Fraction(total_sq) / outcomes - mean * mean
    return mean, variance


POS_INF_BITS = 0x7C00
_D_EXP_MASK = 0x7FF0_0000_0000_0000  # binary64 exponent field
_D_FRAC_MASK = 0x000F_FFFF_FFFF_FFFF  # binary64 fraction field


def encode_value(value: float) -> int:
    """Nearest binary16 bit pattern for a float, round-to-nearest-even.

    Magnitudes above the max finite (65504) go to signed infinity,
    small magnitudes round gradually into the subnormal range, and
    -0.0 is preserved. NaN keeps its sign and the top ten payload bits,
    an all-zero top becoming 1 so it stays a NaN: numpy's float16 cast.
    """
    (d,) = struct.unpack("<Q", struct.pack("<d", value))
    h_sign = (d >> 48) & SIGN_MASK
    d_exp = d & _D_EXP_MASK

    if d_exp >= 0x40F0_0000_0000_0000:  # unbiased exponent >= 16
        if d_exp == _D_EXP_MASK:
            d_frac = d & _D_FRAC_MASK
            if d_frac:  # NaN
                return h_sign | POS_INF_BITS | ((d_frac >> 42) or 1)
        return h_sign | POS_INF_BITS  # infinity, or overflow

    if d_exp <= 0x3F00_0000_0000_0000:  # unbiased exponent <= -15: subnormal range
        if d_exp < 0x3E60_0000_0000_0000:  # magnitude < 2^-25: rounds to zero
            return h_sign
        # align the significand (with implicit one) so the result sits above bit 42
        d_sig = 0x0010_0000_0000_0000 | (d & _D_FRAC_MASK)
        shift = 1009 - (d_exp >> 52)
        sticky = d_sig & ((1 << shift) - 1)
        d_sig >>= shift
        if sticky:
            d_sig |= 1  # keep "above halfway" distinguishable from exact ties
        # add the half ULP (bit 41) unless exactly halfway to an even result
        if (d_sig & 0x7FF_FFFF_FFFF) != 0x200_0000_0000:
            d_sig += 0x200_0000_0000
        return h_sign | (d_sig >> 42)

    h_exp = (d_exp - 0x3F00_0000_0000_0000) >> 42
    d_sig = d & _D_FRAC_MASK
    if (d_sig & 0x7FF_FFFF_FFFF) != 0x200_0000_0000:
        d_sig += 0x200_0000_0000
    h = h_exp + (d_sig >> 42)  # rounding may carry into the exponent
    return h_sign | h  # h == 0x7C00 means rounded up to infinity, already correct


def quantize(value: float) -> float:
    """Nearest representable binary16 value (round-to-nearest-even)."""
    return decode_bits(encode_value(value))
