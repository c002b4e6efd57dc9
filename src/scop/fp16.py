"""Software model of IEEE 754 binary16 plus the power-of-two helpers the datapath uses.

Bit layout (MSB first), bias 15:

    [ S | E4 E3 E2 E1 E0 | M9 M8 M7 M6 M5 M4 M3 M2 M1 M0 ]

All arithmetic is modeled as decode -> exact double computation ->
round-to-nearest-even re-encode, so results are platform independent.
Subnormals round gradually (never flushed), values above 65504 in
magnitude encode to signed infinity.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

SIGN_MASK = 0x8000
EXP_MASK = 0x7C00
FRAC_MASK = 0x03FF
EXP_BIAS = 15

MAX_FINITE_BITS = 0x7BFF
MAX_FINITE = 65504.0
MIN_SUBNORMAL = 2.0 ** -24
POS_INF_BITS = 0x7C00

# double layout, used by the encoder below
_D_EXP_MASK = 0x7FF0_0000_0000_0000
_D_FRAC_MASK = 0x000F_FFFF_FFFF_FFFF


def decode_bits(bits: int) -> float:
    """Exact value of a binary16 bit pattern as a Python float."""
    sign = -1.0 if bits & SIGN_MASK else 1.0
    e = (bits & EXP_MASK) >> 10
    m = bits & FRAC_MASK
    if e == 0x1F:
        if m:
            return math.nan
        return sign * math.inf
    if e == 0:
        # subnormal: m * 2^-24 (exact in double)
        return sign * math.ldexp(m, -24)
    # normal: (1024 + m) * 2^(e - 15 - 10)
    return sign * math.ldexp(1024 + m, e - 25)


def encode_value(value: float) -> int:
    """Nearest binary16 bit pattern for a float, round-to-nearest-even.

    Magnitudes above the max finite (65504) go to signed infinity,
    small magnitudes round gradually into the subnormal range, and
    -0.0 is preserved. NaN encodes to a quiet NaN.
    """
    (d,) = struct.unpack("<Q", struct.pack("<d", value))
    h_sign = (d >> 48) & SIGN_MASK
    d_exp = d & _D_EXP_MASK

    if d_exp >= 0x40F0_0000_0000_0000:  # unbiased exponent >= 16
        if d_exp == _D_EXP_MASK:
            d_frac = d & _D_FRAC_MASK
            if d_frac:  # NaN: keep the top payload bits, force quiet
                h = 0x7C00 | (d_frac >> 42)
                if h == 0x7C00:
                    h |= 0x0200
                return h_sign | h
            return h_sign | POS_INF_BITS
        return h_sign | POS_INF_BITS  # overflow

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


@dataclass(frozen=True)
class PowerOfTwoScale:
    """An exact power of two, 2**exponent; multiplication by it is a shift."""

    exponent: int

    @property
    def value(self) -> float:
        return math.ldexp(1.0, self.exponent)


def _positive_finite(values) -> np.ndarray:
    v = np.asarray(values, dtype=np.float64)
    if not 0.0 < v.min() <= v.max() < math.inf:  # NaN fails every compare
        bad = v[~((v > 0.0) & (v < math.inf))]
        raise DomainError(f"expected a positive finite value, got {float(bad.flat[0])!r}")
    return v


def ceil_exponents(values) -> np.ndarray:
    """Smallest integers e with v <= 2**e, i.e. ceil(log2(v)), elementwise."""
    frac, exp = np.frexp(_positive_finite(values))  # v = frac * 2**exp, frac in [0.5, 1)
    return exp - (frac == 0.5)


def floor_exponents(values) -> np.ndarray:
    """Exponents of the largest powers of two <= v, elementwise."""
    return np.frexp(_positive_finite(values))[1] - 1


def exponent_ceil(v: float) -> int:
    """Smallest integer e with v <= 2**e, i.e. ceil(log2(v))."""
    return int(ceil_exponents(v))


def floor_pow2(v: float) -> PowerOfTwoScale:
    """Largest power of two <= v."""
    return PowerOfTwoScale(int(floor_exponents(v)))


def scale_value(value: float, scale: PowerOfTwoScale) -> float:
    """Binary16 multiplication by a power of two.

    The product is formed exactly (ldexp) and re-encoded, so subnormal
    results keep gradual-underflow rounding and out-of-range results
    follow the usual overflow-to-infinity rule.
    """
    return quantize(math.ldexp(value, scale.exponent))


def scale_bits(bits: int, scale: PowerOfTwoScale) -> int:
    """scale_value on raw bit patterns."""
    return encode_value(math.ldexp(decode_bits(bits), scale.exponent))
