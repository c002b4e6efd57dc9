"""IEEE 754 binary16 layout, decoding and the exponent helpers; a scale 2^e is the int e.

Bit layout (MSB first), bias 15:

    [ S | E4 E3 E2 E1 E0 | M9 M8 M7 M6 M5 M4 M3 M2 M1 M0 ]

Run-time rounding to binary16 is numpy's float16 cast (round to nearest
even, gradual underflow, overflow to infinity). The software encoder that
checks it, oracle.encode_value, lives with the other references.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

SIGN_MASK = 0x8000
EXP_MASK = 0x7C00
FRAC_MASK = 0x03FF
EXP_BIAS = 15

MAX_FINITE_BITS = 0x7BFF
MAX_FINITE = 65504.0
MIN_SUBNORMAL = 2.0 ** -24
MIN_NORMAL = 2.0 ** -14
ROUNDS_TO_INF = 65520.0  # the cast rounds from here up to inf: halfway from MAX_FINITE to 2^16


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

