"""Binary16 codec tests.

numpy's float16 is the independent oracle: the hand-written codec must agree
with it on every one of the 65536 bit patterns and on rounding arbitrary
doubles. The two implementations share no code.
"""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, strategies as st

from scop.errors import DomainError
from scop.fp16 import (
    EXP_BIAS,
    MAX_FINITE,
    MAX_FINITE_BITS,
    MIN_SUBNORMAL,
    ceil_exponents,
    decode_bits,
    floor_exponents,
)
from scop.oracle import encode_value, quantize


def test_decode_all_patterns_match_numpy():
    bits = np.arange(1 << 16, dtype=np.uint16)
    reference = bits.view(np.float16).astype(np.float64)
    for b in range(1 << 16):
        ours = decode_bits(b)
        ref = float(reference[b])
        if math.isnan(ref):
            assert math.isnan(ours), hex(b)
        else:
            assert ours == ref, hex(b)
            # signed zero must keep its sign
            if ref == 0.0:
                assert math.copysign(1.0, ours) == math.copysign(1.0, ref), hex(b)


def test_encode_roundtrips_all_finite_patterns():
    for b in range(1 << 16):
        if (b & 0x7C00) == 0x7C00 and (b & 0x03FF):
            continue  # NaN payloads do not round-trip by value
        assert encode_value(decode_bits(b)) == b, hex(b)


@given(st.floats(allow_nan=False, allow_infinity=False, width=64))
def test_encode_matches_numpy_on_doubles(x):
    ours = encode_value(x)
    with np.errstate(over="ignore"):
        ref = int(np.float64(x).astype(np.float16).view(np.uint16))
    assert ours == ref, (x, hex(ours), hex(ref))


@given(st.integers(min_value=0, max_value=(1 << 64) - 1))
def test_encode_matches_numpy_on_raw_doubles(bits):
    x = struct.unpack("<d", struct.pack("<Q", bits))[0]
    ours = encode_value(x)
    if math.isnan(x):
        assert (ours & 0x7C00) == 0x7C00 and (ours & 0x03FF) != 0
        return
    with np.errstate(over="ignore"):
        ref = int(np.float64(x).astype(np.float16).view(np.uint16))
    assert ours == ref, (x, hex(ours), hex(ref))


def test_quantize_examples():
    # 0.3 sits between 1228/4096 and 1229/4096; the upper one is 4x nearer
    assert quantize(0.3) == 0.300048828125
    assert quantize(1.0) == 1.0
    assert quantize(65504.0) == 65504.0
    assert quantize(65520.0) == math.inf  # ties away across the finite edge
    assert quantize(65519.9) == 65504.0
    assert quantize(2.0 ** -24) == MIN_SUBNORMAL
    assert quantize(2.0 ** -26) == 0.0  # below half the smallest subnormal
    assert quantize(-0.0) == 0.0 and math.copysign(1, quantize(-0.0)) == -1.0


def test_rounding_is_ties_to_even():
    # halfway between 1.0 and 1.0009765625 (ulp = 2^-10)
    assert quantize(1.0 + 2.0 ** -11) == 1.0
    # halfway between 1.0009765625 and 1.001953125 rounds up to even mantissa
    assert quantize(1.0009765625 + 2.0 ** -11) == 1.001953125


def test_constants():
    assert decode_bits(MAX_FINITE_BITS) == MAX_FINITE == 65504.0
    assert decode_bits(0x0001) == MIN_SUBNORMAL == 2.0 ** -24
    assert decode_bits(0x7C00) == math.inf
    assert decode_bits(0xFC00) == -math.inf
    assert EXP_BIAS == 15


def test_exponent_ceil():
    assert ceil_exponents(1.0) == 0
    assert ceil_exponents(0.5) == -1
    assert ceil_exponents(0.50001) == 0
    assert ceil_exponents(1.5) == 1
    assert ceil_exponents(2.0) == 1
    assert ceil_exponents(65504.0) == 16
    with pytest.raises(DomainError):
        ceil_exponents(0.0)
    with pytest.raises(DomainError):
        ceil_exponents(-1.0)
    with pytest.raises(DomainError):
        ceil_exponents(math.inf)


@given(st.floats(min_value=1e-300, max_value=1e300))
def test_exponent_ceil_is_tight(v):
    e = int(ceil_exponents(v))
    assert v <= math.ldexp(1.0, e)
    assert v > math.ldexp(1.0, e - 1)


def test_floor_pow2():
    assert floor_exponents(1.0) == 0
    assert floor_exponents(1.5) == 0
    assert floor_exponents(2.0) == 1
    assert floor_exponents(0.3333333333333333) == -2
    assert floor_exponents(0.0625) == -4
    with pytest.raises(DomainError):
        floor_exponents(0.0)


@given(st.floats(min_value=1e-300, max_value=1e300))
def test_floor_pow2_is_tight(v):
    s = math.ldexp(1.0, int(floor_exponents(v)))
    assert s <= v < 2 * s


@given(st.lists(st.floats(min_value=5e-324, max_value=1e300), min_size=1, max_size=16))
def test_array_exponents_are_tight_elementwise(values):
    v = np.array(values)
    ceil = ceil_exponents(v)
    floor = floor_exponents(v)
    assert np.all(v <= np.ldexp(1.0, ceil)) and np.all(v > np.ldexp(1.0, ceil - 1))
    assert np.all(np.ldexp(1.0, floor) <= v) and np.all(v < np.ldexp(1.0, floor + 1))
    assert [int(ceil_exponents(x)) for x in values] == ceil.tolist()
    assert [int(floor_exponents(x)) for x in values] == floor.tolist()


@pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
def test_array_exponents_reject_any_bad_element(bad):
    for fn in (ceil_exponents, floor_exponents):
        with pytest.raises(DomainError, match=repr(bad)):
            fn(np.array([0.5, bad, 2.0]))


@pytest.mark.parametrize(
    "bits, want",
    [
        (0x7FF0_0400_0000_0000, 0x7C01),  # only payload bit 42: kept as is
        (0x7FF0_0000_0000_0001, 0x7C01),  # top ten payload bits zero: becomes 1
        (0xFFF0_0000_0000_0001, 0xFC01),  # the sign stays
        (0x7FF8_0000_0000_0000, 0x7E00),  # the quiet bit is payload too
        (0xFFFF_FFFF_FFFF_FFFF, 0xFFFF),
    ],
)
def test_encode_nan_keeps_numpys_payload_rule(bits, want):
    x = struct.unpack("<d", struct.pack("<Q", bits))[0]
    assert encode_value(x) == want
    assert int(np.float64(x).astype(np.float16).view(np.uint16)) == want


@pytest.mark.parametrize(
    "x, want",
    [
        (2.0**-25, 0x0000),  # exactly half the smallest subnormal: ties to even
        (2.0**-25 * (1 + 2.0**-52), 0x0001),  # the sticky bit breaks the tie upward
        (-(2.0**-25) * (1 + 2.0**-52), 0x8001),
        (2.0**-24 * (1 + 2.0**-50), 0x0001),
        (3 * 2.0**-25 * (1 - 2.0**-52), 0x0001),  # just below 1.5 ulp rounds down
    ],
)
def test_encode_subnormal_sticky_bit(x, want):
    assert encode_value(x) == want
    assert int(np.float64(x).astype(np.float16).view(np.uint16)) == want
