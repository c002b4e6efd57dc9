"""Unit cell tests: scale folding, packing exactness, and the AND/popcount law."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from scop.encoder import StochasticSequence
from scop.errors import ContractError, DomainError
from scop.oracle import quantize
from scop.unit_cell import (
    MAX_SEQ_LEN,
    f_scale,
    f_scale_with_lr,
    scale_exponents,
    shift_pack,
    unit_cell_multiply,
)


def test_f_scale_examples():
    assert f_scale(0, 0, 16) == -4
    assert f_scale(0, 0, 3) == -2  # 1/3 folds down to 1/4
    assert f_scale(1, -2, 8) == -4
    assert f_scale(0, 0, 1) == 0


def test_f_scale_with_lr_example():
    assert f_scale_with_lr(0.1, 0, 0, 16) == -8
    assert type(f_scale_with_lr(0.1, 0, 0, 16)) is int and type(f_scale(0, 0, 16)) is int
    # lr = 1 must agree with the unfolded scale
    assert f_scale_with_lr(1.0, 2, -1, 16) == f_scale(2, -1, 16)


# binary16's whole ceil-exponent range: 2^-24, its least subnormal, to 2^16 above its max finite
@given(
    st.integers(min_value=-24, max_value=16),
    st.integers(min_value=-24, max_value=16),
    st.integers(min_value=1, max_value=MAX_SEQ_LEN),
)
def test_f_scale_brackets_the_true_ratio(e_x, e_d, seq_len):
    true = math.ldexp(1.0, e_x + e_d) / seq_len
    s = math.ldexp(1.0, f_scale(e_x, e_d, seq_len))
    assert s <= true < 2 * s


def test_f_scale_rejects_bad_seq_len():
    with pytest.raises(DomainError):
        f_scale(0, 0, 0)
    with pytest.raises(DomainError):
        f_scale(0, 0, MAX_SEQ_LEN + 1)
    with pytest.raises(DomainError):
        f_scale_with_lr(0.0, 0, 0, 16)
    with pytest.raises(DomainError):
        f_scale_with_lr(-0.1, 0, 0, 16)


def test_a_scale_that_overflows_is_refused_without_a_warning():
    # lr * 2^3 is past float64; the inf is refused as a DomainError, not warned about
    with pytest.raises(DomainError, match=r"^scale at lr = 1e\+308: "):
        scale_exponents(2, 1, 16, 1e308)


def test_shift_pack_example():
    p = shift_pack(0, 5, -4)
    assert p.value == 0.3125
    assert p.bits == 0x3500
    assert not p.overflow and not p.underflow


def test_shift_pack_zero_count_is_positive_zero():
    for sign in (0, 1):
        p = shift_pack(sign, 0, -4)
        assert p.bits == 0x0000


def test_shift_pack_sign_bit():
    assert shift_pack(1, 5, -4).bits == 0xB500
    assert shift_pack(1, 5, -4).value == -0.3125


def test_shift_pack_exhaustive_against_quantized_multiply():
    """Every reachable (count, exponent) in the supported envelope packs to
    the same bits as multiplying then rounding. This pins the two routes --
    field manipulation versus arithmetic -- to each other exactly."""
    counts = np.arange(MAX_SEQ_LEN + 1, dtype=np.float64)
    for e in range(-14, 5):
        pos = np.ldexp(counts, e).astype(np.float16).view(np.uint16)
        neg = np.ldexp(-counts, e).astype(np.float16).view(np.uint16)
        neg[0] = 0x0000  # the cell emits +0 for an empty overlap, either sign
        for count in range(MAX_SEQ_LEN + 1):
            assert shift_pack(0, count, e).bits == int(pos[count]), (count, e)
            assert shift_pack(1, count, e).bits == int(neg[count]), (count, e)


def test_shift_pack_subnormal_rounding_matches_quantize():
    # exponents low enough that count * 2^e lands between subnormal steps
    for e in (-30, -28, -26):
        for count in (0, 1, 3, 5, 7, 100, 2047, 2048):
            for sign in (0, 1):
                packed = shift_pack(sign, count, e)
                signed = -count if sign else count
                expected = np.float64(math.ldexp(signed, e)).astype(np.float16)
                assert packed.bits == int(expected.view(np.uint16)), (
                    sign, count, e,
                )
                exact = math.ldexp(count, e)
                assert packed.underflow == (
                    count > 0 and abs(quantize(exact)) != exact
                )


def test_shift_pack_overflow_latches_max_finite():
    p = shift_pack(0, 2048, 10)  # 2^21, above max finite
    assert p.overflow
    assert p.bits == 0x7BFF
    n = shift_pack(1, 2048, 10)
    assert n.bits == 0xFBFF


def test_shift_pack_far_below_the_subnormal_range_rounds_to_zero():
    # every count is below 2^12, so each scale from 2^-36 down packs it like 2^-36
    p = shift_pack(1, 2048, -10**18)  # once built 1 << 10**18
    assert (p.bits, p.underflow) == (0x8000, True)
    for e in (-37, -44, -88, -224):
        for count in range(MAX_SEQ_LEN + 1):
            for sign in (0, 1):
                assert shift_pack(sign, count, e) == shift_pack(sign, count, -36), (
                    sign, count, e,
                )


def test_shift_pack_rejects_bad_inputs():
    with pytest.raises(DomainError):
        shift_pack(2, 1, 0)
    with pytest.raises(DomainError):
        shift_pack(0, -1, 0)
    with pytest.raises(DomainError):
        shift_pack(0, MAX_SEQ_LEN + 1, 0)


def test_unit_cell_example():
    a = StochasticSequence(0b1100, 0, 4)
    b = StochasticSequence(0b1010, 1, 4)
    result = unit_cell_multiply(a, b, -2)
    assert result.count == 1  # only event 4 overlaps
    assert result.sign == 1
    assert result.value == -0.25


def test_unit_cell_zero_annihilation():
    zero = StochasticSequence(0, 0, 8)
    other = StochasticSequence(0xFF, 1, 8)
    result = unit_cell_multiply(zero, other, 0)
    assert result.count == 0
    assert result.value == 0.0
    assert math.copysign(1.0, result.value) == 1.0


def test_unit_cell_full_overlap():
    a = StochasticSequence(0xFFFF, 0, 16)
    b = StochasticSequence(0xFFFF, 0, 16)
    result = unit_cell_multiply(a, b, f_scale(0, 0, 16))
    assert result.count == 16
    assert result.value == 1.0  # 16 * 2^-4


def test_unit_cell_length_mismatch():
    with pytest.raises(ContractError):
        unit_cell_multiply(
            StochasticSequence(0, 0, 4),
            StochasticSequence(0, 0, 8),
            0,
        )


@given(
    st.integers(min_value=0, max_value=0xFFFF),
    st.integers(min_value=0, max_value=0xFFFF),
    st.integers(min_value=0, max_value=1),
    st.integers(min_value=0, max_value=1),
)
def test_unit_cell_commutes(bits_a, bits_b, sign_a, sign_b):
    a = StochasticSequence(bits_a, sign_a, 16)
    b = StochasticSequence(bits_b, sign_b, 16)
    ab = unit_cell_multiply(a, b, -4)
    ba = unit_cell_multiply(b, a, -4)
    assert ab == ba


@given(
    st.integers(min_value=0, max_value=0xFFFF),
    st.integers(min_value=0, max_value=0xFFFF),
)
def test_count_bounded_by_each_operand(bits_a, bits_b):
    a = StochasticSequence(bits_a, 0, 16)
    b = StochasticSequence(bits_b, 0, 16)
    r = unit_cell_multiply(a, b, -4)
    assert r.count <= min(a.popcount, b.popcount)
