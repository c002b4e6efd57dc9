"""Encoder tests: golden streams, order statistics, and structural checks."""

import ast
import inspect
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import scop.encoder as encoder_module
from scop.errors import DomainError
from scop.encoder import (
    MAX_SEQ_LEN,
    StochasticSequence,
    encode,
    encode_with_words,
    probability_of,
    threshold,
    vector_exponent,
)
from scop.lfsr import PERIOD, Lfsr
from scop.lfsr import word_matrix
from scop.encoder import encode_levels


def pack_row(row: np.ndarray) -> int:
    """Pack one bool row (LSB-first) into the integer form used by scalars."""
    out = 0
    for k in range(row.shape[0] - 1, -1, -1):
        out = (out << 1) | int(row[k])
    return out


def test_golden_stream():
    seq = encode(0.5, 0, Lfsr(0xACE1), 8)
    assert seq.bits == 0xD1  # events 1, 5, 7, 8 fire (LSB first)
    assert seq.sign == 0
    assert seq.popcount == 4


def test_zero_maps_to_empty_stream_any_seed():
    for seed in (0xACE1, 0x1234, 0xFFFF):
        seq = encode(0.0, 3, Lfsr(seed), 16)
        assert seq.bits == 0
        assert seq.sign == 0


def test_zero_still_consumes_all_draws():
    rng = Lfsr(0xACE1)
    encode(0.0, 0, rng, 16)
    assert rng.draws == 16


def test_negative_zero_is_positive_zero():
    seq = encode(-0.0, 0, Lfsr(0xACE1), 8)
    assert seq.bits == 0
    assert seq.sign == 0


def test_sign_separation():
    pos = encode(0.75, 0, Lfsr(0xACE1), 16)
    neg = encode(-0.75, 0, Lfsr(0xACE1), 16)
    assert pos.bits == neg.bits  # magnitude drives the bits
    assert (pos.sign, neg.sign) == (0, 1)


def test_full_scale_always_fires():
    # |x| = 2^E: threshold w/2^16 * 2^E <= 2^E for every word
    seq = encode(1.0, 0, Lfsr(0x1234), 16)
    assert seq.bits == 0xFFFF
    seq = encode(-4.0, 2, Lfsr(0x1234), 8)
    assert seq.bits == 0xFF and seq.sign == 1


def test_domination_order():
    """A larger magnitude fires a superset of a smaller one on shared words."""
    rng = Lfsr(0xBEEF)
    words = rng.next_words(64)
    prev = 0
    for mag in (0.1, 0.25, 0.5, 0.9, 1.0):
        bits = encode_with_words(mag, 0, words).bits
        assert bits & prev == prev
        prev = bits


def test_out_of_range_rejected():
    with pytest.raises(DomainError):
        encode(1.5, 0, Lfsr(0xACE1), 8)
    with pytest.raises(DomainError):
        encode(-0.51, -1, Lfsr(0xACE1), 8)
    with pytest.raises(DomainError):
        encode(math.nan, 0, Lfsr(0xACE1), 8)


def test_stream_length_bound():
    assert encode(0.5, 0, Lfsr(0xACE1), MAX_SEQ_LEN).seq_len == MAX_SEQ_LEN
    for bad in (0, MAX_SEQ_LEN + 1, 5000):
        rng = Lfsr(0xACE1)
        with pytest.raises(DomainError):
            encode(0.5, 0, rng, bad)
        assert rng.draws == 0  # rejected before drawing


def test_boundary_value_is_in_range():
    encode(math.ldexp(1.0, -3), -3, Lfsr(0xACE1), 4)  # |x| == 2^E allowed


def test_probability_of():
    assert probability_of(0.5, 0) == 0.5
    assert probability_of(-0.5, 0) == 0.5
    assert probability_of(0.5, 1) == 0.25
    assert probability_of(0.0, 5) == 0.0
    assert probability_of(2.0, 1) == 1.0
    with pytest.raises(DomainError):
        probability_of(3.0, 1)


@pytest.mark.parametrize("x, exponent, bits", [
    (3.0, 1100, 0b00),  # every threshold lies beyond the float range: no event fires
    (-3.0, 1100, 0b00),
    (0.0, 1024, 0b00),
    (0.0, -2000, 0b00),  # only zero lies within 2^-2000
    (2.0**1023, 1023, 0b11),  # |x| == 2^E fires every word
    (1.7976931348623157e308, 1024, 0b11),  # the largest float
    (5e-324, -1074, 0b11),  # the least subnormal, at its own exponent
])
def test_exponents_past_the_float_range_decide_every_event(x, exponent, bits):
    seq = encode_with_words(x, exponent, [1, 0xFFFF])
    assert (seq.bits, seq.sign) == (bits, int(x < 0))
    assert probability_of(x, exponent) == math.ldexp(abs(x), -exponent)  # no OverflowError


@pytest.mark.parametrize("x, exponent", [
    (1e-300, -1100), (2.0**1023 * 1.5, 1023), (5e-324, -1075), (1.0, -10**30),
])
def test_an_operand_beyond_any_exponent_is_a_domain_error(x, exponent):
    with pytest.raises(DomainError, match="exceeds"):
        encode_with_words(x, exponent, [1])
    with pytest.raises(DomainError, match="exceeds"):
        probability_of(x, exponent)


@pytest.mark.parametrize("integer", [np.int64, np.int32, int])
def test_a_numpy_integer_exponent_works_as_an_int(integer):
    """ceil_exponents returns numpy integers; ldexp alone takes only a Python int."""
    assert probability_of(0.5, integer(0)) == probability_of(0.5, 0) == 0.5
    assert threshold(0x8000, integer(2)) == threshold(0x8000, 2) == 2.0
    assert threshold(1, integer(1100)) == math.inf
    words = [1, 0x4000, 0x8000, 0xFFFF]
    for x, exponent in ((0.3, -1), (-0.75, 0), (2.0**-20, -20), (0.0, 3)):
        want = encode_with_words(x, exponent, words)
        assert encode_with_words(x, integer(exponent), words) == want
        assert probability_of(x, integer(exponent)) == probability_of(x, exponent)
    with pytest.raises(DomainError, match="exceeds 2\\^-2"):
        encode_with_words(0.5, integer(-2), words)


@pytest.mark.parametrize("exponent", [1.0, np.float64(0), 0.5])
def test_a_float_exponent_is_rejected(exponent):
    for call in (lambda: probability_of(0.5, exponent), lambda: threshold(0x8000, exponent),
                 lambda: encode_with_words(0.5, exponent, [1]),
                 lambda: encode_with_words(0.0, exponent, [1])):
        with pytest.raises(TypeError):
            call()


def test_a_threshold_beyond_the_float_range_is_inf():
    assert threshold(0xFFFF, 1024) == math.ldexp(0xFFFF, 1008)  # still finite
    assert threshold(1, 1100) == math.inf  # above every finite |x|
    assert threshold(0, 1100) == 0.0


def test_vector_exponent():
    e = vector_exponent([0.1, -0.6, 0.3])
    assert type(e) is int and e == 0
    assert vector_exponent([0.5, 0.25]) == -1  # max is a power of two
    assert vector_exponent([1.5, -2.0]) == 1
    assert vector_exponent([3.0]) == 2
    assert vector_exponent([0.0, 0.0]) == 0
    with pytest.raises(DomainError):
        vector_exponent([])
    with pytest.raises(DomainError):
        vector_exponent([math.inf])


@given(st.lists(st.floats(min_value=-100, max_value=100), min_size=1, max_size=8))
def test_vector_exponent_bounds_all_entries(values):
    e = vector_exponent(values)
    if any(values):
        peak = max(abs(v) for v in values)
        assert peak <= math.ldexp(1.0, e)
        assert peak > math.ldexp(1.0, e - 1)


def test_threshold_is_exponent_arithmetic():
    assert threshold(0x8000, 0) == 0.5
    assert threshold(0x8000, 2) == 2.0
    assert threshold(1, 0) == 2.0 ** -16
    assert threshold(0, 5) == 0.0


def test_encode_path_has_no_multiply_or_divide():
    """The comparator path must be built from exponent adjustment only."""
    banned = (ast.Mult, ast.Div, ast.FloorDiv)
    for fn in (threshold, encode_with_words):
        tree = ast.parse(inspect.getsource(fn))
        for node in ast.walk(tree):
            if isinstance(node, ast.BinOp) and isinstance(node.op, banned):
                raise AssertionError(
                    f"{fn.__name__} uses {type(node.op).__name__} at line {node.lineno}"
                )


def test_sequence_invariants():
    seq = StochasticSequence(0b1011, 1, 4)
    assert seq.popcount == 3
    assert [(seq.bits >> k) & 1 for k in range(4)] == [1, 1, 0, 1]  # event k is bit k
    with pytest.raises(DomainError):
        StochasticSequence(0b10000, 0, 4)  # bits wider than seq_len
    with pytest.raises(DomainError):
        StochasticSequence(0, 2, 4)


def test_matrix_rows_match_scalar_encoding():
    values = np.array([0.3, -0.7, 0.0, 1.0, -0.0001], dtype=np.float64)
    words = Lfsr(0x7777).next_words(24)
    bits = encode_levels(np.abs(values), 0)[:, None] >= words  # the engine's compare
    assert bits.shape == (5, 24)
    for i, v in enumerate(values):
        assert pack_row(bits[i]) == encode_with_words(float(v), 0, words).bits


@given(
    st.floats(min_value=-1.0, max_value=1.0),
    st.integers(min_value=1, max_value=0xFFFF),
    st.integers(min_value=1, max_value=64),
)
def test_popcount_scales_with_magnitude(x, seed, seq_len):
    seq = encode(x, 0, Lfsr(seed), seq_len)
    assert 0 <= seq.popcount <= seq_len
    if abs(x) == 1.0:
        assert seq.popcount == seq_len
    if x == 0:
        assert seq.popcount == 0


def test_full_period_frequency_equals_exact_word_count():
    """Over one whole period the 1s count is exactly the number of words
    at or below the scaled magnitude, since each word shows up once."""
    x = 0.599609375  # float16(0.6); x * 2^16 = 39296 exactly
    rng = Lfsr(0xACE1)
    ones = 0
    for _ in range(PERIOD):
        ones += encode_with_words(x, 0, [rng.next_word()]).bits
    assert ones == 39296  # words 1..39296 all fire; word 0 never occurs


def test_matrix_batch_rows_match_scalar_encoding():
    rng = np.random.default_rng(11)
    exponents = np.array([0, 3, -2])
    values = rng.uniform(-1, 1, (3, 5)) * np.exp2(exponents)[:, None]
    values[1, 2] = 0.0
    values[2, 0] = -(2.0 ** -2)  # at its job's bound
    words = word_matrix(np.array([0x7777, 0x0101, 0xFFFF]), 24)
    bits = encode_levels(np.abs(values), exponents[:, None])[..., None] >= words[:, None, :]
    assert bits.shape == (3, 5, 24)
    for b in range(3):
        for i in range(5):
            ref = encode_with_words(float(values[b, i]), int(exponents[b]), words[b])
            assert pack_row(bits[b, i]) == ref.bits, (b, i)


@pytest.mark.parametrize("exponent", [-24, -15, -1, 0, 5, 16])
def test_matrix_levels_match_the_threshold_rule_on_every_float16(exponent):
    """Every binary16 magnitude up to 2^E against the extreme and 62 other words."""
    mags = np.arange(0x7C00, dtype=np.uint16).view(np.float16).astype(np.float64)
    mags = mags[mags <= 2.0**exponent]
    words = np.concatenate(([1, 0xFFFF], word_matrix([0xACE1], 62)[0]))
    bits = encode_levels(mags, exponent)[:, None] >= words
    assert (bits == (mags[:, None] >= np.ldexp(words.astype(np.float64), exponent - 16))).all()


@pytest.mark.parametrize("exponent", [-24, -15, -1, 0, 5, 16])
def test_levels_match_the_threshold_rule_on_every_float16(exponent):
    """The level is the last word the ldexp rule fires for, so it decides every word alike."""
    mags = np.arange(0x7C00, dtype=np.uint16).view(np.float16).astype(np.float64)
    mags = mags[mags <= 2.0**exponent]
    levels = encode_levels(mags, exponent)
    assert levels.dtype == np.uint16
    fires = lambda m, w: m >= np.ldexp(np.asarray(w, dtype=np.float64), exponent - 16)
    assert (fires(mags, np.maximum(levels, 1)) | (levels == 0)).all()  # the level's word fires
    assert (~fires(mags, levels + 1.0) | (levels == 0xFFFF)).all()  # and the next one does not
    words = np.concatenate(([1, 0xFFFF], word_matrix([0xACE1], 62)[0]))
    assert ((levels[:, None] >= words) == fires(mags[:, None], words)).all()
    per_entry = encode_levels(mags, np.full(mags.shape, exponent))  # as the engine calls it
    assert np.array_equal(per_entry, levels)


@pytest.mark.parametrize("seq_len", [2.0, 0, "4", None])
def test_sequence_length_must_be_a_positive_integer(seq_len):
    with pytest.raises(DomainError):
        StochasticSequence(1, 0, seq_len)  # 2.0 once raised a bare TypeError


@pytest.mark.parametrize("bits, sign", [(1.0, 0), (1, 1.0), (-1, 0), ("1", 0), (1, None)], ids=repr)
def test_sequence_bits_and_sign_must_be_integers(bits, sign):
    with pytest.raises(DomainError):  # 1.0 once built, then failed in popcount or the cell
        StochasticSequence(bits, sign, 4)
    seq = StochasticSequence(np.uint16(0b1011), np.int64(1), 4)
    assert seq.popcount == 3
