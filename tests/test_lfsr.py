"""Generator tests against an independent bit-list register model."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from scop.errors import SeedError
from scop.lfsr import PERIOD, Lfsr, word_matrix
from scop.lfsr import _ring

# frozen first words from seed 0xACE1, one register snapshot per 16 shifts
GOLDEN_WORDS = [0x0877, 0xFB62, 0xB2B0, 0xE3E5, 0x7D35, 0xA2EE, 0x752E, 0x1BAB]


class BitRegister:
    """Reference model: the register as an explicit list of bits.

    bit[i] is register bit i (bit 15 is the input end). Shares nothing with
    the production implementation, including the tap mask trick.
    """

    def __init__(self, seed):
        self.bits = [(seed >> i) & 1 for i in range(16)]

    def shift(self):
        # taps 16, 15, 13, 4 read register bits 0, 1, 3, 12
        fb = self.bits[0] ^ self.bits[1] ^ self.bits[3] ^ self.bits[12]
        self.bits = self.bits[1:] + [fb]

    def word(self):
        for _ in range(16):
            self.shift()
        return sum(b << i for i, b in enumerate(self.bits))


def test_golden_words():
    rng = Lfsr(0xACE1)
    assert [rng.next_word() for _ in range(8)] == GOLDEN_WORDS


def test_matches_bit_register_model():
    rng = Lfsr(0xBEEF)
    ref = BitRegister(0xBEEF)
    for _ in range(200):
        assert rng.next_word() == ref.word()


def test_full_period_and_return():
    rng = Lfsr(0xACE1)
    seen = set()
    for _ in range(PERIOD):
        seen.add(rng.next_word())
    assert len(seen) == PERIOD  # every nonzero word exactly once
    assert 0 not in seen
    assert rng.register == 0xACE1
    assert rng.draws == PERIOD


def test_zero_seed_rejected():
    with pytest.raises(SeedError):
        Lfsr(0)
    with pytest.raises(SeedError):
        Lfsr(0x10000)
    with pytest.raises(SeedError):
        Lfsr(-1)


@given(st.integers(min_value=1, max_value=0xFFFF))
def test_state_never_reaches_zero(seed):
    rng = Lfsr(seed)
    for _ in range(64):
        assert rng.next_word() != 0


def test_determinism_same_seed_same_stream():
    a = [Lfsr(0x1234).next_word() for _ in range(50)]
    b = [Lfsr(0x1234).next_word() for _ in range(50)]
    assert a == b


def test_draw_counter():
    rng = Lfsr(0xACE1)
    rng.next_word()
    rng.next_words(7)
    assert rng.draws == 8


def test_next_words_equals_repeated_next_word():
    a = Lfsr(0x5A5A)
    b = Lfsr(0x5A5A)
    assert list(a.next_words(32)) == [b.next_word() for _ in range(32)]
    assert a.register == b.register


def test_next_word_walks_the_full_period_of_word_matrix():
    rng = Lfsr(0xACE1)
    words = [rng.next_word() for _ in range(PERIOD)]
    assert words == word_matrix([0xACE1], PERIOD)[0].tolist()
    assert rng.next_word() == GOLDEN_WORDS[0]  # the period wraps


def test_repr_shows_register_and_draws():
    rng = Lfsr(0xACE1)
    rng.next_words(3)
    assert repr(rng) == "Lfsr(register=0xb2b0, draws=3)"


def test_full_period_mean_is_balanced():
    rng = Lfsr(0xACE1)
    total = sum(rng.next_word() / 65536 for _ in range(PERIOD))
    assert abs(total / PERIOD - 0.5) < 1e-4


def test_word_matrix_matches_instances():
    seeds = np.array([0xACE1, 0x1234, 0xFFFF], dtype=np.uint16)
    mat = word_matrix(seeds, 10)
    for row, seed in zip(mat, seeds):
        ref = Lfsr(int(seed))
        assert list(row) == [ref.next_word() for _ in range(10)]


def test_word_matrix_rejects_zero_seed():
    with pytest.raises(SeedError):
        word_matrix(np.array([0xACE1, 0]), 4)


def test_ring_holds_every_nonzero_state_once_in_word_order():
    ring, pos = _ring()
    assert ring.size == PERIOD and 0 not in ring
    assert np.unique(ring).size == PERIOD
    assert np.array_equal(pos[ring], np.arange(PERIOD))
    rng = Lfsr(int(ring[-1]))
    assert [rng.next_word() for _ in range(3)] == list(ring[:3])  # the cycle closes


def test_next_words_wraps_past_one_period():
    n = PERIOD + 5
    a = Lfsr(0xBEEF)
    b = Lfsr(0xBEEF)
    words = a.next_words(n)
    assert list(words) == [b.next_word() for _ in range(n)]
    assert (a.register, a.draws) == (b.register, b.draws)
    row = word_matrix(np.array([0xBEEF, 0x0001]), n)[0]
    assert np.array_equal(row, words)


def test_next_words_zero_leaves_the_register():
    rng = Lfsr(0x1234)
    assert rng.next_words(0).size == 0
    assert (rng.register, rng.draws) == (0x1234, 0)
    with pytest.raises(ValueError):
        rng.next_words(-1)
    with pytest.raises(ValueError):
        word_matrix(np.array([0x1234]), -1)
    assert (rng.register, rng.draws) == (0x1234, 0)
