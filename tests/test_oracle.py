"""Oracle self-consistency: three routes to the same moments."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scop import oracle
from scop.engine import derive_seed_pairs, outer_product_many
from scop.errors import ContractError, DomainError
from scop.fp16 import MAX_FINITE
from scop.oracle import (
    analytic_moments,
    effective_probability,
    empirical_stats,
    enumerate_unit_cell,
    exact_outer,
)


def test_exact_outer_layout():
    x = [1.0, 2.0, 3.0]
    d = [10.0, -20.0]
    out = exact_outer(x, d)
    assert out.shape == (2, 3)  # rows follow delta
    assert out[0, 2] == 30.0
    assert out[1, 0] == -20.0


def test_analytic_moments_reference_case():
    mean, var = analytic_moments(0.6, -0.7, 0, 0, 16)
    assert math.isclose(mean, -0.42, rel_tol=1e-12)
    assert math.isclose(var, 0.42 * 0.58 / 16, rel_tol=1e-12)


def test_analytic_moments_signs():
    pp, _ = analytic_moments(0.5, 0.5, 0, 0, 16)
    nn, _ = analytic_moments(-0.5, -0.5, 0, 0, 16)
    pn, _ = analytic_moments(0.5, -0.5, 0, 0, 16)
    assert pp == nn == -pn == 0.25


def test_analytic_moments_zero_operand():
    mean, var = analytic_moments(0.0, 0.9, 0, 0, 16)
    assert mean == 0.0 and var == 0.0


def test_analytic_moments_respects_folded_scale():
    # seq_len = 3 folds 1/3 down to 1/4, shrinking the scale below exact
    mean, _ = analytic_moments(1.0, 1.0, 0, 0, 3)
    assert mean == 3 * 0.25  # count is deterministic 3, scale 2^-2


def test_analytic_moments_with_lr():
    mean, var = analytic_moments(0.5, 0.5, 0, 0, 16, lr=0.1)
    base_mean, base_var = analytic_moments(0.5, 0.5, 0, 0, 16)
    # folded lr 0.1 -> scale 2^-8, a factor 2^-4 below the unfolded 2^-4
    assert mean == base_mean * 2.0 ** -4
    assert var == base_var * 2.0 ** -8


def test_effective_probability_reduced_space():
    # 4-bit space: x fires for words 0 .. floor(16 q)
    assert effective_probability(0.5, 0, 4) == Fraction(9, 16)
    assert effective_probability(1.0, 0, 4) == Fraction(1)
    assert effective_probability(0.0, 0, 4) == Fraction(0)
    assert effective_probability(0.03, 0, 4) == Fraction(1, 16)  # word 0 fires
    assert effective_probability(0.6, 0, 4) == Fraction(10, 16)
    with pytest.raises(DomainError):
        effective_probability(1.5, 0, 4)


def test_enumerate_unit_cell_matches_binomial_closed_form():
    """The enumerator assumes nothing; the closed form assumes the AND of two
    streams is Bernoulli per event. They must agree exactly on the reduced
    space once the closed form is fed the effective probabilities."""
    for x, d in [(0.6, 0.7), (0.5, -0.5), (1.0, 0.3), (-0.2, -0.9)]:
        for m in (1, 2):
            mean, var = enumerate_unit_cell(x, d, 0, 0, m, word_bits=4)
            px = effective_probability(x, 0, 4)
            pd = effective_probability(d, 0, 4)
            p = px * pd
            f = Fraction(2) ** (-(m.bit_length() - 1))  # fold of 1/m, m a power of 2
            sign = -1 if (x < 0) != (d < 0) else 1
            assert mean == sign * f * m * p
            assert var == f * f * m * p * (1 - p)


def test_enumerate_unit_cell_zero_annihilates():
    mean, var = enumerate_unit_cell(0.0, 0.9, 0, 0, 2, word_bits=4)
    assert mean == 0 and var == 0


def test_enumerate_refuses_unbounded_spaces():
    with pytest.raises(DomainError):
        enumerate_unit_cell(0.5, 0.5, 0, 0, 16, word_bits=4)


def test_empirical_stats_halfwidth_invariant():
    x = np.array([0.3, -0.8], dtype=np.float16)
    d = np.array([0.5], dtype=np.float16)
    stats = empirical_stats(x, d, 8, trials=500)
    assert stats.mean.shape == (1, 2)
    assert np.all(stats.variance >= 0)
    expected = 1.96 * np.sqrt(stats.variance / stats.trials)
    assert np.allclose(stats.confidence_halfwidth, expected, rtol=0, atol=0)


def test_empirical_stats_is_deterministic():
    x = np.array([0.4], dtype=np.float16)
    d = np.array([0.9], dtype=np.float16)
    a = empirical_stats(x, d, 16, trials=300)
    b = empirical_stats(x, d, 16, trials=300)
    assert np.array_equal(a.mean, b.mean)
    assert np.array_equal(a.variance, b.variance)


def test_empirical_stats_chunking_is_invisible(monkeypatch):
    """Mean and variance bits do not depend on the block size: 4,097 trials in 1, 7 or 98 blocks."""
    default = oracle._BLOCK
    for x, d, lr in [
        ([0.4, -0.9, 0.25], [0.9, -0.5], None),  # a table linear in the count
        ([90.0, -60.0, 3.0], [-70.0, 20.0], 1e4),  # saturating: entries latch at 65504
        ([3.0, -2.5, 1.0], [-20.0, 11.0], 1e-9),  # scale 2^-27: counts round onto 2^-24
    ]:
        monkeypatch.setattr(oracle, "_BLOCK", default)
        want = empirical_stats(x, d, 16, trials=4097, lr=lr)
        for block in (1 << 12, 1 << 8):  # 682 and 42 trials of 6 entries a block
            monkeypatch.setattr(oracle, "_BLOCK", block)
            got = empirical_stats(x, d, 16, trials=4097, lr=lr)
            assert got.trials == want.trials == 4097
            assert np.array_equal(got.mean.view(np.uint64), want.mean.view(np.uint64)), (lr, block)
            assert np.array_equal(got.variance.view(np.uint64), want.variance.view(np.uint64)), (
                lr, block)


@pytest.mark.parametrize("lr", [None, 1e4, 1e-9])
def test_empirical_stats_blocks_match_one_float64_reduction(lr):
    """4,100 trials of 16 x 16 run in blocks of 1,024 and a short one; no bit may move."""
    rng = np.random.default_rng(5)
    x = rng.uniform(-100, 100, 16).astype(np.float16)
    d = rng.uniform(-100, 100, 16).astype(np.float16)
    trials = 4100
    stats = empirical_stats(x, d, 16, trials, lr=lr)

    sx, sd = derive_seed_pairs(0xACE1, 0x2C9F, np.arange(trials))
    entries, _ = outer_product_many(
        np.tile(x, (trials, 1)), np.tile(d, (trials, 1)), 16, sx, sd, lr
    )
    mags = np.abs(entries[entries != 0])
    if lr == 1e4:
        assert (mags == MAX_FINITE).all()  # every nonzero entry saturates
    if lr == 1e-9:
        assert mags.size and (mags < 2.0**-14).all()  # every nonzero entry is subnormal
    cells = entries.astype(np.float64).reshape(trials, -1).T
    total = np.array([math.fsum(c) for c in cells]).reshape(16, 16)
    total_sq = np.array([math.fsum(c * c) for c in cells]).reshape(16, 16)
    mean = total / trials
    variance = np.maximum((total_sq - trials * mean * mean) / (trials - 1), 0.0)
    assert np.array_equal(stats.mean.view(np.uint64), mean.view(np.uint64))
    assert np.array_equal(stats.variance.view(np.uint64), variance.view(np.uint64))


@pytest.mark.parametrize("x, d", [([], [0.5]), ([0.5], [])])
def test_empirical_stats_rejects_an_empty_operand(x, d):
    with pytest.raises(DomainError, match="nonempty"):  # not a ZeroDivisionError sizing blocks
        empirical_stats(x, d, 16, trials=4)


@pytest.mark.parametrize("x, d", [
    ([[0.5, 0.25]], [0.5]),  # once numpy's "operands could not be broadcast"
    (0.5, [0.5]),  # once taken as a 1-vector
    ([0.5], [[0.5], [0.25]]),
])
def test_empirical_stats_takes_only_vectors(x, d):
    with pytest.raises(ContractError, match="1-D"):
        empirical_stats(x, d, 16, trials=4)


def test_empirical_stats_needs_trials():
    with pytest.raises(DomainError):
        empirical_stats(
            np.array([0.5], dtype=np.float16),
            np.array([0.5], dtype=np.float16),
            16,
            trials=1,
        )


@settings(max_examples=25, deadline=None)
@given(
    st.floats(min_value=-1.0, max_value=1.0),
    st.floats(min_value=-1.0, max_value=1.0),
)
def test_enumerate_m1_word4_matches_direct_probability(x, d):
    """For m = 1 the cell value is a scaled Bernoulli; check from scratch."""
    mean, var = enumerate_unit_cell(x, d, 0, 0, 1, word_bits=4)
    p = effective_probability(x, 0, 4) * effective_probability(d, 0, 4)
    sign = -1 if (x < 0) != (d < 0) else 1
    assert mean == sign * p  # f_scale(0,0,1) = 1
    assert var == p - p * p


class _WorkBegan(Exception):
    pass


def test_empirical_stats_bounds_trials_below_2_to_the_31(monkeypatch):
    """Past 2^31 trials the sums may round: the count is refused before any seed is derived."""
    def derive(*args):
        raise _WorkBegan

    monkeypatch.setattr(oracle, "derive_seed_pairs", derive)
    for trials in (2**31, np.int64(2**40), 99999999999999999999):
        with pytest.raises(DomainError, match="integer"):
            empirical_stats([0.5], [0.5], 16, trials)
    with pytest.raises(_WorkBegan):  # the largest count, accepted
        empirical_stats([0.5], [0.5], 16, 2**31 - 1)


def test_empirical_stats_derives_each_blocks_seeds_in_its_block(monkeypatch):
    """4,100 trials of 16 x 16 run in blocks of 1,024: each derives counters lo..hi-1."""
    spans = []

    def derive(base_x, base_delta, counters):
        spans.append((int(counters[0]), len(counters)))
        return derive_seed_pairs(base_x, base_delta, counters)

    monkeypatch.setattr(oracle, "derive_seed_pairs", derive)
    empirical_stats(np.full(16, 0.5), np.full(16, 0.25), 16, 4100)
    assert spans == [(0, 1024), (1024, 1024), (2048, 1024), (3072, 1024), (4096, 4)]
