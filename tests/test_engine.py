"""Engine tests: draw audit, golden matrix, and per-cell agreement."""

import dataclasses
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import scop.train as train_module
from scop import engine
from scop.encoder import encode_levels, encode_with_words, vector_exponent
from scop.engine import (
    OuterProductJob,
    UpdateMatrix,
    apply_update,
    check_seed_pairs,
    derive_seed_pair,
    derive_seed_pairs,
    outer_product,
    outer_product_groups,
    outer_product_many,
    sum_updates,
    trial_sums,
    _pack_table,
)
from scop.errors import ContractError, DomainError, SeedError
from scop.fp16 import MAX_FINITE
from scop.lfsr import Lfsr
from scop.train import TrainingConfig, train
from scop.unit_cell import (
    MAX_SEQ_LEN,
    f_scale,
    f_scale_with_lr,
    shift_pack,
    unit_cell_multiply,
)
from scop.engine import _checked_groups


@pytest.mark.parametrize("field", ["seed_delta", "seq_len", "x"])
def test_a_built_job_is_frozen(field):
    job = OuterProductJob(np.array([0.5]), np.array([0.25]), 16, 1, 2)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(job, field, 1)  # seed_delta = 1 once ran equal x and delta streams


def test_a_float16_operand_is_the_callers_array():
    x = np.array([0.5, -0.25], dtype=np.float16)
    d = np.array([1.0], dtype=np.float16)
    job = OuterProductJob(x, d, 16, 1, 2)
    assert job.x is x and job.delta is d


def test_outer_product_trusts_the_job_seeds(monkeypatch):
    import scop.engine as engine

    job = OuterProductJob(np.array([0.5]), np.array([0.25]), 16, 1, 2)
    calls = []
    monkeypatch.setattr(engine, "check_seeds", lambda *a: calls.append(a))
    assert outer_product(job).rng_draws == 32
    assert calls == []


def test_golden_job():
    job = OuterProductJob(
        np.array([0.5, -0.5]), np.array([1.0]), 16, 0xACE1, 0x1234
    )
    out = outer_product(job)
    # both operands sit at full scale for their exponents, so every event
    # fires and the result is exact: 16 * 2^(-1+0-4) = 0.5
    assert out.entries.tolist() == [[0.5, -0.5]]
    assert out.rng_draws == 32
    assert out.scale == -5 and type(out.scale) is int
    assert out.entries.shape == (1, 2)


def test_draw_audit_is_independent_of_width():
    """2 * seq_len draws for the whole job, regardless of vector sizes."""
    for n in (1, 64, 256):
        x = np.linspace(0.1, 0.9, n).astype(np.float16)
        d = np.linspace(-0.9, -0.1, n).astype(np.float16)
        out = outer_product(OuterProductJob(x, d, 8, 0xACE1, 0x2C9F))
        assert out.rng_draws == 16


def test_zero_vector_short_circuits_without_draws():
    x = np.zeros(4, dtype=np.float16)
    d = np.array([0.5, -0.5], dtype=np.float16)
    out = outer_product(OuterProductJob(x, d, 16, 0xACE1, 0x1234))
    assert out.rng_draws == 0
    assert out.scale is None
    assert not out.entries.any()
    assert out.entries.shape == (2, 4)


def test_zero_element_annihilates_its_row_and_column():
    x = np.array([0.5, 0.0, -0.25], dtype=np.float16)
    d = np.array([0.0, 0.5], dtype=np.float16)
    out = outer_product(OuterProductJob(x, d, 16, 0xACE1, 0x1234))
    assert not out.entries[:, 1].any()  # column of x == 0
    assert not out.entries[0, :].any()  # row of delta == 0
    assert out.rng_draws == 32  # elementwise zeros do not skip draws


def test_entries_match_scalar_unit_cells():
    """The vectorized path must reproduce the cell-by-cell datapath exactly."""
    x = np.array([0.3, -0.8, 0.0, 1.0], dtype=np.float16)
    d = np.array([-0.1, 0.7, 0.01], dtype=np.float16)
    seq_len = 32
    job = OuterProductJob(x, d, seq_len, 0xBEEF, 0x1357)
    out = outer_product(job)

    ex = vector_exponent(x)
    ed = vector_exponent(d)
    words_x = Lfsr(0xBEEF).next_words(seq_len)
    words_d = Lfsr(0x1357).next_words(seq_len)
    scale = f_scale(ex, ed, seq_len)
    for j in range(d.size):
        for i in range(x.size):
            a = encode_with_words(float(x[i]), ex, words_x)
            b = encode_with_words(float(d[j]), ed, words_d)
            cell = unit_cell_multiply(a, b, scale)
            got = int(out.entries[j, i].view(np.uint16))
            assert got == cell.bits, (i, j)


def test_determinism():
    x = np.array([0.3, -0.8], dtype=np.float16)
    d = np.array([0.6], dtype=np.float16)
    job = OuterProductJob(x, d, 16, 0xACE1, 0x1234)
    a = outer_product(job)
    b = outer_product(job)
    assert np.array_equal(a.entries.view(np.uint16), b.entries.view(np.uint16))
    assert a.rng_draws == b.rng_draws


def test_lr_folding_changes_scale_only():
    # full-scale operands: count is deterministically 16 in both jobs
    x = np.array([0.5], dtype=np.float16)
    d = np.array([0.5], dtype=np.float16)
    plain = outer_product(OuterProductJob(x, d, 16, 0xACE1, 0x1234))
    folded = outer_product(OuterProductJob(x, d, 16, 0xACE1, 0x1234, lr=0.1))
    assert plain.scale == -6
    assert folded.scale == -10  # floor-pow2(0.1 * 2^-6)
    assert float(plain.entries[0, 0]) == 0.25
    assert float(folded.entries[0, 0]) == 0.25 * 2.0 ** -4


def test_job_validation():
    x = np.array([0.5], dtype=np.float16)
    with pytest.raises(DomainError):
        OuterProductJob(x, x, 16, 0xACE1, 0xACE1)  # identical seeds
    with pytest.raises(DomainError):
        OuterProductJob(x, x, 16, 0, 0x1234)
    with pytest.raises(DomainError):
        OuterProductJob(x, x, 0, 0xACE1, 0x1234)
    with pytest.raises(DomainError):
        OuterProductJob(x, x, 4096, 0xACE1, 0x1234)
    with pytest.raises(DomainError):
        OuterProductJob(np.array([]), x, 16, 0xACE1, 0x1234)
    with pytest.raises(DomainError):
        OuterProductJob(x, x, 16, 0xACE1, 0x1234, lr=0.0)


def test_batch_matches_scalar_jobs():
    rng = np.random.default_rng(99)
    b = 40
    xs = rng.uniform(-2, 2, (b, 6)).astype(np.float16)
    ds = rng.uniform(-0.5, 0.5, (b, 3)).astype(np.float16)
    xs[5] = 0.0  # one short-circuited job
    sx, sd = derive_seed_pairs(0xACE1, 0x2C9F, np.arange(b))
    entries, draws = outer_product_many(xs, ds, 16, sx, sd)
    total = 0
    for i in range(b):
        ref = outer_product(
            OuterProductJob(xs[i], ds[i], 16, int(sx[i]), int(sd[i]))
        )
        total += ref.rng_draws
        assert np.array_equal(
            entries[i].view(np.uint16), ref.entries.view(np.uint16)
        ), i
    assert draws == total == 2 * 16 * (b - 1)


def test_batch_matches_scalar_jobs_with_lr():
    rng = np.random.default_rng(7)
    xs = rng.uniform(-1, 1, (10, 4)).astype(np.float16)
    ds = rng.uniform(-1, 1, (10, 2)).astype(np.float16)
    sx, sd = derive_seed_pairs(0x1111, 0x2222, np.arange(10))
    entries, _ = outer_product_many(xs, ds, 24, sx, sd, lr=0.05)
    for i in range(10):
        ref = outer_product(
            OuterProductJob(xs[i], ds[i], 24, int(sx[i]), int(sd[i]), lr=0.05)
        )
        assert np.array_equal(
            entries[i].view(np.uint16), ref.entries.view(np.uint16)
        ), i


def test_batch_validation():
    xs = np.zeros((2, 2), dtype=np.float16)
    ds = np.zeros((3, 2), dtype=np.float16)
    with pytest.raises(ContractError):
        outer_product_many(xs, ds, 16, np.array([1, 2]), np.array([3, 4]))
    with pytest.raises(DomainError):
        outer_product_many(
            xs, xs, 16, np.array([1, 2]), np.array([1, 4])
        )  # pairwise identical seed
    with pytest.raises(DomainError):
        outer_product_many(xs, xs, 16, np.array([0, 2]), np.array([3, 4]))


@pytest.mark.parametrize("lr", [None, 0.05])
def test_groups_match_a_batch_per_group(lr):
    """A training step's layers in one call: shapes differ, some jobs are all zero."""
    rng = np.random.default_rng(21)
    shapes = ((7, 2, 16), (7, 16, 2), (3, 5, 1))  # (jobs, n_x, n_d) per group
    groups = [
        (rng.uniform(-2, 2, (b, n_x)).astype(np.float16),
         rng.uniform(-0.5, 0.5, (b, n_d)).astype(np.float16))
        for b, n_x, n_d in shapes
    ]
    groups[0][0][3] = 0  # a short-circuited job in the first group
    groups[2][1][:] = 0  # and a group with no live job
    sx, sd = derive_seed_pairs(0xACE1, 0x2C9F, np.arange(17))
    out = outer_product_groups(groups, 24, check_seed_pairs(sx, sd), lr)
    lo = 0
    for (xs, ds), entries in zip(groups, out):
        hi = lo + len(xs)
        want, _ = outer_product_many(xs, ds, 24, sx[lo:hi], sd[lo:hi], lr)
        assert np.array_equal(entries.view(np.uint16), want.view(np.uint16))
        lo = hi
    assert not out[2].any()


def test_groups_reject_bad_operands_every_call():
    x = np.full((2, 3), 0.5, dtype=np.float16)
    seeds = check_seed_pairs([1, 2, 3, 4], [5, 6, 7, 8])
    bad = x.copy()
    bad[1, 2] = np.inf
    with pytest.raises(DomainError, match="finite"):
        outer_product_groups([(x, x), (x, bad)], 16, seeds)
    with pytest.raises(ContractError):
        outer_product_groups([(x, x)], 16, seeds)  # four seed pairs for two jobs
    with pytest.raises(ContractError):
        outer_product_groups([(x, x)], 16, np.vstack([seeds[:, :2], [9, 10]]))  # three rows
    with pytest.raises(ContractError):
        outer_product_groups([(x, x)], 16, 7)  # not a pair at all
    with pytest.raises(ContractError):
        outer_product_groups([], 16, seeds[:, :0])
    with pytest.raises(DomainError):
        outer_product_groups([(x, x), (x, x)], 16, seeds, lr=math.nan)
    with pytest.raises(DomainError):
        check_seed_pairs([1, 2], [3, 2])  # the two seeds of a job must differ


@pytest.mark.parametrize(
    "x, d",
    [
        ([[math.nan, 0.5]], [[0.5]]),  # once a silent zero update
        ([[0.5, math.inf]], [[0.5]]),  # once finite garbage, [0.2812, 0.5]
        ([[0.5]], [[-math.inf]]),
        ([[0.5], [0.25]], [[0.5], [math.nan]]),  # one bad job in a batch
    ],
)
def test_batch_rejects_non_finite_operands(x, d):
    seeds = np.arange(1, len(x) + 1)
    with pytest.raises(DomainError, match="finite"):
        outer_product_many(np.array(x), np.array(d), 16, seeds, seeds + 100)


def test_apply_update_plain_sgd():
    w = np.array([[1.0, -1.0]], dtype=np.float16)
    g = np.array([[0.5, 0.5]], dtype=np.float16)
    w2, v = apply_update(w, g, lr=0.25, momentum=0.0)
    assert w2.tolist() == [[0.875, -1.125]]
    assert v.tolist() == [[0.5, 0.5]]


def test_apply_update_momentum_recurrence():
    """Constant gradient g with momentum 0.9: v_2 = 1.9 g exactly in fp16."""
    w = np.zeros((1, 1), dtype=np.float16)
    g = np.full((1, 1), 0.125, dtype=np.float16)
    w1, v1 = apply_update(w, g, 1.0, 0.9)
    assert float(v1[0, 0]) == 0.125
    w2, v2 = apply_update(w1, g, 1.0, 0.9, v1)
    m16 = np.float16(0.9)
    expected = np.float16(np.float16(m16 * np.float16(0.125)) + np.float16(0.125))
    assert v2[0, 0] == expected
    assert w2[0, 0] == np.float16(w1[0, 0] - expected)


@pytest.mark.parametrize("momentum", [0.99999, 1 - 2**-12, 1.0, 1e10, -0.5, math.nan])
def test_apply_update_rejects_a_momentum_not_below_1_in_binary16(momentum):
    w = np.zeros((1, 1), dtype=np.float16)
    with pytest.raises(DomainError, match="momentum"):
        apply_update(w, w, 1.0, momentum)  # 0.99999 once kept v growing by g a step


def test_apply_update_refuses_an_lr_that_rounds_to_0():
    w = np.ones((1, 1), dtype=np.float16)
    with pytest.raises(DomainError, match="^lr: "):
        apply_update(w, w, 1e-8, 0.0)  # once returned w unchanged: np.float16(1e-8) == 0


def test_apply_update_refuses_an_lr_that_rounds_to_inf_without_a_warning():
    w = np.ones((1, 1), dtype=np.float16)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="^lr: "):
            apply_update(w, w, 1e5, 0.0)  # once warned of an overflowing cast, then gave -inf


def test_apply_update_takes_the_largest_binary16_momentum_below_1():
    w = np.zeros((1, 1), dtype=np.float16)
    _, v = apply_update(w, np.ones_like(w), 1.0, 1 - 2**-11)
    _, v = apply_update(w, np.zeros_like(w), 1.0, 1 - 2**-11, v)
    assert v[0, 0] == np.float16(1 - 2**-11)


def test_apply_update_lr_folded_skips_multiply():
    w = np.zeros((1, 1), dtype=np.float16)
    g = np.array([[0.5]], dtype=np.float16)
    w2, _ = apply_update(w, g, lr=None, momentum=0.0)
    assert float(w2[0, 0]) == -0.5  # a folded lr: no multiply


def test_apply_update_accepts_update_matrix():
    w = np.zeros((1, 1), dtype=np.float16)
    um = UpdateMatrix(np.array([[0.25]], dtype=np.float16), 32, None)
    w2, _ = apply_update(w, um.entries, lr=1.0, momentum=0.0)
    assert float(w2[0, 0]) == -0.25


def test_apply_update_validation():
    w = np.zeros((2, 2), dtype=np.float16)
    g = np.zeros((2, 3), dtype=np.float16)
    with pytest.raises(ContractError):
        apply_update(w, g, 0.1, 0.9)
    with pytest.raises(DomainError):
        apply_update(w, w, 0.0, 0.9)
    with pytest.raises(DomainError):
        apply_update(w, w, 0.1, 1.0)


def test_derive_seed_properties():
    seeds = {derive_seed_pair(0xACE1, 0xACE1, c)[0] for c in range(2000)}
    assert 0 not in seeds
    assert len(seeds) > 1900  # near-uniform spread over 16-bit words
    assert derive_seed_pair(0xACE1, 0xACE1, 5)[0] == derive_seed_pair(0xACE1, 0xACE1, 5)[0]
    with pytest.raises(DomainError):
        derive_seed_pair(0, 0, 1)
    with pytest.raises(DomainError):
        derive_seed_pair(0xACE1, 0xACE1, -1)


def test_derive_seed_pair_distinct_and_unstructured():
    xors = set()
    for c in range(512):
        sx, sd = derive_seed_pair(0xACE1, 0x2C9F, c)
        assert sx != sd
        assert sx != 0 and sd != 0
        xors.add(sx ^ sd)
    # a linear schedule would make sx ^ sd constant across counters
    assert len(xors) > 400


def test_derive_seed_pairs_matches_scalar():
    cs = np.arange(300)
    sx, sd = derive_seed_pairs(0xACE1, 0x2C9F, cs)
    for c in range(300):
        assert (int(sx[c]), int(sd[c])) == derive_seed_pair(0xACE1, 0x2C9F, c)


@pytest.mark.parametrize("bases", [(0xACE1, 0x2C9F), (7, 7)],
                         ids=["distinct", "every-pair-rehashed"])
def test_derive_seed_pairs_returns_the_seed_array_the_engine_takes(bases):
    pairs = derive_seed_pairs(*bases, np.arange(50))
    assert isinstance(pairs, np.ndarray) and pairs.dtype == np.uint16 and pairs.shape == (2, 50)
    assert np.array_equal(pairs, check_seed_pairs(*pairs))  # a rehashed delta row lands in pairs


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**40), st.integers(min_value=1, max_value=0xFFFF))
def test_derive_seed_always_valid(counter, base):
    s = derive_seed_pair(base, base, counter)[0]
    assert 0 < s <= 0xFFFF


# Stream lengths around every machine-word edge of the packed count: rows of
# 1, 2 and 8 bytes are one word as they stand, rows of 3 and 9 bytes are
# zero-padded to uint64 words, 2048 events fill 32 uint64 words.
_WORD_EDGE_LENS = (1, 7, 8, 9, 16, 24, 63, 64, 65, MAX_SEQ_LEN)
_EDGE_VALUES = (0.0, -0.0, 2.0**-24, -(2.0**-24), 2.0**-14, MAX_FINITE, -MAX_FINITE)
_operands = st.one_of(
    st.sampled_from(_EDGE_VALUES),
    st.floats(-MAX_FINITE, MAX_FINITE, width=16),
)
_lrs = st.one_of(st.none(), st.sampled_from((0.1, 1e-3, 1e-6, 3.0)))


def _scalar_job(x, d, seq_len, seed_x, seed_d, lr):
    """Reference job output bits, cell by cell through the scalar datapath."""
    if not (x.any() and d.any()):
        return np.zeros((d.size, x.size), dtype=np.uint16)
    ex = vector_exponent(x)
    ed = vector_exponent(d)
    if lr is None:
        scale = f_scale(ex, ed, seq_len)
    else:
        scale = f_scale_with_lr(lr, ex, ed, seq_len)
    words_x = Lfsr(seed_x).next_words(seq_len)
    words_d = Lfsr(seed_d).next_words(seq_len)
    seqs_x = [encode_with_words(float(v), ex, words_x) for v in x]
    seqs_d = [encode_with_words(float(v), ed, words_d) for v in d]
    return np.array(
        [[unit_cell_multiply(a, b, scale).bits for a in seqs_x] for b in seqs_d],
        dtype=np.uint16,
    )


@settings(max_examples=60, deadline=None)
@given(
    x=arrays(np.float16, st.integers(1, 6), elements=_operands),
    d=arrays(np.float16, st.integers(1, 6), elements=_operands),
    seq_len=st.sampled_from(_WORD_EDGE_LENS),
    seeds=st.tuples(st.integers(1, 0xFFFF), st.integers(1, 0xFFFF)).filter(
        lambda s: s[0] != s[1]
    ),
    lr=_lrs,
)
def test_job_matches_scalar_cells(x, d, seq_len, seeds, lr):
    out = outer_product(OuterProductJob(x, d, seq_len, *seeds, lr))
    assert np.array_equal(out.entries.view(np.uint16), _scalar_job(x, d, seq_len, *seeds, lr))


@settings(max_examples=40, deadline=None)
@given(
    shape=st.tuples(st.integers(1, 4), st.integers(1, 5), st.integers(1, 5)),
    seq_len=st.sampled_from(_WORD_EDGE_LENS),
    counter=st.integers(0, 2**32),
    lr=_lrs,
    data=st.data(),
)
def test_batch_matches_scalar_cells(shape, seq_len, counter, lr, data):
    b, n_x, n_d = shape
    xs = data.draw(arrays(np.float16, (b, n_x), elements=_operands))
    ds = data.draw(arrays(np.float16, (b, n_d), elements=_operands))
    sx, sd = derive_seed_pairs(0xACE1, 0x2C9F, counter + np.arange(b))
    entries, _ = outer_product_many(xs, ds, seq_len, sx, sd, lr)
    for k in range(b):
        ref = _scalar_job(xs[k], ds[k], seq_len, int(sx[k]), int(sd[k]), lr)
        assert np.array_equal(entries[k].view(np.uint16), ref), k


def test_pack_table_matches_shift_pack():
    """Every count 0..MAX_SEQ_LEN, both signs, scale exponents -60..+20; row 2 repeats row 0.

    -59 is the scale of a dead job at MAX_SEQ_LEN, where every nonzero count underflows. A
    table of exponents all at or above -24 casts every value, one with any below casts only
    the normal ones: the table of all the exponents, and each one's alone, take both ways.
    """
    exponents = np.arange(-60, 21)
    table = _pack_table(MAX_SEQ_LEN, exponents).view(np.uint16)
    assert table.shape == (exponents.size, 3, MAX_SEQ_LEN + 1)
    assert np.array_equal(table[:, 2], table[:, 0])
    each = np.concatenate([_pack_table(MAX_SEQ_LEN, [e]) for e in exponents])
    assert np.array_equal(each.view(np.uint16), table)
    for b, e in enumerate(exponents):
        for sign in (0, 1):
            ref = [shift_pack(sign, c, int(e)).bits for c in range(MAX_SEQ_LEN + 1)]
            assert table[b, sign].tolist() == ref, (int(e), sign)


def test_underflowing_folded_lr_is_rejected():
    """lr = 5e-324 folds the scale below the smallest double: no silent zero update."""
    x = np.array([0.5, -0.25], dtype=np.float16)
    job = OuterProductJob(x, x, 16, 0xACE1, 0x1234, lr=5e-324)  # a valid lr by itself
    with pytest.raises(DomainError):
        outer_product(job)
    with pytest.raises(DomainError):
        outer_product_many(x[None], x[None], 16, [0xACE1], [0x1234], lr=5e-324)


def test_a_dead_jobs_scale_is_checked_like_a_live_jobs():
    """A dead job runs the live path, so its folded scale is checked like any other job's."""
    xs = np.array([[1.0, 1.0], [0.0, 0.0]], dtype=np.float16)  # job 1 is dead
    lr = 1e-310  # the live job's scale stays positive; the dead job's, at 2^-48, underflows
    assert outer_product_many(xs[:1], xs[:1], 16, [1], [2], lr)[1] == 32
    assert outer_product_many(xs[1:], xs[1:], 16, [3], [4], lr)[1] == 0  # no live job
    with pytest.raises(DomainError, match="lr"):
        outer_product_many(xs, xs, 16, [1, 3], [2, 4], lr)  # once returned


def test_batch_of_broadcast_operands_matches_contiguous_copies():
    """np.broadcast_to views are a batch like any other; the bits must not depend on layout."""
    rng = np.random.default_rng(5)
    x = rng.uniform(-1, 1, 24).astype(np.float16)
    d = rng.uniform(-2, 2, 12).astype(np.float16)
    sx, sd = derive_seed_pairs(0xACE1, 0x2C9F, np.arange(50))
    views = (np.broadcast_to(x, (50, x.size)), np.broadcast_to(d, (50, d.size)))
    copies = (np.tile(x, (50, 1)), np.tile(d, (50, 1)))
    a, draws_a = outer_product_many(*views, 16, sx, sd, 0.1)
    b, draws_b = outer_product_many(*copies, 16, sx, sd, 0.1)
    assert np.array_equal(a.view(np.uint16), b.view(np.uint16))
    assert draws_a == draws_b == 2 * 16 * 50


def _broadcast_case(seed, jobs, n_x, n_d, seq_len, lr, zero=None):
    """jobs trials of one (x, delta) row pair; zero is "x" (a dead row pair) or "signs"."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, n_x).astype(np.float16)
    d = rng.uniform(-2, 2, n_d).astype(np.float16)
    if zero == "x":
        x[:] = 0
    elif zero == "signs":  # +0 and -0 on both sides, among live values
        x[::3], x[1::7], d[::4], d[2::5] = 0.0, -0.0, -0.0, 0.0
    return x, d, jobs, seq_len, lr


_BROADCAST_CASES = {
    "whole jobs": _broadcast_case(21, 50, 24, 12, 16, 0.1),
    "whole jobs over many tiles": _broadcast_case(22, 17, 64, 64, 16, None),  # 3 tiles of 8 jobs
    "class rows": _broadcast_case(23, 2, 256, 256, 256, 0.05),  # each job tiled by its rows
    "dead row pair": _broadcast_case(24, 9, 8, 5, 16, 0.1, zero="x"),
    "signed zeros": _broadcast_case(25, 12, 40, 30, 33, None, zero="signs"),
    "signed zeros, class rows": _broadcast_case(26, 3, 300, 200, 70, 0.1, zero="signs"),
}


@pytest.mark.parametrize("dtype", [None, np.float32, np.float64], ids=str)
@pytest.mark.parametrize("case", _BROADCAST_CASES)
def test_broadcast_rows_match_contiguous_copies_in_every_layout(case, dtype):
    """Entries, bits and draws of broadcast rows are a copy's, one side or both broadcast.

    The broadcast rows are the case's float16 vectors (dtype None) or the same
    values held in a wider float dtype, which the engine casts.
    """
    x, d, jobs, seq_len, lr = _BROADCAST_CASES[case]
    sx, sd = derive_seed_pairs(0xACE1, 0x2C9F, np.arange(jobs))
    wide_x, wide_d = (x, d) if dtype is None else (x.astype(dtype), d.astype(dtype))
    views = (np.broadcast_to(wide_x, (jobs, x.size)), np.broadcast_to(wide_d, (jobs, d.size)))
    copies = (np.tile(x, (jobs, 1)), np.tile(d, (jobs, 1)))
    want, want_draws = outer_product_many(*copies, seq_len, sx, sd, lr)
    assert want_draws == (2 * seq_len * jobs if x.any() and d.any() else 0)
    for operands in (views, (views[0], copies[1]), (copies[0], views[1])):
        got, draws = outer_product_many(*operands, seq_len, sx, sd, lr)
        assert draws == want_draws
        assert np.array_equal(got.view(np.uint16), want.view(np.uint16))
    if not want_draws:  # a dead row pair packs +0 in every entry
        assert not want.view(np.uint16).any()


def _fsums(entries):
    """math.fsum of each entry over the B trials of (B, n_d, n_x) entries, and of its square."""
    cells = entries.astype(np.float64).reshape(len(entries), -1).T
    sums = [[math.fsum(c) for c in cells], [math.fsum(c * c) for c in cells]]
    return np.array(sums).reshape(2, *entries.shape[1:])


@pytest.mark.parametrize("lr", ["case", 1e4, 1e-9])
@pytest.mark.parametrize("case", _BROADCAST_CASES)
def test_trial_sums_equal_the_sums_of_outer_product_many(case, lr):
    """Sums of counts times one scale are the float64 sums of the packed entries, to the bit."""
    x, d, jobs, seq_len, case_lr = _BROADCAST_CASES[case]
    lr = case_lr if lr == "case" else lr
    seeds = derive_seed_pairs(0xACE1, 0x2C9F, np.arange(jobs))
    entries, _ = outer_product_many(np.tile(x, (jobs, 1)), np.tile(d, (jobs, 1)), seq_len,
                                    *seeds, lr)
    got = trial_sums(x, d, seq_len, seeds, lr)
    assert got.dtype == np.float64 and got.shape == (2, d.size, x.size)
    assert np.array_equal(got.view(np.uint64), _fsums(entries).view(np.uint64))


@pytest.mark.parametrize("x, d, lr, kind", [
    ([90.0], [-70.0], 1e4, "saturating"),  # every nonzero entry latches at 65504 = 2047 * 2^5
    ([3.0], [-20.0], 1e-9, "subnormal"),  # scale 2^-27 rounds each count c to rint(c / 8) 2^-24
])
def test_trial_sums_of_40000_one_by_one_trials_are_exact(x, d, lr, kind):
    """A tile holds 2^15 trials of 1 x 1; its sum of 2047^2 squares overflows 32 bits."""
    x, d = np.array(x, dtype=np.float16), np.array(d, dtype=np.float16)
    trials = 40_000
    seeds = derive_seed_pairs(0xACE1, 0x2C9F, np.arange(trials))
    entries, _ = outer_product_many(np.tile(x, (trials, 1)), np.tile(d, (trials, 1)), 16,
                                    *seeds, lr)
    mags = np.abs(entries[entries != 0])
    if kind == "saturating":
        assert (mags == MAX_FINITE).all()
        assert np.count_nonzero(entries[: 2**15]) * 2047**2 >= 2**32  # the first tile's sum
    else:
        assert set(np.ldexp(mags.astype(np.float64), 24)) == {1.0, 2.0}  # rint(c / 8), c <= 16
    got = trial_sums(x, d, 16, seeds, lr)
    assert np.array_equal(got.view(np.uint64), _fsums(entries).view(np.uint64))


class _Packed(Exception):
    pass


def test_trial_sums_of_whole_jobs_pack_no_entry(monkeypatch):
    """Whole-job tiles sum their counts straight from the AND/popcount loop."""
    def count_pack(*args, out):
        raise _Packed

    monkeypatch.setattr(engine, "_count_pack", count_pack)
    x, d, jobs, seq_len, lr = _BROADCAST_CASES["whole jobs over many tiles"]
    trial_sums(x, d, seq_len, derive_seed_pairs(1, 2, np.arange(jobs)), lr)
    with pytest.raises(_Packed):  # the patch is live: a batch packs through it
        outer_product_many(x[None], d[None], seq_len, [1], [2], lr)


def test_trial_sums_of_a_dead_row_pair_are_positive_zeros_before_any_scale():
    """lr = 1e-310 would underflow a live scale; a dead row pair never computes one."""
    x = np.array([0.0, -0.0, 0.0], dtype=np.float16)
    d = np.array([-0.5, 0.25], dtype=np.float16)
    seeds = derive_seed_pairs(3, 4, np.arange(5))
    got = trial_sums(x, d, 16, seeds, 1e-310)
    assert got.shape == (2, 2, 3) and not got.view(np.uint64).any()
    tiny = np.array([2**-24, -(2**-24)], dtype=np.float16)  # its scale, 2^-48 lr, underflows
    with pytest.raises(DomainError, match="lr"):
        trial_sums(tiny, tiny, 16, seeds, 1e-310)


def test_batch_and_job_share_one_validator():
    xs = np.full((2, 2), 0.5, dtype=np.float16)
    with pytest.raises(DomainError):
        outer_product_many(xs, xs, 16, [1, 0x10001], [3, 4])  # once wrapped to seed 1
    with pytest.raises(ContractError):
        outer_product_many(xs, xs, 16, [1], [3])  # one seed pair for two jobs
    with pytest.raises(DomainError):
        outer_product_many(np.zeros((2, 0)), xs, 16, [1, 2], [3, 4])  # empty operand
    with pytest.raises(DomainError):
        OuterProductJob(xs[0], xs[0], 16, 0x10000, 0x1234)
    _, seeds = _checked_groups([(xs, xs)], 16, ([1, 2], [3, 4]), None)
    assert seeds.dtype == np.uint16 and seeds.tolist() == [[1, 2], [3, 4]]


@pytest.mark.parametrize("counters", [np.array([-1]), [-1], np.array([3, -2, 5])])
def test_derive_seed_pairs_rejects_negative_counters(counters):
    with pytest.raises(DomainError):
        derive_seed_pairs(0xACE1, 0x2C9F, counters)


@pytest.mark.parametrize("counters", [5, np.arange(4).reshape(2, 2)], ids=["0-d", "2-d"])
def test_derive_seed_pairs_takes_only_one_dimensional_counters(counters):
    # equal base seeds make every pair clash; a 0-d counter then raised numpy's TypeError
    with pytest.raises(ContractError, match="counters must be one-dimensional"):
        derive_seed_pairs(0xACE1, 0xACE1, counters)


def test_derive_seed_counts_only_the_low_48_counter_bits():
    assert derive_seed_pair(0xACE1, 0xACE1, 2**48 + 7) == derive_seed_pair(0xACE1, 0xACE1, 7)
    assert derive_seed_pair(0xACE1, 0x2C9F, 2**70 + 9) == derive_seed_pair(0xACE1, 0x2C9F, 9)
    sx, sd = derive_seed_pairs(0xACE1, 0x2C9F, np.array([2**63 + 9], dtype=np.uint64))
    assert (int(sx[0]), int(sd[0])) == derive_seed_pair(0xACE1, 0x2C9F, 9)


def test_groups_check_their_seed_pairs_every_call():
    x = np.array([[0.5, -0.25, 0.75]], dtype=np.float16)
    with pytest.raises(DomainError, match="must differ") as err:
        outer_product_groups([(x, x)], 16, np.array([[7], [7]], dtype=np.uint16))
    with pytest.raises(DomainError) as want:
        check_seed_pairs([7], [7])
    assert str(err.value) == str(want.value)

    (entries,) = outer_product_groups([(x, x)], 16, [[7], [9]])  # once a bare TypeError
    want, _ = outer_product_many(x, x, 16, [7], [9])
    assert np.array_equal(entries.view(np.uint16), want.view(np.uint16))


def test_batch_and_groups_share_one_seed_count_check():
    xs = np.full((2, 2), 0.5, dtype=np.float16)
    with pytest.raises(ContractError) as many:
        outer_product_many(xs, xs, 16, [1], [3])
    with pytest.raises(ContractError) as groups:
        outer_product_groups([(xs, xs)], 16, [[1], [3]])
    assert str(many.value) == str(groups.value)


@pytest.mark.parametrize("entry", [
    "OuterProductJob", "outer_product_many", "outer_product_groups", "train",
])
def test_each_entry_point_checks_its_seed_pairs_once_per_call(monkeypatch, entry):
    calls = []
    real = engine.check_seed_pairs

    def counted(*a):
        calls.append(a)
        return real(*a)

    monkeypatch.setattr(engine, "check_seed_pairs", counted)
    monkeypatch.setattr(train_module, "check_seed_pairs", counted, raising=False)
    xs = np.array([[0.5, -0.25], [0.125, 1.0]], dtype=np.float16)
    # 40 samples train on 32: two epochs of two 16-sample steps
    fit = TrainingConfig(mode="stochastic(16)", topology=(2, 4, 2), epochs=2, n_samples=40,
                         batch_size=16)
    run, checks = {
        "OuterProductJob": (lambda: outer_product(OuterProductJob(xs[0], xs[1], 16, 1, 2)), 1),
        "outer_product_many": (lambda: outer_product_many(xs, xs, 16, [1, 3], [2, 4]), 1),
        "outer_product_groups": (lambda: outer_product_groups(  # once checked apart from it
            [(xs, xs), (xs[:1], xs[:1, :1])], 16, [[1, 3, 5], [2, 4, 6]]
        ), 1),
        "train": (lambda: train(fit), 4),  # one check per step, none more per epoch
    }[entry]
    run()
    assert len(calls) == checks
    run()
    assert len(calls) == 2 * checks


def _per_job(xs, ds, seq_len, sx, sd, lr):
    """Each job through outer_product: (B, n_d, n_x) bits and the total draws."""
    jobs = [outer_product(OuterProductJob(x, d, seq_len, int(a), int(b), lr))
            for x, d, a, b in zip(xs, ds, sx, sd)]
    bits = np.stack([job.entries for job in jobs]).view(np.uint16)
    return bits, sum(job.rng_draws for job in jobs)


@pytest.mark.parametrize("lr", [None, 0.05])
def test_dead_jobs_at_the_start_of_a_batch(lr):
    rng = np.random.default_rng(3)
    xs = rng.uniform(-2, 2, (6, 5)).astype(np.float16)
    ds = rng.uniform(-0.5, 0.5, (6, 3)).astype(np.float16)
    xs[0] = 0
    ds[1] = 0  # the first two jobs are dead
    sx, sd = derive_seed_pairs(0xACE1, 0x2C9F, np.arange(6))
    want, want_draws = _per_job(xs, ds, 24, sx, sd, lr)
    entries, draws = outer_product_many(xs, ds, 24, sx, sd, lr)
    assert np.array_equal(entries.view(np.uint16), want)
    assert draws == want_draws == 2 * 24 * 4
    (entries,) = outer_product_groups([(xs, ds)], 24, check_seed_pairs(sx, sd), lr)
    assert np.array_equal(entries.view(np.uint16), want)


@pytest.mark.parametrize("lr", [None, 0.05])
def test_a_dead_group_before_live_groups(lr):
    rng = np.random.default_rng(4)
    shapes = ((3, 4, 2), (4, 2, 6), (2, 3, 3))  # (jobs, n_x, n_d) per group
    groups = [
        (rng.uniform(-2, 2, (b, n_x)).astype(np.float16),
         rng.uniform(-0.5, 0.5, (b, n_d)).astype(np.float16))
        for b, n_x, n_d in shapes
    ]
    groups[0][1][:] = 0  # no live job in the first group
    groups[2][0][0] = 0  # and a dead job opening the last one
    sx, sd = derive_seed_pairs(0x1111, 0x2222, np.arange(9))
    out = outer_product_groups(groups, 16, check_seed_pairs(sx, sd), lr)
    lo = 0
    for (xs, ds), entries in zip(groups, out):
        hi = lo + len(xs)
        want, _ = _per_job(xs, ds, 16, sx[lo:hi], sd[lo:hi], lr)
        assert np.array_equal(entries.view(np.uint16), want)
        many, _ = outer_product_many(xs, ds, 16, sx[lo:hi], sd[lo:hi], lr)
        assert np.array_equal(many.view(np.uint16), want)
        lo = hi


def test_sum_updates_of_an_empty_batch_is_the_positive_zero_update():
    total = sum_updates(np.zeros((0, 2, 3), np.float16))
    assert total.dtype == np.float16
    assert total.view(np.uint16).tolist() == [[0x0000] * 3] * 2


def test_sum_updates_sums_from_positive_zero():
    """A negative cell that underflows packs -0; the batch sum starts from +0."""
    acts = np.array([[2.0**-14], [2.0**-14]], dtype=np.float16)
    grads = np.array([[-2.0**-14], [-2.0**-14]], dtype=np.float16)
    sx, sd = derive_seed_pairs(1, 2, np.arange(2))
    entries, _ = outer_product_many(acts, grads, 16, sx, sd)
    assert entries.view(np.uint16).tolist() == [[[0x8000]], [[0x8000]]]
    for jobs in (1, 2):
        assert sum_updates(entries[:jobs]).view(np.uint16).tolist() == [[0x0000]]


@pytest.mark.parametrize("bad", [0, 1.5], ids=repr)
def test_groups_check_the_seeds_of_dead_jobs(bad):
    """A seed is judged by itself, not by whether its job's operands make it drawn."""
    x = np.array([[0.5, -0.25, 0.75]], dtype=np.float16)
    with pytest.raises(SeedError):
        outer_product_groups([(x, 0 * x)], 16, [[bad], [5]])  # 0 once returned zeros
    with pytest.raises(SeedError):
        outer_product_groups([(x, x)], 16, [[bad], [5]])


def _tile_case_large_job():
    rng = np.random.default_rng(11)
    x = rng.uniform(-2, 2, 300).astype(np.float16)
    d = rng.uniform(-2, 2, 300).astype(np.float16)
    return [outer_product(OuterProductJob(x, d, 100, 0xACE1, 0x2C9F)).entries]


def _tile_case_wide_batch():
    """Ten jobs of 9 x 13: one delta row across the jobs outgrows a small tile."""
    rng = np.random.default_rng(12)
    xs = rng.uniform(-2, 2, (10, 13)).astype(np.float16)
    ds = rng.uniform(-2, 2, (10, 9)).astype(np.float16)
    sx, sd = derive_seed_pairs(1, 2, np.arange(10))
    return [outer_product_many(xs, ds, 70, sx, sd, 0.05)[0]]


def _tile_case_dead_jobs():
    rng = np.random.default_rng(13)
    xs = rng.uniform(-2, 2, (7, 11)).astype(np.float16)
    ds = rng.uniform(-2, 2, (7, 6)).astype(np.float16)
    xs[2] = 0
    ds[4] = 0  # two dead jobs mid-batch
    sx, sd = derive_seed_pairs(3, 4, np.arange(7))
    return [outer_product_many(xs, ds, 16, sx, sd)[0]]


def _tile_case_two_groups():
    rng = np.random.default_rng(14)
    groups = [
        (rng.uniform(-1, 1, (5, 8)).astype(np.float16),
         rng.uniform(-1, 1, (5, 12)).astype(np.float16)),
        (rng.uniform(-1, 1, (5, 12)).astype(np.float16),
         rng.uniform(-1, 1, (5, 3)).astype(np.float16)),
    ]
    seeds = check_seed_pairs(*derive_seed_pairs(5, 6, np.arange(10)))
    return outer_product_groups(groups, 33, seeds, 0.1)


@pytest.mark.parametrize("tile", [1, 7, 100])
@pytest.mark.parametrize("case", [
    _tile_case_large_job, _tile_case_wide_batch, _tile_case_dead_jobs, _tile_case_two_groups,
], ids=lambda case: case.__name__.removeprefix("_tile_case_"))
def test_tile_boundaries_do_not_change_a_bit(monkeypatch, case, tile):
    want = [entries.view(np.uint16) for entries in case()]
    monkeypatch.setattr(engine, "_TILE", tile)
    got = [entries.view(np.uint16) for entries in case()]
    assert all(np.array_equal(a, b) for a, b in zip(got, want)) and len(got) == len(want)


def _delta_with_prefixes(rng, power, seq_len, seed_d, extra):
    """A delta of peak 2^power whose streams, in delta word order, end at 0, seq_len and k * 64.

    Rows: the peak (it fires every word), +0 and -0 (none), one value for
    each prefix length k * 64 that some binary16 value reaches, then extra
    random ones.
    """
    words = np.sort(Lfsr(seed_d).next_words(seq_len))
    values = np.arange(1, 0x7C00, dtype=np.uint16).view(np.float16).astype(np.float64)
    values = values[values <= 2.0**power]
    ends = np.searchsorted(words, encode_levels(values, power), side="right")
    _, firsts = np.unique(ends, return_index=True)
    on_words = values[firsts[ends[firsts] % 64 == 0]]
    rows = [2.0**power, 0.0, -0.0, *(on_words * rng.choice((-1, 1), on_words.size)),
            *(rng.uniform(-1, 1, extra) * 2.0**power)]
    return np.array(rows, dtype=np.float16)


@settings(max_examples=30, deadline=None)
@given(
    seq_len=st.sampled_from((65, 100, 128, 129, MAX_SEQ_LEN)),
    jobs=st.integers(1, 2),
    n_x=st.integers(2, 9),
    extra=st.integers(2, 12),
    powers=st.tuples(st.integers(-12, 15), st.integers(-12, 15)),
    lr=st.sampled_from((None, 0.05)),
    counter=st.integers(0, 2**20),
    dead=st.sampled_from(("none", "zero x", "zero delta")),
)
@example(  # lr folded to a saturating scale: every nonzero count packs to max finite
    seq_len=65, jobs=2, n_x=5, extra=4, powers=(15, 15), lr=0.05, counter=1, dead="none",
)
@example(  # and to a subnormal one
    seq_len=MAX_SEQ_LEN, jobs=2, n_x=5, extra=4, powers=(-6, -6), lr=0.05, counter=2,
    dead="zero delta",
)
def test_prefix_tiles_match_whole_job_tiles_and_the_scalar_route(
    seq_len, jobs, n_x, extra, powers, lr, counter, dead,
):
    """Jobs on row tiles in delta word order, forced by a small _TILE, against whole-job tiles."""
    rng = np.random.default_rng(counter)
    sx, sd = derive_seed_pairs(0xACE1, 0x2C9F, counter + np.arange(jobs))
    xs = (rng.uniform(-1, 1, (jobs, n_x)) * 2.0 ** powers[0]).astype(np.float16)
    deltas = [_delta_with_prefixes(rng, powers[1], seq_len, int(s), extra) for s in sd]
    n_d = max(map(len, deltas))
    ds = np.stack([np.pad(d, (0, n_d - len(d)), constant_values=2.0 ** powers[1] / 3)
                   for d in deltas])
    if dead == "zero x":
        xs[0] = 0
    elif dead == "zero delta":
        ds[-1] = 0
    want, draws = outer_product_many(xs, ds, seq_len, sx, sd, lr)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "_TILE", 7)
        got, got_draws = outer_product_many(xs, ds, seq_len, sx, sd, lr)
    assert np.array_equal(got.view(np.uint16), want.view(np.uint16)) and got_draws == draws
    for k in range(jobs):
        for j, i in itertools.product((0, 1, 2, 3, 4, n_d - 1), (np.abs(xs[k]).argmax(), n_x - 1)):
            cell = _scalar_cell(xs[k], ds[k], i, j, seq_len, int(sx[k]), int(sd[k]), lr)
            assert got[k, j, i].view(np.uint16) == cell, (k, j, i)


def _delta_with_classes(rng, power, seq_len, seed_d, extra):
    """A delta of peak 2^power whose rows share (prefix length, sign) classes every way.

    Rows: the peak, +0 and -0, two distinct values of one prefix length in
    both signs, one of them repeated, then extra random values, some repeated.
    """
    words = np.sort(Lfsr(seed_d).next_words(seq_len))
    values = np.arange(1, 0x7C00, dtype=np.uint16).view(np.float16).astype(np.float64)
    values = values[values <= 2.0**power]
    ends = np.searchsorted(words, encode_levels(values, power), side="right")
    _, firsts, sizes = np.unique(ends, return_index=True, return_counts=True)
    first = rng.choice(firsts[sizes > 1])  # values rise, so one end's values are adjacent
    a, b = values[first], values[first + 1]
    randoms = rng.uniform(-1, 1, extra) * 2.0**power
    rows = [2.0**power, 0.0, -0.0, a, -b, a, b, -a, *randoms, *randoms[: extra // 2]]
    return np.array(rows, dtype=np.float16)


@settings(max_examples=40, deadline=None)
@given(
    seq_len=st.sampled_from((1, 2, 16, 63, 64, 65, MAX_SEQ_LEN)),
    jobs=st.integers(1, 2),
    n_x=st.integers(1, 9),
    extra=st.integers(0, 10),
    powers=st.tuples(st.integers(-12, 15), st.integers(-12, 15)),
    lr=st.sampled_from((None, 0.05)),
    counter=st.integers(0, 2**20),
    dead=st.sampled_from(("none", "zero x", "zero delta")),
)
@example(  # lr folded to a saturating scale, a dead job beside a live one
    seq_len=16, jobs=2, n_x=5, extra=4, powers=(15, 15), lr=0.05, counter=1, dead="zero x",
)
@example(  # one event per stream: every row's prefix is empty or whole
    seq_len=1, jobs=2, n_x=3, extra=6, powers=(-6, -6), lr=0.05, counter=2, dead="zero delta",
)
def test_class_rows_match_whole_job_tiles_and_the_scalar_route(
    seq_len, jobs, n_x, extra, powers, lr, counter, dead,
):
    """Row tiles, forced by a small _TILE, count one row per class at any seq_len."""
    rng = np.random.default_rng(counter)
    sx, sd = derive_seed_pairs(0xACE1, 0x2C9F, counter + np.arange(jobs))
    xs = (rng.uniform(-1, 1, (jobs, n_x)) * 2.0 ** powers[0]).astype(np.float16)
    deltas = [_delta_with_classes(rng, powers[1], seq_len, int(s), extra) for s in sd]
    n_d = max(map(len, deltas))
    ds = np.stack([np.pad(d, (0, n_d - len(d)), constant_values=-(2.0 ** powers[1]) / 3)
                   for d in deltas])
    if dead == "zero x":
        xs[0] = 0
    elif dead == "zero delta":
        ds[-1] = 0
    want, draws = outer_product_many(xs, ds, seq_len, sx, sd, lr)
    classed = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "_TILE", 7)
        prefixes = engine._count_pack_prefixes
        mp.setattr(engine, "_count_pack_prefixes",
                   lambda *a: classed.append(1) or prefixes(*a))
        got, got_draws = outer_product_many(xs, ds, seq_len, sx, sd, lr)
    assert bool(classed) == bool(draws) and got_draws == draws  # a call of dead jobs returns zeros
    assert np.array_equal(got.view(np.uint16), want.view(np.uint16))
    for k in range(jobs):
        for j, i in itertools.product(range(8), (np.abs(xs[k]).argmax(), n_x - 1)):
            cell = _scalar_cell(xs[k], ds[k], i, j, seq_len, int(sx[k]), int(sd[k]), lr)
            assert got[k, j, i].view(np.uint16) == cell, (k, j, i)


def test_a_large_short_stream_job_counts_one_row_per_class(monkeypatch):
    """1024 x 1024 at seq_len 16: at most 2 * 17 (prefix length, sign) classes, not 1,024 rows."""
    rng = np.random.default_rng(23)
    x = rng.uniform(-1, 1, 1024).astype(np.float16)
    d = rng.uniform(-1, 1, 1024).astype(np.float16)
    job = OuterProductJob(x, d, 16, 0xACE1, 0x2C9F, 0.05)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "_TILE", 1 << 21)  # one whole-job tile counts every row
        want = outer_product(job).entries
    rows = []  # the delta rows of each count-and-pack tile
    count_pack = engine._count_pack
    monkeypatch.setattr(engine, "_count_pack",
                        lambda words_d, *a, **k: rows.append(words_d.shape[-1]) or count_pack(
                            words_d, *a, **k))
    got = outer_product(job).entries
    assert 0 < sum(rows) <= 34
    assert np.array_equal(got.view(np.uint16), want.view(np.uint16))


def _large_job():
    """One 1024 x 1024 job at seq_len 2048, the largest shape outer_grid runs."""
    rng = np.random.default_rng(21)
    x = (rng.uniform(-1, 1, 1024) * 2.0 ** rng.integers(-8, 0, 1024)).astype(np.float16)
    d = (rng.uniform(-1, 1, 1024) * 2.0 ** rng.integers(-8, 0, 1024)).astype(np.float16)
    d[:16] = 0  # rows whose streams fire no event
    return OuterProductJob(x, d, MAX_SEQ_LEN, 0xACE1, 0x2C9F, 0.05)


def test_a_large_job_ands_only_the_words_its_row_tiles_end_in(monkeypatch):
    """32 stream words, 32 blocks of 32 rows: at most W + 2 * 32 = 96 AND/popcount passes."""
    passes = []
    count_pack = engine._count_pack
    monkeypatch.setattr(engine, "_count_pack",
                        lambda words_d, *a, **k: passes.append(len(words_d)) or count_pack(
                            words_d, *a, **k))
    outer_product(_large_job())
    assert 0 < sum(passes) <= 96  # every word of every tile would be 1,024


def test_a_large_job_matches_the_scalar_route_on_sampled_cells():
    job = _large_job()
    got = outer_product(job).entries
    rng = np.random.default_rng(22)
    cells = [(np.abs(job.delta).argmax(), np.abs(job.x).argmax()), (0, 5),
             *zip(rng.integers(0, 1024, 6), rng.integers(0, 1024, 6))]
    for j, i in cells:
        cell = _scalar_cell(job.x, job.delta, i, j, job.seq_len, job.seed_x, job.seed_delta, job.lr)
        assert got[j, i].view(np.uint16) == cell, (j, i)


@pytest.mark.parametrize("x, d", [
    (np.float16(0.5), np.array([0.5])),  # 0-d x
    (np.array([0.5]), np.array([[0.5, 0.25]])),  # 2-D delta
    (np.ones((1, 3)), np.ones((1, 2))),  # a batch row is still 2-D
])
def test_a_job_names_its_own_operands_in_a_shape_error(x, d):
    with pytest.raises(ContractError, match="x and delta must be 1-D vectors"):
        OuterProductJob(x, d, 16, 0xACE1, 0x2C9F)


# one job's operands in a grouped call: live, or dead through an all-zero x or delta
_JOB_KINDS = ("live", "zero x", "zero delta")


@settings(max_examples=60, deadline=None)
@given(
    shapes=st.lists(
        st.tuples(st.sampled_from((0, 1, 3, 6)), st.integers(1, 40), st.integers(1, 40)),
        min_size=1, max_size=4,
    ),
    seq_len=st.sampled_from((1, 7, 8, 63, 64, 65, 300, MAX_SEQ_LEN)),
    lr=st.sampled_from((None, 0.05)),
    counter=st.integers(0, 2**20),
    kinds=st.lists(st.sampled_from(_JOB_KINDS), max_size=24),  # job k's, else live
)
@example(  # dead jobs first, mid-batch and last in a group, an empty group last
    shapes=[(6, 40, 33), (3, 1, 40), (0, 5, 5)], seq_len=MAX_SEQ_LEN, lr=0.05, counter=7,
    kinds=["zero x", "live", "zero delta", "live", "live", "live", "live", "live", "zero delta"],
)
@example(
    shapes=[(0, 3, 3), (1, 17, 2), (6, 2, 17)], seq_len=300, lr=None, counter=3,
    kinds=["live", "live", "live", "zero x", "live", "live", "zero delta"],
)
@example(shapes=[(0, 3, 2), (0, 1, 40)], seq_len=64, lr=None, counter=0, kinds=[])  # no job
def test_grouped_core_matches_a_job_per_job(shapes, seq_len, lr, counter, kinds):
    """Entries and draws of one core call over groups of any shape, dead jobs anywhere."""
    rng = np.random.default_rng(counter)
    kinds = kinds + ["live"] * sum(b for b, _, _ in shapes)
    groups, live, k = [], 0, 0
    for b, n_x, n_d in shapes:
        scales = 2.0 ** rng.integers(-20, 8, (2, b, 1))  # each operand its own power of two
        xs = (rng.uniform(-1, 1, (b, n_x)) * scales[0]).astype(np.float16)
        ds = (rng.uniform(-1, 1, (b, n_d)) * scales[1]).astype(np.float16)
        xs[[kind == "zero x" for kind in kinds[k : k + b]]] = 0
        ds[[kind == "zero delta" for kind in kinds[k : k + b]]] = 0
        groups.append((xs, ds))
        live += sum(xs[q].any() and ds[q].any() for q in range(b))
        k += b
    sx, sd = derive_seed_pairs(0xACE1, 0x2C9F, counter + np.arange(k))
    seeds = check_seed_pairs(sx, sd)
    out = outer_product_groups(groups, seq_len, seeds, lr)
    _, draws, _ = engine._run_jobs(groups, seq_len, seeds, lr)
    assert draws == 2 * seq_len * live
    k = 0  # the job's column in seeds
    for (xs, ds), entries in zip(groups, out):
        assert entries.shape == (len(xs), ds.shape[1], xs.shape[1])
        for x, d, got in zip(xs, ds, entries):
            want = outer_product(OuterProductJob(x, d, seq_len, int(sx[k]), int(sd[k]), lr))
            assert np.array_equal(got.view(np.uint16), want.entries.view(np.uint16)), k
            # and, as the core is also the reference above, two cells by the scalar route
            for j, i in ((np.abs(d).argmax(), np.abs(x).argmax()),
                         (rng.integers(len(d)), rng.integers(len(x)))):
                cell = _scalar_cell(x, d, i, j, seq_len, int(sx[k]), int(sd[k]), lr)
                assert got[j, i].view(np.uint16) == cell, (k, j, i)
            k += 1


def _scalar_cell(x, d, i, j, seq_len, seed_x, seed_d, lr):
    """Bits of entry (j, i) of one job through the scalar encoder and unit cell."""
    if not (x.any() and d.any()):
        return 0
    ex, ed = vector_exponent(x), vector_exponent(d)
    scale = f_scale_with_lr(lr if lr else 1.0, ex, ed, seq_len)
    a = encode_with_words(float(x[i]), ex, Lfsr(seed_x).next_words(seq_len))
    b = encode_with_words(float(d[j]), ed, Lfsr(seed_d).next_words(seq_len))
    return unit_cell_multiply(a, b, scale).bits


@pytest.mark.parametrize("dead", [False, True])
def test_a_core_call_makes_each_per_call_pass_once(monkeypatch, dead):
    """Exponents, levels, words and the pack table run once per call, not once per group."""
    calls = []
    for name in ("ceil_exponents", "encode_levels", "word_matrix", "_pack_table"):
        fn = getattr(engine, name)
        monkeypatch.setattr(engine, name, lambda *a, fn=fn, name=name: calls.append(name) or fn(*a))
    rng = np.random.default_rng(8)
    groups = [(rng.uniform(-1, 1, (4, n_x)).astype(np.float16),
               rng.uniform(-1, 1, (4, n_d)).astype(np.float16))
              for n_x, n_d in ((2, 9), (9, 5), (5, 2))]
    if dead:
        groups[1][0][2] = 0  # one dead job in a live call
    seeds = check_seed_pairs(*derive_seed_pairs(3, 4, np.arange(12)))
    engine.outer_product_groups(groups, 16, seeds)
    assert sorted(calls) == ["_pack_table", "ceil_exponents", "encode_levels", "word_matrix"]
    assert not hasattr(engine, "encode_matrix")  # no second encode path


def test_a_16_bit_word_counts_its_popcount_for_every_word():
    """Rows of 9 to 16 events count through their two bytes: all 65,536 words match."""
    words = np.arange(1 << 16, dtype=np.uint16)
    start = np.uint16(17)  # the negative row's offset in a seq_len 16 pack table
    index = np.full((1, 1, words.size), start, dtype=np.uint16)
    table = np.arange(34, dtype=np.float16)  # reads each entry back as its table index
    ones = np.array([[[0xFFFF]]], dtype=np.uint16)
    entries = np.empty(index.shape, dtype=np.float16)
    engine._count_pack(ones, words[None, None], index, table, entries)
    assert np.array_equal(entries[0, 0], np.bitwise_count(words) + start)


def test_thousands_of_one_by_one_jobs_at_the_longest_stream_match_the_scalar_route(monkeypatch):
    """3,000 jobs of 1 x 1 at MAX_SEQ_LEN: one tile, whose table index needs 32 bits."""
    rng = np.random.default_rng(33)
    jobs = 3000
    xs = (rng.uniform(-1, 1, (jobs, 1)) * 2.0 ** rng.integers(-20, 4, (jobs, 1))).astype(np.float16)
    ds = (rng.uniform(-1, 1, (jobs, 1)) * 2.0 ** rng.integers(-20, 4, (jobs, 1))).astype(np.float16)
    xs[::50] = 0  # dead jobs
    sx, sd = derive_seed_pairs(0xACE1, 0x2C9F, np.arange(jobs))
    widths = []
    count_pack = engine._count_pack
    monkeypatch.setattr(engine, "_count_pack",
                        lambda *a, **k: widths.append(a[2].dtype) or count_pack(*a, **k))
    got, draws = outer_product_many(xs, ds, MAX_SEQ_LEN, sx, sd, 0.05)
    assert widths == [np.uint32]
    assert draws == 2 * MAX_SEQ_LEN * np.count_nonzero((xs != 0) & (ds != 0))
    assert ((xs < 0) & (ds < 0)).any()  # two negative signs read the table's third row
    for k in [*range(0, jobs, 97), jobs - 2, jobs - 1]:  # the last jobs' indices pass 2^16
        cell = _scalar_cell(xs[k], ds[k], 0, 0, MAX_SEQ_LEN, int(sx[k]), int(sd[k]), 0.05)
        assert got[k, 0, 0].view(np.uint16) == cell, k
