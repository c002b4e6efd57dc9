"""One seed rule at every generator entry point: a seed is an integer in 1..0xFFFF."""

import numpy as np
import pytest

from scop.engine import (
    OuterProductJob,
    conv_weight_update,
    derive_seed_pair,
    derive_seed_pairs,
    outer_product,
    outer_product_groups,
    outer_product_many,
)
from scop.errors import ContractError, DomainError, SeedError
from scop.lfsr import Lfsr, check_seeds, word_matrix
from scop.oracle import empirical_stats
from scop.train import TrainingConfig, train

OTHER = 0x2C9F  # the entry point's second seed, where it takes two
X = np.array([0.5, -0.25, 0.125], dtype=np.float16)
D = np.array([1.0, -0.75], dtype=np.float16)


def _bits(a):
    return np.asarray(a).view(np.uint16).tolist()


def _train(seed):
    metrics = train(TrainingConfig(
        topology=(2, 4, 2), epochs=1, n_samples=40, mode="stochastic(8)", seed_sc=seed,
    ))
    return [(e.train_loss, e.train_acc, e.test_acc) for e in metrics.epochs]


# name -> the entry point's output for one seed, passed in the form it takes
ENTRY_POINTS = {
    "Lfsr": lambda s: Lfsr(s).next_words(8).tolist(),
    "word_matrix": lambda s: word_matrix([s], 8).tolist(),
    "OuterProductJob.seed_x": lambda s: _bits(
        outer_product(OuterProductJob(X, D, 16, s, OTHER)).entries
    ),
    "OuterProductJob.seed_delta": lambda s: _bits(
        outer_product(OuterProductJob(X, D, 16, OTHER, s)).entries
    ),
    "outer_product_many": lambda s: _bits(
        outer_product_many(X[None], D[None], 16, [s], [OTHER])[0]
    ),
    "outer_product_groups": lambda s: _bits(
        outer_product_groups([(X[None], D[None])], 16, [[s], [OTHER]])[0]
    ),
    "derive_seed_pairs.base_x": lambda s: [
        a.tolist() for a in derive_seed_pairs(s, OTHER, np.arange(8))
    ],
    "derive_seed_pairs.base_delta": lambda s: [
        a.tolist() for a in derive_seed_pairs(OTHER, s, np.arange(8))
    ],
    "conv_weight_update": lambda s: _bits(
        conv_weight_update(np.stack([X, X]), np.stack([D, -D]), 16, s, OTHER).entries
    ),
    "empirical_stats": lambda s: empirical_stats(X, D, 16, 8, s, OTHER).mean.tolist(),
    "TrainingConfig.seed_sc": _train,
}
BAD_SEEDS = [0, 0x10000, -1, 1.5, 2**70]


@pytest.mark.parametrize("bad", BAD_SEEDS, ids=repr)
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_every_entry_point_rejects_a_bad_seed(entry, bad):
    with pytest.raises(SeedError):
        ENTRY_POINTS[entry](bad)


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_seed_type_does_not_change_the_output(entry):
    outputs = [ENTRY_POINTS[entry](t(0x1234)) for t in (int, np.uint16, np.int64)]
    assert outputs[0] == outputs[1] == outputs[2]


@pytest.mark.parametrize("seeds", [[0x10001], np.array([0x10001]), np.array([1, -1])])
def test_batched_entry_points_reject_wide_array_seeds(seeds):
    with pytest.raises(SeedError):
        word_matrix(seeds, 4)  # 0x10001 once wrapped to seed 1, -1 to 0xFFFF
    other = np.full(len(seeds), OTHER)
    xs = np.tile(X, (len(seeds), 1))
    with pytest.raises(SeedError):
        outer_product_many(xs, xs, 16, seeds, other)


def test_seed_groups_of_different_integer_types_are_checked_apart():
    # numpy promotes a uint64 beside an int64 to float64, once rejected as "got 1.0"
    assert _bits(derive_seed_pairs(np.uint64(1), np.int64(2), [0])) == _bits(
        derive_seed_pairs(1, 2, [0])
    )
    xs = np.tile(X, (3, 1))
    ds = np.tile(D, (3, 1))
    entries, draws = outer_product_many(
        xs, ds, 16, np.array([1, 3, 5], dtype=np.uint64), np.array([2, 4, 6], dtype=np.int64)
    )
    want, want_draws = outer_product_many(xs, ds, 16, [1, 3, 5], [2, 4, 6])
    assert _bits(entries) == _bits(want) and draws == want_draws
    job = OuterProductJob(X, D, 16, np.uint64(1), np.int64(2))
    assert _bits(outer_product(job).entries) == _bits(want[0])


def test_a_mixed_seed_list_is_judged_element_by_element():
    # numpy promotes [uint64, int64] to float64, once rejected as "got 1.0"
    assert check_seeds([np.uint64(1), np.int64(3)]).tolist() == [1, 3]
    xs = np.tile(X, (2, 1))
    entries, _ = outer_product_many(xs, xs, 16, [np.uint64(1), np.int64(3)], [2, 4])
    assert _bits(entries) == _bits(outer_product_many(xs, xs, 16, [1, 3], [2, 4])[0])
    with pytest.raises(SeedError, match="got 1.5"):
        check_seeds([np.uint64(1), 1.5])
    with pytest.raises(SeedError, match="got 0x10000"):
        check_seeds((np.uint64(1), np.int64(0x10000)))


def test_a_non_integer_among_wide_counters_is_rejected():
    with pytest.raises(DomainError, match="integer"):
        derive_seed_pairs(1, 2, [2**70, 1.5])  # once a bare TypeError
    with pytest.raises(DomainError, match="integer"):
        derive_seed_pairs(1, 2, [True, 2**70])  # once the seeds of [1, 2**70]
    assert _bits(derive_seed_pairs(1, 2, [2**70 + 5, 3])) == _bits(
        derive_seed_pairs(1, 2, [5, 3])
    )


@pytest.mark.parametrize("derive", [
    lambda c: derive_seed_pairs(0xACE1, 0x2C9F, [c]),
    lambda c: derive_seed_pair(0xACE1, 0x2C9F, c),  # 1.5 once gave counter 1's seed
], ids=["derive_seed_pairs", "derive_seed"])
@pytest.mark.parametrize("counter", [np.nan, np.inf, 1.5], ids=repr)
def test_a_non_integer_counter_is_rejected(derive, counter):
    with pytest.raises(DomainError, match="integer"):
        derive(counter)


def test_word_matrix_rejects_a_two_dimensional_seed_array():
    with pytest.raises(ContractError):
        word_matrix(np.array([[1, 2]]), 4)


def test_check_seeds_names_the_value_and_returns_uint16():
    assert check_seeds([1, 0xFFFF]).dtype == np.uint16
    assert check_seeds(np.int64(7)).tolist() == 7
    with pytest.raises(SeedError, match="seed_sc must be .* got 0x10001"):
        check_seeds(0x10001, "seed_sc")
    with pytest.raises(SeedError, match="got 1.9"):
        check_seeds([[1.9], [2]])
    with pytest.raises(SeedError, match="got 0x400000000000000000"):
        check_seeds([1, 2**70])  # an object array; its first bad element is named
