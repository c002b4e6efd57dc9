"""One integer rule for stream lengths, word counts and trial counts.

A float that names a whole number, or a bool, is still rejected, with
DomainError (CLI exit 2), before any work; Python ints and numpy integers
are accepted.
"""

import numpy as np
import pytest

from scop.encoder import check_seq_len, encode
from scop.engine import (
    OuterProductJob, outer_product, outer_product_groups, outer_product_many, trial_sums,
)
from scop.errors import DomainError
from scop.lfsr import Lfsr, word_matrix
from scop.oracle import empirical_stats

X = np.array([0.5, -0.25, 0.125], dtype=np.float16)
D = np.array([1.0, -0.75], dtype=np.float16)


def _bits(a):
    return np.asarray(a).view(np.uint16).tolist()


# name -> the entry point's output for one length or count n
ENTRY_POINTS = {
    "check_seq_len": lambda n: check_seq_len(n),
    "OuterProductJob.seq_len": lambda n: _bits(
        outer_product(OuterProductJob(X, D, n, 1, 2)).entries
    ),
    "outer_product_many.seq_len": lambda n: _bits(
        outer_product_many(X[None], D[None], n, [1], [2])[0]
    ),
    "outer_product_groups.seq_len": lambda n: _bits(
        outer_product_groups([(X[None], D[None])], n, [[1], [2]])[0]
    ),
    "trial_sums.seq_len": lambda n: trial_sums(X, D, n, [[1, 3], [2, 4]]).tolist(),
    "word_matrix.n": lambda n: word_matrix([1], n).tolist(),
    "Lfsr.next_words": lambda n: Lfsr(1).next_words(n).tolist(),
    "encode.seq_len": lambda n: encode(0.5, 0, Lfsr(1), n).bits,
    "empirical_stats.trials": lambda n: empirical_stats(X, D, 16, n).mean.tolist(),
}


@pytest.mark.parametrize("bad", [16.0, 2.5, np.float64(8), "8", True], ids=repr)
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_every_entry_point_rejects_a_non_integer(entry, bad):
    with pytest.raises(DomainError, match="integer"):
        ENTRY_POINTS[entry](bad)  # floats once raised numpy's TypeError


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_integer_type_does_not_change_the_output(entry):
    outputs = [ENTRY_POINTS[entry](t(8)) for t in (int, np.uint16, np.int64)]
    assert outputs[0] == outputs[1] == outputs[2]
