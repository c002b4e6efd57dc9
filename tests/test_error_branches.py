"""Input errors that no other test reaches: each raises its class with its message."""

import numpy as np
import pytest

from scop.datasets import load_digits_csv
from scop.encoder import encode_with_words
from scop.engine import apply_update, check_seed_pairs
from scop.errors import ContractError, DomainError
from scop.oracle import effective_probability, enumerate_unit_cell, exact_outer


def _three_digit_rows(tmp_path):
    path = tmp_path / "digits.csv"
    path.write_text("".join(",".join(["0"] * 64) + f",{i}\n" for i in range(3)))
    return load_digits_csv(str(path))


# name -> (call taking a scratch directory, error class, message)
CASES = {
    "check_seed_pairs.unequal_rows": (
        lambda _: check_seed_pairs([1, 2], [3]),
        ContractError, "need one seed_x and one seed_delta per job"),
    "apply_update.velocity_shape": (
        lambda _: apply_update(np.zeros(2), np.zeros(2), 0.1, 0.9, np.zeros(3)),
        ContractError, "velocity shape mismatch"),
    "exact_outer.matrix": (
        lambda _: exact_outer(np.ones((2, 2)), np.ones(2)),
        ContractError, "x and delta must be 1-D vectors"),
    "effective_probability.word_bits": (
        lambda _: effective_probability(0.5, 0, 0),
        DomainError, "word_bits must be at least 1"),
    "enumerate_unit_cell.operand_range": (
        lambda _: enumerate_unit_cell(2.0, 0.5, 0, 0, 1, 2),
        DomainError, "operand exceeds its exponent range"),
    "encode_with_words.no_words": (
        lambda _: encode_with_words(0.5, 0, []),
        DomainError, "need at least one word"),
    "load_digits_csv.three_rows": (
        _three_digit_rows,
        DomainError, "need at least 4 rows"),
}


@pytest.mark.parametrize("case", CASES)
def test_an_error_branch_raises_its_class_and_message(case, tmp_path):
    call, error, message = CASES[case]
    with pytest.raises(Exception) as err:
        call(tmp_path)
    assert type(err.value) is error and str(err.value) == message
