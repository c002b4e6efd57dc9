"""One table of operand values against every entry point that casts operands to binary16.

A finite value that the float16 cast rounds to inf (|v| >= 65520, halfway from
binary16's max finite to 2^16) is refused before the cast: a DomainError naming
the operand, with no warning. NaN and inf go on to each entry point's own check,
and an operand that is already binary16 is taken as it is, unchecked.
"""

import math

import numpy as np
import pytest

from scop import fp16
from scop.engine import (
    OuterProductJob, apply_update, outer_product_groups, outer_product_many, trial_sums,
)
from scop.errors import DomainError
from scop.oracle import empirical_stats

pytestmark = pytest.mark.filterwarnings("error")

VALUES = [  # (value, refused)
    (65504.0, False),  # binary16's max finite
    (65519.0, False),  # rounds down to max finite
    (-65519.0, False),
    (65520.0, True),  # rounds to inf
    (-65520.0, True),
    (1e5, True),
    (1e308, True),
]

X = [0.75, -0.5]
D = [1.0, -0.25]
W = np.ones(2, dtype=np.float16)


def _with(values, v):
    """values as float64 with v in the last place."""
    return np.array([*values[:-1], v])


ENTRY_POINTS = {  # (call with v planted, the operand named in the refusal)
    "OuterProductJob x": (lambda v: OuterProductJob(_with(X, v), D, 16, 1, 2), "x"),
    "OuterProductJob delta": (lambda v: OuterProductJob(X, _with(D, v), 16, 1, 2), "delta"),
    "outer_product_many": (
        lambda v: outer_product_many(_with(X, v)[None], np.array([D]), 16, [1], [2]), "x"),
    "outer_product_groups": (
        lambda v: outer_product_groups([(np.array([X]), _with(D, v)[None])], 16, [[1], [2]]),
        "delta"),
    "empirical_stats": (lambda v: empirical_stats(_with(X, v), D, 16, 4), "x"),
    "trial_sums": (lambda v: trial_sums(X, _with(D, v), 16, [[1, 3], [2, 4]]), "delta"),
    "apply_update update": (lambda v: apply_update(W, _with(D, v), 0.1, 0.9), "update"),
    "apply_update weights": (lambda v: apply_update(_with(D, v), W, 0.1, 0.9), "weights"),
    "apply_update velocity": (lambda v: apply_update(W, W, 0.1, 0.9, _with(D, v)), "velocity"),
}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("value, refused", VALUES)
def test_operand_range_rule(entry, value, refused):
    call, name = ENTRY_POINTS[entry]
    if refused:
        with pytest.raises(DomainError, match=f"^{name}: .* beyond binary16's range"):
            call(value)
    else:
        call(value)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_non_finite_operands_are_refused_as_non_finite(value):
    with pytest.raises(DomainError, match="finite"):
        outer_product_many(_with(X, value)[None], np.array([D]), 16, [1], [2])
    with pytest.raises(DomainError, match="finite"):
        empirical_stats(X, _with(D, value), 16, 4)


def test_a_binary16_operand_is_taken_as_it_is():
    v = np.array([65504.0, -np.inf], dtype=np.float16)
    assert fp16.as_binary16(v, "x") is v
    wide = fp16.as_binary16(np.array([65519.0, -0.0]), "x")
    assert wide.dtype == np.float16 and wide.view(np.uint16).tolist() == [0x7BFF, 0x8000]
