"""One table of learning rates and momenta against every entry point that takes one.

apply_update multiplies by lr in binary16, so an unfolded lr (apply_update's,
and TrainingConfig's, whose biases always take it unfolded) must round to a
positive finite binary16. A folded lr only scales a job's power-of-two
scale, judged in float64: with unit-range operands, only NaN, +-inf and +-0
are refused. Every refusal is a DomainError naming the field, with no warning.
"""

import math

import numpy as np
import pytest

from scop.engine import OuterProductJob, apply_update, outer_product_groups, trial_sums
from scop.errors import DomainError
from scop.formats import write_vector
from scop.oracle import empirical_stats
from scop.train import TrainingConfig
from test_cli import input_error, run_cli

pytestmark = pytest.mark.filterwarnings("error")

LRS = [  # (lr, refused unfolded, refused folded)
    (math.nan, True, True),
    (math.inf, True, True),
    (-math.inf, True, True),
    (0.0, True, True),
    (-0.0, True, True),
    (1e-8, True, False),  # rounds to 0 in binary16
    (2**-25, True, False),  # halfway to 2^-24, the least subnormal: rounds to even, 0
    (2**-24, False, False),
    (0.1, False, False),
    (65504.0, False, False),  # binary16's max finite
    (65520.0, True, False),  # halfway from max finite to 2^16: rounds to inf
    (1e5, True, False),
    (1e308, True, False),
]
MOMENTA = [  # (momentum, refused)
    (math.nan, True),
    (-0.5, True),
    (1 - 2**-12, True),  # rounds to 1 in binary16
    (1.0, True),
    (0.0, False),
    (1 - 2**-11, False),  # the largest binary16 below 1
]

X = np.array([0.75, -0.5], dtype=np.float16)  # E_X = 0
D = np.array([1.0, -0.25], dtype=np.float16)  # E_D = 0
W = np.ones((2, 2), dtype=np.float16)

UNFOLDED = {
    "TrainingConfig": lambda lr: TrainingConfig(lr=lr),
    "apply_update": lambda lr: apply_update(W, W, lr, 0.9),
}
FOLDED = {
    "OuterProductJob": lambda lr: OuterProductJob(X, D, 16, 1, 2, lr),
    "outer_product_groups": lambda lr: outer_product_groups(
        [(X[None], D[None])], 16, np.array([[1], [2]]), lr),
    "empirical_stats": lambda lr: empirical_stats(X, D, 16, 4, 1, 2, lr=lr),
    "trial_sums": lambda lr: trial_sums(X, D, 16, [[1, 3], [2, 4]], lr),
}
MOMENTUM_TAKERS = {
    "TrainingConfig": lambda m: TrainingConfig(momentum=m),
    "apply_update": lambda m: apply_update(W, W, 0.1, m),
}


def _expect(refused, name, call, value):
    if refused:
        with pytest.raises(DomainError, match=name):
            call(value)
    else:
        call(value)


@pytest.mark.parametrize("entry", [*UNFOLDED, *FOLDED])
@pytest.mark.parametrize("lr, refused_unfolded, refused_folded", LRS)
def test_lr_rule(entry, lr, refused_unfolded, refused_folded):
    if entry in UNFOLDED:
        _expect(refused_unfolded, "lr", UNFOLDED[entry], lr)
    else:
        _expect(refused_folded, "lr", FOLDED[entry], lr)


@pytest.mark.parametrize("entry", MOMENTUM_TAKERS)
@pytest.mark.parametrize("momentum, refused", MOMENTA)
def test_momentum_rule(entry, momentum, refused):
    _expect(refused, "momentum", MOMENTUM_TAKERS[entry], momentum)


@pytest.mark.parametrize("command, tail", [
    ("outer", ["--seed-delta", "2", "--out"]),
    ("stats", ["--trials", "4", "--report"]),
])
@pytest.mark.parametrize("lr", [lr for lr, _, refused in LRS if refused])
def test_cli_refuses_a_folded_lr(tmp_path, command, tail, lr):
    xp, dp = str(tmp_path / "x.csv"), str(tmp_path / "d.csv")
    write_vector(xp, X, "csv")
    write_vector(dp, D, "csv")
    r = run_cli(command, "--x", xp, "--delta", dp, "--seq-len", "16", "--seed-x", "1",
                f"--lr={lr!r}", *tail, str(tmp_path / "out"))
    assert "lr" in input_error(r)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("line", [
    *(f"lr = {lr!r}" for lr, refused, _ in LRS if refused),
    *(f"momentum = {m!r}" for m, refused in MOMENTA if refused),
])
def test_cli_train_refuses_a_config_before_training(tmp_path, line):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"epochs = 1\nn_samples = 40\n{line}\n")
    out = tmp_path / "o"
    r = run_cli("train", "--config", str(cfg), "--out-dir", str(out))
    assert line.split()[0] in input_error(r)
    assert not out.exists()
