"""One digest over short fits' final parameters and per-epoch metrics.

Each fit builds its model through train.Mlp, so the test keeps the last
model built and hashes its binary16 weights and biases with every epoch's
loss and accuracies. A shifted seed counter, a reordered layer update or a
changed stream bit moves the digest.
"""

import hashlib

import numpy as np
import pytest

import scop.train as train_module
from scop.train import TrainingConfig, train

# 120 samples split 96 / 24; batch 20 leaves a short last batch of 16
FITS = (
    dict(mode="stochastic(16)"),
    dict(mode="stochastic(2)", lr_folded=True),
    dict(mode="stochastic(8)", topology=(2, 8, 8, 2)),
    dict(mode="stochastic(16)", batch_size=20),
    dict(mode="exact", batch_size=20),
)
DIGEST = "2a6d6ac2fb6289a8efdceb62eaccdbe289dccf56de1b94fd9f59d39601051d74"


@pytest.fixture
def models(monkeypatch):
    built = []

    class Kept(train_module.Mlp):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(train_module, "Mlp", Kept)
    return built


def _hash_fit(h, model, metrics):
    for array in model.weights + model.biases:
        h.update(array.view(np.uint16).tobytes())
    per_epoch = [(e.train_loss, e.train_acc, e.test_acc) for e in metrics.epochs]
    h.update(np.array(per_epoch, dtype=np.float64).tobytes())
    h.update(f"{metrics.diverged};".encode())


def test_fit_digest_is_unchanged(models):
    h = hashlib.sha256()
    for fit in FITS:
        config = dict(topology=(2, 8, 2), epochs=3, n_samples=120,
                      seed_data=5, seed_init=6, seed_sc=0x0703)
        config.update(fit)
        metrics = train(TrainingConfig(**config))
        _hash_fit(h, models[-1], metrics)
    assert h.hexdigest() == DIGEST


# ReLU zeros every hidden unit of some samples: 7 of each fit's 9 steps mix dead and live jobs
MIXED_DIGEST = "1aca20084cd9fbe5963f359f21f8e30cc024755d19633f5ed0010020ab5f7483"


def test_fits_whose_steps_mix_dead_and_live_jobs_keep_their_digest(models, monkeypatch):
    mixed = []
    real = train_module.outer_product_groups

    def counted(groups, *args):
        dead = np.concatenate([~(xs.any(axis=1) & ds.any(axis=1)) for xs, ds in groups])
        mixed.append(dead.any() and not dead.all())
        return real(groups, *args)

    monkeypatch.setattr(train_module, "outer_product_groups", counted)
    h = hashlib.sha256()
    for mode in ("stochastic(16)", "stochastic(2)"):
        mixed.clear()
        metrics = train(TrainingConfig(mode=mode, topology=(2, 8, 2), epochs=3, n_samples=120,
                                       seed_data=3, seed_init=4, seed_sc=0x0703))
        assert any(mixed), mode  # the fit exercises a call with both kinds of job
        _hash_fit(h, models[-1], metrics)
    assert h.hexdigest() == MIXED_DIGEST
