"""Training harness tests: configs, reproducibility, and the fp16 contract."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

import scop.train as train_module
from scop.encoder import check_seq_len
from scop.errors import DomainError
from scop.train import (
    Mlp,
    RunMetrics,
    TrainingConfig,
    parse_config,
    parse_mode,
    softmax_cross_entropy,
    train,
    write_metrics_csv,
    write_metrics_jsonl,
)
from scop.unit_cell import MAX_SEQ_LEN
from scop.train import load_config


def test_parse_mode():
    assert parse_mode("exact") == ("exact", None)
    assert parse_mode("stochastic(16)") == ("stochastic", 16)
    assert parse_mode("stochastic(2)") == ("stochastic", 2)
    assert parse_mode(f"stochastic({MAX_SEQ_LEN})") == ("stochastic", MAX_SEQ_LEN)
    for bad in ("Stochastic(16)", "stochastic(0)", "stochastic()", "sc16", "",
                f"stochastic({MAX_SEQ_LEN + 1})"):
        with pytest.raises(DomainError):
            parse_mode(bad)


def test_config_rejects_stream_longer_than_the_cell_takes():
    with pytest.raises(DomainError) as err:
        TrainingConfig(mode="stochastic(4096)")  # once accepted, then failed in training
    assert "mode" in str(err.value)


def test_config_validation_names_fields():
    cases = {
        "epochs": dict(epochs=0),
        "batch_size": dict(batch_size=0),
        "lr": dict(lr=-1.0),
        "momentum": dict(momentum=1.0),
        "mode": dict(mode="quantum"),
        "dataset": dict(dataset="mnist"),
        "topology": dict(topology=(2,)),
        "n_samples": dict(n_samples=2),
        "noise": dict(noise=-0.5),
        "seed_sc": dict(seed_sc=0),
    }
    for fieldname, kwargs in cases.items():
        with pytest.raises(DomainError) as err:
            TrainingConfig(**kwargs)
        assert fieldname in str(err.value), fieldname


@pytest.mark.parametrize("fieldname, value", [
    ("seed_data", -1),  # np.random.default_rng once rejected it mid-train
    ("seed_init", -1),
    ("noise", float("nan")),  # once trained as noise 0
    ("noise", float("inf")),
    ("lr_folded", "no"),  # once fit as lr_folded=True
    ("epochs", 2.0),  # float counts once raised TypeError inside train()
    ("batch_size", 8.5),
    ("n_samples", 40.0),
    ("topology", (2, 4.0, 2)),
    ("epochs", True),  # once trained one epoch
    ("momentum", 0.99999),  # rounds to 1 in binary16: the velocity never decayed
])
def test_config_rejects_a_bad_field_before_training(fieldname, value):
    with pytest.raises(DomainError) as err:
        TrainingConfig(**{fieldname: value})
    assert fieldname in str(err.value)


def test_config_refuses_an_lr_that_rounds_to_inf():
    with pytest.raises(DomainError, match="^lr: "):
        TrainingConfig(lr=1e5)  # once accepted: np.float16(1e5) is inf


def test_config_refuses_a_folded_lr_that_rounds_to_0():
    """The biases take lr unfolded: at 1e-8, which rounds to 0, they never moved."""
    with pytest.raises(DomainError, match="^lr: "):
        TrainingConfig(lr=1e-8, lr_folded=True, mode="stochastic(16)")


def test_config_refuses_a_digits_schedule_that_falls_to_0():
    """2e-6 falls to 2e-8 at 85% of the epochs, which rounds to 0: the last epochs did nothing."""
    TrainingConfig(lr=2e-6)  # a constant schedule keeps 2e-6, a binary16 subnormal
    with pytest.raises(DomainError, match="^lr: "):
        TrainingConfig(lr=2e-6, dataset="digits8x8", dataset_path="unread.csv",
                       topology=(64, 8, 10))


def test_parse_config_full():
    cfg = parse_config(
        """
        # comment line
        topology = 2,16,2
        epochs = 5          # trailing comment
        batch_size = 16
        lr = 0.05
        momentum = 0.8
        mode = stochastic(8)
        dataset = two-moons
        n_samples = 100
        noise = 0.2
        lr_folded = true
        seed_data = 1
        seed_init = 2
        seed_sc = 0xBEEF
        """
    )
    assert cfg.topology == (2, 16, 2)
    assert cfg.epochs == 5
    assert cfg.lr_folded is True
    assert cfg.seed_sc == 0xBEEF


def test_parse_config_rejects_unknown_key():
    with pytest.raises(DomainError) as err:
        parse_config("weight_decay = 0.1")
    assert "weight_decay" in str(err.value)


def test_parse_config_rejects_bad_syntax():
    with pytest.raises(DomainError):
        parse_config("epochs 5")
    with pytest.raises(DomainError, match="line 2: epochs"):
        parse_config("epochs = 3\nepochs = 5")  # the second once won silently
    with pytest.raises(DomainError, match="^weight_decay: unknown configuration key$"):
        parse_config("weight_decay = 0.1")
    with pytest.raises(DomainError, match="^epochs: invalid literal for int"):
        parse_config("epochs = abc")
    with pytest.raises(DomainError, match="^lr_folded: expected true/false, got 'maybe'$"):
        parse_config("lr_folded = maybe")


def test_digits_requires_path():
    with pytest.raises(DomainError) as err:
        TrainingConfig(dataset="digits8x8")
    assert "dataset_path" in str(err.value)


def test_mlp_parameters_are_binary16():
    model = Mlp((2, 8, 2), seed_init=1)
    for w, b in zip(model.weights, model.biases):
        assert w.dtype == np.float16
        assert b.dtype == np.float16
    x = np.zeros((4, 2), dtype=np.float16)
    acts = model.forward(x)
    assert all(a.dtype == np.float16 for a in acts)
    z32 = x.astype(np.float32) @ model.weights[0].astype(np.float32).T
    z = (z32 + model.biases[0].astype(np.float32)).astype(np.float16)
    assert acts[1].tolist() == np.maximum(z, 0).tolist()


def test_softmax_cross_entropy_gradient_shape():
    logits = np.array([[2.0, -1.0], [0.0, 0.0]], dtype=np.float16)
    labels = np.array([0, 1])
    loss, probs, grad = softmax_cross_entropy(logits, labels)
    assert math.isfinite(loss)
    assert np.allclose(probs.sum(axis=1), 1.0)
    assert np.allclose(grad.sum(axis=1), 0.0, atol=1e-12)
    assert grad[0, 0] < 0  # true class pulls its logit up


def _tiny(mode, **kwargs):
    base = dict(
        topology=(2, 8, 2), epochs=3, n_samples=120, mode=mode,
        seed_data=5, seed_init=6, seed_sc=0x0703,
    )
    base.update(kwargs)
    return TrainingConfig(**base)


def test_exact_training_learns_something():
    metrics = train(_tiny("exact", epochs=30))
    assert not metrics.diverged
    assert len(metrics.epochs) == 30
    assert metrics.final_test_acc > 0.8
    assert metrics.epochs[-1].train_loss < metrics.epochs[0].train_loss


def test_training_is_reproducible():
    a = train(_tiny("stochastic(8)"))
    b = train(_tiny("stochastic(8)"))
    assert [e.train_loss for e in a.epochs] == [e.train_loss for e in b.epochs]
    assert a.final_test_acc == b.final_test_acc


def test_modes_differ_but_both_learn():
    exact = train(_tiny("exact"))
    stochastic = train(_tiny("stochastic(2)"))
    assert [e.train_loss for e in exact.epochs] != [
        e.train_loss for e in stochastic.epochs
    ]


def test_lr_folded_runs():
    metrics = train(_tiny("stochastic(8)", lr_folded=True, epochs=5))
    assert not metrics.diverged
    assert len(metrics.epochs) == 5


def test_seed_sc_changes_stochastic_run_only():
    a = train(_tiny("stochastic(8)"))
    b = train(_tiny("stochastic(8)", seed_sc=0x0917))
    assert [e.train_loss for e in a.epochs] != [e.train_loss for e in b.epochs]
    c = train(_tiny("exact"))
    d = train(_tiny("exact", seed_sc=0x0917))
    assert [e.train_loss for e in c.epochs] == [e.train_loss for e in d.epochs]


def test_topology_must_match_dataset():
    with pytest.raises(DomainError):
        train(_tiny("exact", topology=(3, 8, 2)))
    with pytest.raises(DomainError):
        train(_tiny("exact", topology=(2, 8, 5)))


def test_metrics_csv_format(tmp_path):
    metrics = train(_tiny("exact", epochs=2))
    path = str(tmp_path / "m.csv")
    write_metrics_csv(metrics, path)
    lines = Path(path).read_text().splitlines()
    assert lines[0] == "epoch,train_loss,train_acc,test_acc"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "0"
    assert all(float(v) >= 0 for v in first[1:])


@pytest.mark.parametrize("mode", ["exact", "stochastic(16)"])
def test_train_calls_forward_and_backward_once_a_step(monkeypatch, mode):
    """forward runs once a step and once an epoch to evaluate; backward once a step.

    The bench times a step from one forward call to the next, so it relies on this.
    """
    config = _tiny(mode)
    n_train = train_module._load_dataset(config).x_train.shape[0]
    steps = -(-n_train // config.batch_size)
    calls = {"forward": 0, "backward": 0, "dead units": 0}

    class Counted(Mlp):
        def forward(self, x):
            calls["forward"] += 1
            return super().forward(x)

        def backward(self, acts, error):
            calls["backward"] += 1
            layers = super().backward(acts, error)
            assert len(layers) == len(self.weights)
            for i, (a, d) in enumerate(layers):
                assert np.array_equal(a.view(np.uint16), acts[i].view(np.uint16))
                if i + 1 < len(layers):  # a hidden unit that ReLU zeroed has error +-0
                    dead = acts[i + 1] == 0
                    assert (d[dead] == 0).all()
                    calls["dead units"] += int(dead.sum())
            return layers

    monkeypatch.setattr(train_module, "Mlp", Counted)
    metrics = train(config)
    assert not metrics.diverged and len(metrics.epochs) == config.epochs
    assert calls["forward"] == config.epochs * steps + config.epochs
    assert calls["backward"] == config.epochs * steps
    assert calls["dead units"] > 0


class _OverflowingBackward(Mlp):
    """A net whose forward pass stays finite but whose backward overflows.

    Every hidden unit but one is dead. The live one carries 2^-11 into
    output weights +-40960, so the logits are (+20, -20) and class 0 is
    certain. A label-1 sample's output error (1, -1) then sends back
    2 * 40960 to the live unit, past binary16's 65504: inf.
    """

    def __init__(self, topology, seed_init):
        super().__init__(topology, seed_init)
        self.weights[0][:] = 0
        self.biases[0][:] = 0
        self.biases[0][0] = 2.0**-11
        self.weights[1][:] = 0
        self.weights[1][:, 0] = (40960, -40960)


@pytest.mark.parametrize("mode", ["exact", "stochastic(16)"])
def test_non_finite_layer_error_ends_fit_diverged(monkeypatch, mode):
    model = _OverflowingBackward((2, 8, 2), seed_init=6)
    acts = model.forward(np.array([[0.5, 0.5]], dtype=np.float16))
    assert np.isfinite(acts[-1]).all()
    with np.errstate(over="ignore"):
        layers = model.backward(acts, np.array([[1.0, -1.0]], dtype=np.float16))
    assert not np.isfinite(layers[0][1]).all()

    monkeypatch.setattr(train_module, "Mlp", _OverflowingBackward)
    metrics = train(_tiny(mode))
    assert metrics.diverged


class _LastLayerOverflow(Mlp):
    """A net whose output layer's error is inf while the earlier layers' stay finite."""

    def backward(self, acts, error):
        layers = super().backward(acts, error)
        a, d = layers[-1]
        d = d.copy()
        d[0, 0] = np.inf
        return layers[:-1] + [(a, d)]


@pytest.mark.parametrize("net, updated", [
    (_OverflowingBackward, []),  # layer 0's error overflows: nothing updates
    (_LastLayerOverflow, [0]),  # layer 1's error is inf: layer 0 still updates
])
def test_diverging_step_updates_the_layers_before_the_first_non_finite_one(
    monkeypatch, net, updated
):
    models = []
    before = []  # the parameters as each step's forward pass found them

    class Kept(net):
        def __init__(self, *args):
            super().__init__(*args)
            models.append(self)

        def forward(self, x):
            before.append([p.copy() for p in self.weights + self.biases])
            return super().forward(x)

    monkeypatch.setattr(train_module, "Mlp", Kept)
    metrics = train(_tiny("stochastic(16)"))
    assert metrics.diverged and not metrics.epochs
    model = models[-1]
    after = model.weights + model.biases
    n = len(model.weights)
    for k, (old, new) in enumerate(zip(before[-1], after)):
        changed = not np.array_equal(old.view(np.uint16), new.view(np.uint16))
        assert changed == (k % n in updated), k


def test_an_update_that_leaves_inf_at_an_epochs_end_ends_the_fit_diverged(monkeypatch):
    """The epoch's closing evaluation is NaN; it must not be logged as an accuracy."""
    config = _tiny("exact", epochs=2)
    n_train = train_module._load_dataset(config).x_train.shape[0]
    last = 2 * 2 * config.epochs * -(-n_train // config.batch_size)  # w and b of 2 layers a step
    apply, calls = train_module.apply_update, []

    def update(weights, *args):
        new, velocity = apply(weights, *args)
        calls.append(1)
        return (np.full_like(new, np.inf) if len(calls) == last else new), velocity

    monkeypatch.setattr(train_module, "apply_update", update)
    metrics = train(config)
    assert len(calls) == last
    assert metrics.diverged
    assert [e.epoch for e in metrics.epochs] == [0]
    assert metrics.final_test_acc == metrics.epochs[0].test_acc


def test_a_one_to_one_layers_batch_is_summed_one_binary16_add_at_a_time(monkeypatch):
    """[2048, 1, ..., 1] sums to 2048 in binary16 adds; np.sum added it in float32 (2080)."""
    groups, apply = train_module.outer_product_groups, train_module.apply_update
    batches, updates = [], []

    def forged_groups(layers, *args):
        entries = groups(layers, *args)
        if not batches:  # the first step: the 1 -> 1 layer gets [2048, 1, ..., 1]
            batches.append(len(layers[1][0]))
            entries[1] = np.ones_like(entries[1])
            entries[1][0] = 2048
        return entries

    def recorded_apply(weights, update, *args):
        updates.append(np.asarray(update))
        return apply(weights, update, *args)

    monkeypatch.setattr(train_module, "outer_product_groups", forged_groups)
    monkeypatch.setattr(train_module, "apply_update", recorded_apply)
    train(_tiny("stochastic(16)", topology=(2, 1, 1, 2), epochs=1))
    (b,) = batches
    assert b == 32
    # the first step applies layer 0's weights and bias, then layer 1's weights
    want = np.float16(2048) * np.float16(1.0 / b)
    assert updates[2].view(np.uint16).tolist() == [[int(want.view(np.uint16))]]


def test_load_config_rejects_non_utf8_bytes(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_bytes(b"epochs = 2\nmode = exact\xff\n")
    with pytest.raises(DomainError, match="bad.cfg: not UTF-8"):
        load_config(str(path))


def test_metrics_jsonl_lines(tmp_path):
    metrics = train(_tiny("exact", epochs=2))
    path = tmp_path / "m.jsonl"
    write_metrics_jsonl(metrics, str(path))
    expected = [
        json.dumps({
            "epoch": e.epoch, "train_loss": e.train_loss,
            "train_acc": e.train_acc, "test_acc": e.test_acc,
        })
        for e in metrics.epochs
    ]
    assert path.read_text() == "".join(line + "\n" for line in expected)
    first = json.loads(expected[0])
    assert list(first) == ["epoch", "train_loss", "train_acc", "test_acc"]


@pytest.mark.parametrize("epochs", [7, 20, 200])
def test_lr_schedule_steps_for_digits_only(epochs):
    digits = TrainingConfig(
        dataset="digits8x8", dataset_path="unread.csv", epochs=epochs, lr=0.5
    )
    first_step = math.floor(0.6 * epochs)
    second_step = math.floor(0.85 * epochs)
    for epoch in range(epochs):
        if epoch < first_step:
            expected = 0.5
        elif epoch < second_step:
            expected = 0.5 * 0.1
        else:
            expected = 0.5 * 0.01
        assert train_module._lr_at(digits, epoch) == expected, epoch
    moons = TrainingConfig(epochs=epochs, lr=0.5)
    assert {train_module._lr_at(moons, e) for e in range(epochs)} == {0.5}


def test_exact_fit_on_tiny_digits_csv(tmp_path):
    path = tmp_path / "digits.csv"
    rng = np.random.default_rng(3)
    rows = [
        ",".join(str(p) for p in rng.integers(0, 17, 64)) + f",{i % 10}"
        for i in range(30)
    ]
    path.write_text("\n".join(rows) + "\n")
    config = TrainingConfig(
        topology=(64, 8, 10), epochs=2, batch_size=8, dataset="digits8x8",
        dataset_path=str(path), mode="exact",
    )
    metrics = train(config)
    assert not metrics.diverged
    assert [e.epoch for e in metrics.epochs] == [0, 1]
    assert all(math.isfinite(e.train_loss) for e in metrics.epochs)


def test_parse_mode_applies_the_stream_length_rule():
    for bad in (0, MAX_SEQ_LEN + 1):
        with pytest.raises(DomainError) as want:
            check_seq_len(bad)
        with pytest.raises(DomainError) as err:
            parse_mode(f"stochastic({bad})")
        assert str(err.value) == f"mode: {want.value}"


def test_underflowing_folded_lr_names_lr():
    with pytest.raises(DomainError, match="lr"):
        train(_tiny("stochastic(16)", lr_folded=True, lr=5e-324, epochs=1))
