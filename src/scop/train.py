"""Toy MLP training harness comparing exact and stochastic weight updates.

The network stores weights, activations, and error signals in binary16.
Matrix products run through float32 accumulators and round back to binary16
at layer boundaries, so the stored tensors behave like a 16-bit datapath
without compounding rounding inside a dot product.

Mlp.backward returns one (input, error) pair per layer; the layer's weight
gradient comes from one of two per-batch routes, selected by mode:

* exact: float64 mean of per-sample outer products, quantized to binary16.
* stochastic(M): one outer-product job per sample through the bitstream
  engine; the jobs are summed in batch order, rounding to binary16 after
  each add (engine.sum_updates), then multiplied by binary16 1/b.

Bias gradients always take the exact route; the outer-product unit only
covers the weight grid. Updates are momentum SGD in binary16 either way.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .datasets import Dataset, generate_two_moons, load_digits_csv
from .encoder import check_seq_len
from .engine import apply_update, derive_seed_pairs, outer_product_groups, sum_updates
from .errors import DomainError, is_int
from .formats import read_text
from .lfsr import check_seeds

_MODE_RE = re.compile(r"^stochastic\((\d+)\)$")


def parse_mode(mode: str) -> tuple[str, int | None]:
    """'exact' -> ('exact', None); 'stochastic(M)' -> ('stochastic', M)."""
    if mode == "exact":
        return "exact", None
    m = _MODE_RE.match(mode)
    if m:
        seq_len = int(m.group(1))
        try:
            check_seq_len(seq_len)
        except DomainError as exc:
            raise DomainError(f"mode: {exc}") from None
        return "stochastic", seq_len
    raise DomainError(f"mode: expected 'exact' or 'stochastic(M)', got {mode!r}")


@dataclass
class TrainingConfig:
    topology: tuple[int, ...] = (2, 16, 2)
    epochs: int = 200
    batch_size: int = 32
    lr: float = 0.1
    momentum: float = 0.9
    mode: str = "exact"
    dataset: str = "two-moons"
    dataset_path: str | None = None
    n_samples: int = 2000
    noise: float = 0.1
    lr_folded: bool = False
    seed_data: int = 7
    seed_init: int = 11
    seed_sc: int = 0xACE1

    def __post_init__(self):
        if len(self.topology) < 2 or not all(is_int(n, 1) for n in self.topology):
            raise DomainError("topology: need at least two positive integer layer sizes")
        for name, low in (("epochs", 1), ("batch_size", 1), ("n_samples", 4),
                          ("seed_data", 0), ("seed_init", 0)):
            if not is_int(getattr(self, name), low):
                raise DomainError(f"{name}: must be an integer of at least {low}")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise DomainError("lr: must be finite and positive")
        if not 0 <= self.momentum < 1:
            raise DomainError("momentum: must be in [0, 1)")
        parse_mode(self.mode)
        if self.dataset not in ("two-moons", "digits8x8"):
            raise DomainError(f"dataset: unknown dataset {self.dataset!r}")
        if self.dataset == "digits8x8" and not self.dataset_path:
            raise DomainError("dataset_path: required for digits8x8")
        if not 0 <= self.noise < math.inf:  # NaN fails every compare
            raise DomainError("noise: must be finite and nonnegative")
        if not isinstance(self.lr_folded, (bool, np.bool_)):
            raise DomainError(f"lr_folded: must be true or false, got {self.lr_folded!r}")
        check_seeds(self.seed_sc, "seed_sc")


@dataclass(frozen=True)
class EpochMetrics:
    epoch: int
    train_loss: float
    train_acc: float
    test_acc: float


@dataclass
class RunMetrics:
    mode: str
    epochs: list[EpochMetrics] = field(default_factory=list)
    final_test_acc: float = 0.0
    diverged: bool = False


class Mlp:
    """Fully connected ReLU network with binary16 parameters."""

    def __init__(self, topology, seed_init: int):
        rng = np.random.default_rng(seed_init)
        self.weights = []
        self.biases = []
        for n_in, n_out in zip(topology[:-1], topology[1:]):
            std = math.sqrt(2.0 / n_in)
            w = rng.standard_normal((n_out, n_in)) * std
            self.weights.append(w.astype(np.float16))
            self.biases.append(np.zeros(n_out, dtype=np.float16))

    def forward(self, x: np.ndarray):
        """Activations per layer: [0] is the input, [-1] the logits."""
        acts = [np.asarray(x, dtype=np.float16)]
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            z32 = acts[-1].astype(np.float32) @ w.astype(np.float32).T
            z = (z32 + b.astype(np.float32)).astype(np.float16)
            acts.append(z if i == last else np.maximum(z, np.float16(0)))
        return acts

    def backward(self, acts, error: np.ndarray):
        """One (input, error) pair per layer, in binary16, from acts and the logits' error."""
        deltas = [np.asarray(error, dtype=np.float16)]
        for i in range(len(self.weights) - 1, 0, -1):
            back32 = deltas[0].astype(np.float32) @ self.weights[i].astype(np.float32)
            gate = acts[i] > 0  # max(z, 0) > 0 is z > 0, NaN and -0 included
            deltas.insert(0, (back32 * gate).astype(np.float16))
        return list(zip(acts, deltas))


def softmax_cross_entropy(logits: np.ndarray, labels: np.ndarray):
    """(loss, probabilities, output error), computed in float64."""
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max(axis=1, keepdims=True)
    ez = np.exp(z)
    probs = ez / ez.sum(axis=1, keepdims=True)
    n = labels.shape[0]
    picked = probs[np.arange(n), labels]
    loss = float(-np.mean(np.log(np.maximum(picked, 1e-300))))
    grad = probs.copy()
    grad[np.arange(n), labels] -= 1.0
    return loss, probs, grad


def _load_dataset(config: TrainingConfig) -> Dataset:
    if config.dataset == "two-moons":
        return generate_two_moons(config.n_samples, config.noise, config.seed_data)
    return load_digits_csv(config.dataset_path, seed=config.seed_data)


def _lr_at(config: TrainingConfig, epoch: int) -> float:
    """Constant for two-moons; x0.1 steps at 60% and 85% for digits8x8."""
    if config.dataset != "digits8x8":
        return config.lr
    lr = config.lr
    if epoch >= math.floor(0.85 * config.epochs):
        lr *= 0.01
    elif epoch >= math.floor(0.6 * config.epochs):
        lr *= 0.1
    return lr


def evaluate(model: Mlp, x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """(accuracy, mean cross-entropy) over a split."""
    loss, probs, _ = softmax_cross_entropy(model.forward(x)[-1], y)
    acc = float(np.mean(probs.argmax(axis=1) == y))
    return acc, loss


@np.errstate(over="ignore", invalid="ignore")
def train(config: TrainingConfig) -> RunMetrics:
    """Fit config's network; a non-finite step loss, layer operand or test loss ends it diverged."""
    kind, seq_len = parse_mode(config.mode)
    data = _load_dataset(config)
    if data.n_features != config.topology[0]:
        raise DomainError(
            f"topology: first layer is {config.topology[0]}, "
            f"dataset has {data.n_features} features"
        )
    if data.n_classes != config.topology[-1]:
        raise DomainError(
            f"topology: last layer is {config.topology[-1]}, "
            f"dataset has {data.n_classes} classes"
        )

    model = Mlp(config.topology, config.seed_init)
    shuffle_rng = np.random.default_rng([config.seed_data, 0xC0FFEE])
    x_train = data.x_train.astype(np.float16)
    y_train = data.y_train
    n_train = x_train.shape[0]

    n_layers = len(model.weights)
    velocities_w = [None] * n_layers
    velocities_b = [None] * n_layers
    base_x = config.seed_sc
    base_d = (config.seed_sc ^ 0xA5A5) or 0xA5A5
    folded = config.lr_folded and kind == "stochastic"

    metrics = RunMetrics(mode=config.mode)
    for epoch in range(config.epochs):
        lr = _lr_at(config, epoch)
        order = shuffle_rng.permutation(n_train)
        if kind == "stochastic":
            # one seed pair per job: sample i of the step at lo takes counter
            # (epoch * n_train + lo) * n_layers + layer * b + i in layer `layer`;
            # each step's outer_product_groups call checks its pairs
            counters = epoch * n_train * n_layers + np.arange(n_train * n_layers)
            plan = derive_seed_pairs(base_x, base_d, counters)
        epoch_loss = 0.0
        epoch_hits = 0
        for lo in range(0, n_train, config.batch_size):
            idx = order[lo : lo + config.batch_size]
            xb = x_train[idx]
            yb = y_train[idx]
            b = xb.shape[0]

            acts = model.forward(xb)
            loss, probs, grad64 = softmax_cross_entropy(acts[-1], yb)
            epoch_loss += loss * b
            epoch_hits += int(np.sum(probs.argmax(axis=1) == yb))
            if not math.isfinite(loss):
                metrics.diverged = True
                break
            layers = model.backward(acts, grad64.astype(np.float16))

            if kind == "exact":
                grads_w = [
                    (d.astype(np.float64).T @ a.astype(np.float64) / b).astype(np.float16)
                    for a, d in layers
                ]
            else:
                seeds = plan[:, lo * n_layers : (lo + b) * n_layers]  # b per layer, in order
                fold = lr if folded else None
                try:
                    updates = outer_product_groups(layers, seq_len, seeds, fold)
                except DomainError:
                    # a layer operand that overflowed to inf or NaN ends the fit once
                    # the layers before it update; any other fault propagates
                    finite = [np.isfinite(a).all() and np.isfinite(d).all() for a, d in layers]
                    if all(finite):
                        raise
                    metrics.diverged, n = True, finite.index(False)
                    updates = outer_product_groups(
                        layers[:n], seq_len, seeds[:, : n * b], fold) if n else []
                grads_w = [sum_updates(e) * np.float16(1.0 / b) for e in updates]

            for layer, (grad_w, (_, d)) in enumerate(zip(grads_w, layers)):
                grad_b = d.astype(np.float64).mean(axis=0).astype(np.float16)
                model.weights[layer], velocities_w[layer] = apply_update(
                    model.weights[layer], grad_w, lr, folded,
                    config.momentum, velocities_w[layer],
                )
                model.biases[layer], velocities_b[layer] = apply_update(
                    model.biases[layer], grad_b, lr, False,
                    config.momentum, velocities_b[layer],
                )
            if metrics.diverged:
                break
        if not metrics.diverged:
            test_acc, test_loss = evaluate(model, data.x_test, data.y_test)
            metrics.diverged = not math.isfinite(test_loss)
        if metrics.diverged:
            break
        metrics.epochs.append(
            EpochMetrics(
                epoch=epoch,
                train_loss=epoch_loss / n_train,
                train_acc=epoch_hits / n_train,
                test_acc=test_acc,
            )
        )
    if metrics.epochs:
        metrics.final_test_acc = metrics.epochs[-1].test_acc
    return metrics


def write_metrics_csv(metrics: RunMetrics, path: str) -> None:
    with open(path, "w") as fh:
        fh.write("epoch,train_loss,train_acc,test_acc\n")
        for e in metrics.epochs:
            fh.write(
                f"{e.epoch},{e.train_loss:.6f},{e.train_acc:.6f},{e.test_acc:.6f}\n"
            )


def write_metrics_jsonl(metrics: RunMetrics, path: str) -> None:
    with open(path, "w") as fh:
        for e in metrics.epochs:
            fh.write(json.dumps(asdict(e)) + "\n")


_BOOL_WORDS = {"true": True, "false": False, "1": True, "0": False}
_DEFAULTS = {f.name: f.default for f in fields(TrainingConfig)}


def parse_config(text: str) -> TrainingConfig:
    """key = value lines, # comments. Unknown, repeated or malformed keys are errors."""
    kwargs = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DomainError(f"line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key in kwargs:
            raise DomainError(f"line {lineno}: {key} is set twice")
        try:
            kwargs[key] = _parse_field(key, value)
        except ValueError as exc:
            raise DomainError(f"{key}: {exc}") from exc
    return TrainingConfig(**kwargs)


def _parse_field(key: str, value: str):
    if key not in _DEFAULTS:
        raise ValueError("unknown configuration key")
    default = _DEFAULTS[key]
    if isinstance(default, bool):  # before int: a bool is an int
        if value.lower() not in _BOOL_WORDS:
            raise ValueError(f"expected true/false, got {value!r}")
        return _BOOL_WORDS[value.lower()]
    if isinstance(default, tuple):
        return tuple(int(v) for v in value.split(","))
    if isinstance(default, int):
        return int(value, 0 if key == "seed_sc" else 10)  # seed_sc takes hex like 0xACE1
    return float(value) if isinstance(default, float) else value


def load_config(path: str) -> TrainingConfig:
    return parse_config(read_text(path))
