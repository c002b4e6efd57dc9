"""Outer-product engine: two generators drive a whole update matrix.

One job encodes vector x against E_X = ceil-pow2(max |x|) and vector delta
against E_D likewise, using exactly one generator per vector: every element
of x sees the same seq_len words, every element of delta sees the other
seq_len words. Entry (j, i) of the update is the unit-cell product of
delta_j and x_i, so a full N_D x N_X matrix costs 2 * seq_len draws total.
A job whose x or delta is all zeros short-circuits to the zero matrix and
draws nothing.

Single jobs and batches share one cell-array core, a single job being a
batch of one. It works as the unit cells do:

* count: each row of stream bits is packed into machine words (np.packbits;
  one uint8/16/32/64 word when the row fills 1, 2, 4 or 8 bytes, else
  zero-padded to whole uint64 words). Entry (j, i) counts popcount(d_j & x_i)
  summed over the words, in uint16 (counts <= 2048).
* pack: each job's scale exponent fixes a (2, seq_len + 1) binary16 table,
  the packed output for every sign and every count 0..seq_len; an entry is
  the table value at its XOR sign and its count. Count 0 packs +0 for
  either sign.

apply_update folds the matrix into weights with momentum, every arithmetic
step rounded to binary16.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .encoder import check_seq_len, encode_matrix, vector_exponent
from .errors import ContractError, DomainError
from .fp16 import MAX_FINITE, PowerOfTwoScale
from .lfsr import Lfsr, word_matrix
from .unit_cell import f_scale, f_scale_with_lr

# fallback when seed derivation lands on the absorbing state
_SEED_FALLBACK = 0x5EED
_COUNTER_MASK = (1 << 48) - 1
_MASK64 = (1 << 64) - 1


def _check_seed_word(value: int, name: str) -> None:
    if not 0 < value <= 0xFFFF:
        raise DomainError(f"{name} must be a nonzero 16-bit word, got {value!r}")


@dataclass
class OuterProductJob:
    """One update-matrix computation: operands, stream length, seeds."""

    x: np.ndarray
    delta: np.ndarray
    seq_len: int
    seed_x: int
    seed_delta: int
    lr: float | None = None

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=np.float16)
        self.delta = np.asarray(self.delta, dtype=np.float16)
        for name, vec in (("x", self.x), ("delta", self.delta)):
            if vec.ndim != 1 or vec.size == 0:
                raise DomainError(f"{name} must be a nonempty vector")
            if not np.all(np.isfinite(vec)):
                raise DomainError(f"{name} entries must be finite")
        check_seq_len(self.seq_len)
        _check_seed_word(self.seed_x, "seed_x")
        _check_seed_word(self.seed_delta, "seed_delta")
        if self.seed_x == self.seed_delta:
            raise DomainError("seed_x and seed_delta must differ")
        if self.lr is not None and not (math.isfinite(self.lr) and self.lr > 0):
            raise DomainError("lr must be finite and positive")


@dataclass(frozen=True)
class UpdateMatrix:
    """Result grid (rows = len(delta), cols = len(x)) plus the draw audit."""

    entries: np.ndarray
    rng_draws: int
    scale: PowerOfTwoScale | None = None

    @property
    def rows(self) -> int:
        return self.entries.shape[0]

    @property
    def cols(self) -> int:
        return self.entries.shape[1]


# packed byte width of a stream row -> the one machine word that holds it
_WORD_DTYPES = {1: np.uint8, 2: np.uint16, 4: np.uint32, 8: np.uint64}


def _stream_words(bits: np.ndarray) -> np.ndarray:
    """(B, n, M) bool streams -> (W, B, n) machine words, word axis first.

    Rows are zero-padded to whole words and packed as one flat run; packing
    along a short last axis was 14x (32 x 16 x 16) to 58x (1000 x 64 x 16)
    slower.
    """
    seq_len = bits.shape[-1]
    word = _WORD_DTYPES.get(-(-seq_len // 8), np.uint64)
    word_bits = 8 * np.dtype(word).itemsize
    width = -(-seq_len // word_bits) * word_bits
    if width != seq_len:
        padded = np.zeros(bits.shape[:-1] + (width,), dtype=bool)
        padded[..., :seq_len] = bits
        bits = padded
    words = np.packbits(bits.reshape(-1)).view(word).reshape(bits.shape[:-1] + (-1,))
    return np.ascontiguousarray(words.transpose(2, 0, 1))


def _cell_array(bits_d, neg_d, bits_x, neg_x, exponents) -> np.ndarray:
    """B jobs' unit cells: (B, n_d, M) and (B, n_x, M) streams -> (B, n_d, n_x) binary16.

    neg_d and neg_x are the operands' sign bits, exponents the (B,) scale
    exponents. The count is AND + popcount over packed words; the pack
    gathers from each job's table of every (sign, count) output.
    """
    words_d = _stream_words(bits_d)
    words_x = _stream_words(bits_x)
    shape = words_d.shape[1:] + words_x.shape[-1:]
    both = np.empty(shape, dtype=words_d.dtype)
    ones = np.empty(shape, dtype=np.uint8)
    np.bitwise_and(words_d[0][:, :, None], words_x[0][:, None, :], out=both)
    counts = np.bitwise_count(both, out=np.empty(shape, dtype=np.uint16))
    for wd, wx in zip(words_d[1:], words_x[1:]):
        np.bitwise_and(wd[:, :, None], wx[:, None, :], out=both)
        counts += np.bitwise_count(both, out=ones)

    seq_len = bits_d.shape[-1]
    table = _pack_table(seq_len, exponents)
    index = np.bitwise_xor(neg_d[:, :, None], neg_x[:, None, :])
    index = index + np.arange(0, 2 * shape[0], 2)[:, None, None]  # row b * 2 + sign
    index *= seq_len + 1
    index += counts
    return np.take(table.reshape(-1), index)


def _pack_table(seq_len: int, exponents) -> np.ndarray:
    """(B, 2, seq_len + 1) binary16: [b, sign, count] is the cell output at scale 2^exponents[b].

    The binary16 cast rounds to nearest even, as shift_pack does; negating
    a rounded value equals rounding the negated one.
    """
    mag = np.ldexp(np.arange(seq_len + 1.0), np.asarray(exponents)[:, None])
    np.minimum(mag, MAX_FINITE, out=mag)  # the output register latches at max finite
    table = np.empty((mag.shape[0], 2, seq_len + 1), dtype=np.float16)
    table[:, 0] = mag
    np.negative(table[:, 0], out=table[:, 1])
    table[:, 1, 0] = 0  # empty overlap packs +0 either sign
    return table


def outer_product(job: OuterProductJob) -> UpdateMatrix:
    ex = vector_exponent(job.x)
    ed = vector_exponent(job.delta)
    shape = (job.delta.size, job.x.size)
    if ex.is_zero_vector or ed.is_zero_vector:
        return UpdateMatrix(np.zeros(shape, dtype=np.float16), 0, None)

    rng_x = Lfsr(job.seed_x)
    rng_d = Lfsr(job.seed_delta)
    bits_x, sign_x = encode_matrix(job.x, ex.exponent, rng_x.next_words(job.seq_len))
    bits_d, sign_d = encode_matrix(job.delta, ed.exponent, rng_d.next_words(job.seq_len))

    if job.lr is None:
        scale = f_scale(ex.exponent, ed.exponent, job.seq_len)
    else:
        scale = f_scale_with_lr(job.lr, ex.exponent, ed.exponent, job.seq_len)

    entries = _cell_array(
        bits_d[None], sign_d[None], bits_x[None], sign_x[None], [scale.exponent]
    )[0]
    return UpdateMatrix(entries, rng_x.draws + rng_d.draws, scale)


def outer_product_many(
    xs: np.ndarray,
    deltas: np.ndarray,
    seq_len: int,
    seeds_x: np.ndarray,
    seeds_delta: np.ndarray,
    lr: float | None = None,
):
    """Run B independent jobs in lockstep.

    xs is (B, n_x), deltas is (B, n_d); seeds are (B,) nonzero words with
    seeds_x[b] != seeds_delta[b]. Returns (entries, rng_draws) where entries
    is (B, n_d, n_x) float16, bit-identical per job to outer_product, and
    rng_draws counts only non-short-circuited jobs.
    """
    xs = np.asarray(xs, dtype=np.float16)
    deltas = np.asarray(deltas, dtype=np.float16)
    if xs.ndim != 2 or deltas.ndim != 2 or xs.shape[0] != deltas.shape[0]:
        raise ContractError("xs and deltas must be 2-D with matching batch size")
    if not (np.isfinite(xs).all() and np.isfinite(deltas).all()):
        raise DomainError("xs and deltas entries must be finite")
    check_seq_len(seq_len)
    seeds_x = np.asarray(seeds_x, dtype=np.uint16)
    seeds_delta = np.asarray(seeds_delta, dtype=np.uint16)
    if np.any(seeds_x == 0) or np.any(seeds_delta == 0):
        raise DomainError("seeds must be nonzero 16-bit words")
    if np.any(seeds_x == seeds_delta):
        raise DomainError("seed_x and seed_delta must differ within each job")
    if lr is not None and not (math.isfinite(lr) and lr > 0):
        raise DomainError("lr must be finite and positive")

    b, n_x = xs.shape
    n_d = deltas.shape[1]
    x64 = xs.astype(np.float64)
    d64 = deltas.astype(np.float64)

    peaks_x = np.max(np.abs(x64), axis=1)
    peaks_d = np.max(np.abs(d64), axis=1)
    active = (peaks_x > 0) & (peaks_d > 0)

    entries = np.zeros((b, n_d, n_x), dtype=np.float16)
    if not np.any(active):
        return entries, 0

    e_x = _ceil_exponents(peaks_x[active])
    e_d = _ceil_exponents(peaks_d[active])
    words_x = word_matrix(seeds_x[active], seq_len).astype(np.float64)
    words_d = word_matrix(seeds_delta[active], seq_len).astype(np.float64)

    xa = x64[active]
    da = d64[active]
    bits_x = np.abs(xa)[:, :, None] >= np.ldexp(words_x, e_x[:, None] - 16)[:, None, :]
    bits_x &= (xa != 0.0)[:, :, None]
    bits_d = np.abs(da)[:, :, None] >= np.ldexp(words_d, e_d[:, None] - 16)[:, None, :]
    bits_d &= (da != 0.0)[:, :, None]

    if lr is None and seq_len & (seq_len - 1) == 0:
        exps = e_x + e_d - (seq_len.bit_length() - 1)
    else:
        exps = np.array(
            [
                (f_scale_with_lr(lr, int(a), int(c), seq_len) if lr is not None
                 else f_scale(int(a), int(c), seq_len)).exponent
                for a, c in zip(e_x, e_d)
            ],
            dtype=np.int64,
        )

    entries[active] = _cell_array(bits_d, da < 0, bits_x, xa < 0, exps)
    draws = 2 * seq_len * int(np.sum(active))
    return entries, draws


def _ceil_exponents(peaks: np.ndarray) -> np.ndarray:
    """Smallest E with peak <= 2^E, elementwise, for positive peaks."""
    frac, exp = np.frexp(peaks)
    return np.where(frac == 0.5, exp - 1, exp).astype(np.int64)


def apply_update(
    weights: np.ndarray,
    update,
    lr: float,
    lr_folded: bool,
    momentum: float,
    velocity: np.ndarray | None = None,
):
    """Momentum SGD step in binary16: v' = m*v + dW; W' = W - lr_eff * v'.

    Every multiply and add rounds to binary16. When the learning rate was
    folded into the update's scale, lr_eff is 1 and no multiply happens here.
    Returns (new_weights, new_velocity).
    """
    dw = update.entries if isinstance(update, UpdateMatrix) else np.asarray(update)
    dw = dw.astype(np.float16, copy=False)
    w = np.asarray(weights, dtype=np.float16)
    if w.shape != dw.shape:
        raise ContractError(f"shape mismatch: weights {w.shape} vs update {dw.shape}")
    if not (math.isfinite(lr) and lr > 0):
        raise DomainError("lr must be finite and positive")
    if not 0 <= momentum < 1:
        raise DomainError("momentum must be in [0, 1)")
    if velocity is None:
        v = np.zeros_like(w)
    else:
        v = np.asarray(velocity, dtype=np.float16)
        if v.shape != w.shape:
            raise ContractError("velocity shape mismatch")

    v = np.float16(momentum) * v + dw
    step = v if lr_folded else np.float16(lr) * v
    return (w - step).astype(np.float16), v.astype(np.float16)


def _mix64(z: int) -> int:
    """64-bit avalanche (the splitmix64 finalizer).

    Seed derivation must be nonlinear: the generator itself is linear over
    GF(2), so any seed schedule built from XORs and register steps leaves a
    fixed linear relation between the two seeds of every pair, and their
    streams stay correlated across all counters.
    """
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _mix64_np(z: np.ndarray) -> np.ndarray:
    z = z + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def derive_seed(base: int, counter: int) -> int:
    """Deterministic per-job seed: hash (base, counter) down to a nonzero word."""
    if counter < 0:
        raise DomainError("counter must be nonnegative")
    _check_seed_word(base, "base")
    z = _mix64((base << 48) | (counter & _COUNTER_MASK))
    return (z & 0xFFFF) or _SEED_FALLBACK


def derive_seed_pair(base_x: int, base_delta: int, counter: int) -> tuple[int, int]:
    """Seeds for one job's two generators, forced distinct."""
    sx = derive_seed(base_x, counter)
    _check_seed_word(base_delta, "base_delta")
    zd = _mix64((base_delta << 48) | (counter & _COUNTER_MASK))
    sd = (zd & 0xFFFF) or _SEED_FALLBACK
    while sd == sx:
        zd = _mix64(zd)
        sd = (zd & 0xFFFF) or _SEED_FALLBACK
    return sx, sd


def derive_seed_pairs(base_x: int, base_delta: int, counters: np.ndarray):
    """Vectorized derive_seed_pair over a counter array; returns (sx, sd) arrays."""
    counters = np.asarray(counters, dtype=np.uint64)
    _check_seed_word(base_x, "base_x")
    _check_seed_word(base_delta, "base_delta")
    masked = counters & np.uint64(_COUNTER_MASK)
    zx = _mix64_np(masked | np.uint64(base_x << 48))
    zd = _mix64_np(masked | np.uint64(base_delta << 48))
    sx = (zx & np.uint64(0xFFFF)).astype(np.uint16)
    sd = (zd & np.uint64(0xFFFF)).astype(np.uint16)
    sx[sx == 0] = _SEED_FALLBACK
    sd[sd == 0] = _SEED_FALLBACK
    clash = sd == sx
    while np.any(clash):
        zd[clash] = _mix64_np(zd[clash])
        fresh = (zd[clash] & np.uint64(0xFFFF)).astype(np.uint16)
        fresh[fresh == 0] = _SEED_FALLBACK
        sd[clash] = fresh
        clash = sd == sx
    return sx, sd


def conv_weight_update(
    activations: np.ndarray,
    gradients: np.ndarray,
    seq_len: int,
    base_seed_x: int,
    base_seed_delta: int,
    lr: float | None = None,
) -> UpdateMatrix:
    """Shared-kernel update: one job per spatial position, accumulated in fp16.

    activations is (positions, k) of unrolled patch vectors, gradients is
    (positions, c) of output-channel errors; the result is the (c, k) kernel
    update, summed position-major with binary16 rounding after each add.
    Seeds derive from the position index so positions decorrelate.
    """
    acts = np.asarray(activations, dtype=np.float16)
    grads = np.asarray(gradients, dtype=np.float16)
    if acts.ndim != 2 or grads.ndim != 2:
        raise ContractError("activations and gradients must be 2-D")
    if acts.shape[0] != grads.shape[0]:
        raise ContractError(
            f"position mismatch: {acts.shape[0]} activations vs {grads.shape[0]} gradients"
        )
    positions = acts.shape[0]
    if positions == 0:
        raise DomainError("need at least one position")

    acc = np.zeros((grads.shape[1], acts.shape[1]), dtype=np.float16)
    draws = 0
    for p in range(positions):
        sx, sd = derive_seed_pair(base_seed_x, base_seed_delta, p)
        job = OuterProductJob(acts[p], grads[p], seq_len, sx, sd, lr)
        result = outer_product(job)
        acc = (acc + result.entries).astype(np.float16)
        draws += result.rng_draws
    return UpdateMatrix(acc, draws, None)
