"""One digest over the engine's output bits, draw counts and scale exponents.

A fixed sweep of single jobs, batches, a summed batch and an empirical_stats
call is hashed with SHA-256. Any change to one output bit changes the
digest. Operands come from LFSR words, not np.random, so the digest does not
depend on numpy's generator streams.
"""

import hashlib

import numpy as np

from scop.engine import (
    OuterProductJob,
    derive_seed_pairs,
    outer_product,
    outer_product_many,
    sum_updates,
)
from scop.lfsr import word_matrix
from scop.oracle import empirical_stats

SEQ_LENS = (1, 2, 7, 16, 63, 64, 65, 300, 2048)
LRS = (None, 0.1, 0.03)
DIGEST = "68777a57d56bdf64c761206762e211392adf3c1114b8eb66f3bdd09501e2549f"


def _operands(seed: int, shape: tuple, shift: int = 0) -> np.ndarray:
    """Signed float16 values over six binades, about one in 16 exactly zero."""
    words = word_matrix([seed], int(np.prod(shape)))[0].astype(np.int64)
    mantissa = (words & 0x3FF) - 512
    mantissa[words % 16 == 0] = 0
    exponent = (words >> 10) % 6 - 6 + shift  # |value| < 2^(8 + shift)
    return np.ldexp(mantissa, exponent).astype(np.float16).reshape(shape)


def _sweep(h) -> None:
    def add(entries, draws, exponent=None):
        h.update(np.ascontiguousarray(entries, dtype=np.float16).view(np.uint16).tobytes())
        h.update(f"{draws},{exponent};".encode())

    seed = 1
    for seq_len in SEQ_LENS:
        for k, lr in enumerate(LRS):
            n_x, n_d = 1 + (7 * seq_len + k) % 17, 1 + (5 * seq_len + 3 * k) % 11
            shift = (seq_len + 4 * k) % 23 - 14  # subnormal outputs up to saturation
            x = _operands(seed, (n_x,), shift)
            d = _operands(seed + 1, (n_d,), shift)
            seed += 2
            for xs, ds in ((x, d), (np.zeros_like(x), d), (x, np.zeros_like(d))):
                out = outer_product(OuterProductJob(xs, ds, seq_len, 0xACE1 + k, 0x2C9F, lr))
                add(out.entries, out.rng_draws, out.scale)

    for seq_len, lr in ((16, None), (65, 0.1), (300, 0.03)):
        xs = _operands(seed, (20, 9), 3)
        ds = _operands(seed + 1, (20, 5), 2)
        xs[4] = 0
        ds[11] = 0
        seed += 2
        sx, sd = derive_seed_pairs(0xACE1, 0x2C9F, np.arange(1000, 1020))
        add(*outer_product_many(xs, ds, seq_len, sx, sd, lr))

    acts = _operands(seed, (6, 9), 1)
    grads = _operands(seed + 1, (6, 4), 0)
    entries, draws = outer_product_many(
        acts, grads, 65, *derive_seed_pairs(0x1234, 0x4321, np.arange(6)), 0.1
    )
    add(sum_updates(entries), draws)

    stats = empirical_stats(_operands(seed + 2, (8,)), _operands(seed + 3, (6,)), 16, 50)
    h.update(stats.mean.tobytes() + stats.variance.tobytes())


def test_output_digest_is_unchanged():
    h = hashlib.sha256()
    _sweep(h)
    assert h.hexdigest() == DIGEST
