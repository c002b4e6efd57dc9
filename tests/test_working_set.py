"""The batched datapath's working set: per-entry temporaries stay tile-sized.

tracemalloc sees numpy's array allocations, so its peak is the most memory
held at once by one call, the output included.
"""

import tracemalloc

import numpy as np

from scop.engine import OuterProductJob, outer_product, outer_product_many
from scop.oracle import empirical_stats

MIB = 1 << 20


def _traced_peak(fn) -> float:
    fn()  # the first call builds the generator's tables, which stay cached
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / MIB
    finally:
        tracemalloc.stop()


def test_a_large_job_holds_little_beyond_its_output():
    rng = np.random.default_rng(0)
    x = rng.uniform(-1, 1, 1024).astype(np.float16)
    d = rng.uniform(-1, 1, 1024).astype(np.float16)
    job = OuterProductJob(x, d, 256, 0xACE1, 0x2C9F)
    # the 2 MiB output; a full-size uint64 AND word or int64 index would be 8 MiB each
    assert _traced_peak(lambda: outer_product(job)) < 8


def test_a_large_job_at_the_longest_stream_holds_little_beyond_its_output():
    rng = np.random.default_rng(3)
    x = rng.uniform(-1, 1, 1024).astype(np.float16)
    d = rng.uniform(-1, 1, 1024).astype(np.float16)
    job = OuterProductJob(x, d, 2048, 0xACE1, 0x2C9F)
    # the 2 MiB output and one operand's 2 MiB of bool streams; both at once would be 6 MiB
    assert _traced_peak(lambda: outer_product(job)) < 6


def test_a_large_job_at_a_short_stream_holds_little_beyond_its_output():
    rng = np.random.default_rng(4)
    x = rng.uniform(-1, 1, 1024).astype(np.float16)
    d = rng.uniform(-1, 1, 1024).astype(np.float16)
    job = OuterProductJob(x, d, 16, 0xACE1, 0x2C9F)
    # the 2 MiB output; a row per delta element before the gather would be 2 MiB more
    assert _traced_peak(lambda: outer_product(job)) < 4


def test_a_batch_with_a_dead_job_holds_little_beyond_its_output():
    rng = np.random.default_rng(2)
    xs = rng.uniform(-1, 1, (2, 1024)).astype(np.float16)
    ds = rng.uniform(-1, 1, (2, 1024)).astype(np.float16)
    xs[0] = 0  # job 0 is dead
    # the 4 MiB output; a buffer of the live jobs' entries would add 2 MiB more
    peak = _traced_peak(lambda: outer_product_many(xs, ds, 256, [0xACE1, 7], [0x2C9F, 9]))
    assert peak < 6


def test_empirical_stats_reduces_block_by_block():
    rng = np.random.default_rng(1)
    x = rng.uniform(-1, 1, 64).astype(np.float16)
    d = rng.uniform(-1, 1, 64).astype(np.float16)
    # 1,000 trials of 64 x 64: all entries at once are 8 MiB, 32 MiB in float64. A block of
    # 64 trials sums its tiles' counts; its entries in float64 would be a 2 MiB buffer
    assert _traced_peak(lambda: empirical_stats(x, d, 16, 1000)) < 1.5
