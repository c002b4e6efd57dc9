"""Outer-product engine: two generators drive a whole update matrix.

One job encodes vector x against E_X = ceil-pow2(max |x|) and vector delta
against E_D likewise, using exactly one generator per vector: every element
of x sees the same seq_len words, every element of delta sees the other
seq_len words. Entry (j, i) of the update is the unit-cell product of
delta_j and x_i, so a full N_D x N_X matrix costs 2 * seq_len draws total.
A dead job, whose x or delta is all zeros, yields the zero matrix and, as
the hardware short-circuits it, counts no draws. The core returns the draw
count that every caller reports.

Single jobs, batches and a training step's layers (one group of same-shape
jobs per layer) share one call check, _checked_groups (a job runs it when
built), and one core with one path for every job. Once per call, over one
flat array of every group's x rows and then delta rows, the core finds each
(side, job) peak, the live jobs (for the draw count), and every job's
exponents, levels (encoder.encode_levels) and sign offsets, words, scales
and pack table. Each group then compares its levels with its jobs' words,
and counts and packs its entries (a dead job's all-zero side encodes to
level 0, so each of its counts is 0, which packs +0):

* count (_count): each row of stream bits is packed into machine words
  (np.packbits; one uint8/16/32/64 word when the row fills 1, 2, 4 or 8
  bytes, else zero-padded to whole uint64 words). Entry (j, i) counts
  popcount(d_j & x_i) summed over the words. numpy vectorizes the popcount
  of bytes but not of 16-bit words (about 12x slower per word), so a 16-bit word (rows of 9 to
  16 events) is counted through its two bytes and their counts added in
  uint16; wider words count as they are, which was faster than their bytes.
* pack: each job's scale exponent fixes a (3, seq_len + 1) binary16 table,
  the packed output for every count 0..seq_len in rows positive, negative,
  positive. Each operand element carries a sign offset, 0 or seq_len + 1,
  so the sum of an entry's two offsets is its product sign's row (two
  negatives land on the third row). Count 0 packs +0 for either sign. A
  whole-job tile builds every entry's start index with one add of the
  delta offset plus its job's first entry in the tile's rows of the table
  to the x offset, in uint16 while the tile's table has at most 2^16
  entries, else uint32; each word's count then adds on.

Count and pack run one tile of about _TILE entries at a time: a block of
whole jobs, or of one job's delta row classes. Their per-entry temporaries
(the AND word, its popcount, the start and gather indexes and the intp
copy np.take makes, up to 25 bytes an entry) then stay in cache rather than
stream through memory at the size of the whole update. A tile writes
straight into its slice of the new binary16 output (a class tile, below,
into its compact buffer). A live call packs every entry, a dead job's too,
so its output is left uninitialized until then; a call with no live job
returns zeros. Below 2^15 entries
the per-tile calls cost up to 20%; at 2^16 a mid-size job after a large
one (whose frees shrink the heap) page-faults its temporaries back in: 176
faults against 64 for 256 x 256 at seq_len 16, enough to lift the median
op of a mixed run of jobs 10%.

Every job tiled by its delta rows counts each distinct delta row once. A
count is a sum over events, so the job may take its events in any order
without moving an output bit; it takes them in ascending order of its delta
words, its x streams padded to whole 64-event words. Every delta element is
compared with the same words, so in that order delta row j's stream is a
prefix: r_j ones, one for each word at or below its level, then zeros. Two
rows of one r_j and one sign therefore have equal counts and signs, and so
equal entries: a job has at most 2 * (seq_len + 1) distinct rows (a
1024 x 1024 job of uniform operands has 34 at seq_len 16, 335 at 256 and
825 at 2048). The job counts and packs each (r_j, sign) class's first row
into a compact buffer, classes in ascending r_j, tiled so that a tile's
prefixes all end in one stream word w. A tile starts each entry's table
index at its product sign's row, of the table's first two, plus its x
column's popcount over the words before w (one (W, 2, n_x) uint16 table
per job), and ANDs and popcounts word w alone with a prefix mask. One
gather then writes every delta row from its class's row. Whole-job tiles,
which every training step uses, count every row and every word as above.

trial_sums (each empirical_stats block) runs one x row and one delta row
once per seed pair and returns only each entry's sum and sum of squares
over those trials, so it packs no entry. The trials share one scale 2^e and
so one pack table, whose entry for count c is sign * q * m[c], with
q = 2^clip(e, -24, 5) and m[c] an integer of at most 2048; when the table
is c * 2^e for every c, q is 2^e and m[c] = c. The sums are therefore
sign * q * sum m[c] and q^2 * sum m[c]^2, exact in float64 from integer
sums held in int16, int32 or int64, the narrowest that holds the trials
times max(m)^2. So no sum wraps (2^15 saturated 1 x 1 trials, one tile,
would wrap uint32), and an empirical_stats block of 64 trials of 64 x 64
at seq_len 16 sums in int16, about 1.5x faster than in int64. Whole-job
tiles sum _count's counts, taking m[c] first only when m[c] != c; larger
shapes run each trial through the class path above with sign offsets of 0
and an identity table, which packs each count as it is into uint16.

apply_update folds the matrix into weights with momentum, every arithmetic
step rounded to binary16; step_factors checks its lr and momentum there.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .encoder import check_seq_len, encode_levels
from .errors import ContractError, DomainError, is_int
from .fp16 import (
    MAX_FINITE, MIN_NORMAL, MIN_SUBNORMAL, ROUNDS_TO_INF, SIGN_MASK, as_binary16, ceil_exponents,
)
from .lfsr import check_seeds, word_matrix
from .unit_cell import scale_exponents

# fallback when seed derivation lands on the absorbing state
_SEED_FALLBACK = 0x5EED
_COUNTER_MASK = (1 << 48) - 1
_TILE = 1 << 15  # entries per count-and-pack tile; see the module docstring
_SIGN_ROWS = np.array([[0], [SIGN_MASK], [0]], dtype=np.uint16)  # a pack table's sign bits


@dataclass(frozen=True)
class OuterProductJob:
    """One checked update-matrix computation: operands, stream length, seeds.

    Frozen, so outer_product runs the job exactly as it was checked. x and
    delta hold the operands as float16, the caller's arrays when they were.
    """

    x: np.ndarray
    delta: np.ndarray
    seq_len: int
    seed_x: int
    seed_delta: int
    lr: float | None = None

    def __post_init__(self):
        x, delta = _vectors(self.x, self.delta)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "delta", delta)
        _checked_groups([(self.x[None], self.delta[None])], self.seq_len,
                        ([self.seed_x], [self.seed_delta]), self.lr)


def _vectors(x, delta):
    """One job's operands as float16 1-D vectors."""
    x, delta = as_binary16(x, "x"), as_binary16(delta, "delta")
    if x.ndim != 1 or delta.ndim != 1:
        raise ContractError("x and delta must be 1-D vectors")
    return x, delta


def check_seed_pairs(seeds_x, seeds_delta) -> np.ndarray:
    """(2, B) uint16 seeds, x seeds in row 0: each a valid seed, the two of a job distinct."""
    if np.ndim(seeds_x) != 1 or np.shape(seeds_x) != np.shape(seeds_delta):
        raise ContractError("need one seed_x and one seed_delta per job")
    seeds = check_seeds([seeds_x, seeds_delta])
    if (seeds[0] == seeds[1]).any():
        raise DomainError("seed_x and seed_delta must differ within each job")
    return seeds


def _checked_groups(groups, seq_len, seeds, lr, seed_per_job=True):
    """The one check of an engine call -> (float16 groups, (2, B) uint16 seeds).

    seeds is an (x seeds, delta seeds) pair, such as a (2, B) array: one
    column per job (B = sum B_g), or without seed_per_job any number of
    them, each a trial of the one row pair that groups then holds.
    """
    try:
        seeds_x, seeds_delta = seeds
    except (TypeError, ValueError):  # a scalar, or not two rows
        raise ContractError("seeds must be an (x seeds, delta seeds) pair") from None
    seeds = check_seed_pairs(seeds_x, seeds_delta)
    checked = []
    for xs, deltas in groups:
        xs, deltas = as_binary16(xs, "x"), as_binary16(deltas, "delta")
        if xs.ndim != 2 or deltas.ndim != 2 or xs.shape[0] != deltas.shape[0]:
            raise ContractError("xs and deltas must be 2-D with matching batch size")
        if xs.shape[1] == 0 or deltas.shape[1] == 0:
            raise DomainError("x and delta must be nonempty vectors")
        if not (np.isfinite(xs).all() and np.isfinite(deltas).all()):
            raise DomainError("x and delta entries must be finite")
        checked.append((xs, deltas))
    if not checked or seed_per_job and seeds.shape[1] != sum(len(xs) for xs, _ in checked):
        raise ContractError("need a group of jobs or more, and one seed pair per job")
    check_seq_len(seq_len)
    if lr is not None and not (math.isfinite(lr) and lr > 0):
        raise DomainError("lr must be finite and positive")
    return checked, seeds


@dataclass(frozen=True)
class UpdateMatrix:
    """Result grid (rows = len(delta), cols = len(x)), the draw audit and the scale exponent."""

    entries: np.ndarray
    rng_draws: int
    scale: int | None = None  # e of the job's scale 2^e; None for a dead job


# packed byte width of a stream row -> the one machine word that holds it
_WORD_DTYPES = {1: np.uint8, 2: np.uint16, 4: np.uint32, 8: np.uint64}


def _stream_words(bits: np.ndarray, word=None) -> np.ndarray:
    """(B, n, M) bool streams -> (W, B, n) machine words, word axis first.

    The word is the given dtype, else the narrowest that holds a row. Rows
    are zero-padded to whole words and packed as one flat run; packing
    along a short last axis was 14x (32 x 16 x 16) to 58x (1000 x 64 x 16)
    slower.
    """
    seq_len = bits.shape[-1]
    word = word or _WORD_DTYPES.get(-(-seq_len // 8), np.uint64)
    word_bits = 8 * np.dtype(word).itemsize
    width = -(-seq_len // word_bits) * word_bits
    if width != seq_len:
        padded = np.zeros(bits.shape[:-1] + (width,), dtype=bool)
        padded[..., :seq_len] = bits
        bits = padded
    words = np.packbits(bits.reshape(-1)).view(word)  # a group of no jobs packs no words
    words = words.reshape(bits.shape[:-1] + (width // word_bits,))
    return np.ascontiguousarray(words.transpose(2, 0, 1))


# a word whose first c events fire, c = 0..64, packed as _stream_words packs 64 events
_PREFIX_WORDS = _stream_words((np.arange(64) < np.arange(65)[:, None])[None]).reshape(65)


def _pack_table(seq_len: int, exponents) -> np.ndarray:
    """(B, 3, seq_len + 1) binary16: [b, row, count] is the cell output at scale 2^exponents[b].

    Row 1 is the negative sign, rows 0 and 2 the positive one: a sign
    offset is 0 or seq_len + 1 per operand, so their sum lands on row 2 for
    two negative signs. Values round to nearest even, as shift_pack does,
    and a negated value is the rounded one with its sign bit set.
    """
    exponents = np.asarray(exponents)
    mag = np.ldexp(np.arange(seq_len + 1.0), exponents[:, None])
    np.minimum(mag, MAX_FINITE, out=mag)  # the output register latches at max finite
    if exponents.min() >= -24:  # every value is a multiple of 2^-24, so binary16 holds it exactly
        bits = mag.astype(np.float16).view(np.uint16)
    else:  # numpy's cast takes about 25x longer on a result that underflows: cast only normal
        # values; a subnormal k * 2^-24 has bit pattern k, the value in units of 2^-24
        normal = np.maximum(mag, MIN_NORMAL).astype(np.float16).view(np.uint16)
        bits = np.where(mag < MIN_NORMAL, np.rint(np.ldexp(mag, 24)), normal).astype(np.uint16)
    table = bits[:, None] | _SIGN_ROWS
    table[:, 1, 0] = 0  # empty overlap packs +0 either sign
    return table.view(np.float16)


def _run_jobs(groups, seq_len: int, seeds: np.ndarray, lr):
    """The engine core: groups of checked jobs -> (entries per group, draws, scale exponents).

    Group g is a float16 (xs, deltas) pair, (B_g, n_x) and (B_g, n_d); seeds
    is (2, sum B_g), one column per job in group order. Entries are new
    (B_g, n_d, n_x) binary16 arrays. Every job runs the same path and has an
    exponent; draws is 2 * seq_len per live job (both operands nonzero), the
    hardware's count. A call with no live job returns zeros, 0 draws and
    None for the exponents.
    """
    # every group's x rows, then every group's delta rows: one segment per (side, job)
    operands = [group[side] for side in (0, 1) for group in groups]
    flat = np.concatenate([v.reshape(-1) for v in operands])
    lengths = np.array([v.shape[1] for v in operands]).repeat([len(v) for v in operands])
    mags = np.abs(flat).astype(np.float64)
    peaks = np.maximum.reduceat(mags, lengths.cumsum() - lengths).reshape(2, -1)
    draws = 2 * seq_len * int(np.count_nonzero(peaks.all(axis=0)))
    new = np.empty if draws else np.zeros  # a live call packs every entry, a dead job's too
    out = [new((x.shape[0], d.shape[1], x.shape[1]), np.float16) for x, d in groups]
    if not draws:
        return out, 0, None

    # an all-zero side encodes to level 0 at any exponent; 2^-24 is binary16's least magnitude
    exps = ceil_exponents(np.maximum(peaks, MIN_SUBNORMAL))
    levels = encode_levels(mags, exps.reshape(-1).repeat(lengths))
    # a sign bit's offset to the next row of the table; a signed zero counts 0, which packs +0
    flips = (flat.view(np.uint16) >> 15) * np.uint16(seq_len + 1)
    words = word_matrix(seeds.reshape(-1), seq_len).reshape(2, -1, seq_len)
    exponents = scale_exponents(*exps, seq_len, lr)
    tables = _pack_table(seq_len, exponents)
    # each operand's (levels, sign offsets) in its shape: the x sides, then the deltas
    coded = [(levels[e - v.size : e].reshape(v.shape), flips[e - v.size : e].reshape(v.shape))
             for v, e in zip(operands, itertools.accumulate(v.size for v in operands))]
    first = 0  # the group's first job
    for entries, (level_x, flip_x), (level_d, flip_d) in zip(out, coded, coded[len(out):]):
        jobs = slice(first, first + len(entries))
        first = jobs.stop
        n_d, n_x = entries.shape[1:]
        table = tables[jobs]
        if n_d * n_x > _TILE:  # a tile is a block of one job's delta row classes
            _count_pack_prefixes(words[:, jobs], level_x, level_d, flip_x, flip_d, table,
                                 max(1, _TILE // n_x), entries)
            continue
        tile_jobs = max(1, min(_TILE // (n_d * n_x), len(entries)))  # or a block of whole jobs
        # each job's first entry in its tile's rows of the table, in the narrowest index that
        # holds the tile's last entry
        size = table[:tile_jobs].size
        width = np.uint16 if size <= 1 << 16 else np.uint32
        base = np.arange(0, size, 3 * (seq_len + 1), dtype=width)[:, None]
        words_d = _stream_words(level_d[:, :, None] >= words[1, jobs, None, :])
        words_x = _stream_words(level_x[:, :, None] >= words[0, jobs, None, :])
        for lo in range(0, len(entries), tile_jobs):
            j = slice(lo, lo + tile_jobs)
            # the sum of two sign offsets, each 0 or seq_len + 1, lands on the product sign's row
            start = (flip_d[j] + base[: len(flip_d[j])])[:, :, None] + flip_x[j][:, None, :]
            _count_pack(words_d[:, j], words_x[:, j], start, table[j].reshape(-1), out=entries[j])
    return out, draws, exponents


def _count_pack_prefixes(words, level_x, level_d, flip_x, flip_d, tables, tile_rows, out):
    """Count and pack one group's jobs by (prefix length, sign) class, events in delta word order.

    words is (2, B, seq_len), the jobs' x and delta words, tables their pack
    tables, in out's dtype, and out their (B, n_d, n_x) entries; see the
    module docstring. A class reads only the first two rows of its table.
    """
    order = np.argsort(words[1], axis=1)
    sorted_x = np.take_along_axis(words[0], order, 1)[:, None]
    words_x = _stream_words(level_x[:, :, None] >= sorted_x, np.uint64)  # whole 64-event words
    # starts[w, b, s, i]: job b's table index for x_i against a delta of sign s, before
    # counting word w: the XOR sign's offset plus x_i's events in the words before w
    counts = np.zeros(words_x.shape, dtype=np.uint16)
    np.cumsum(np.bitwise_count(words_x[:-1]), axis=0, dtype=np.uint16, out=counts[1:])
    negative = np.uint16(tables.shape[-1])  # seq_len + 1, the negative row's offset
    starts = counts[:, :, None] + np.stack((flip_x, flip_x ^ negative), axis=1)
    for b, sorted_d in enumerate(np.take_along_axis(words[1], order, 1)):
        ends = np.searchsorted(sorted_d, level_d[b], side="right")  # r_j: the words <= level_j
        # delta rows of one (r_j, sign) class are equal: count one row per class, r_j ascending
        keys, inverse = np.unique(2 * ends + (flip_d[b] != 0), return_inverse=True)
        ends, signs = keys >> 1, keys & 1
        rows = np.empty((len(keys), out.shape[-1]), dtype=out.dtype)
        # a tile is at most tile_rows classes whose prefixes end in one word
        # (word 0 for an empty prefix): it ANDs that word alone
        last = (np.maximum(ends, 1) - 1) // 64
        runs = [*np.unique(last, return_index=True)[1], len(last)]
        for lo, hi in itertools.pairwise(runs):
            w = last[lo]
            for top in range(lo, hi, tile_rows):
                tile = slice(top, min(top + tile_rows, hi))
                _count_pack(
                    _PREFIX_WORDS[ends[tile] - 64 * w][None, None], words_x[w, b][None, None],
                    starts[w, b][signs[tile]][None], tables[b].reshape(-1), out=rows[None, tile],
                )
        # every delta row from its class's row ("raise" would buffer out)
        np.take(rows, inverse, axis=0, out=out[b], mode="clip")


def _count(words_d, words_x) -> np.ndarray:
    """(B, r, n_x) counts popcount(d_j & x_i) summed over the stream words.

    words_d is (W, B, r) and words_x (W, B, n_x) stream words. Counts are
    uint8 from one 8-, 32- or 64-bit word, else uint16: a 16-bit word's two
    byte counts add in uint16, and several words may count past 255.
    """
    shape = words_d.shape[1:] + words_x.shape[2:]
    both = np.empty(shape, dtype=words_d.dtype)
    bytewise = both.itemsize == 2  # a 16-bit word, a row's only word, counts through its bytes
    count = np.empty(shape, dtype=np.uint16 if bytewise or len(words_d) > 1 else np.uint8)
    ones = np.empty(shape, dtype=np.uint8) if len(words_d) > 1 else count
    for w, (wd, wx) in enumerate(zip(words_d, words_x)):  # AND + popcount per stream word
        np.bitwise_and(wd[:, :, None], wx[:, None, :], out=both)
        if bytewise:  # the bytes' counts a + 256 b; * 257 puts a + b in the high byte
            np.bitwise_count(both.view(np.uint8), out=count.view(np.uint8))
            count *= np.uint16(257)
            count >>= np.uint16(8)
        elif w:
            np.add(count, np.bitwise_count(both, out=ones), out=count)
        else:
            np.bitwise_count(both, out=count)
    return count


def _count_pack(words_d, words_x, start, table, out):
    """Count and pack one tile of jobs into out: (B, r, n_x) entries from table.

    start, uint16 or uint32 and broadcast to out's shape, is each entry's
    start in table: its job's first entry, the sign's row offset, plus any
    count before the words passed. The count (_count) adds onto a copy of
    start, and the sum stays within the job's rows of the table.
    """
    # pack: gather each entry from its job's rows of the table
    np.take(table, start + _count(words_d, words_x), out=out, mode="clip")  # "raise" buffers out


def outer_product(job: OuterProductJob) -> UpdateMatrix:
    # the job checked its seeds when it was built, and it cannot change since
    seeds = np.array([[job.seed_x], [job.seed_delta]], dtype=np.uint16)
    (entries,), draws, exponents = _run_jobs(
        [(job.x[None], job.delta[None])], job.seq_len, seeds, job.lr
    )
    return UpdateMatrix(entries[0], draws, int(exponents[0]) if draws else None)


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
    groups, seeds = _checked_groups([(xs, deltas)], seq_len, (seeds_x, seeds_delta), lr)
    (entries,), draws, _ = _run_jobs(groups, seq_len, seeds, lr)
    return entries, draws


def outer_product_groups(groups, seq_len: int, seeds: np.ndarray, lr: float | None = None):
    """Run groups of jobs whose shapes differ, such as a training step's layers, in one pass.

    groups is a nonempty list of (xs, deltas) pairs as outer_product_many
    takes them; seeds is (2, B), x seeds in row 0 as check_seed_pairs
    returns them, one column per job in group order. Every call checks the
    operands, every seed (a dead job's too) and that each job has two
    distinct seeds. Returns each group's entries, bit-identical per job to
    outer_product_many.
    """
    groups, seeds = _checked_groups(groups, seq_len, seeds, lr)
    return _run_jobs(groups, seq_len, seeds, lr)[0]


def trial_sums(x, delta, seq_len: int, seeds, lr: float | None = None):
    """Exact float64 sums of each entry and of its square over one job per seed pair.

    Every job runs the vectors x and delta; seeds is an (x seeds, delta
    seeds) pair or a (2, B) array, checked as outer_product_many checks
    them. Returns a (2, n_d, n_x) float64 array: the sums over the B jobs of
    the entries that outer_product_many returns for B copies of x and delta,
    and of their squares, to the bit (see the module docstring). An all-zero
    x or delta returns +0 sums without computing a scale, as
    outer_product_many returns a dead call's zeros.
    """
    x, delta = _vectors(x, delta)
    _, seeds = _checked_groups([(x[None], delta[None])], seq_len, seeds, lr, seed_per_job=False)
    n_d, n_x = shape = delta.size, x.size
    trials = seeds.shape[1]
    mags = np.abs(np.concatenate((x, delta))).astype(np.float64)
    peaks = mags[:n_x].max(), mags[n_x:].max()
    if not all(peaks):  # each entry packs +0, at no scale, as a dead job's does
        return np.zeros((2, *shape))
    exps = ceil_exponents(peaks)
    levels = encode_levels(mags, exps.repeat([n_x, n_d]))
    level_x, level_d = levels[:n_x], levels[n_x:]
    words = word_matrix(seeds.reshape(-1), seq_len).reshape(2, -1, seq_len)
    e = int(scale_exponents(*exps, seq_len, lr))
    packed = _pack_table(seq_len, [e])[0, 0].astype(np.float64)  # counts 0..seq_len, packed
    linear = (packed == np.ldexp(np.arange(seq_len + 1.0), e)).all()
    q = e if linear else min(max(e, -24), 5)
    m = np.ldexp(packed, -q).astype(np.uint16)  # k of each count: the count itself if linear
    # every sum is at most trials * max(k)^2 (m[-1] is the largest k): held in the narrowest
    # int that holds that
    bound = trials * int(m[-1]) ** 2
    sums = np.zeros((2, *shape), dtype=next(
        t for t in (np.int16, np.int32, np.int64) if bound <= np.iinfo(t).max))  # of k, k^2
    if n_d * n_x > _TILE:  # a tile is one job, tiled by its delta row classes
        # sign offsets of 0, and an identity table, which packs each count as it is
        zero_x, zero_d = np.zeros((1, n_x), np.uint16), np.zeros((1, n_d), np.uint16)
        identity = np.arange(seq_len + 1, dtype=np.uint16)[None]
        counts = np.empty((1, *shape), dtype=np.uint16)
        for b in range(trials):
            _count_pack_prefixes(words[:, b : b + 1], level_x[None], level_d[None], zero_x,
                                 zero_d, identity, max(1, _TILE // n_x), counts)
            k = counts[0] if linear else np.take(m, counts[0])
            sums[0] += k
            sums[1] += np.square(k, dtype=sums.dtype)
    else:  # or a block of whole jobs
        step = _TILE // (n_d * n_x)
        words_d = _stream_words(level_d[:, None] >= words[1, :, None, :])
        words_x = _stream_words(level_x[:, None] >= words[0, :, None, :])
        for lo in range(0, trials, step):
            c = _count(words_d[:, lo : lo + step], words_x[:, lo : lo + step])
            k = c if linear else np.take(m, c)
            sums[0] += k.sum(axis=0, dtype=sums.dtype)
            sums[1] += np.square(k, dtype=sums.dtype).sum(axis=0, dtype=sums.dtype)
    negative = np.signbit(delta)[:, None] ^ np.signbit(x)  # each entry's product sign
    np.negative(sums[0], out=sums[0], where=negative)  # a 0 sum stays +0
    return sums * np.ldexp(1.0, [[[q]], [[2 * q]]])


def step_factors(lr: float | None, momentum: float):
    """A step's binary16 (lr, momentum): lr > 0 and finite, or None if folded; momentum in [0, 1).

    Each range is checked before its cast, so no cast overflows; NaN fails every compare.
    """
    lr16 = None if lr is None else np.float16(lr if 0 < lr < ROUNDS_TO_INF else 0)
    if lr16 == 0:  # out of range, or at most 2^-25, which rounds to 0
        raise DomainError(f"lr: must be positive and finite in binary16, got {lr!r}")
    momentum16 = np.float16(momentum if 0 <= momentum < 1 else 1)
    if momentum16 == 1:  # 1 - 2^-12 and up round to 1
        raise DomainError(f"momentum: must be in [0, 1) in binary16, got {momentum!r}")
    return lr16, momentum16


def apply_update(
    weights: np.ndarray,
    update,
    lr: float | None,
    momentum: float,
    velocity: np.ndarray | None = None,
):
    """Momentum SGD step in binary16: v' = m*v + dW; W' = W - lr*v'.

    Every multiply and add rounds to binary16, and so do lr and momentum
    (step_factors). lr None means the engine folded it into the update's
    scale, so no multiply happens here. Returns (new_weights, new_velocity).
    """
    dw = as_binary16(update, "update")
    w = as_binary16(weights, "weights")
    if w.shape != dw.shape:
        raise ContractError(f"shape mismatch: weights {w.shape} vs update {dw.shape}")
    lr, momentum = step_factors(lr, momentum)
    v = np.zeros_like(w) if velocity is None else as_binary16(velocity, "velocity")
    if v.shape != w.shape:
        raise ContractError("velocity shape mismatch")
    v = momentum * v + dw
    return w - (v if lr is None else lr * v), v


def _mix64(z: np.ndarray) -> np.ndarray:
    """64-bit avalanche (the splitmix64 finalizer), elementwise on uint64.

    Seed derivation must be nonlinear: the generator itself is linear over
    GF(2), so any seed schedule built from XORs and register steps leaves a
    fixed linear relation between the two seeds of every pair, and their
    streams stay correlated across all counters.
    """
    z = z + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def derive_seed_pair(base_x: int, base_delta: int, counter: int) -> tuple[int, int]:
    """Seeds for one job's two generators, forced distinct."""
    return tuple(int(s) for s in derive_seed_pairs(base_x, base_delta, [counter])[:, 0])


def derive_seed_pairs(base_x: int, base_delta: int, counters) -> np.ndarray:
    """Seed pairs for many jobs, one per nonnegative counter: (2, N) uint16, x seeds in row 0.

    counters is one-dimensional. Each seed hashes its base word and the
    counter's low 48 bits down to a nonzero word; a delta seed that equals
    its x seed is rehashed until they differ.
    """
    bases = check_seeds([base_x, base_delta], "base seed").astype(np.uint64)
    bases <<= np.uint64(48)
    counters = np.asarray(counters)
    if counters.ndim != 1:
        raise ContractError("counters must be one-dimensional")
    wide = counters.dtype == object  # Python ints too wide for int64, or not ints at all
    if not (counters.dtype.kind in "iu"
            or wide and all(is_int(c, 0) for c in counters.flat)):
        raise DomainError(f"counters must be nonnegative integers, got dtype {counters.dtype}")
    if (counters < 0).any():
        raise DomainError("counter must be nonnegative")
    if wide:
        counters = counters & _COUNTER_MASK
    masked = counters.astype(np.uint64) & np.uint64(_COUNTER_MASK)
    z = _mix64(np.stack((masked | bases[0], masked | bases[1])))
    sx, sd = seeds = _seed_words(z)  # row views: a rehash of sd lands in seeds
    zd = z[1]
    clash = sd == sx
    while clash.any():
        zd[clash] = _mix64(zd[clash])
        sd[clash] = _seed_words(zd[clash])
        clash = sd == sx
    return seeds


def _seed_words(z: np.ndarray) -> np.ndarray:
    """Low 16 bits of each hash as a seed; the absorbing zero becomes _SEED_FALLBACK."""
    seeds = (z & np.uint64(0xFFFF)).astype(np.uint16)
    seeds[seeds == 0] = _SEED_FALLBACK
    return seeds


def sum_updates(entries: np.ndarray) -> np.ndarray:
    """A batch's (B, ...) binary16 updates summed in order from +0, rounding after each add.

    Not np.sum: it may reorder, and on 1 x 1 updates it adds in float32 and rounds once.
    """
    if not len(entries):  # an empty batch sums to +0
        return np.zeros(np.shape(entries)[1:], dtype=np.float16)
    return np.add.accumulate(entries, axis=0)[-1] + np.float16(0)
