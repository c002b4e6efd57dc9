"""16-bit maximal-length Fibonacci LFSR used as the uniform pseudo-random source.

Feedback polynomial x^16 + x^15 + x^13 + x^4 + 1, taps {16, 15, 13, 4}.
One emitted word advances the register 16 single-bit steps, so successive
words are produced by 16 applications of the shift recurrence rather than
overlapping register snapshots. The all-zero register is absorbing and
therefore rejected as a seed; every nonzero word appears exactly once per
period of 2^16 - 1 emissions.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import ContractError, DomainError, SeedError, is_int

WIDTH = 16
TAPS = (16, 15, 13, 4)
PERIOD = (1 << WIDTH) - 1

# tap t contributes register bit (WIDTH - t)
_TAP_SHIFTS = tuple(WIDTH - t for t in TAPS)


@functools.cache
def _table() -> np.ndarray:
    """register -> register after 16 single-bit steps, for all 2^16 states."""
    states = np.arange(1 << WIDTH, dtype=np.uint32)
    fb = np.zeros_like(states)
    for s in _TAP_SHIFTS:
        fb ^= states >> s
    table = ((states >> 1) | ((fb & 1) << 15)).astype(np.uint16)
    for _ in range(4):  # compose the 1-step map up to 16 steps by squaring
        table = table[table]
    return table


@functools.cache
def _ring() -> tuple[np.ndarray, np.ndarray]:
    """(ring, pos): the word map's cycle through all PERIOD nonzero states.

    16 is prime to the period, so the 16-step map is one cycle too:
    ring[i + 1] is the word after ring[i], and pos[state] is the index of
    state on the ring. Built by doubling: ring[L:2L] is the L-word jump of
    ring[:L].
    """
    jump = _table()
    ring = np.ones(1 << WIDTH, dtype=np.uint16)  # from state 1; the rest is overwritten
    size = 1
    while size < PERIOD:
        np.take(jump, ring[:size], out=ring[size : 2 * size])
        jump = np.take(jump, jump)
        size *= 2
    ring = ring[:PERIOD]
    pos = np.zeros(1 << WIDTH, dtype=np.uint16)
    pos[ring] = np.arange(PERIOD, dtype=np.uint16)
    return ring, pos


def check_seeds(seeds, name: str = "seed") -> np.ndarray:
    """Seeds as uint16; SeedError naming name unless each is an integer in 1..0xFFFF.

    Floats are rejected, not truncated, and so are the object arrays numpy
    builds for Python ints too wide for int64. A list or tuple that numpy
    cannot hold as integers is judged one element at a time, so a uint64
    beside a signed integer (which numpy promotes to float64) passes.
    """
    values = np.asarray(seeds)
    if values.dtype.kind not in "iu" and isinstance(seeds, (list, tuple)):
        return np.array([check_seeds(s, name) for s in seeds], dtype=np.uint16)
    flat = values.reshape(-1)
    if values.dtype.kind in "iu":
        bad = (flat < 1) | (flat > 0xFFFF)
    else:
        ok = [type(v) is int and 0 < v <= 0xFFFF for v in flat.tolist()]
        bad = ~np.array(ok, dtype=bool)
    if bad.any():
        value = flat[bad].tolist()[0]
        shown = f"{value:#x}" if type(value) is int else repr(value)
        raise SeedError(f"{name} must be a nonzero 16-bit word, got {shown}")
    return values.astype(np.uint16)


class Lfsr:
    """Pseudo-random word generator with a draw counter for reuse audits."""

    __slots__ = ("register", "draws")

    def __init__(self, seed: int):
        self.register = int(check_seeds(seed))
        self.draws = 0

    def next_word(self) -> int:
        self.register = int(_table()[self.register])
        self.draws += 1
        return self.register

    def next_words(self, n: int) -> np.ndarray:
        """Draw n consecutive words as a uint16 array."""
        out = word_matrix([self.register], n)[0]
        if n:
            self.register = int(out[-1])
        self.draws += n
        return out

    def __repr__(self) -> str:
        return f"Lfsr(register={self.register:#06x}, draws={self.draws})"


def uniform_fraction(word: int) -> float:
    """word / 2^16, an exact dyadic rational in [0, 1)."""
    return math.ldexp(word, -WIDTH)


def word_matrix(seeds: np.ndarray, n: int) -> np.ndarray:
    """Lockstep draws for many generators: row b holds Lfsr(seeds[b]).next_words(n).

    One gather from the ring: word k of seed s is ring[pos[s] + 1 + k],
    wrapping at the period.
    """
    states = check_seeds(seeds)
    if states.ndim != 1:
        raise ContractError("seeds must be one-dimensional")
    if not is_int(n, 0):
        raise DomainError(f"word count must be a nonnegative integer, got {n}")
    ring, pos = _ring()
    return np.take(ring, pos[states][:, None] + np.arange(1, n + 1), mode="wrap")
