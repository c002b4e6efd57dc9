"""Single multiplier cell: AND, popcount, and power-of-two output packing.

The product of two encoded operands is popcount(a & b) scaled by a
power-of-two factor 2^e, with sign a one-bit XOR. The scale travels as its
int exponent e, so the result is packed into a binary16 word by placing the
popcount in the significand field and adding e; no multiplier participates.
shift_pack returns the one cell record, UnitCellResult, count and sign included.

The combined scale for an outer product of vectors normalized by 2^E_X and
2^E_D over seq_len events is 2^(E_X + E_D) / seq_len, folded down to the
nearest power of two at or below it so the fold itself is a pure exponent.
An optional learning-rate factor rides along before the fold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DomainError
from .fp16 import MAX_FINITE_BITS, decode_bits, floor_exponents
from .encoder import MAX_SEQ_LEN, StochasticSequence, check_seq_len


@np.errstate(over="ignore")  # floor_exponents refuses a scale that overflowed to inf
def scale_exponents(e_x, e_delta, seq_len: int, lr: float | None = None) -> np.ndarray:
    """Elementwise exponent of floor-pow2(lr * 2^(e_x + e_delta) / seq_len); lr None is 1.

    DomainError naming lr unless every scale is positive and finite, so also
    for an lr that is not, or one so small the scale underflows to zero.
    """
    check_seq_len(seq_len)
    mantissa = 1.0 if lr is None else lr
    try:
        return floor_exponents(np.ldexp(mantissa, e_x + e_delta) / seq_len)
    except DomainError as exc:
        raise DomainError(f"scale at lr = {mantissa!r}: {exc}") from None


def f_scale(e_x: int, e_delta: int, seq_len: int) -> int:
    """Exponent of floor-pow2(2^(e_x + e_delta) / seq_len)."""
    return int(scale_exponents(e_x, e_delta, seq_len))


def f_scale_with_lr(lr: float, e_x: int, e_delta: int, seq_len: int) -> int:
    """Scale exponent with the learning rate folded in before the power-of-two fold."""
    return int(scale_exponents(e_x, e_delta, seq_len, lr))


@dataclass(frozen=True)
class UnitCellResult:
    """One cell's output: its popcount and sign, the packed binary16 word and range flags."""

    count: int
    sign: int
    bits: int
    overflow: bool = False
    underflow: bool = False

    @property
    def value(self) -> float:
        return decode_bits(self.bits)


def shift_pack(sign: int, count: int, exponent: int) -> UnitCellResult:
    """Pack sign * count * 2^exponent into binary16 without multiplying.

    count's leading-one position sets the exponent field; the remaining bits
    drop into the significand. Within the supported counter range the normal
    path is exact. Results below the normal range are rounded to nearest-even
    onto the subnormal grid (underflow flag when inexact); results above the
    finite range latch at the maximum finite magnitude (overflow flag).
    """
    if sign not in (0, 1):
        raise DomainError("sign must be 0 or 1")
    if not 0 <= count <= MAX_SEQ_LEN:
        raise DomainError(f"count must be in [0, {MAX_SEQ_LEN}], got {count}")
    if count == 0:
        return UnitCellResult(0, sign, 0x0000)  # positive zero regardless of sign

    n = count.bit_length()
    unbiased = exponent + n - 1
    biased = unbiased + 15
    if biased >= 31:
        return UnitCellResult(count, sign, (sign << 15) | MAX_FINITE_BITS, overflow=True)

    if biased >= 1:
        # normal: align count's leading one to the implicit-one slot
        shift = 11 - n
        if shift >= 0:
            frac = (count << shift) & 0x3FF
        else:
            frac = (count >> -shift) & 0x3FF  # only count = 2048; dropped bit is 0
        return UnitCellResult(count, sign, (sign << 15) | (biased << 10) | frac)

    # subnormal: significand is count * 2^(exponent + 24) on the 2^-24 grid
    k = min(-(exponent + 24), 12)  # a count < 2^12 rounds to 0 at every k >= 12
    if k <= 0:
        return UnitCellResult(count, sign, (sign << 15) | (count << -k))
    m = count >> k
    rem = count & ((1 << k) - 1)
    half = 1 << (k - 1)
    if rem > half or (rem == half and (m & 1)):
        m += 1  # ties to even; m = 1024 lands on the smallest normal encoding
    return UnitCellResult(count, sign, (sign << 15) | m, underflow=rem != 0)


def unit_cell_multiply(
    a: StochasticSequence, b: StochasticSequence, exponent: int
) -> UnitCellResult:
    """One cell of the outer-product array: AND, popcount, XOR sign, pack."""
    if a.seq_len != b.seq_len:
        raise ContractError(
            f"sequence length mismatch: {a.seq_len} vs {b.seq_len}"
        )
    check_seq_len(a.seq_len)
    return shift_pack(a.sign ^ b.sign, (a.bits & b.bits).bit_count(), exponent)
