"""Bit-exact model of a stochastic-computing outer-product datapath."""

from .errors import ContractError, DomainError, SeedError
from .fp16 import PowerOfTwoScale, decode_bits, floor_pow2
from .lfsr import Lfsr, uniform_fraction
from .encoder import StochasticSequence, encode, probability_of, vector_exponent
from .unit_cell import f_scale, f_scale_with_lr, shift_pack, unit_cell_multiply
from .engine import (
    OuterProductJob,
    UpdateMatrix,
    apply_update,
    conv_weight_update,
    derive_seed,
    derive_seed_pair,
    outer_product,
)
from .oracle import analytic_moments, empirical_stats, encode_value, exact_outer, quantize

__version__ = "0.1.0"

__all__ = [
    "ContractError",
    "DomainError",
    "SeedError",
    "PowerOfTwoScale",
    "decode_bits",
    "encode_value",
    "floor_pow2",
    "quantize",
    "Lfsr",
    "uniform_fraction",
    "StochasticSequence",
    "encode",
    "probability_of",
    "vector_exponent",
    "f_scale",
    "f_scale_with_lr",
    "shift_pack",
    "unit_cell_multiply",
    "OuterProductJob",
    "UpdateMatrix",
    "apply_update",
    "conv_weight_update",
    "derive_seed",
    "derive_seed_pair",
    "outer_product",
    "analytic_moments",
    "empirical_stats",
    "exact_outer",
]
