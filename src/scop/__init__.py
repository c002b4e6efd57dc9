"""Bit-exact model of a stochastic-computing outer-product datapath.

Import each name from its own module, such as scop.engine.outer_product.
"""

__version__ = "0.1.0"
