"""Exact generating functions for simultaneous conjugacy classes of tuples
in small finite groups, with brute-force oracles and closed-form checks."""

from .genfun import (
    a_equivalent,
    a_of_t,
    alpha_coefficient,
    b_equivalent,
    b_of_t,
    beta_coefficient,
    gf_equal,
    normalize,
)
from .groups import GroupTable, build_from_cayley, build_from_permutations, certify
from .pcp import PcPresentation, build_from_pcp
from .ratfun import PartialFractions, RationalGF, partial_fractions

__all__ = [
    "GroupTable",
    "PartialFractions",
    "PcPresentation",
    "RationalGF",
    "a_equivalent",
    "a_of_t",
    "alpha_coefficient",
    "b_equivalent",
    "b_of_t",
    "beta_coefficient",
    "build_from_cayley",
    "build_from_pcp",
    "build_from_permutations",
    "certify",
    "gf_equal",
    "normalize",
    "partial_fractions",
]
