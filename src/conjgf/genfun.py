"""The two core computations: A_G(t) from the centralizer histogram and
B_G(t) from the centralizer recursion, plus coefficient extraction,
normalization and the equivalence predicates.

A_G(t) counts simultaneous-conjugacy orbits of n-tuples: the n-th series
coefficient is (1/|G|) sum_g |Z_G(g)|^n.  B_G(t) does the same for pairwise
commuting n-tuples via the recursion
    (1 - |Z(G)| t) B_G(t) = 1 + sum over non-central classes of t * B_{Z_G(x)}(t),
whose base case is an abelian centralizer H with B_H = 1/(1 - |H| t).
Every subgroup in the recursion stays a boolean mask over the top group's
elements, and classes with the same centralizer are merged into one term.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

import numpy as np

from .analysis import conjugacy_data
from .errors import RecursionDepthExceeded
from .groups import GroupTable, is_abelian_subset
from .ratfun import PartialFractions, RationalGF, partial_fractions

MAX_B_DEPTH = 64


def a_of_t(g: GroupTable) -> RationalGF:
    """A_G(t) = (1/|G|) sum_m z_m / (1 - m t), combined and reduced."""
    hist = conjugacy_data(g).z_histogram
    acc = RationalGF.zero()
    for m in sorted(hist):
        acc = acc + RationalGF.simple(hist[m], m)
    return acc * Fraction(1, g.order)


def alpha_coefficient(g: GroupTable, n: int) -> int:
    """Number of simultaneous-conjugacy orbits on n-tuples (orbit counting lemma)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    hist = conjugacy_data(g).z_histogram
    total = sum(count * m**n for m, count in hist.items())
    if total % g.order:
        raise ArithmeticError("orbit count sum is not divisible by |G|; table is corrupt")
    return total // g.order


def b_of_t(g: GroupTable) -> RationalGF:
    """B_G(t) via the centralizer recursion, exact and reduced.

    The work done (classes processed plus non-abelian subgroups recursed
    into) is left beside the result in the table's cache as "b_work".
    """
    cached = g._cache.get("b_of_t")
    if cached is None:
        work = [0]
        if g.is_abelian:
            cached = RationalGF.simple(1, g.order)
        else:
            whole = np.ones(g.order, dtype=bool)
            cached = _b_of_mask(g, whole, conjugacy_data(g).representatives, 0, work)
        g._cache.setdefault("b_work", work[0])
        cached = g._cache.setdefault("b_of_t", cached)
    return cached


def _class_representatives(g: GroupTable, h: np.ndarray) -> list[int]:
    """One element of each conjugacy class of the subgroup h (a mask of g)."""
    members = np.flatnonzero(h)
    inv_members = g.inv[members]
    seen = ~h
    reps = []
    for y in members:
        if not seen[y]:
            seen[g.mul[g.mul[inv_members, y], members]] = True
            reps.append(int(y))
    return reps


def _b_of_mask(
    g: GroupTable, h: np.ndarray, reps: Sequence[int], depth: int, work: list[int]
) -> RationalGF:
    """B_H for a non-abelian subgroup h of g, given as a mask with class reps.

    C_H(y) = H & C_G(y) stays a mask of g, and classes with the same
    centralizer are merged into one count * t * B_C term.
    """
    if depth > MAX_B_DEPTH:
        raise RecursionDepthExceeded(
            "centralizer chain failed to shrink; the table must be corrupt"
        )
    work[0] += len(reps)
    counts: dict[bytes, int] = {}
    for y in reps:
        key = (h & (g.mul[:, y] == g.mul[y, :])).tobytes()
        counts[key] = counts.get(key, 0) + 1
    zsize = counts.pop(h.tobytes(), 0)  # central classes have C_H(y) = H
    acc = RationalGF.one()
    for key, count in counts.items():
        c = np.frombuffer(key, dtype=bool)
        elems = np.flatnonzero(c)
        if is_abelian_subset(g, elems):
            bc = RationalGF.simple(count, elems.size)
        else:
            work[0] += 1
            bc = _b_of_mask(g, c, _class_representatives(g, c), depth + 1, work) * count
        acc = acc + bc.times_t()
    return acc.over_linear(zsize)


def beta_coefficient(g: GroupTable, n: int) -> int:
    """Number of simultaneous-conjugacy orbits on commuting n-tuples."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    value = b_of_t(g).coefficient(n)
    if value.denominator != 1:
        raise ArithmeticError("beta coefficient is not an integer; recursion is corrupt")
    return int(value)


def normalize(f: RationalGF, order: int) -> RationalGF:
    """Substitute t -> t/order; poles m become exact rationals m/order."""
    if order < 1:
        raise ValueError("order must be positive")
    return f.scale_t(Fraction(1, order))


def gf_equal(f: RationalGF, h: RationalGF) -> bool:
    """Exact equality of reduced forms."""
    return f == h


def a_equivalent(g: GroupTable, h: GroupTable) -> bool:
    return gf_equal(a_of_t(g), a_of_t(h))


def b_equivalent(g: GroupTable, h: GroupTable) -> bool:
    return gf_equal(b_of_t(g), b_of_t(h))


__all__ = [
    "PartialFractions",
    "a_equivalent",
    "a_of_t",
    "alpha_coefficient",
    "b_equivalent",
    "b_of_t",
    "beta_coefficient",
    "gf_equal",
    "normalize",
    "partial_fractions",
]
