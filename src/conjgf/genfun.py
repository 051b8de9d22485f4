"""The two core computations, A_G(t) and B_G(t), both read from one relation,
plus coefficient extraction, normalization and the equivalence predicates.

x and y commute iff their cosets mod Z(G) do, so both read the commuting
block K on the R = |G/Z(G)| coset minima (`analysis.commuting_cosets`), with
|Z(G)| elements behind each row.  A_G(t) counts simultaneous-conjugacy orbits
of n-tuples: alpha_n = (1/|G|) sum_g |C_G(g)|^n, and |C_G(g)| is |Z(G)| times
the row sum of g's coset.  B_G(t) does the same for pairwise commuting
n-tuples.  By Burnside's lemma beta_n |G| = c_{n+1}(G), the number of
commuting (n+1)-tuples, and N_H(t) = sum c_n(H) t^n satisfies
    (1 - |Z(H)| t) N_H(t) = 1 + t S_H(t),   S_H = sum_C mult(C) N_C(t),
over the distinct non-central centralizers C = C_H(y), with mult(C) the
number of y in H that have it, N_C = 1/(1 - |C| t) for abelian C, and
    B_G(t) = (|Z(G)| N_G(t) + S_G(t)) / |G|.
Every node H contains Z(G): its block is K's rows and columns of H's cosets,
its distinct rows are the centralizers, and each row stands for |Z(G)| y.
"""

from __future__ import annotations

from fractions import Fraction
import numpy as np

from .analysis import centralizer_histogram, commuting_cosets, packed_rows
from .errors import RecursionDepthExceeded
from .groups import GroupTable
from .ratfun import PartialFractions, RationalGF, gf_sum, partial_fractions

MAX_B_DEPTH = 64


def a_of_t(g: GroupTable) -> RationalGF:
    """A_G(t) = (1/|G|) sum_m z_m / (1 - m t), combined and reduced."""
    hist = centralizer_histogram(g)
    acc = RationalGF.zero()
    for m in sorted(hist):
        acc = acc + RationalGF.simple(hist[m], m)
    return acc * Fraction(1, g.order)


def alpha_coefficient(g: GroupTable, n: int) -> int:
    """Number of simultaneous-conjugacy orbits on n-tuples (orbit counting lemma)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    total = sum(count * m**n for m, count in centralizer_histogram(g).items())
    if total % g.order:
        raise ArithmeticError("orbit count sum is not divisible by |G|; table is corrupt")
    return total // g.order


def b_of_t(g: GroupTable) -> RationalGF:
    """B_G(t) in Burnside form, exact and reduced.

    The work done (distinct non-central rows summed plus non-abelian nodes
    computed) is left beside the result in the table's cache as "b_work"."""
    cached = g._cache.get("b_of_t")
    if cached is None:
        work = [0]
        block, reps = commuting_cosets(g)
        if reps.size == 1:
            cached = RationalGF.simple(1, g.order)
        else:
            zsize, s = _commuting_sum(block, reps, g.order // reps.size, {}, 0, work)
            cached = (_count_series(zsize, s) * zsize + s) * Fraction(1, g.order)
        g._cache.setdefault("b_work", work[0])
        cached = g._cache.setdefault("b_of_t", cached)
    return cached


def _commuting_sum(
    block: np.ndarray, idx: np.ndarray, zg: int, memo: dict, depth: int, work: list[int]
) -> tuple[int, RationalGF]:
    """(|Z(H)|, S_H) for a non-abelian subgroup H >= Z(G) with commuting block `block`.

    `idx` holds the minima of H's cosets of Z(G), in block order, and zg is
    |Z(G)|; child series are memoized in `memo` under that exact coset set.
    S_H = sum over distinct non-central centralizers C of mult(C) * N_C, where
    mult(C) counts the y in H with C_H(y) = C and N_C = sum c_n(C) t^n.
    """
    if depth > MAX_B_DEPTH:
        raise RecursionDepthExceeded(
            "centralizer chain failed to shrink; the table must be corrupt"
        )
    work[0] += 1
    _, first, rows = np.unique(packed_rows(block), return_index=True, return_counts=True)
    zsize = 0
    terms: dict[RationalGF, int] = {}  # N_C -> summed multiplicity
    for i, m in zip(first.tolist(), (rows * zg).tolist()):
        members = np.flatnonzero(block[i])
        if members.size == block.shape[0]:
            zsize += m
            continue
        work[0] += 1
        sub_idx = idx[members]
        key = sub_idx.tobytes()
        n_c = memo.get(key)
        if n_c is None:
            # rows, then columns: about 3x faster than one np.ix_ gather
            sub = block.take(members, axis=0).take(members, axis=1)
            if sub.all():
                n_c = RationalGF.simple(1, members.size * zg)
            else:
                n_c = _count_series(*_commuting_sum(sub, sub_idx, zg, memo, depth + 1, work))
            memo[key] = n_c
        terms[n_c] = terms.get(n_c, 0) + m
    return zsize, gf_sum([n_c * m for n_c, m in terms.items()])


def _count_series(zsize: int, s: RationalGF) -> RationalGF:
    """N_H = (1 + t S_H) / (1 - |Z(H)| t)."""
    return (RationalGF.one() + s.times_t()).over_linear(zsize)


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
