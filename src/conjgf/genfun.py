"""The two core computations, A_G(t) and B_G(t), both read from one relation,
plus coefficient extraction, normalization and the equivalence predicates.

x and y commute iff their cosets mod Z(G) do, so both are functions of the
commuting block K on the R = |G/Z(G)| cosets (`analysis.commuting_cosets`),
with |Z(G)| elements behind each row; |Z(G)| enters only as t -> |Z(G)| t.
A_G(t) counts simultaneous-conjugacy orbits of n-tuples:
alpha_n = (1/|G|) sum_g |C_G(g)|^n, and |C_G(g)| is |Z(G)| times the row sum
of g's coset, so
    A_G(t) = A~(|Z(G)| t),   A~(u) = (1/R) sum over K's rows of 1/(1 - (row sum) u).
B_G(t) does the same for pairwise commuting n-tuples.  By Burnside's lemma
beta_n |G| = c_{n+1}(G), the number of commuting (n+1)-tuples.  B is counted
in cosets of Z(G): for H >= Z(G), c_n(H) = |Z(G)|^n c~_n(H) and
N~_H(u) = sum c~_n(H) u^n satisfies
    (1 - |Z(H)/Z(G)| u) N~_H(u) = 1 + u S~_H(u),   S~_H = sum_C mult(C) N~_C(u),
over the distinct non-central centralizers C = C_H(y), with mult(C) the
number of cosets of Z(G) in H that have it, N~_C = 1/(1 - |C/Z(G)| u) for
abelian C, and
    B_G(t) = B~(|Z(G)| t),   B~(u) = (N~_G(u) + S~_G(u)) / R,
so the normalized A_G(t/|G|) = A~(t/R) and B_G(t/|G|) = B~(t/R) depend on K
alone.  Each node H's block is K's rows and columns of its cosets; its
distinct rows are the centralizers.
"""

from __future__ import annotations

from fractions import Fraction
import numpy as np

from .analysis import commuting_cosets, packed_rows
from .errors import InvalidParameters, LagrangeViolation
from .groups import GroupTable, memoized
from .ratfun import RationalGF, gf_sum


@memoized
def a_of_t(g: GroupTable) -> RationalGF:
    """A_G(t) = A~(|Z(G)| t), A~(u) = (1/R) sum over K's rows of 1/(1 - (row sum) u)."""
    block = commuting_cosets(g)
    sizes, rows = np.unique(block.sum(axis=1), return_counts=True)
    a = gf_sum([RationalGF.simple(c, m) for m, c in zip(sizes.tolist(), rows.tolist())])
    return (a * Fraction(1, len(block))).scale_t(g.order // len(block))


def alpha_coefficient(g: GroupTable, n: int) -> int:
    """Number of simultaneous-conjugacy orbits on n-tuples (orbit counting lemma)."""
    return _integral_coefficient(a_of_t(g), n)


def b_of_t(g: GroupTable) -> RationalGF:
    """B_G(t) in Burnside form, exact and reduced."""
    return b_and_work(g)[0]


@memoized
def b_and_work(g: GroupTable) -> tuple[RationalGF, int]:
    """(B_G, work), with work the nodes computed plus the distinct non-central
    rows summed.  G has one central coset, Z(G), so B~ = (N~_G + S~_G) / R."""
    block = commuting_cosets(g)
    central, s, work = _commuting_sum(block, np.arange(len(block)), {})
    b = (_count_series(central, s) + s) * Fraction(1, len(block))
    return b.scale_t(g.order // len(block)), work


def _commuting_sum(block: np.ndarray, idx: np.ndarray, memo: dict) -> tuple[int, RationalGF, int]:
    """(central cosets, S~_H, work) for a subgroup H >= Z(G) with commuting block `block`.

    `idx` holds the positions in K of H's cosets of Z(G), in block order;
    child series are memoized in `memo` under that exact coset set.
    S~_H = sum over distinct non-central centralizers C of mult(C) * N~_C,
    where mult(C) counts the cosets in H whose centralizer in H is C.  S~_H is
    a function of the multiset {N~_C: mult(C)} alone, and N~_C of its central
    count and S~_C alone, so `memo` also holds each under exactly those
    arguments: isomorphic nodes on different coset sets (Phi5(5)'s 156
    children) each recurse, but do their exact sums once.  The
    work is this node, its distinct non-central rows and the work of the
    children it computes.  C/Z(G) is a proper subgroup of H/Z(G), so by
    Lagrange a non-central row holds at most half the block's rows; a row that
    recurses is checked for that, so the recursion is at most log2 R deep.
    """
    _, first, rows = np.unique(packed_rows(block), return_index=True, return_counts=True)
    central, work = 0, 1
    terms: dict[RationalGF, int] = {}  # N~_C -> summed multiplicity
    for i, m in zip(first.tolist(), rows.tolist()):
        members = np.flatnonzero(block[i])
        if members.size == block.shape[0]:
            central += m
            continue
        work += 1
        sub_idx = idx[members]
        key = sub_idx.tobytes()
        n_c = memo.get(key)
        if n_c is None:
            # rows, then columns: about 3x faster than one np.ix_ gather
            sub = block.take(members, axis=0).take(members, axis=1)
            if sub.all():
                n_c = RationalGF.simple(1, members.size)
            elif 2 * members.size > block.shape[0]:
                raise LagrangeViolation(
                    f"row {int(idx[i])} of K commutes with {members.size} of its node's "
                    f"{block.shape[0]} cosets, more than half; the table must be corrupt"
                )
            else:
                sub_central, sub_s, sub_work = _commuting_sum(sub, sub_idx, memo)
                n_c = memo.get((sub_central, sub_s))
                if n_c is None:
                    n_c = memo[sub_central, sub_s] = _count_series(sub_central, sub_s)
                work += sub_work
            memo[key] = n_c
        terms[n_c] = terms.get(n_c, 0) + m
    shape = frozenset(terms.items())
    s = memo.get(shape)
    if s is None:
        s = memo[shape] = gf_sum([n_c * m for n_c, m in terms.items()])
    return central, s, work


def _count_series(central: int, s: RationalGF) -> RationalGF:
    """N~_H = (1 + u S~_H) / (1 - |Z(H)/Z(G)| u)."""
    return (RationalGF.one() + s.times_t()).over_linear(central)


def beta_coefficient(g: GroupTable, n: int) -> int:
    """Number of simultaneous-conjugacy orbits on commuting n-tuples."""
    return _integral_coefficient(b_of_t(g), n)


def _integral_coefficient(f: RationalGF, n: int) -> int:
    """f's coefficient of t^n, which counts orbits and so must be an integer;
    `coefficient` raises InvalidParameters for n < 0."""
    value = f.coefficient(n)
    if value.denominator != 1:
        raise ArithmeticError(f"coefficient {n} is {value}, not an integer; the table is corrupt")
    return int(value)


def normalize(f: RationalGF, order: int) -> RationalGF:
    """Substitute t -> t/order; poles m become exact rationals m/order."""
    if order < 1:
        raise InvalidParameters("order must be positive")
    return f.scale_t(Fraction(1, order))


def gf_equal(f: RationalGF, h: RationalGF) -> bool:
    """Exact equality of reduced forms."""
    return f == h


def a_equivalent(g: GroupTable, h: GroupTable) -> bool:
    return gf_equal(a_of_t(g), a_of_t(h))


def b_equivalent(g: GroupTable, h: GroupTable) -> bool:
    return gf_equal(b_of_t(g), b_of_t(h))


__all__ = [
    "a_equivalent",
    "a_of_t",
    "alpha_coefficient",
    "b_equivalent",
    "b_of_t",
    "beta_coefficient",
    "gf_equal",
    "normalize",
]
