"""Structural invariants of a group table.

Conjugacy classes, the cosets of Z(G), their commuting relation K and its
distinct rows, the centralizers (`centralizer_rows`, which the B recursion,
the AC-group test and the abelian-maximal-subgroup flag of a p-group read),
center, derived subgroup and lower central series, each term [N, G] the plain
closure of one commutator step: pure functions of an immutable GroupTable, all
but the coset products, the commutator step and the rows memoized on its cache.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import NotPrimePower
from .groups import (INDEX_DTYPE, LINE_BLOCK, GroupTable, commutators, conjugation_moves, memoized, orbit_labels,
                     subgroup_closure)
from .pcp import prime_power_root


@dataclass(frozen=True)
class ClassData:
    """Conjugacy classes with centralizer sizes; the class equation is the
    sorted multiset of class sizes."""

    classes: tuple[tuple[int, ...], ...]
    representatives: tuple[int, ...]
    centralizer_sizes: tuple[int, ...]
    class_equation: tuple[int, ...]

    @property
    def num_classes(self) -> int:
        return len(self.classes)


@memoized
def conjugacy_data(g: GroupTable) -> ClassData:
    """Partition the elements into conjugacy classes (order: smallest member),
    the orbits of conjugation by the generators."""
    labels = orbit_labels(g.order, [move for _, move in conjugation_moves(g)], np.intp)
    sizes = np.unique(labels, return_counts=True)[1]
    # a stable sort by class minimum keeps each class's members ascending
    members = np.split(np.argsort(labels, kind="stable"), np.cumsum(sizes)[:-1])
    classes = [tuple(c.tolist()) for c in members]
    return ClassData(
        classes=tuple(classes),
        representatives=tuple(c[0] for c in classes),
        centralizer_sizes=tuple(g.order // len(c) for c in classes),
        class_equation=tuple(sorted(len(c) for c in classes)),
    )


def _commuting_mask(g: GroupTable, xs) -> np.ndarray:
    """mask[y, i]: y xs[i] = xs[i] y, for every element y."""
    everything, xs = np.arange(g.order), np.asarray(xs)
    return g.prod(everything[:, None], xs) == g.prod(xs[:, None], everything).T


def centralizer_elements(g: GroupTable, x: int) -> tuple[int, ...]:
    """All elements commuting with x, sorted."""
    return tuple(int(v) for v in np.nonzero(_commuting_mask(g, [x])[:, 0])[0])


@memoized
def center_elements(g: GroupTable) -> tuple[int, ...]:
    """Elements commuting with every generator, sorted."""
    return tuple(int(v) for v in np.nonzero(_commuting_mask(g, g.generators).all(axis=1))[0])


def _coset_minima(g: GroupTable) -> np.ndarray:
    """For each x, the least element of its coset x Z(G) = {z x : z in Z(G)},
    LINE_BLOCK central rows at a time; all 0 when Z(G) = G."""
    z = np.asarray(center_elements(g), dtype=np.intp)
    if z.size == g.order:
        return np.zeros(g.order, dtype=INDEX_DTYPE)
    everything = np.arange(g.order)
    minima = g.prod(z[:LINE_BLOCK, None], everything).min(axis=0)
    for lo in range(LINE_BLOCK, z.size, LINE_BLOCK):
        np.minimum(minima, g.prod(z[lo:lo + LINE_BLOCK, None], everything).min(axis=0), out=minima)
    return minima


def central_cosets(g: GroupTable) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(reps, coset_of, block) for the cosets of Z(G): the coset minima,
    ascending; each element's coset index, as INDEX_DTYPE; and the products
    block[i, j] = reps[i] reps[j].  With Z(G) trivial, R = |G| and K is G's
    own commuting relation: the block is `mul` itself, as a block of products
    would only copy the table.  Not memoized: of the block only K is kept."""
    reps, coset_of = np.unique(_coset_minima(g), return_inverse=True)
    coset_of = coset_of.astype(INDEX_DTYPE)
    if reps.size == g.order:
        return reps, coset_of, g.mul
    return reps, coset_of, g.prod(reps[:, None], reps)


@memoized
def commuting_cosets(g: GroupTable) -> np.ndarray:
    """K: K[i, j] says whether the i-th and j-th cosets of Z(G) commute, as x
    and y commute iff their cosets do."""
    block = central_cosets(g)[2]
    return block == block.T


def centralizer_rows(block: np.ndarray) -> Iterator[tuple[int, int, np.ndarray]]:
    """Yield (i, m, members) for each distinct row of a boolean commuting block:
    its first position, the number of rows equal to it, and its True positions."""
    packed = np.packbits(block, axis=1)
    _, first, counts = np.unique(packed.view(np.dtype((np.void, packed.shape[1]))).ravel(),
                                 return_index=True, return_counts=True)
    for i, m in zip(first.tolist(), counts.tolist()):
        yield i, m, np.flatnonzero(block[i])


def commutator_subgroup(g: GroupTable, xs: np.ndarray) -> tuple[int, ...]:
    """[N, G] for N normal in G = <S>, S the generators, sorted: the plain
    closure of the [x, s], x in N and s in S.  With [a, b] = a^-1 b^-1 a b,
    [x, ys] = [x, s] [x, y] [[x, y], s].  [x, y] lies in N as N is normal, so
    [[x, y], s] is one of the [x', s], and by induction on the length of y as
    a word in S every [x, y] is a product of them; a finite group is generated
    by S as a monoid, so that covers all of G.  As [xz, s] = [x, s] for z in
    Z(G), x need only run over `xs`, elements of N that meet each of N's
    cosets of Z(G): for G' the R coset minima, R = |G/Z(G)|, so R d
    commutators with d = |S|."""
    return subgroup_closure(g, commutators(g, xs, np.asarray(g.generators, dtype=np.intp)).ravel())


@memoized
def derived_subgroup(g: GroupTable) -> tuple[int, ...]:
    """G' = [G, G], sorted."""
    return commutator_subgroup(g, np.unique(_coset_minima(g)))


@memoized
def lower_central_series(g: GroupTable) -> tuple[tuple[int, ...], ...]:
    """gamma_1 = G, gamma_2 = G', gamma_{i+1} = [gamma_i, G], x over all of
    gamma_i; stops once the series is stable."""
    terms = [tuple(range(g.order)), derived_subgroup(g)]
    while terms[-1] != terms[-2]:
        terms.append(commutator_subgroup(g, np.asarray(terms[-1], dtype=np.intp)))
    return tuple(terms[:-1])


def nilpotency_class(g: GroupTable) -> int | None:
    """Length of the lower central series, or None if it stabilizes above 1."""
    series = lower_central_series(g)
    return len(series) - 1 if len(series[-1]) == 1 else None


@memoized
def element_orders(g: GroupTable) -> np.ndarray:
    """The order of each element, by index."""
    orders = np.ones(g.order, dtype=np.int64)
    cur = np.arange(g.order)
    remaining = cur != 0
    k = 1
    while remaining.any():
        cur = g.prod(cur, np.arange(g.order))
        k += 1
        orders[remaining & (cur == 0)] = k
        remaining &= cur != 0
    return orders


def is_ac_group(g: GroupTable) -> bool:
    """True iff every non-central element has an abelian centralizer: the
    cosets in each distinct non-central row of K commute pairwise."""
    block = commuting_cosets(g)
    return all(members.size == len(block) or block.take(members, axis=0).take(members, axis=1).all()
               for _, _, members in centralizer_rows(block))


def has_abelian_maximal_subgroup(g: GroupTable) -> bool:
    """Some maximal subgroup of the p-group G is abelian.

    Such an M of a non-abelian G contains Z(G), or M Z(G) = G would be
    abelian, and M = C_G(x) for every x in M - Z(G).  In the commuting block
    on the R = |G/Z(G)| cosets, M is then a row with R/p members, repeated by
    the R/p - 1 non-central cosets in it.  Conversely, the rows equal to a row
    C_G(x) of R/p members are non-central cosets inside C_G(x), as y lies in
    C_G(y); R/p - 1 of them are all of its non-central cosets, which then
    commute with all of C_G(x): it is an abelian subgroup of index p.
    """
    if g.order == 1:
        return False
    root = prime_power_root(g.order)
    if root is None:
        raise NotPrimePower(f"order {g.order} is not a prime power")
    block = commuting_cosets(g)
    if len(block) == 1:
        return True
    size = len(block) // root[0]
    return any(m == size - 1 for _, m, _ in centralizer_rows(block[block.sum(axis=1) == size]))
