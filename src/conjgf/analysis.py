"""Structural invariants of a group table.

Conjugacy classes, the cosets of Z(G) and their commuting relation, centralizers,
center, derived subgroup and lower central series, each term [N, G] the plain
closure of one commutator step, the AC-group test and whether a p-group has an
abelian maximal subgroup, read from the commuting relation.  All are pure
functions of an immutable GroupTable; all but the coset products and the
commutator step are memoized write-once on the table's private cache.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotPrimePower
from .groups import INDEX_DTYPE, LINE_BLOCK, GroupTable, commutators, memoized, orbit_labels, subgroup_closure
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
    labels = orbit_labels(g.order, [g.conj_by(s) for s in g.generators], np.intp)
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


def centralizer_elements(g: GroupTable, x: int) -> tuple[int, ...]:
    """All elements commuting with x, sorted."""
    mask = g.mul[:, x] == g.mul[x, :]
    return tuple(int(v) for v in np.nonzero(mask)[0])


@memoized
def center_elements(g: GroupTable) -> tuple[int, ...]:
    """Elements commuting with every generator, sorted."""
    mask = np.ones(g.order, dtype=bool)
    for s in g.generators:
        mask &= g.mul[:, s] == g.mul[s, :]
    return tuple(int(v) for v in np.nonzero(mask)[0])


def central_cosets(g: GroupTable) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(reps, coset_of, block) for the cosets of Z(G): the coset minima,
    ascending; each element's coset index, as INDEX_DTYPE; and the products
    block[i, j] = reps[i] reps[j].  With Z(G) trivial the block is `mul`
    itself, uncopied.  Not memoized: of the block only K is kept."""
    z = np.asarray(center_elements(g), dtype=np.intp)
    # x z = z x: the minima are read along whole rows, not strided columns
    reps, coset_of = np.unique(g.mul[z].min(axis=0), return_inverse=True)
    coset_of = coset_of.astype(INDEX_DTYPE)
    if reps.size == g.order:
        return reps, coset_of, g.mul
    block = np.empty((reps.size, reps.size), dtype=g.mul.dtype)
    for lo in range(0, reps.size, LINE_BLOCK):  # whole rows, then their columns: faster than one 2-D gather
        block[lo:lo + LINE_BLOCK] = g.mul.take(reps[lo:lo + LINE_BLOCK], axis=0).take(reps, axis=1)
    return reps, coset_of, block


@memoized
def commuting_cosets(g: GroupTable) -> np.ndarray:
    """K: K[i, j] says whether the i-th and j-th cosets of Z(G) commute, as x
    and y commute iff their cosets do."""
    block = central_cosets(g)[2]
    return block == block.T


def packed_rows(block: np.ndarray) -> np.ndarray:
    """Each row of a boolean block as one opaque bytes value, for np.unique."""
    packed = np.packbits(block, axis=1)
    return packed.view(np.dtype((np.void, packed.shape[1]))).ravel()


def commutator_subgroup(g: GroupTable, normal: np.ndarray) -> tuple[int, ...]:
    """[N, G] for N normal in G = <S>, S the generators, sorted: the plain
    closure of the [x, s], x in N and s in S.  With [a, b] = a^-1 b^-1 a b,
    [x, ys] = [x, s] [x, y] [[x, y], s].  [x, y] lies in N as N is normal, so
    [[x, y], s] is one of the [x', s], and by induction on the length of y as
    a word in S every [x, y] is a product of them; a finite group is generated
    by S as a monoid, so that covers all of G.  As [xz, s] = [x, s] for z in
    Z(G), x runs over the minima of N's cosets of Z(G): R d commutators for G',
    R = |G/Z(G)| and d = |S|."""
    xs = np.flatnonzero(np.bincount(g.mul.take(center_elements(g), axis=0).min(axis=0)[normal]))  # x z = z x: rows
    return subgroup_closure(g, commutators(g, xs, np.asarray(g.generators, dtype=np.intp)).ravel())


@memoized
def derived_subgroup(g: GroupTable) -> tuple[int, ...]:
    """G' = [G, G], sorted."""
    return commutator_subgroup(g, np.arange(g.order))


@memoized
def lower_central_series(g: GroupTable) -> tuple[tuple[int, ...], ...]:
    """gamma_1 = G, gamma_2 = G', gamma_{i+1} = [gamma_i, G]; stops once the series is stable."""
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
        cur = g.mul[cur, np.arange(g.order)]
        k += 1
        orders[remaining & (cur == 0)] = k
        remaining &= cur != 0
    return orders


def is_ac_group(g: GroupTable) -> bool:
    """True iff every non-central element has an abelian centralizer: the
    cosets in each distinct non-central row of K commute pairwise."""
    block = commuting_cosets(g)
    for i in np.unique(packed_rows(block), return_index=True)[1]:
        members = np.flatnonzero(block[i])
        if members.size < len(block) and not block.take(members, axis=0).take(members, axis=1).all():
            return False
    return True


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
    _, repeats = np.unique(packed_rows(block[block.sum(axis=1) == size]), return_counts=True)
    return bool((repeats == size - 1).any())
