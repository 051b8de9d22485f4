"""Structural invariants of a group table.

Conjugacy classes, the commuting relation on G/Z(G), centralizers, center,
derived subgroup, lower central series, the AC-group test and the
maximal-class profile.  Everything here is a pure function of an immutable
GroupTable; results are memoized write-once on the table's private cache.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotPrimePower
from .groups import (
    GroupTable,
    is_abelian_subset,
    memoized,
    normal_closure,
    quotient_table,
    subgroup_closure,
)
from .pcp import is_prime


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
    """Partition the elements into conjugacy classes (order: smallest member)."""
    moves = [g.conj_by(s) for s in g.generators]
    seen = np.zeros(g.order, dtype=bool)
    classes: list[tuple[int, ...]] = []
    for x in range(g.order):
        if seen[x]:
            continue
        orbit = {x}
        frontier = [x]
        seen[x] = True
        while frontier:
            nxt = []
            for y in frontier:
                for mv in moves:
                    z = int(mv[y])
                    if not seen[z]:
                        seen[z] = True
                        orbit.add(z)
                        nxt.append(z)
            frontier = nxt
        classes.append(tuple(sorted(orbit)))
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


def commuting_cosets(g: GroupTable) -> tuple[np.ndarray, np.ndarray]:
    """(K, reps): reps are the minima of the cosets of Z(G), ascending, and
    K[i, j] says whether reps[i] and reps[j] commute, as x and y commute iff
    their cosets do.  Not cached: with Z(G) trivial K is |G|^2, and `mul` is
    compared with its own transpose, uncopied."""
    z = np.asarray(center_elements(g), dtype=np.intp)
    reps = np.unique(g.mul[:, z].min(axis=1))
    sub = g.mul if reps.size == g.order else g.mul[reps[:, None], reps]
    return sub == sub.T, reps


@memoized
def centralizer_histogram(g: GroupTable) -> dict[int, int]:
    """Maps m to the number of x with |C_G(x)| = m: |Z(G)| times the row sum
    of x's coset in `commuting_cosets`, for each of its |Z(G)| elements."""
    block, reps = commuting_cosets(g)
    zsize = g.order // reps.size
    sizes, cosets = np.unique(block.sum(axis=1), return_counts=True)
    return {zsize * int(m): zsize * int(c) for m, c in zip(sizes, cosets)}


@memoized
def derived_subgroup(g: GroupTable) -> tuple[int, ...]:
    """Normal closure of the commutators of the generators, sorted."""
    seed = {g.commutator(s, t) for s in g.generators for t in g.generators}
    return normal_closure(g, seed)


@memoized
def lower_central_series(g: GroupTable) -> tuple[tuple[int, ...], ...]:
    """gamma_1 = G, gamma_{i+1} = [gamma_i, G]; stops once the series is stable."""
    terms: list[tuple[int, ...]] = [tuple(range(g.order))]
    while True:
        cur = np.asarray(terms[-1], dtype=np.intp)
        seed: set[int] = set()
        for s in g.generators:
            left = g.mul[g.inv[cur], g.inv[s]]
            seed.update(int(v) for v in g.mul[left, g.mul[cur, s]])
        nxt = normal_closure(g, seed)
        if nxt == terms[-1]:
            return tuple(terms)
        terms.append(nxt)


def nilpotency_class(g: GroupTable) -> int | None:
    """Length of the lower central series, or None if it stabilizes above 1."""
    series = lower_central_series(g)
    if len(series[-1]) != 1:
        return None
    return len(series) - 1


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
        newly_done = remaining & (cur == 0)
        orders[newly_done] = k
        remaining &= cur != 0
    return orders


def exponent(g: GroupTable) -> int:
    return int(math.lcm(*(int(v) for v in np.unique(element_orders(g)))))


def is_ac_group(g: GroupTable) -> bool:
    """True iff every non-central element has an abelian centralizer."""
    zset = set(center_elements(g))
    for rep in conjugacy_data(g).representatives:
        if rep in zset:
            continue
        if not is_abelian_subset(g, centralizer_elements(g, rep)):
            return False
    return True


def _p_log(order: int, p: int) -> int:
    m = 0
    n = order
    while n % p == 0:
        n //= p
        m += 1
    if n != 1:
        raise NotPrimePower(f"order {order} is not a power of {p}")
    return m


def frattini_elements(g: GroupTable, p: int) -> tuple[int, ...]:
    """Frattini subgroup of a p-group: closure of commutators and p-th powers."""
    pw = np.arange(g.order)
    for _ in range(p - 1):
        pw = g.mul[pw, np.arange(g.order)]
    seed = set(int(v) for v in pw) | set(derived_subgroup(g))
    return subgroup_closure(g, seed)


def _frattini_quotient(g: GroupTable, p: int):
    """G/Phi(G) of a p-group (order > 1) with a basis b_0..b_(k-1) of it, and
    the coordinates over F_p of each quotient element in that basis."""
    frat = frattini_elements(g, p)
    q, reps, coset_of = quotient_table(g, frat)
    basis: list[int] = []
    span = {0}
    for x in range(1, q.order):
        if x not in span:
            basis.append(x)
            span = set(subgroup_closure(q, span | {x}))
    k = len(basis)
    coords = np.zeros((q.order, k), dtype=np.int64)

    def fill(idx: int, elem: int, coord: list[int]) -> None:
        if idx == k:
            coords[elem] = coord
            return
        cur = elem
        for c in range(p):
            fill(idx + 1, cur, coord + [c])
            cur = q.mul_index(cur, basis[idx])

    fill(0, 0, [])
    return frat, reps, coset_of, basis, coords


def maximal_subgroups(g: GroupTable, p: int) -> list[tuple[int, ...]]:
    """All index-p subgroups of a p-group: hyperplane preimages of G/Frattini."""
    _p_log(g.order, p)
    if g.order == 1:
        return []
    _frat, _reps, coset_of, basis, coords = _frattini_quotient(g, p)
    subs: list[tuple[int, ...]] = []
    for functional in _unit_functionals(p, len(basis)):
        lam = np.asarray(functional, dtype=np.int64)
        in_plane = (coords @ lam) % p == 0
        members = np.nonzero(in_plane[coset_of])[0]
        subs.append(tuple(int(v) for v in members))
    return subs


def maximal_subgroup_generators(g: GroupTable, p: int) -> list[tuple[int, ...]]:
    """A generating set of each maximal subgroup, in `maximal_subgroups` order.

    The hyperplane lam = 0 (lam_j = 1 its first nonzero entry) has the basis
    e_i - lam_i e_j for i != j, so its preimage M is generated by Phi(G) and
    the elements x_i x_j^(-lam_i), where x_i lifts b_i.
    """
    _p_log(g.order, p)
    if g.order == 1:
        return []
    frat, reps, _coset_of, basis, _coords = _frattini_quotient(g, p)
    frat_gens: list[int] = []
    span = {0}
    for x in frat:
        if x not in span:
            frat_gens.append(x)
            span = set(subgroup_closure(g, frat_gens))
    lifts = [reps[b] for b in basis]
    gens: list[tuple[int, ...]] = []
    for functional in _unit_functionals(p, len(lifts)):
        j = functional.index(1)
        kernel = []
        for i, (x, lam) in enumerate(zip(lifts, functional)):
            if i != j:
                for _ in range(-lam % p):
                    x = g.mul_index(x, lifts[j])
                kernel.append(x)
        gens.append(tuple(frat_gens + kernel))
    return gens


def _unit_functionals(p: int, k: int):
    """Nonzero functionals on F_p^k up to scalar (first nonzero entry = 1)."""
    from itertools import product

    for vec in product(range(p), repeat=k):
        nz = next((i for i, v in enumerate(vec) if v), None)
        if nz is not None and vec[nz] == 1:
            yield vec


def has_abelian_maximal_subgroup(g: GroupTable, p: int) -> bool:
    """Some maximal subgroup is abelian: its generating set pairwise commutes."""
    return any(is_abelian_subset(g, gens) for gens in maximal_subgroup_generators(g, p))


@dataclass(frozen=True)
class MaximalClassProfile:
    """Standard structural data of a p-group of maximal class.

    P_series is [P_0, ..., P_m] as sorted element tuples, with P_1 the common
    2-step centralizer and P_i = gamma_i(G) for i >= 2.  The non-boolean
    fields are None when the group is not of maximal class.
    """

    is_maximal_class: bool
    p: int
    m: int
    nilpotency_class: int
    P_series: tuple[tuple[int, ...], ...] | None
    degree_of_commutativity_positive: bool | None
    has_abelian_maximal_subgroup: bool | None
    P1_P3_commute: bool | None


def _commute_between(g: GroupTable, a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    A = np.asarray(a, dtype=np.intp)
    B = np.asarray(b, dtype=np.intp)
    return bool(np.array_equal(g.mul[np.ix_(A, B)], g.mul[np.ix_(B, A)].T))


def _commutator_set(g: GroupTable, a: tuple[int, ...], b: tuple[int, ...]) -> set[int]:
    out: set[int] = set()
    arr = np.asarray(a, dtype=np.intp)
    for y in b:
        left = g.mul[g.inv[arr], g.inv[y]]
        out.update(int(v) for v in g.mul[left, g.mul[arr, y]])
    return out


def maximal_class_profile(g: GroupTable, p: int) -> MaximalClassProfile:
    """Maximal-class test plus the P_i series and its standard flags."""
    if not is_prime(p):
        raise NotPrimePower(f"{p} is not prime")
    m = _p_log(g.order, p)
    series = lower_central_series(g)
    cls = nilpotency_class(g)
    if cls is None or m < 4 or cls != m - 1:
        return MaximalClassProfile(
            is_maximal_class=False, p=p, m=m,
            nilpotency_class=cls if cls is not None else -1,
            P_series=None, degree_of_commutativity_positive=None,
            has_abelian_maximal_subgroup=None, P1_P3_commute=None,
        )

    def gamma(i: int) -> tuple[int, ...]:
        return series[i - 1] if i - 1 < len(series) else (0,)

    # P_1 = K_2: elements centralizing gamma_2 / gamma_4.
    g4 = np.zeros(g.order, dtype=bool)
    g4[list(gamma(4))] = True
    mask = np.ones(g.order, dtype=bool)
    for a in gamma(2):
        left = g.mul[g.inv, g.inv[a]]
        comm = g.mul[left, g.mul[:, a]]
        mask &= g4[comm]
    p1 = tuple(int(v) for v in np.nonzero(mask)[0])

    p_series = [tuple(range(g.order)), p1]
    for i in range(2, m + 1):
        p_series.append(gamma(i))

    def pset(i: int) -> tuple[int, ...]:
        return p_series[i] if i <= m else (0,)

    p1_abelian = is_abelian_subset(g, p1)
    if p1_abelian:
        positive = m - 3 > 0
    else:
        positive = True
        for i in range(1, m):
            for j in range(i, m):
                inside = np.zeros(g.order, dtype=bool)
                inside[list(pset(i + j + 1))] = True
                if not all(inside[c] for c in _commutator_set(g, pset(i), pset(j))):
                    positive = False
                    break
            if not positive:
                break

    return MaximalClassProfile(
        is_maximal_class=True, p=p, m=m, nilpotency_class=cls,
        P_series=tuple(p_series),
        degree_of_commutativity_positive=positive,
        has_abelian_maximal_subgroup=has_abelian_maximal_subgroup(g, p),
        P1_P3_commute=_commute_between(g, p1, pset(3)),
    )
