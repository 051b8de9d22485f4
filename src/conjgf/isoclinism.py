"""Isoclinism testing by the commutative-diagram definition.

Two groups are isoclinic when some isomorphism theta of their central
quotients and some isomorphism phi of their derived subgroups commute with
the commutator map.  theta is found by generator-image backtracking over the
quotients, pruned by element order and conjugacy-class size in the quotient
and by the lifted class size |G : C_G(x)|.  The last is an isoclinism
invariant: y -> [x, y] takes |G : C_G(x)| values and depends only on xZ and
yZ, so phi carries that value set onto the one of theta(xZ).  phi is never
searched: the diagram forces it on commutator values, which generate the
derived subgroup, so it is derived and then validated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import (
    center_elements,
    commuting_cosets,
    conjugacy_data,
    derived_subgroup,
    element_orders,
)
from .errors import QuotientTooLarge
from .groups import GroupTable, memoized, minimal_generating_indices, quotient_table

DEFAULT_QUOTIENT_CAP = 256


@dataclass(frozen=True)
class IsoclinismWitness:
    """A checked isoclinism: theta on quotient indices, phi on parent indices.

    theta[i] is the index in H/Z(H) of the image of quotient element i of
    G/Z(G); phi maps each element of G' (as a parent index of G) to an element
    of H' (as a parent index of H).
    """

    theta: tuple[int, ...]
    phi: dict[int, int]
    g_coset_reps: tuple[int, ...]
    h_coset_reps: tuple[int, ...]

    def verify(self, g: GroupTable, h: GroupTable) -> bool:
        """Exhaustively re-check the commutative diagram."""
        sizes = tuple(x.order // len(center_elements(x)) for x in (g, h))
        if (len(self.g_coset_reps), len(self.h_coset_reps)) != sizes:
            return False  # before either quotient table is built
        gq, greps, gcoset = _central_quotient(g)
        hq, hreps, hcoset = _central_quotient(h)
        if greps != self.g_coset_reps or hreps != self.h_coset_reps:
            return False
        theta = self.theta
        if len(theta) != hq.order or sorted(theta) != list(range(gq.order)):
            return False
        # theta is an isomorphism of the quotients
        for a in range(gq.order):
            for b in range(gq.order):
                if theta[gq.mul_index(a, b)] != hq.mul_index(theta[a], theta[b]):
                    return False
        # phi is a bijection of the derived subgroups
        gder = derived_subgroup(g)
        hder = derived_subgroup(h)
        if sorted(self.phi) != list(gder) or sorted(self.phi.values()) != list(hder):
            return False
        # phi is a homomorphism
        for x in gder:
            for y in gder:
                if self.phi[g.mul_index(x, y)] != h.mul_index(self.phi[x], self.phi[y]):
                    return False
        # the square commutes on every coset pair
        for a in range(gq.order):
            for b in range(gq.order):
                cg = g.commutator(greps[a], greps[b])
                ch = h.commutator(hreps[theta[a]], hreps[theta[b]])
                if self.phi[cg] != ch:
                    return False
        return True


@memoized
def _central_quotient(g: GroupTable):
    return quotient_table(g, center_elements(g), label=f"{g.label}/Z")


def _element_invariants(g: GroupTable) -> list[tuple[int, int, int]]:
    """(order in Q, class size in Q, |G : C_G(x)|) for each element of
    Q = G/Z(G).  Row i of `commuting_cosets` is quotient element i (both order
    the cosets by their minima), and |G : C_G(x)| = |Q| / its row sum."""
    q = _central_quotient(g)[0]
    orders = element_orders(q)
    cd = conjugacy_data(q)
    class_size = np.empty(q.order, dtype=np.int64)
    for cls in cd.classes:
        class_size[list(cls)] = len(cls)
    lifted = q.order // commuting_cosets(g)[0].sum(axis=1)
    return [(int(orders[x]), int(class_size[x]), int(lifted[x])) for x in range(q.order)]


def _iso_images(g: GroupTable, h: GroupTable):
    """Yield isomorphisms G/Z(G) -> H/Z(H) as index arrays, generator-image
    backtracking."""
    q1 = _central_quotient(g)[0]
    q2 = _central_quotient(h)[0]
    gens = minimal_generating_indices(q1) or (0,)
    inv1 = _element_invariants(g)
    inv2 = _element_invariants(h)
    if sorted(inv1) != sorted(inv2):
        return
    candidates = [[y for y in range(q2.order) if inv2[y] == inv1[s]] for s in gens]

    def close(images: tuple[int, ...]):
        """Partial map on <gens[:k]> by right-multiplication closure; None on conflict."""
        mapping = {0: 0}
        frontier = [0]
        while frontier:
            nxt = []
            for x in frontier:
                for s, t in zip(gens[: len(images)], images):
                    xs = q1.mul_index(x, s)
                    yt = q2.mul_index(mapping[x], t)
                    seen = mapping.get(xs)
                    if seen is None:
                        mapping[xs] = yt
                        nxt.append(xs)
                    elif seen != yt:
                        return None
            frontier = nxt
        if len(set(mapping.values())) != len(mapping):
            return None
        return mapping

    def backtrack(k: int, images: tuple[int, ...]):
        if k == len(gens):
            mapping = close(images)
            if mapping is not None and len(mapping) == q1.order:
                theta = [0] * q1.order
                for x, y in mapping.items():
                    theta[x] = y
                yield tuple(theta)
            return
        for cand in candidates[k]:
            trial = images + (cand,)
            if close(trial) is None:
                continue
            yield from backtrack(k + 1, trial)

    yield from backtrack(0, ())


def _derive_phi(
    g: GroupTable, h: GroupTable,
    greps: tuple[int, ...], hreps: tuple[int, ...],
    theta: tuple[int, ...],
) -> dict[int, int] | None:
    """Force phi on commutator values and extend along products; None if it breaks."""
    gder = derived_subgroup(g)
    hder = derived_subgroup(h)
    if len(gder) != len(hder):
        return None
    phi: dict[int, int] = {0: 0}
    pairs: list[tuple[int, int]] = [(0, 0)]
    for a in range(len(greps)):
        for b in range(len(greps)):
            cg = g.commutator(greps[a], greps[b])
            ch = h.commutator(hreps[theta[a]], hreps[theta[b]])
            seen = phi.get(cg)
            if seen is None:
                phi[cg] = ch
                pairs.append((cg, ch))
            elif seen != ch:
                return None
    # multiplicative closure over the generating set of commutator values
    frontier = list(pairs)
    while frontier:
        nxt = []
        for x, y in frontier:
            for u, v in pairs:
                xu = g.mul_index(x, u)
                yv = h.mul_index(y, v)
                seen = phi.get(xu)
                if seen is None:
                    phi[xu] = yv
                    nxt.append((xu, yv))
                elif seen != yv:
                    return None
        frontier = nxt
    if len(phi) != len(gder) or sorted(phi) != list(gder):
        return None
    if sorted(phi.values()) != list(hder):
        return None
    return phi


def are_isoclinic(g: GroupTable, h: GroupTable) -> IsoclinismWitness | None:
    """Search for an isoclinism witness; None when provably none exists."""
    largest = max(x.order // len(center_elements(x)) for x in (g, h))
    if largest > DEFAULT_QUOTIENT_CAP:
        raise QuotientTooLarge(f"central quotient of order {largest} exceeds cap {DEFAULT_QUOTIENT_CAP}")
    gq, greps, _ = _central_quotient(g)
    hq, hreps, _ = _central_quotient(h)
    if gq.order != hq.order:
        return None
    if len(derived_subgroup(g)) != len(derived_subgroup(h)):
        return None
    for theta in _iso_images(g, h):
        phi = _derive_phi(g, h, greps, hreps, theta)
        if phi is not None:
            witness = IsoclinismWitness(theta=theta, phi=phi,
                                        g_coset_reps=greps, h_coset_reps=hreps)
            return witness
    return None


def stem_order(g: GroupTable) -> int:
    """|G/Z(G)| * |Z(G) cap G'|: the order of the stem groups of G's family."""
    z = set(center_elements(g))
    der = set(derived_subgroup(g))
    return (g.order // len(z)) * len(z & der)
