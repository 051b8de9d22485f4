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

from .analysis import center_elements, central_cosets, commuting_cosets, derived_subgroup, element_orders
from .errors import QuotientTooLarge
from .groups import LINE_BLOCK, GroupTable, commutators, memoized, minimal_generating_indices

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
        """Re-check the commutative diagram on every pair, LINE_BLOCK rows at a time."""
        sizes = tuple(x.order // len(center_elements(x)) for x in (g, h))
        if (len(self.g_coset_reps), len(self.h_coset_reps)) != sizes:
            return False  # before either quotient table is built
        (gq, greps), (hq, hreps) = _central_quotient(g), _central_quotient(h)
        if greps != self.g_coset_reps or hreps != self.h_coset_reps:
            return False
        if len(self.theta) != hq.order or sorted(self.theta) != list(range(gq.order)):
            return False
        gder, hder = derived_subgroup(g), derived_subgroup(h)
        if sorted(self.phi) != list(gder) or sorted(self.phi.values()) != list(hder):
            return False
        theta = np.asarray(self.theta, dtype=hq.inv.dtype)  # the index dtype keeps each block small
        phi = np.zeros(g.order, dtype=h.inv.dtype)
        phi[list(self.phi)] = list(self.phi.values())
        der, every = np.asarray(gder, dtype=np.intp), np.arange(gq.order)
        greps, himages = np.asarray(greps, dtype=np.intp), np.asarray(hreps, dtype=np.intp)[theta]
        for lo in range(0, max(gq.order, der.size), LINE_BLOCK):
            rows = slice(lo, lo + LINE_BLOCK)
            # theta and phi are homomorphisms, and the square commutes on every coset
            # pair; a block past the end of the quotient or of G' is empty
            if not (np.array_equal(theta[gq.prod(every[rows, None], every)], hq.prod(theta[rows, None], theta))
                    and np.array_equal(phi[g.prod(der[rows, None], der)], h.prod(phi[der[rows], None], phi[der]))
                    and np.array_equal(phi[commutators(g, greps[rows], greps)],
                                       commutators(h, himages[rows], himages))):
                return False
        return True


@memoized
def _central_quotient(g: GroupTable) -> tuple[GroupTable, tuple[int, ...]]:
    """(Q = G/Z(G), the coset minima) from `central_cosets`; Q is generated by
    the distinct non-identity images of g's generators."""
    reps, coset_of, block = central_cosets(g)
    gens = tuple(dict.fromkeys(int(coset_of[s]) for s in g.generators if coset_of[s] != 0))
    q = GroupTable(order=reps.size, mul=coset_of[block], inv=coset_of[g.inv[reps]],
                   generators=gens or (0,), label=f"{g.label}/Z")
    return q, tuple(reps.tolist())


def _element_invariants(g: GroupTable) -> list[tuple[int, int, int]]:
    """(order in Q, class size in Q, |G : C_G(x)|) for each element of
    Q = G/Z(G).  Row i of `commuting_cosets` is quotient element i, as both
    are read from `central_cosets`, and |G : C_G(x)| = |Q| / its row sum."""
    q = _central_quotient(g)[0]
    orders, every = element_orders(q), np.arange(q.order)
    block = q.prod(every[:, None], every)
    class_size = q.order // (block == block.T).sum(axis=1)
    lifted = q.order // commuting_cosets(g).sum(axis=1)
    return [(int(orders[x]), int(class_size[x]), int(lifted[x])) for x in range(q.order)]


@memoized
def _coset_commutators(g: GroupTable) -> np.ndarray:
    """C[a, b] = [x, y] on `_central_quotient`'s minima x and y of cosets a and b of Z(G)."""
    reps = np.asarray(_central_quotient(g)[1], dtype=np.intp)
    return commutators(g, reps, reps)


def _extend(cols1: np.ndarray, cols2: np.ndarray) -> list[int] | None:
    """The injective homomorphism sending each s_i to t_i on the subgroup they
    generate, read from the columns cols1[x, i] = x s_i and cols2[y, i] = y t_i,
    as a list of images (-1 off that subgroup), or None if there is none.
    Closes breadth-first by right multiplication from the identity, checking
    every product of a reached element by an s_i."""
    steps = list(zip(cols1.T.tolist(), cols2.T.tolist()))
    image = [-1] * len(cols1)
    image[0] = 0
    frontier = [0]
    while frontier:
        nxt = []
        for x in frontier:
            for right1, right2 in steps:
                xs, ys = right1[x], right2[image[x]]
                if image[xs] < 0:
                    image[xs] = ys
                    nxt.append(xs)
                elif image[xs] != ys:
                    return None
        frontier = nxt
    reached = [y for y in image if y >= 0]
    return image if len(set(reached)) == len(reached) else None


def _iso_images(g: GroupTable, h: GroupTable):
    """Yield isomorphisms G/Z(G) -> H/Z(H) as index tuples, generator-image
    backtracking."""
    q1, q2 = _central_quotient(g)[0], _central_quotient(h)[0]
    gens = minimal_generating_indices(q1) or (0,)
    inv1, inv2 = _element_invariants(g), _element_invariants(h)
    if sorted(inv1) != sorted(inv2):
        return
    candidates = [[y for y in range(q2.order) if inv2[y] == inv1[s]] for s in gens]
    every1, every2 = np.arange(q1.order), np.arange(q2.order)  # columns x s and y t, read once per search
    cols1, cols2 = q1.prod(every1[:, None], gens), q2.prod(every2[:, None], every2)

    def backtrack(images: tuple[int, ...]):
        for cand in candidates[len(images)]:
            trial = images + (cand,)
            image = _extend(cols1[:, :len(trial)], cols2[:, list(trial)])
            if image is None:
                continue
            if len(trial) < len(gens):
                yield from backtrack(trial)
            elif min(image) >= 0:
                yield tuple(image)

    yield from backtrack(())


def _derive_phi(g: GroupTable, h: GroupTable, theta: tuple[int, ...]) -> dict[int, int] | None:
    """Force phi on commutator values and extend along products; None if it breaks.

    The commutators of the coset representatives are all of G's and H's, so
    phi, if it exists, is a bijection of G' onto H'."""
    theta = np.asarray(theta, dtype=np.intp)
    cg = _coset_commutators(g)
    ch = _coset_commutators(h)[theta[:, None], theta]
    forced = np.full(g.order, -1, dtype=np.intp)
    forced[cg] = ch
    if (forced[cg] != ch).any():
        return None
    values = np.flatnonzero(forced >= 0)
    phi = _extend(g.prod(np.arange(g.order)[:, None], values), h.prod(np.arange(h.order)[:, None], forced[values]))
    return None if phi is None else {x: y for x, y in enumerate(phi) if y >= 0}


def are_isoclinic(g: GroupTable, h: GroupTable) -> IsoclinismWitness | None:
    """Search for an isoclinism witness; None when provably none exists."""
    size, other = (x.order // len(center_elements(x)) for x in (g, h))
    if size != other:
        return None
    if size > DEFAULT_QUOTIENT_CAP:
        raise QuotientTooLarge(f"central quotient of order {size} exceeds cap {DEFAULT_QUOTIENT_CAP}")
    if len(derived_subgroup(g)) != len(derived_subgroup(h)):
        return None  # before either quotient table is built
    for theta in _iso_images(g, h):
        phi = _derive_phi(g, h, theta)
        if phi is not None:
            return IsoclinismWitness(theta=theta, phi=phi, g_coset_reps=_central_quotient(g)[1],
                                     h_coset_reps=_central_quotient(h)[1])
    return None

