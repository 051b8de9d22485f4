"""Independent brute-force ground truth: orbit counts of (commuting) n-tuples
under simultaneous conjugation.

Tuples are enumerated explicitly and orbits come from union-find over the
generator action only (generator moves connect exactly what full-group moves
do).  Commuting tuples are generated prefix-first: each new coordinate is
drawn from the centralizer of the prefix, so exactly the commuting tuples are
visited without materializing G^n.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import TupleCapExceeded
from .groups import GroupTable

DEFAULT_TUPLE_CAP = 10_000_000

ALL_TUPLES = "all_tuples"
COMMUTING_TUPLES = "commuting_tuples"


@dataclass(frozen=True)
class OrbitCount:
    """One oracle run: the orbit count plus the work actually performed."""

    label: str
    n: int
    mode: str
    count: int
    tuples_visited: int

    def record(self) -> str:
        """Machine-readable line for the benchmark harness."""
        return f"{self.label} {self.mode} {self.n} {self.count} {self.tuples_visited}"


class _UnionFind:
    def __init__(self, size: int):
        self.parent = list(range(size))
        self.count = size

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, x: int, y: int) -> None:
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[max(rx, ry)] = min(rx, ry)
            self.count -= 1


def _conj_maps(g: GroupTable) -> list[np.ndarray]:
    return [g.conj_by(s) for s in g.generators]


def alpha_brute(g: GroupTable, n: int) -> OrbitCount:
    """Count orbits of G on G^n by explicit union-find over generator moves."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    total = g.order**n
    if total > DEFAULT_TUPLE_CAP:
        raise TupleCapExceeded(f"|G|^n = {total} exceeds cap {DEFAULT_TUPLE_CAP}")
    if n == 0:
        return OrbitCount(g.label, 0, ALL_TUPLES, 1, 1)
    maps = _conj_maps(g)
    uf = _UnionFind(total)
    order = g.order
    for idx in range(total):
        digits = []
        rest = idx
        for _ in range(n):
            digits.append(rest % order)
            rest //= order
        for mv in maps:
            image = 0
            scale = 1
            for d in digits:
                image += int(mv[d]) * scale
                scale *= order
            uf.union(idx, image)
    return OrbitCount(g.label, n, ALL_TUPLES, uf.count, total)


def commuting_tuples(g: GroupTable, n: int) -> list[tuple[int, ...]]:
    """All pairwise-commuting n-tuples, each coordinate drawn from the
    centralizer of the coordinates before it (deterministic order)."""
    if g.order**n > DEFAULT_TUPLE_CAP:
        raise TupleCapExceeded(f"|G|^n = {g.order ** n} exceeds cap {DEFAULT_TUPLE_CAP}")
    everyone = np.arange(g.order)
    out: list[tuple[int, ...]] = []

    def extend(prefix: tuple[int, ...], cent: np.ndarray) -> None:
        if len(prefix) == n:
            out.append(prefix)
            return
        for x in cent:
            x = int(x)
            mask = g.mul[cent, x] == g.mul[x, cent]
            extend(prefix + (x,), cent[mask])

    if n == 0:
        return [()]
    extend((), everyone)
    return out


def beta_brute(g: GroupTable, n: int) -> OrbitCount:
    """Count orbits of G on commuting n-tuples (union-find over generator moves)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return OrbitCount(g.label, 0, COMMUTING_TUPLES, 1, 1)
    tuples = commuting_tuples(g, n)
    index = {tup: i for i, tup in enumerate(tuples)}
    maps = _conj_maps(g)
    uf = _UnionFind(len(tuples))
    for i, tup in enumerate(tuples):
        for mv in maps:
            image = tuple(int(mv[x]) for x in tup)
            uf.union(i, index[image])
    return OrbitCount(g.label, n, COMMUTING_TUPLES, uf.count, len(tuples))
