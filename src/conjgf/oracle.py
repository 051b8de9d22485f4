"""Independent brute-force ground truth: orbit counts of (commuting) n-tuples
under simultaneous conjugation.

Each tuple is coded as an integer in base |G|, first coordinate most
significant, and conjugation by a generator is one gather per coordinate.
Orbits come from min-label propagation over the generator moves only
(generator moves connect exactly what full-group moves do).  Commuting tuples
are built a coordinate at a time, each new coordinate drawn from the
centralizer of the prefix, so exactly the commuting tuples are visited
without materializing G^n.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameters, NotAGroup, TupleCapExceeded
from .groups import GroupTable, orbit_labels

DEFAULT_TUPLE_CAP = 10_000_000  # below 2**31, so every tuple code is an int32

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


def _check_tuple_cap(g: GroupTable, n: int) -> None:
    """Refuse a negative n or |G|^n over the cap, before anything is allocated."""
    if n < 0:
        raise InvalidParameters(f"tuple length n = {n} must be nonnegative")
    total = g.order**n
    if total > DEFAULT_TUPLE_CAP:
        raise TupleCapExceeded(f"|G|^n = {total} exceeds cap {DEFAULT_TUPLE_CAP}")


def _orbit_count(size: int, images: list[np.ndarray]) -> int:
    """Number of orbits on range(size) of the group generated by the permutations `images`."""
    return int(np.count_nonzero(orbit_labels(size, images, np.int32) == np.arange(size, dtype=np.int32)))


def alpha_brute(g: GroupTable, n: int) -> OrbitCount:
    """Count orbits of G on G^n by label propagation over generator moves."""
    _check_tuple_cap(g, n)
    images = []
    for s in g.generators:
        move = g.conj_by(s).astype(np.int32)
        image = np.zeros(1, dtype=np.int32)
        for _ in range(n):
            image = (image[:, None] * g.order + move).ravel()
        images.append(image)
    total = g.order**n
    return OrbitCount(g.label, n, ALL_TUPLES, _orbit_count(total, images), total)


def commuting_tuples(g: GroupTable, n: int) -> np.ndarray:
    """All pairwise-commuting n-tuples as the rows of an (m, n) array in
    lexicographic order, each coordinate drawn from the centralizer of the
    coordinates before it."""
    _check_tuple_cap(g, n)
    commute = g.mul == g.mul.T if n > 1 else None  # |G|^2 <= |G|^n is under the cap
    rows = np.zeros((1, 0), dtype=np.int32)
    for _ in range(n):
        allowed = np.ones((len(rows), g.order), dtype=bool)
        for col in rows.T:
            allowed &= commute[col]
        prefix, x = np.nonzero(allowed)
        rows = np.concatenate((rows[prefix], x[:, None].astype(np.int32)), axis=1)
    return rows


def _codes(rows: np.ndarray, order: int) -> np.ndarray:
    codes = np.zeros(len(rows), dtype=np.int32)
    for col in rows.T:
        codes = codes * order + col
    return codes


def beta_brute(g: GroupTable, n: int) -> OrbitCount:
    """Count orbits of G on commuting n-tuples by label propagation over generator moves."""
    rows = commuting_tuples(g, n)
    codes = _codes(rows, g.order)  # increasing, since the rows are in lexicographic order
    images = []
    for s in g.generators:
        image = _codes(g.conj_by(s)[rows], g.order)
        at = np.minimum(np.searchsorted(codes, image), len(codes) - 1)
        if (miss := np.flatnonzero(codes[at] != image)).size:
            tup = tuple(rows[miss[0]].tolist())
            raise NotAGroup("conjugation preserves commuting tuples", (s, tup),
                            f"conjugating the commuting tuple {tup} by generator {s} gives a non-commuting tuple")
        images.append(at.astype(np.int32))
    return OrbitCount(g.label, n, COMMUTING_TUPLES, _orbit_count(len(rows), images), len(rows))
