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

from .errors import InvalidParameters, NotAGroup
from .groups import GroupTable, check_budget, orbit_labels

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


def _check_budget(request: str, g: GroupTable, n: int, arrays: int) -> None:
    """Refuse a negative n, or `arrays` int32 arrays of |G|^n entries over the budget."""
    if n < 0:
        raise InvalidParameters(f"tuple length n = {n} must be nonnegative")
    check_budget(f"{request}({g.label}, {n})", 4 * g.order**n * arrays)


def _orbit_count(size: int, images: list[np.ndarray]) -> int:
    """Number of orbits on range(size) of the group generated by the permutations `images`."""
    return int(np.count_nonzero(orbit_labels(size, images, np.int32) == np.arange(size, dtype=np.int32)))


def alpha_brute(g: GroupTable, n: int) -> OrbitCount:
    """Count orbits of G on G^n by label propagation over generator moves."""
    _check_budget("alpha_brute", g, n, len(g.generators) + 4)  # d images, up to 4 working arrays
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
    coordinates before it.  It checks the budget for `beta_brute`: n columns,
    an image per generator and 6 working arrays, of up to |G|^n int32 each."""
    _check_budget("beta_brute", g, n, len(g.generators) + n + 6)
    commute = g.mul == g.mul.T if n > 1 else None
    rows = np.zeros((1, 0), dtype=np.int32)
    for _ in range(n):
        allowed = np.ones((len(rows), g.order), dtype=bool)
        for col in rows.T:
            allowed &= commute[col]
        prefix, x = np.nonzero(allowed)
        grown = np.empty((len(x), rows.shape[1] + 1), dtype=np.int32)
        for j, col in enumerate(rows.T):  # a column at a time: no temporary of the whole
            grown[:, j] = col[prefix]
        grown[:, -1] = x
        rows = grown
    return rows


def _codes(rows: np.ndarray, order: int, move: np.ndarray | None = None) -> np.ndarray:
    codes = np.zeros(len(rows), dtype=np.int32)
    for col in rows.T:
        codes = codes * order + (col if move is None else move[col])
    return codes


def beta_brute(g: GroupTable, n: int) -> OrbitCount:
    """Count orbits of G on commuting n-tuples by label propagation over generator moves."""
    rows = commuting_tuples(g, n)
    codes = _codes(rows, g.order)  # increasing, since the rows are in lexicographic order
    images = []
    for s in g.generators:
        image = _codes(rows, g.order, g.conj_by(s))
        at = np.searchsorted(codes, image).astype(np.int32)
        np.minimum(at, len(codes) - 1, out=at)
        if (miss := np.flatnonzero(codes[at] != image)).size:
            tup = tuple(rows[miss[0]].tolist())
            raise NotAGroup("conjugation preserves commuting tuples", (s, tup),
                            f"conjugating the commuting tuple {tup} by generator {s} gives a non-commuting tuple")
        images.append(at)
    return OrbitCount(g.label, n, COMMUTING_TUPLES, _orbit_count(len(rows), images), len(rows))
