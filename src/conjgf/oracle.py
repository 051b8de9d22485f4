"""Independent brute-force ground truth: orbit counts of (commuting) n-tuples
under simultaneous conjugation.

Each tuple is coded as an integer in base |G|, first coordinate most
significant, and conjugation by a generator is one gather per coordinate.
Orbits come from min-label propagation over the generator moves only
(generator moves connect exactly what full-group moves do), skipping a
generator whose move is the identity or an earlier generator's, since such a
move joins no two tuples that the others leave apart.  Commuting tuples
are built a coordinate at a time, each new coordinate drawn from the
centralizer of the prefix, so exactly the commuting tuples are visited
without materializing G^n, and the budget is checked on the tuples held.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameters, NotAGroup
from .groups import LINE_BLOCK, GroupTable, check_budget, conjugation_moves, orbit_labels

ALL_TUPLES = "all_tuples"
COMMUTING_TUPLES = "commuting_tuples"
ARRAY_OVERHEAD = 2**17  # bytes: NumPy casts an int32 index 8192 entries at a time, and array headers


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


def _orbit_count(size: int, images: list[np.ndarray]) -> int:
    """Number of orbits on range(size) of the group generated by the permutations `images`."""
    return int(np.count_nonzero(orbit_labels(size, images, np.int32) == np.arange(size, dtype=np.int32)))


def alpha_brute(g: GroupTable, n: int) -> OrbitCount:
    """Count orbits of G on G^n by label propagation over generator moves."""
    if n < 0:
        raise InvalidParameters(f"tuple length n = {n} must be nonnegative")
    moves = conjugation_moves(g)
    check_budget(f"alpha_brute({g.label}, {n})", 4 * g.order**n * (len(moves) + 4))  # one image a move, 4 working arrays
    images = []
    for _, move in moves:
        move = move.astype(np.int32)
        image = np.zeros(1, dtype=np.int32)
        for _ in range(n):
            image = (image[:, None] * g.order + move).ravel()
        images.append(image)
    total = g.order**n
    return OrbitCount(g.label, n, ALL_TUPLES, _orbit_count(total, images), total)


def commuting_tuples(g: GroupTable, n: int) -> np.ndarray:
    """All pairwise-commuting n-tuples as the rows of an (m, n) array in
    lexicographic order, each coordinate drawn from the centralizer of the
    coordinates before it.  Each step checks the budget for `beta_brute` on
    what it holds: the commuting relation with the 4 product blocks of
    LINE_BLOCK rows it is read from, then the relation, the rows with the last
    step's prefix and x, the allowed block with a block of centralizer rows,
    then with the c new rows, their prefix and x."""
    if n < 0:
        raise InvalidParameters(f"tuple length n = {n} must be nonnegative")
    request, everything = f"beta_brute({g.label}, {n})", np.arange(g.order)
    if n > 1:
        check_budget(request, ARRAY_OVERHEAD + g.order * (g.order + 4 * min(LINE_BLOCK, g.order) * g.inv.itemsize))
    commute = np.empty((g.order, g.order) if n > 1 else (0, 0), dtype=bool)
    for lo in range(0, len(commute), LINE_BLOCK):
        xs = everything[lo:lo + LINE_BLOCK]
        commute[lo:lo + LINE_BLOCK] = g.prod(xs[:, None], everything) == g.prod(everything[:, None], xs).T
    rows = np.zeros((1, 0), dtype=np.int32)
    for k in range(1, n + 1):
        held = ARRAY_OVERHEAD + commute.nbytes + rows.nbytes
        check_budget(request, held + len(rows) * (2 * g.order + 16))
        allowed = np.ones((len(rows), g.order), dtype=bool)
        for col in rows.T:
            allowed &= commute[col]
        count = int(np.count_nonzero(allowed))
        check_budget(request, held + allowed.nbytes + count * (4 * k + 20))
        prefix, x = np.nonzero(allowed)
        grown = np.empty((len(x), k), dtype=np.int32)
        for j, col in enumerate(rows.T):  # a column at a time: no temporary of the whole
            grown[:, j] = col[prefix]
        grown[:, -1] = x
        rows = grown
    return rows


def _codes(rows: np.ndarray, order: int, move: np.ndarray | None = None, dtype=np.int32) -> np.ndarray:
    codes = np.zeros(len(rows), dtype=dtype)
    for col in rows.T:
        codes = codes * order + (col if move is None else move[col])
    return codes


def beta_brute(g: GroupTable, n: int) -> OrbitCount:
    """Count orbits of G on commuting n-tuples by label propagation over generator moves.

    Tuples are coded in base |G|, in int32 below |G|^n = 2^31 and in int64
    below 2^63; past that n is refused.  The budget is checked on the rows,
    an int32 image per move kept and 6 working arrays of the codes' width."""
    span = g.order ** min(n, 64)  # |G|^n, or past 2^63 with it
    if span >= 2**63:
        raise InvalidParameters(f"beta_brute({g.label}, {n}): |G|^n passes 2^63, the range of the tuple codes")
    rows, dtype = commuting_tuples(g, n), np.dtype(np.int32 if span < 2**31 else np.int64)
    moves = conjugation_moves(g)
    check_budget(f"beta_brute({g.label}, {n})",
                 ARRAY_OVERHEAD + rows.nbytes + len(rows) * (4 * len(moves) + 6 * dtype.itemsize))
    codes = _codes(rows, g.order, dtype=dtype)  # increasing, since the rows are in lexicographic order
    images = []
    for s, move in moves:
        image = _codes(rows, g.order, move, dtype)
        at = np.searchsorted(codes, image).astype(np.int32)
        np.minimum(at, len(codes) - 1, out=at)
        if (miss := np.flatnonzero(codes[at] != image)).size:
            tup = tuple(rows[miss[0]].tolist())
            raise NotAGroup("conjugation preserves commuting tuples", (s, tup),
                            f"conjugating the commuting tuple {tup} by generator {s} gives a non-commuting tuple")
        images.append(at)
    return OrbitCount(g.label, n, COMMUTING_TUPLES, _orbit_count(len(rows), images), len(rows))
