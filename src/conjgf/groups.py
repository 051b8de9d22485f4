"""Element-indexed finite groups: construction, validation, subgroups, quotients.

A group is materialized as a full multiplication table over element indices
0..order-1 with the identity fixed at index 0, stored as INDEX_DTYPE.  Tables
are immutable after construction; derived data is memoized write-once in a
private cache, so a table can be read from any number of workers.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import ClosureExceedsCap, InvalidPermutation, NotAGroup

DEFAULT_ORDER_CAP = 10_000
# The element index of every table built here.  It holds every index below the
# cap, but arithmetic with a Python int stays in it and wraps past 65535, so
# any product or offset of entries that can pass the order is widened first.
INDEX_DTYPE = np.uint16
FULL_ASSOCIATIVITY_LIMIT = 256
ASSOCIATIVITY_BLOCK = 64  # rows per block of the generator-triple check
LINE_BLOCK = 128  # rows or columns per block of the cancellation scatter and the inverse scan


def check_order_cap(order: int, what: str) -> None:
    """Refuse a group of at least `order` elements over the cap, before anything is allocated."""
    if order > DEFAULT_ORDER_CAP:
        raise ClosureExceedsCap(f"{what} has at least {order} elements, over the cap {DEFAULT_ORDER_CAP}")


def memoized(fn):
    """Cache fn(g) write-once in g's private cache, keyed by fn's qualified name."""
    key = fn.__qualname__

    @functools.wraps(fn)
    def cached(g):
        if key not in g._cache:
            g._cache.setdefault(key, fn(g))
        return g._cache[key]

    return cached


@dataclass(eq=False)
class GroupTable:
    """A fully materialized finite group on indices 0..order-1, identity at 0."""

    order: int
    mul: np.ndarray
    inv: np.ndarray
    generators: tuple[int, ...]
    label: str = ""
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def mul_index(self, x: int, y: int) -> int:
        return int(self.mul[x, y])

    def commutator(self, x: int, y: int) -> int:
        """[x, y] = x^-1 y^-1 x y."""
        left = self.mul[self.inv[x], self.inv[y]]
        return int(self.mul[left, self.mul[x, y]])

    def conj_by(self, g: int) -> np.ndarray:
        """The permutation x -> g x g^-1 as an index array."""
        return self.mul[self.mul[g], self.inv[g]]


def is_abelian_subset(g: GroupTable, elements: Sequence[int]) -> bool:
    elems = np.asarray(elements, dtype=np.intp)
    block = g.mul[np.ix_(elems, elems)]
    return bool(np.array_equal(block, block.T))


def subgroup_closure(g: GroupTable, seed: Iterable[int]) -> tuple[int, ...]:
    """Smallest subgroup containing the seeds: a BFS from the identity and the seeds
    (marked first) by right multiplication with the seeds, so every positive word."""
    seeds = np.unique(np.fromiter(seed, dtype=np.intp))
    inside = np.zeros(g.order, dtype=bool)
    inside[0] = True
    inside[seeds] = True
    frontier = np.nonzero(inside)[0]
    while frontier.size:
        prods = g.mul[np.ix_(frontier, seeds)].ravel()
        frontier = np.unique(prods[~inside[prods]])
        inside[frontier] = True
    return tuple(np.nonzero(inside)[0].tolist())


def normal_closure(g: GroupTable, seed: Iterable[int]) -> tuple[int, ...]:
    """Smallest normal subgroup containing the seed elements."""
    seeds = np.fromiter(seed, dtype=np.intp)
    cur = subgroup_closure(g, seeds)
    gens = np.asarray(g.generators, dtype=np.intp)[:, None]
    while True:
        arr = np.asarray(cur, dtype=np.intp)
        # s x s^-1 for every x in cur and every generator s at once
        conjugates = g.mul[g.mul[gens, arr], g.inv[gens]].ravel()
        inside = np.zeros(g.order, dtype=bool)
        inside[arr] = True
        outside = conjugates[~inside[conjugates]]
        if not outside.size:
            return cur
        seeds = np.union1d(seeds, outside)
        cur = subgroup_closure(g, seeds)


def minimal_generating_indices(g: GroupTable) -> tuple[int, ...]:
    """Greedy small generating set: repeatedly adjoin the smallest uncovered element."""
    covered = {0}
    gens: list[int] = []
    while len(covered) < g.order:
        x = next(i for i in range(g.order) if i not in covered)
        gens.append(x)
        covered = set(subgroup_closure(g, covered | {x}))
    return tuple(gens)


def induced_table(g: GroupTable, elements: Sequence[int], label: str = "") -> GroupTable:
    """Re-index a subgroup's element set to 0..|H|-1 (by parent index order)."""
    elems = np.asarray(sorted(int(x) for x in elements), dtype=np.intp)
    if elems[0] != 0:
        raise ValueError("induced table requires the identity in the element set")
    local = np.full(g.order, -1, dtype=np.int32)
    local[elems] = np.arange(elems.size, dtype=np.int32)
    mul = local[g.mul[np.ix_(elems, elems)]]
    if (mul < 0).any():
        raise ValueError("element set is not closed under multiplication")
    inv = local[g.inv[elems]]
    sub = GroupTable(
        order=int(elems.size),
        mul=mul.astype(INDEX_DTYPE),
        inv=inv.astype(INDEX_DTYPE),
        generators=(),
        label=label or f"{g.label}|sub{elems.size}",
    )
    gens = minimal_generating_indices(sub)
    sub.generators = gens if gens else (0,)
    return sub


def quotient_table(
    g: GroupTable, normal_elements: Sequence[int], label: str = ""
) -> tuple[GroupTable, tuple[int, ...], np.ndarray]:
    """Quotient by a normal subgroup.

    Returns (quotient table, coset representatives, coset index of each parent
    element).  Cosets are represented by their smallest member and ordered by
    that representative, so the construction is deterministic.
    """
    nset = np.asarray(sorted(int(x) for x in normal_elements), dtype=np.intp)
    coset_min = g.mul[:, nset].min(axis=1)
    reps, coset_of = np.unique(coset_min, return_inverse=True)
    coset_of = coset_of.astype(INDEX_DTYPE)
    q = len(reps)
    mul = coset_of[g.mul[np.ix_(reps, reps)]]
    inv = coset_of[g.inv[reps]]
    table = GroupTable(
        order=q,
        mul=mul,
        inv=inv,
        generators=(),
        label=label or f"{g.label}/N{len(nset)}",
    )
    gens = tuple(dict.fromkeys(int(coset_of[s]) for s in g.generators if coset_of[s] != 0))
    table.generators = gens if gens else (0,)
    return table, tuple(int(r) for r in reps), coset_of


# ---------------------------------------------------------------------------
# certification


@dataclass(frozen=True)
class CheckResult:
    """One certificate check; a failing one carries the element index, pair or
    triple of indices that breaks its axiom."""

    name: str
    status: str  # "pass" | "fail" | "skip"
    detail: str = ""
    witness: tuple = ()


@dataclass(frozen=True)
class CertificateReport:
    label: str
    checks: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    def first_failure(self) -> CheckResult | None:
        return next((c for c in self.checks if c.status == "fail"), None)


def _verdict(name: str, witness: tuple | None, detail: str) -> CheckResult:
    """A check that fails exactly when it found a witness."""
    if witness is None:
        return CheckResult(name, "pass", detail)
    return CheckResult(name, "fail", detail, witness)


def _first_true(mask: np.ndarray) -> tuple[int, ...] | None:
    hits = np.argwhere(mask)
    return tuple(int(i) for i in hits[0]) if hits.size else None


@memoized
def certify(g: GroupTable) -> CertificateReport:
    """Verify the group axioms on a table (once per table; the report is cached).

    Associativity is first checked as (xy)s = x(ys) for all x, y and each s
    in S, the greedy subsequence of the generators that `_spanning_generators`
    keeps: once the identity holds and S's closure is the whole table, this
    implies full associativity by induction on word length, and with it
    generation.  Any other outcome runs the exact witness search: every
    triple up to order 256 ("all triples"), every generator past it
    ("generator triples"), so the witness is always the first failing triple
    in that order.  Cancellation follows from the identity, two-sided
    inverses and associativity, so its scan runs only when one of those
    fails, to name the first row or column that is not a permutation.
    A failing check names its witness: an entry of mul or an element whose
    inv entry is not an index (table_shape), an element (identity, inverses,
    cancellation, generation) or a triple (associativity).
    """
    mul, inv, n = g.mul, g.inv, g.order
    if mul.shape != (n, n) or inv.shape != (n,):
        bad = CheckResult("table_shape", "fail", f"mul {mul.shape} and inv {inv.shape} at order {n}", (n,))
        return CertificateReport(g.label, (bad,))
    if not (mul.min() >= 0 and mul.max() < n):
        bad = CheckResult("table_shape", "fail", "entry out of range", _first_true((mul < 0) | (mul >= n)))
        return CertificateReport(g.label, (bad,))
    if not (inv.min() >= 0 and inv.max() < n):
        bad = CheckResult("table_shape", "fail", "inv entry out of range", _first_true((inv < 0) | (inv >= n)))
        return CertificateReport(g.label, (bad,))
    checks = [CheckResult("table_shape", "pass")]

    ident = np.arange(n)
    bad_id = _first_true((mul[0] != ident) | (mul[:, 0] != ident))
    checks.append(_verdict("identity", bad_id, "row/col 0 must be the identity map"))

    bad_inv = _first_true((mul[ident, inv] != 0) | (mul[inv, ident] != 0))
    checks.append(_verdict("inverses", bad_inv, "inv[x] must be a two-sided inverse of x"))

    exhaustive = n <= FULL_ASSOCIATIVITY_LIMIT
    mode = "all triples" if exhaustive else "generator triples"
    kept, span = _spanning_generators(g) if bad_id is None else ((), ())
    bad_assoc = None
    if len(span) < n or _associativity_witness_generators(mul, kept) is not None:
        span = None
        bad_assoc = (_associativity_witness_full(mul) if exhaustive
                     else _associativity_witness_generators(mul, g.generators))

    line = None
    if bad_id is not None or bad_inv is not None or bad_assoc is not None:
        line = _first_non_permutation_line(mul)
    if line is None:
        cancel = CheckResult("cancellation", "pass", "every row and column is a permutation")
    else:
        kind, at = line
        cancel = CheckResult("cancellation", "fail", f"{kind} {at} is not a permutation", (at,))
    checks.append(cancel)
    checks.append(_verdict("associativity", bad_assoc, mode))

    if cancel.status == "pass" and bad_assoc is None:
        if span is None:
            span = subgroup_closure(g, g.generators)
        missing = None if len(span) == n else (min(set(range(n)).difference(span)),)
        checks.append(_verdict("generation", missing, f"generators span {len(span)} of {n} elements"))
    else:
        checks.append(CheckResult("generation", "skip", "earlier checks failed"))
    return CertificateReport(g.label, tuple(checks))


def _spanning_generators(g: GroupTable) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(S, closure of S): the generators in order, each kept only when it lies
    outside the closure of those kept before it, stopping once that closure is
    the whole table."""
    kept: list[int] = []
    span: tuple[int, ...] = (0,)
    for s in g.generators:
        if s not in span:
            kept.append(s)
            span = subgroup_closure(g, kept)
            if len(span) == g.order:
                break
    return tuple(kept), span


def _associativity_witness_full(mul: np.ndarray) -> tuple[int, int, int] | None:
    n = mul.shape[0]
    for x in range(n):
        left = mul.take(mul[x], axis=0)  # (x y) z
        right = mul[x].take(mul)         # x (y z)
        if not np.array_equal(left, right):
            bad = np.argwhere(left != right)[0]
            return (x, int(bad[0]), int(bad[1]))
    return None


def _associativity_witness_generators(
    mul: np.ndarray, generators: Sequence[int]
) -> tuple[int, int, int] | None:
    """First (x, y, s) with (x y) s != x (y s), s outermost, then row-major; with
    r = mul[:, s], row block B of the table gives (x y) s = r[B] and x (y s) = B[:, r]."""
    for s in generators:
        r = np.ascontiguousarray(mul[:, s])
        for lo in range(0, len(mul), ASSOCIATIVITY_BLOCK):
            block = mul[lo:lo + ASSOCIATIVITY_BLOCK]
            left, right = r.take(block), block.take(r, axis=1)
            if not np.array_equal(left, right):
                bad = np.argwhere(left != right)[0]
                return (lo + int(bad[0]), int(bad[1]), int(s))
    return None


def _first_non_permutation_line(mul: np.ndarray) -> tuple[str, int] | None:
    """("row", x) for the lowest row that is not a permutation, else ("column", y)
    for the lowest such column, else None.  Each block of LINE_BLOCK lines is one
    scatter into a reused bool buffer: seen[x - lo, mul[x, y]] for rows and
    seen[mul[x, y], y - lo] for columns, which reads mul[:, lo:lo+k] in row order."""
    n = len(mul)
    seen = np.empty(LINE_BLOCK * n, dtype=bool)
    offsets = np.arange(LINE_BLOCK)
    for kind in ("row", "column"):
        for lo in range(0, n, LINE_BLOCK):
            k = min(LINE_BLOCK, n - lo)
            hit = seen[:k * n]
            hit[:] = False
            if kind == "row":
                hit[mul[lo:lo + k] + offsets[:k, None] * n] = True
                ok = hit.reshape(k, n).all(axis=1)
            else:
                # widened before the multiply: a uint16 entry times k would wrap
                hit[np.multiply(mul[:, lo:lo + k], k, dtype=np.intp) + offsets[:k]] = True
                ok = hit.reshape(n, k).all(axis=0)
            bad = np.flatnonzero(~ok)
            if bad.size:
                return kind, lo + int(bad[0])
    return None


def inverses(mul: np.ndarray) -> np.ndarray:
    """inv[x] = the lowest y with mul[x, y] == 0, or 0 when row x has none (as in a
    table that is not a group); scanned LINE_BLOCK rows at a time, so no n x n mask."""
    inv = np.empty(len(mul), dtype=INDEX_DTYPE)
    for lo in range(0, len(mul), LINE_BLOCK):
        inv[lo:lo + LINE_BLOCK] = np.argmax(mul[lo:lo + LINE_BLOCK] == 0, axis=1)
    return inv


def _certified(table: GroupTable) -> GroupTable:
    """The table itself if it passes `certify`, else NotAGroup from the first failed check."""
    bad = certify(table).first_failure()
    if bad is not None:
        raise NotAGroup(bad.name, bad.witness,
                        f"{table.label} is not a group: {bad.name} fails at {bad.witness} ({bad.detail})")
    return table


def _is_index(v) -> bool:
    """Python or numpy integers; bool and float are not element indices."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


# ---------------------------------------------------------------------------
# constructors


def build_from_permutations(gens: Sequence[Sequence[int]], label: str = "") -> GroupTable:
    """Close a set of permutations of {0..k-1} under composition.

    Elements are indexed in BFS discovery order with the identity first.
    Composition convention: (p * q)(i) = p(q(i)), i.e. q acts first.
    """
    if not gens:
        raise InvalidPermutation("need at least one generator")
    perms = [tuple(p) for p in gens]
    k = len(perms[0])
    for p in perms:
        if len(p) != k:
            raise InvalidPermutation("generators act on domains of different sizes")
        if not all(_is_index(v) for v in p) or sorted(p) != list(range(k)):
            raise InvalidPermutation(f"{p} is not a bijection on 0..{k - 1}")

    identity = tuple(range(k))
    index: dict[tuple[int, ...], int] = {identity: 0}
    elems: list[tuple[int, ...]] = [identity]
    parent: list[tuple[int, int]] = [(0, -1)]  # (parent index, generator position)
    right_by_gen: list[list[int]] = [[] for _ in perms]

    pos = 0
    while pos < len(elems):
        cur = elems[pos]
        for gi, gp in enumerate(perms):
            nxt = tuple(cur[gp[i]] for i in range(k))
            at = index.get(nxt)
            if at is None:
                at = len(elems)
                if at >= DEFAULT_ORDER_CAP:
                    raise ClosureExceedsCap(f"closure exceeded cap {DEFAULT_ORDER_CAP}")
                index[nxt] = at
                elems.append(nxt)
                parent.append((pos, gi))
            right_by_gen[gi].append(at)
        pos += 1

    n = len(elems)
    right = [np.asarray(col, dtype=INDEX_DTYPE) for col in right_by_gen]
    mul = np.empty((n, n), dtype=INDEX_DTYPE)
    mul[:, 0] = np.arange(n, dtype=INDEX_DTYPE)
    for y in range(1, n):
        py, gi = parent[y]
        mul[:, y] = right[gi][mul[:, py]]
    return _certified(GroupTable(
        order=n,
        mul=mul,
        inv=inverses(mul),
        generators=tuple(dict.fromkeys(index[p] for p in perms)),
        label=label or f"perm-closure({n})",
    ))


def build_from_cayley(table: Sequence[Sequence[int]], label: str = "") -> GroupTable:
    """Validate an explicit multiplication table and wrap it as a group.

    The identity must sit at index 0 and every entry must be an integer in
    0..n-1.  A table with more than DEFAULT_ORDER_CAP rows raises
    ClosureExceedsCap before any row is read; one that fails `certify` raises
    NotAGroup naming the first failed check and its witness.
    """
    try:
        check_order_cap(len(table), "table")
        rows = [list(row) for row in table]
    except TypeError:
        raise NotAGroup("shape", (), "table must be a list of rows") from None
    n = len(rows)
    if n == 0 or any(len(r) != n for r in rows):
        raise NotAGroup("shape", (n,), "table must be square and nonempty")
    for x, row in enumerate(rows):
        for y, v in enumerate(row):
            if not _is_index(v):
                raise NotAGroup("shape", (x, y), f"entry {v!r} at {(x, y)} is not an integer")
            if not 0 <= v < n:
                raise NotAGroup("closure", (x, y), f"entry {v} at {(x, y)} is not in 0..{n - 1}")
    mul = np.asarray(rows, dtype=INDEX_DTYPE)
    g = GroupTable(order=n, mul=mul, inv=inverses(mul), generators=(0,), label=label or f"cayley({n})")
    g.generators = minimal_generating_indices(g) or (0,)
    return _certified(g)
