"""Element-indexed finite groups: construction, validation, subgroups.

A group lives on element indices 0..order-1, identity at 0, as INDEX_DTYPE.
Outside this module its products are read through `GroupTable.prod`, and a pc
group whose top level is kept factored builds its full table `mul` only for
`certify` and, if centerless, for `analysis.central_cosets` (K).  Tables are
immutable and memoize derived data write-once in a private cache, safe for
concurrent readers.
"""

from __future__ import annotations

import functools
import mmap
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import BudgetExceeded, InvalidParameters, InvalidPermutation, NotAGroup

# The element index of every table built here.  It holds every index of a table
# the budget admits, but arithmetic with a Python int stays in it and wraps past
# 65535, so any product or offset of entries that can pass the order is widened first.
INDEX_DTYPE = np.uint16
MEMORY_BUDGET = 2 * 7**10  # bytes: one order-7^5 table, so every group of order p^5 for p <= 7
ASSOCIATIVITY_BLOCK = 64  # rows per block of the associativity scan
LINE_BLOCK = 128  # rows or columns per block of the cancellation scatter, the inverse scan and a product block


def int_text(n: int) -> str:
    """n in decimal, or by its bit length past 1000 bits: Python writes no int
    of over 4300 digits, and every order that long is over the budget."""
    return str(n) if n.bit_length() <= 1000 else f"over 2^{n.bit_length() - 1}"


def check_budget(request: str, nbytes: int) -> None:
    """Refuse a request estimated at `nbytes` over MEMORY_BUDGET (read at call
    time) before it allocates: a table build's table, a closure's tuples with
    it, an oracle's arrays, a spec file's parsed text.  A pc build also holds
    the level below, at most a quarter of its table.  What is computed from a
    table needs no check: certify's buffers, K, B's sub-blocks and the
    quotient tables are no larger than the table."""
    if nbytes > MEMORY_BUDGET:
        raise BudgetExceeded(f"{request} needs {int_text(nbytes)} bytes, over the budget of {MEMORY_BUDGET} bytes")


def table_bytes(order: int) -> int:
    return order * order * np.dtype(INDEX_DTYPE).itemsize


def closure_bytes(order: int, degree: int, gens: int) -> int:
    """The table, and per element its tuple of `degree` ints (8 bytes each, 56
    the tuple), index entry, parent, `gens` right products and certify's blocks."""
    return table_bytes(order) + order * (8 * degree + 128 * gens + 1280)


def checked_order(request: str, factors: Iterable[int], nbytes=table_bytes) -> int:
    """The product of `factors`, refused at the first partial product whose
    `nbytes` passes the budget, so no long product over it is multiplied out."""
    order = 1
    for r in factors:
        order *= r
        check_budget(request, nbytes(order))
    return order


def memoized(fn):
    """Cache fn(g) write-once in g's private cache, keyed by fn's qualified name."""
    key = fn.__qualname__

    @functools.wraps(fn)
    def cached(g):
        if key not in g._cache:
            g._cache.setdefault(key, fn(g))
        return g._cache[key]

    return cached


@dataclass(eq=False, frozen=True, init=False)
class GroupTable:
    """A finite group on indices 0..order-1, identity at 0; left empty,
    `generators` is set to `minimal_generating_indices`.  With `mul` None,
    `top` is a factored top level (`pcp.CyclicExtension`), which `prod` reads:
    the table of the subgroup below it and O(|G|) indices."""

    order: int
    inv: np.ndarray
    generators: tuple[int, ...]
    label: str
    _mul: np.ndarray | None = field(repr=False)
    _top: object = field(repr=False)
    _cache: dict = field(repr=False)

    def __init__(self, order: int, mul: np.ndarray | None, inv: np.ndarray,
                 generators: tuple[int, ...] = (), label: str = "", top=None):
        for name, value in (("order", order), ("inv", inv), ("label", label), ("_mul", mul),
                            ("_top", top), ("_cache", {})):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "generators", generators or minimal_generating_indices(self) or (0,))

    @property
    def mul(self) -> np.ndarray:
        """The full table, mul[x, y] = x y; a factored one is built on first
        read (by `certify`, or K of a centerless group), into a `mapped_table`."""
        if self._mul is None:
            object.__setattr__(self, "_mul", self._top.table(mapped_table(self.order)))
        return self._mul

    def prod(self, xs, ys) -> np.ndarray:
        """xs ys elementwise, broadcast as numpy broadcasts them: mul[xs, ys].
        A column xs[:, None] by a row ys gives their block, read by whole rows
        or columns, never element by element."""
        xs, ys = np.asarray(xs), np.asarray(ys)
        outer = xs.ndim == 2 and xs.shape[1] == 1 and ys.ndim == 1
        if self._mul is None:
            return self._top.block(xs[:, 0], ys) if outer else self._top.prod(xs, ys)
        return gather_block(self._mul, xs[:, 0], ys) if outer else self._mul[xs, ys]

    def conj_by(self, g: int) -> np.ndarray:
        """The permutation x -> g x g^-1 as an index array; an unbuilt `mul` stays unbuilt."""
        if self._mul is None:
            return self.prod(self.prod(g, np.arange(self.order)), self.inv[g])
        return self._mul[self._mul[g], self.inv[g]]


def mapped_table(order: int) -> np.ndarray:
    """An uninitialized (order, order) table in its own anonymous memory
    mapping, unmapped whole once released.  A table built on first read is
    allocated wherever the first read happens to fall, often between arrays
    that outlive it; taken from the malloc heap, it would leave a table-sized
    hole among them when freed, which later and larger arrays cannot reuse.
    Its pages are mapped at once, as the build writes every one of them.
    The mapping is outside what tracemalloc counts."""
    buffer = mmap.mmap(-1, table_bytes(order), flags=mmap.MAP_PRIVATE | mmap.MAP_POPULATE)
    return np.frombuffer(buffer, dtype=INDEX_DTYPE).reshape(order, order)


def gather_block(table: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """table[rows][:, cols] by two takes, the smaller intermediate first: the
    columns whole, or the rows whole LINE_BLOCK at a time, each block then cut
    to its columns; either is faster than one gather of single entries."""
    if rows.size > cols.size:
        return table.take(cols, axis=1).take(rows, axis=0)
    out = np.empty((rows.size, cols.size), dtype=table.dtype)
    for lo in range(0, rows.size, LINE_BLOCK):
        out[lo:lo + LINE_BLOCK] = table.take(rows[lo:lo + LINE_BLOCK], axis=0).take(cols, axis=1)
    return out


def commutators(g: GroupTable, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """[xs[i], ys[j]] = xs[i]^-1 ys[j]^-1 xs[i] ys[j] for every i and j: two blocks and their products."""
    return g.prod(g.prod(g.inv[xs][:, None], g.inv[ys]), g.prod(xs[:, None], ys))


def is_abelian_subset(g: GroupTable, elements: Sequence[int]) -> bool:
    block = g.prod(np.asarray(elements, dtype=np.intp)[:, None], elements)
    return bool(np.array_equal(block, block.T))


def orbit_labels(size: int, images: list[np.ndarray], dtype: type) -> np.ndarray:
    """The minimum of each point's orbit on range(size) under the group
    generated by the permutations `images`.

    Each sweep jumps every label to its label's label, into a new array, then
    pulls each image's label into that array in place, so a pull sees the
    pulls before it.  Each label only ever falls to a smaller index in its own
    orbit, so a sweep that ends where it began changed nothing: then a label is
    no larger than the label of any image, so it is constant along every
    generator cycle, hence on the orbit, and equal to the orbit's minimum.
    Every inverse is a positive power of a permutation, so forward pulls reach
    the whole orbit."""
    labels = np.arange(size, dtype=dtype)
    while True:
        before, labels = labels, labels[labels]
        for image in images:
            np.minimum(labels, labels[image], out=labels)
        if np.array_equal(labels, before):
            return labels


def conjugation_moves(g: GroupTable) -> list[tuple[int, np.ndarray]]:
    """(s, x -> s x s^-1) for each generator s, in order, whose move is neither
    the identity nor an earlier generator's: the moves that generate the
    conjugation action, each once."""
    moves = {np.arange(g.order, dtype=g.inv.dtype).tobytes(): None}  # the identity move, dropped below
    for s in g.generators:
        moves.setdefault((move := g.conj_by(s)).tobytes(), (s, move))
    return list(moves.values())[1:]


def subgroup_closure(g: GroupTable, seed: Iterable[int]) -> tuple[int, ...]:
    """Smallest subgroup containing the seeds: a BFS from the identity and the seeds
    (marked first) by right multiplication with the seeds, so every positive word."""
    inside = np.zeros(g.order, dtype=bool)
    # fromiter walks an array element by element in Python: one is read whole
    inside[seed if isinstance(seed, np.ndarray) else np.fromiter(seed, dtype=np.intp)] = True
    seeds = np.flatnonzero(inside)  # distinct and sorted, without a sort
    inside[0] = True
    frontier = np.flatnonzero(inside)
    while frontier.size:
        prods = g.prod(frontier[:, None], seeds).ravel()
        frontier = np.unique(prods[~inside[prods]])
        inside[frontier] = True
    return tuple(np.nonzero(inside)[0].tolist())


def minimal_generating_indices(g: GroupTable) -> tuple[int, ...]:
    """Greedy small generating set: repeatedly adjoin the smallest uncovered element."""
    return _spanning_generators(g, range(g.order))[0]


def _spanning_generators(
    g: GroupTable, candidates: Iterable[int]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(S, closure of S): the candidates in order, each kept only when it lies
    outside the closure of those kept before it, stopping once that closure is
    the whole table."""
    kept: list[int] = []
    span: tuple[int, ...] = (0,)
    inside = np.zeros(g.order, dtype=bool)
    inside[0] = True
    for s in candidates:
        if not inside[s]:
            kept.append(s)
            span = subgroup_closure(g, kept)
            if len(span) == g.order:
                break
            inside[list(span)] = True
    return tuple(kept), span


def induced_table(g: GroupTable, elements: Sequence[int]) -> GroupTable:
    """Re-index a subgroup's element set to 0..|H|-1 (by parent index order)."""
    elems = np.asarray(sorted(int(x) for x in elements), dtype=np.intp)
    if elems[0] != 0:
        raise InvalidParameters("induced table requires the identity in the element set")
    local = np.full(g.order, -1, dtype=np.int32)
    local[elems] = np.arange(elems.size, dtype=np.int32)
    mul = local[g.prod(elems[:, None], elems)]
    if (mul < 0).any():
        raise InvalidParameters("element set is not closed under multiplication")
    inv = local[g.inv[elems]]
    return GroupTable(order=int(elems.size), mul=mul.astype(INDEX_DTYPE), inv=inv.astype(INDEX_DTYPE),
                      label=f"{g.label}|sub{elems.size}")


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

    Associativity is checked once, as (xy)s = x(ys) for all x, y and each s
    in S, the greedy subsequence of the generators that `_spanning_generators`
    keeps.  With the identity, that gives (xy)z = x(yz) for every z in S's
    closure by induction on word length, so when the closure is the whole
    table the report reads "all triples", and otherwise "generator triples".
    Without the identity the induction has no base, and the check is skipped.
    A failure names the first (x, y, s), s outermost, then row-major.
    Cancellation follows from the identity, two-sided inverses and full
    associativity, so its scan runs only when that proof is incomplete, to
    name the first row or column that is not a permutation.  Generation reads
    the same closure, which is the span of all the generators.
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

    kept, span = _spanning_generators(g, g.generators)
    if bad_id is None:
        bad_assoc = _associativity_witness_generators(mul, kept)
        proved = bad_assoc is None and len(span) == n
        assoc = _verdict("associativity", bad_assoc, "all triples" if proved else "generator triples")
    else:
        proved = False
        assoc = CheckResult("associativity", "skip", "needs the identity")

    line = None if proved and bad_inv is None else _first_non_permutation_line(mul)
    if line is None:
        cancel = CheckResult("cancellation", "pass", "every row and column is a permutation")
    else:
        kind, at = line
        cancel = CheckResult("cancellation", "fail", f"{kind} {at} is not a permutation", (at,))
    checks += [cancel, assoc]

    if cancel.status == assoc.status == "pass":
        missing = None if len(span) == n else (min(set(range(n)).difference(span)),)
        checks.append(_verdict("generation", missing, f"generators span {len(span)} of {n} elements"))
    else:
        checks.append(CheckResult("generation", "skip", "earlier checks failed"))
    return CertificateReport(g.label, tuple(checks))


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
    Composition convention: (p * q)(i) = p(q(i)), i.e. q acts first.  Each new
    element checks the budget for `closure_bytes` of the closure so far.
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

    request, identity = f"closure of {label or 'permutations'}", tuple(range(k))
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
                check_budget(request, closure_bytes(at + 1, k, len(perms)))
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
    0..n-1.  A table over the budget raises BudgetExceeded before any row is
    read, and rows are copied one at a time into the table; one that fails
    `certify` raises NotAGroup naming the first failed check and its witness.
    """
    try:
        n = len(table)
        check_budget(label or "table", table_bytes(n))
        mul = np.empty((n, n), dtype=INDEX_DTYPE)
        for x, row in enumerate(list(row) for row in table):
            if len(row) != n:
                raise NotAGroup("shape", (n,), "table must be square and nonempty")
            for y, v in enumerate(row):
                if not _is_index(v):
                    raise NotAGroup("shape", (x, y), f"entry {v!r} at {(x, y)} is not an integer")
                if not 0 <= v < n:
                    raise NotAGroup("closure", (x, y), f"entry {v} at {(x, y)} is not in 0..{n - 1}")
            mul[x] = row
    except TypeError:
        raise NotAGroup("shape", (), "table must be a list of rows") from None
    if n == 0:
        raise NotAGroup("shape", (n,), "table must be square and nonempty")
    return _certified(GroupTable(order=n, mul=mul, inv=inverses(mul), label=label or f"cayley({n})"))
