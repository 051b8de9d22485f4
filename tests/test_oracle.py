from __future__ import annotations

import ast
import re
import tracemalloc
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conjgf.analysis import center_elements, conjugacy_data, derived_subgroup
from conjgf.errors import BudgetExceeded, InvalidParameters, NotAGroup
from conjgf.families import build_stem_group, cyclic, dihedral, stem_group, symmetric
from conjgf.genfun import alpha_coefficient, beta_coefficient
from conjgf.groups import GroupTable, conjugation_moves, induced_table, is_abelian_subset, orbit_labels
from conjgf import groups, oracle
from conjgf.isoclinism import are_isoclinic
from conjgf.oracle import alpha_brute, beta_brute, commuting_tuples
from conftest import relabelled


def commuting_tuples_filter(g: GroupTable, n: int) -> list[tuple[int, ...]]:
    """Reference enumeration: filter G^n for pairwise commuting tuples."""
    return sorted(tup for tup in product(range(g.order), repeat=n)
                  if all(g.mul[tup[i], tup[j]] == g.mul[tup[j], tup[i]]
                         for i in range(n) for j in range(i + 1, n)))


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


def alpha_reference(g: GroupTable, n: int) -> tuple[int, int]:
    """Reference (count, tuples visited): union-find over G^n, one tuple at a time."""
    maps = [g.conj_by(s) for s in g.generators]
    total = g.order**n
    uf = _UnionFind(total)
    for idx in range(total):
        digits = []
        rest = idx
        for _ in range(n):
            digits.append(rest % g.order)
            rest //= g.order
        for mv in maps:
            image = 0
            scale = 1
            for d in digits:
                image += int(mv[d]) * scale
                scale *= g.order
            uf.union(idx, image)
    return uf.count, total


def beta_reference(g: GroupTable, n: int) -> tuple[int, int]:
    """Reference (count, tuples visited): union-find over the filtered commuting tuples."""
    tuples = commuting_tuples_filter(g, n)
    index = {tup: i for i, tup in enumerate(tuples)}
    maps = [g.conj_by(s) for s in g.generators]
    uf = _UnionFind(len(tuples))
    for i, tup in enumerate(tuples):
        for mv in maps:
            uf.union(i, index[tuple(int(mv[x]) for x in tup)])
    return uf.count, len(tuples)


def test_alpha_brute_basics(catalog):
    s3 = catalog["S3"]
    assert alpha_brute(s3, 0).count == 1
    assert alpha_brute(s3, 2).count == 11
    result = alpha_brute(s3, 2)
    assert result.tuples_visited == 36
    assert result.mode == "all_tuples"
    assert result.record() == "S3 all_tuples 2 11 36"


def test_alpha_abelian_is_full_tuple_count(catalog):
    g = catalog["C6"]
    assert alpha_brute(g, 2).count == 36
    assert alpha_brute(g, 3).count == 216


def test_beta_brute_basics(catalog):
    s3 = catalog["S3"]
    assert beta_brute(s3, 1).count == 3  # class number
    assert beta_brute(s3, 2).count == 8
    q8 = catalog["Q8"]
    result = beta_brute(q8, 2)
    assert result.count == 22
    assert result.tuples_visited == 40  # commuting pairs in Q8


def test_beta_le_alpha(catalog):
    for label in ("S3", "D8", "Q8", "D12"):
        g = catalog[label]
        for n in range(3):
            assert beta_brute(g, n).count <= alpha_brute(g, n).count, (label, n)
        assert beta_brute(g, 1).count == alpha_brute(g, 1).count, label


def _beta_estimate(g: GroupTable, n: int, monkeypatch) -> int:
    """The largest of the budget checks of a beta_brute run: its estimate."""
    asked = []
    with monkeypatch.context() as m:
        m.setattr(oracle, "check_budget", lambda request, nbytes: asked.append(nbytes))
        beta_brute(g, n)
    return max(asked)


def test_cap_enforced(catalog, monkeypatch):
    # D32 at n = 2 has 32^2 tuples: alpha counts d + 4 int32 arrays of them, and
    # beta checks each step on the tuples it holds; one byte below either
    # estimate raises, at it runs
    d32 = catalog["D32"]
    for oracle_fn, estimate in ((alpha_brute, 4 * 32**2 * (len(d32.generators) + 4)),
                                (beta_brute, _beta_estimate(d32, 2, monkeypatch))):
        monkeypatch.setattr(groups, "MEMORY_BUDGET", estimate - 1)
        with pytest.raises(BudgetExceeded, match=rf"_brute\(D32, 2\) needs {estimate} bytes"):
            oracle_fn(d32, 2)
        monkeypatch.setattr(groups, "MEMORY_BUDGET", estimate)
        assert oracle_fn(d32, 2).tuples_visited == {alpha_brute: 1024, beta_brute: 32 * 11}[oracle_fn]


def test_budget_keeps_tuple_codes_in_int32():
    # an admitted alpha holds at least one int32 array of |G|^n tuples within the
    # budget, so every tuple code is below |G|^n < 2^31; beta's codes are int32
    # whenever |G|^n < 2^31 too
    assert groups.MEMORY_BUDGET // 4 < 2**31
    d8 = dihedral(8)
    assert oracle._codes(commuting_tuples(d8, 2), d8.order).dtype == np.int32


def test_beta_is_estimated_on_the_commuting_tuples(monkeypatch):
    # Heis27 has 27 * beta_4 = 235 467 commuting 5-tuples of its 27^5: an
    # estimate on |G|^n (d + n + 6 int32 arrays) asked 803 538 792 bytes, over
    # the budget; the estimate on the tuples held admits it, and still refuses
    # one byte below itself
    g = stem_group("Phi2", 3)
    estimate = _beta_estimate(g, 5, monkeypatch)
    assert estimate <= groups.MEMORY_BUDGET < 4 * 27**5 * (len(g.generators) + 5 + 6)
    result = beta_brute(g, 5)
    assert (result.count, result.tuples_visited) == (78651, 235467)
    assert result.count == beta_coefficient(g, 5)
    monkeypatch.setattr(groups, "MEMORY_BUDGET", estimate - 1)
    with pytest.raises(BudgetExceeded, match=rf"beta_brute\(Phi2\(3\), 5\) needs {estimate} bytes"):
        beta_brute(g, 5)


def test_beta_codes_stay_exact_past_int32():
    # S5 has 130 440 commuting 5-tuples of its 120^5 > 2^31, coded in int64; a
    # length whose codes would pass 2^63 is refused before any tuple is built
    g = symmetric(5)
    assert 2**31 < g.order**5 < 2**63
    assert beta_brute(g, 5).count == beta_coefficient(g, 5)
    with pytest.raises(InvalidParameters, match=r"beta_brute\(S5, 10\): \|G\|\^n passes 2\^63"):
        beta_brute(g, 10)


def test_prefix_centralizer_enumeration_matches_filter(catalog):
    for label in ("C6", "S3", "D8", "Q8", "C12"):
        g = catalog[label]
        for n in (1, 2, 3):
            rows = commuting_tuples(g, n)
            assert [tuple(r) for r in rows.tolist()] == commuting_tuples_filter(g, n), (label, n)


def test_oracle_matches_series_small(catalog):
    # S4 and Gamma5a1 have non-abelian centralizers, so B recurses below them
    for label in ("S3", "D8", "Q8", "C12", "S4", "Gamma5a1"):
        g = catalog[label]
        for n in range(4):
            assert alpha_brute(g, n).count == alpha_coefficient(g, n), (label, n)
            assert beta_brute(g, n).count == beta_coefficient(g, n), (label, n)


def test_negative_n_is_invalid(catalog):
    s3 = catalog["S3"]
    for fn in (alpha_brute, beta_brute, commuting_tuples):
        with pytest.raises(InvalidParameters):
            fn(s3, -1)


@given(st.data())
@settings(max_examples=25, deadline=None)
def test_oracles_match_union_find_reference(catalog, data):
    label = data.draw(st.sampled_from(sorted(k for k, g in catalog.items() if g.order <= 24)))
    g = relabelled(catalog[label], data.draw(st.integers(0, 2**32 - 1)))
    n = data.draw(st.integers(0, 3))
    a, b = alpha_brute(g, n), beta_brute(g, n)
    assert (a.count, a.tuples_visited) == alpha_reference(g, n), (label, n)
    assert (b.count, b.tuples_visited) == beta_reference(g, n), (label, n)


@given(st.data())
@settings(max_examples=50, deadline=None)
def test_orbit_labels_match_union_find(data):
    # random permutations padded with identities, repeats and one long cycle
    size = data.draw(st.integers(1, 300))
    perms = [np.asarray(p) for p in data.draw(st.lists(st.permutations(range(size)), max_size=3))]
    order = data.draw(st.permutations(range(size)))
    cycle = np.empty(size, dtype=np.intp)
    cycle[order] = np.roll(order, -1)
    images = data.draw(st.permutations(perms + perms[:1] + [np.arange(size)] * 2 + [cycle]))
    dtype = data.draw(st.sampled_from([np.int32, np.int64]))
    uf = _UnionFind(size)
    for image in images:
        for x, y in enumerate(image.tolist()):
            uf.union(x, y)
    labels = groups.orbit_labels(size, images, dtype)
    assert labels.dtype == dtype
    assert labels.tolist() == [uf.find(x) for x in range(size)]


def _padded(g: GroupTable) -> GroupTable:
    """g with its generators followed by the identity, its last central element and its first generator again."""
    extra = (0, center_elements(g)[-1], g.generators[0])
    return GroupTable(order=g.order, mul=g.mul, inv=g.inv, generators=g.generators + extra, label=g.label)


@pytest.mark.parametrize("label", ["S3", "D8", "Q8", "C2^3"])
def test_trivial_and_repeated_moves_are_dropped(catalog, label, monkeypatch):
    # identity, central and repeated generators change no count, and their moves
    # never reach the label propagation: it gets the same images as without them
    g = catalog[label]
    seen = []

    def spy(size, images, dtype):
        seen.append([image.tolist() for image in images])
        return orbit_labels(size, images, dtype)

    monkeypatch.setattr(oracle, "orbit_labels", spy)
    for n in range(4):
        for oracle_fn in (alpha_brute, beta_brute):
            seen.clear()
            plain, padded = oracle_fn(g, n), oracle_fn(_padded(g), n)
            assert (padded.count, padded.tuples_visited) == (plain.count, plain.tuples_visited), (oracle_fn, n)
            assert seen[0] == seen[1]
            assert len(seen[1]) == len({g.conj_by(s).tobytes() for s in g.generators} - {bytes(g.mul[0])})


def test_budget_counts_only_the_moves_kept(catalog, monkeypatch):
    # an abelian group's conjugation moves are all the identity, so no tuple
    # image is built, and D8 padded with the identity, a central element and a
    # repeat keeps its own two moves: each estimate counts one image per move
    # kept, runs at itself and is refused one byte below it
    n = 3
    for g, kept in ((catalog["C2^3"], 0), (_padded(catalog["D8"]), 2)):
        assert len(conjugation_moves(g)) == kept < len(g.generators)
        rows = len(commuting_tuples(g, n))
        beta = _beta_estimate(g, n, monkeypatch)
        assert beta == oracle.ARRAY_OVERHEAD + 4 * n * rows + rows * (4 * kept + 6 * 4)
        for oracle_fn, estimate in ((alpha_brute, 4 * g.order**n * (kept + 4)), (beta_brute, beta)):
            monkeypatch.setattr(groups, "MEMORY_BUDGET", estimate - 1)
            with pytest.raises(BudgetExceeded, match=rf"_brute\({re.escape(g.label)}, 3\) needs {estimate} bytes"):
                oracle_fn(g, n)
            monkeypatch.setattr(groups, "MEMORY_BUDGET", estimate)
            assert oracle_fn(g, n).tuples_visited == {alpha_brute: g.order**n, beta_brute: rows}[oracle_fn]
    monkeypatch.undo()
    # alpha(C2^5, 5) holds four int32 arrays of 32^5 codes, 537 MB, under the
    # budget: its estimate is read, and the run stopped before it allocates
    asked = []

    def stop(request, nbytes):
        asked.append(nbytes)
        raise StopIteration

    monkeypatch.setattr(oracle, "check_budget", stop)
    with pytest.raises(StopIteration):
        alpha_brute(catalog["C2^5"], 5)
    assert asked == [4 * 32**5 * 4] and asked[0] <= groups.MEMORY_BUDGET


def test_budget_counts_the_product_blocks_of_the_relation(monkeypatch):
    # beta_brute reads the commuting relation through 4 blocks of LINE_BLOCK rows
    # of 2-byte products; S5 has few commuting pairs, so at n = 2 the relation
    # and its blocks are the estimate: it covers the peak, runs at itself and is
    # refused one byte below it
    g = symmetric(5)
    estimate = _beta_estimate(g, 2, monkeypatch)
    assert estimate == oracle.ARRAY_OVERHEAD + 120 * (120 + 4 * 120 * 2)
    tracemalloc.start()
    try:
        result = beta_brute(g, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= estimate and result.count == beta_coefficient(g, 2)
    monkeypatch.setattr(groups, "MEMORY_BUDGET", estimate - 1)
    with pytest.raises(BudgetExceeded, match=rf"beta_brute\(S5, 2\) needs {estimate} bytes"):
        beta_brute(g, 2)
    monkeypatch.setattr(groups, "MEMORY_BUDGET", estimate)
    assert beta_brute(g, 2).tuples_visited == 120 * 7


def test_long_orbits_converge():
    # conjugation by the rotation moves pairs of reflections along cycles of length 128
    g = dihedral(512)
    assert alpha_brute(g, 2).count == alpha_coefficient(g, 2)
    assert beta_brute(g, 2).count == beta_coefficient(g, 2)


def test_conjugation_builds_no_full_table():
    # the n <= 1 oracles and the class data read the conjugation moves by
    # products alone: a pc-built group keeps its top level factored
    g = build_stem_group("Phi5", 5)
    classes = alpha_coefficient(g, 1)
    assert alpha_brute(g, 1).count == classes
    assert beta_brute(g, 1).count == beta_coefficient(g, 1) == classes
    assert conjugacy_data(g).num_classes == classes
    assert g._mul is None


def _plain(g: GroupTable) -> GroupTable:
    """g with its full table given, so every product is read from it."""
    return GroupTable(g.order, g.mul, g.inv, g.generators, g.label)


@pytest.mark.parametrize("family, p", [("Phi4", 3), ("Phi2", 5)])
def test_isoclinism_builds_no_full_table(family, p):
    # the theta search, phi and verify read products only: two fresh builds stay
    # factored, and their witness is the one their plain copies give
    g, h = build_stem_group(family, p), build_stem_group(family, p)
    w = are_isoclinic(g, h)
    assert w is not None and w.verify(g, h)
    assert g._mul is None and h._mul is None
    plain_g, plain_h = _plain(g), _plain(h)
    assert are_isoclinic(plain_g, plain_h) == w and w.verify(plain_g, plain_h)


def test_commuting_tuples_build_no_full_table():
    # beta_brute at n = 2 reads the commuting relation by blocks of products
    g = build_stem_group("Phi2", 3)
    rows, result = commuting_tuples(g, 2), beta_brute(g, 2)
    assert g._mul is None
    plain = _plain(g)
    assert np.array_equal(rows, commuting_tuples(plain, 2))
    assert (result.count, result.tuples_visited) == (beta_brute(plain, 2).count, len(rows))


def test_subgroup_tables_build_no_full_table():
    g = build_stem_group("Phi5", 3)
    sub, abelian = induced_table(g, derived_subgroup(g)), is_abelian_subset(g, center_elements(g))
    assert g._mul is None
    want = induced_table(_plain(g), derived_subgroup(g))
    assert (sub.order, sub.generators, abelian) == (want.order, want.generators, True)
    for got, ref in ((sub.mul, want.mul), (sub.inv, want.inv)):
        assert got.dtype == ref.dtype and np.array_equal(got, ref)


def test_beta_rejects_a_non_group(catalog):
    # with every element claimed self-inverse, conjugation by a 3-cycle c sends the
    # commuting pair (1, r) to (c^2, r), which does not commute
    s3 = catalog["S3"]
    broken = GroupTable(order=6, mul=s3.mul, inv=np.arange(6, dtype=np.int32),
                        generators=tuple(range(6)), label="broken")
    with pytest.raises(NotAGroup):
        beta_brute(broken, 2)


def test_oracle_reads_only_the_group_table():
    # the oracle must stay independent of the series it checks
    tree = ast.parse(Path(oracle.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    assert imported == {"__future__", "dataclasses", "numpy", ".errors", ".groups"}
    assert not any(isinstance(node, ast.Assert) for node in ast.walk(tree))


def test_alpha_memory_per_tuple():
    # the budget's estimate: (d + 4) int32 words per tuple for d moves kept, both of S6's generators
    g = symmetric(6)
    tracemalloc.start()
    try:
        result = alpha_brute(g, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.tuples_visited == 720**2
    assert peak <= (len(g.generators) + 4) * 4 * result.tuples_visited, peak / result.tuples_visited


def test_oracle_estimates_cover_their_peaks(monkeypatch):
    # alpha's estimate, d + 4 int32 arrays of |G|^n entries, covers its peak on
    # the 5^10 pairs of Phi5(5); beta's, on the tuples it holds, covers its
    # peak on C32^4, where every tuple commutes, and on Heis27 and S6
    for g, n in ((stem_group("Phi5", 5), 2), (cyclic(32), 4), (stem_group("Phi2", 3), 5), (symmetric(6), 3)):
        oracle_fn = alpha_brute if g.order == 3125 else beta_brute
        estimate = 4 * g.order**n * (len(g.generators) + 4) if oracle_fn is alpha_brute \
            else _beta_estimate(g, n, monkeypatch)
        tracemalloc.start()
        try:
            result = oracle_fn(g, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.tuples_visited <= g.order**n
        assert peak <= estimate <= groups.MEMORY_BUDGET, (g.label, peak, estimate)
