from __future__ import annotations

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conjgf.analysis import (
    center_elements,
    central_cosets,
    commuting_cosets,
    derived_subgroup,
    has_abelian_maximal_subgroup,
    nilpotency_class,
)
from conjgf.errors import BudgetExceeded, InvalidParameters, InvalidPermutation, NotAGroup, QuotientTooLarge
from conjgf import groups
from conjgf.families import GAMMA_FAMILIES, PHI_FAMILIES, cyclic, stem_group, symmetric
from conjgf.groups import (
    CertificateReport,
    CheckResult,
    GroupTable,
    build_from_cayley,
    build_from_permutations,
    certify,
    induced_table,
    inverses,
    minimal_generating_indices,
    subgroup_closure,
)
from conjgf.genfun import a_of_t, b_of_t
from conjgf.isoclinism import _central_quotient, are_isoclinic
from conjgf.oracle import alpha_brute, beta_brute
from conjgf.pcp import prime_power_root
from conftest import relabelled

S3_GENS = [(1, 2, 0), (1, 0, 2)]


def quotient_table(g: GroupTable, normal_elements) -> tuple[GroupTable, tuple[int, ...], np.ndarray]:
    """Reference: the quotient by a normal subgroup, as (table, coset minima,
    coset index of each element).  Cosets are ordered by their smallest
    member, read as column minima of `mul` over the subgroup; the quotient is
    generated by the distinct non-identity images of g's generators."""
    nset = np.asarray(sorted(int(x) for x in normal_elements), dtype=np.intp)
    reps, coset_of = np.unique(g.mul[:, nset].min(axis=1), return_inverse=True)
    coset_of = coset_of.astype(groups.INDEX_DTYPE)
    gens = tuple(dict.fromkeys(int(coset_of[s]) for s in g.generators if coset_of[s] != 0))
    table = GroupTable(order=len(reps), mul=coset_of[g.mul[np.ix_(reps, reps)]], inv=coset_of[g.inv[reps]],
                       generators=gens or (0,), label=f"{g.label}/N{len(nset)}")
    return table, tuple(int(r) for r in reps), coset_of


# 6x6 Latin square with identity and two-sided inverses that is not associative
NONASSOC_LOOP = [
    [0, 1, 2, 3, 4, 5],
    [1, 0, 3, 2, 5, 4],
    [2, 3, 4, 5, 0, 1],
    [3, 2, 5, 4, 1, 0],
    [4, 5, 0, 1, 3, 2],
    [5, 4, 1, 0, 2, 3],
]


def test_s3_closure():
    g = build_from_permutations(S3_GENS, label="S3")
    assert g.order == 6
    assert np.array_equal(g.mul[0], np.arange(6))
    assert certify(g).ok


def test_identity_generator_gives_trivial_group():
    g = build_from_permutations([(0, 1, 2)])
    assert g.order == 1
    assert certify(g).ok


def test_d16_from_eight_cycle_and_reflection():
    rot = tuple((i + 1) % 8 for i in range(8))
    ref = tuple((-i) % 8 for i in range(8))
    g = build_from_permutations([rot, ref], label="D16")
    assert g.order == 16


def test_invalid_permutation_rejected():
    with pytest.raises(InvalidPermutation):
        build_from_permutations([(0, 0, 1)])
    with pytest.raises(InvalidPermutation):
        build_from_permutations([(1, 0), (0, 1, 2)])
    with pytest.raises(InvalidPermutation):
        build_from_permutations([])


def test_closure_cap(monkeypatch):
    # C12 closes to exactly 12 elements of degree 12 from one generator: a budget
    # one byte below that closure's estimate refuses it, and the estimate builds it
    rot = tuple((i + 1) % 12 for i in range(12))
    monkeypatch.setattr(groups, "MEMORY_BUDGET", groups.closure_bytes(12, 12, 1) - 1)
    with pytest.raises(BudgetExceeded, match="closure of C12 needs"):
        build_from_permutations([rot], label="C12")
    monkeypatch.setattr(groups, "MEMORY_BUDGET", groups.closure_bytes(12, 12, 1))
    assert build_from_permutations([rot]).order == 12


def test_cayley_trivial_and_klein():
    assert build_from_cayley([[0]]).order == 1
    klein = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]
    g = build_from_cayley(klein, label="V4")
    assert g.order == 4
    assert np.array_equal(g.inv, np.arange(4))
    assert (g.mul == g.mul.T).all()


def test_cayley_nonassociative_names_triple():
    with pytest.raises(NotAGroup) as err:
        build_from_cayley(NONASSOC_LOOP)
    assert err.value.axiom == "associativity"
    x, y, z = err.value.witness
    mul = NONASSOC_LOOP
    assert mul[mul[x][y]][z] != mul[x][mul[y][z]]


def test_cayley_identity_violation():
    with pytest.raises(NotAGroup) as err:
        build_from_cayley([[1, 0], [0, 1]])
    assert err.value.axiom == "identity"


def test_certify_reports_associativity_witness():
    import numpy as np

    from conjgf.groups import GroupTable

    mul = np.asarray(NONASSOC_LOOP, dtype=np.int32)
    inv = np.argmax(mul == 0, axis=1).astype(np.int32)
    loop = GroupTable(order=6, mul=mul, inv=inv, generators=(1, 2), label="loop")
    report = certify(loop)
    failure = report.first_failure()
    assert failure is not None
    assert failure.name == "associativity"
    x, y, z = failure.witness
    assert mul[mul[x, y], z] != mul[x, mul[y, z]]


def test_cayley_nonassociative_names_first_failing_generator_triple():
    # NONASSOC_LOOP x C50 (order 300, index a*50 + b) fails the scan over its spanning generators
    n = 300
    table = [[(NONASSOC_LOOP[i // 50][j // 50]) * 50 + (i + j) % 50 for j in range(n)] for i in range(n)]
    with pytest.raises(NotAGroup) as err:
        build_from_cayley(table)
    assert err.value.axiom == "associativity"
    # the first failing triple lies past the first row block of the check
    assert err.value.witness == (200, 100, 100)
    x, y, s = err.value.witness
    assert table[table[x][y]][s] != table[x][table[y][s]]


@pytest.mark.parametrize("build, bad", [
    (build_from_cayley, [[0, 1.9], [1, 0]]),
    (build_from_cayley, [[0, True], [True, 0]]),
    (build_from_cayley, [[0, "x"], [1, 0]]),
    (build_from_cayley, 5),
    (build_from_permutations, [[1, 2.5, 0]]),
    (build_from_permutations, [[True, False]]),
])
def test_non_integer_input_rejected(build, bad):
    if build is build_from_cayley:
        with pytest.raises(NotAGroup) as err:
            build(bad)
        assert err.value.axiom == "shape"
    else:
        with pytest.raises(InvalidPermutation):
            build(bad)


@pytest.mark.parametrize("label", ["D8", "S4", "Gamma5a1", "Q16", "Heis27"])
def test_cayley_round_trip(catalog, label):
    g = catalog[label]
    rebuilt = build_from_cayley(g.mul.tolist(), label=f"{label}-roundtrip")
    assert np.array_equal(rebuilt.mul, g.mul)
    assert np.array_equal(rebuilt.inv, g.inv)


def test_corrupted_table_fails_certificate(catalog):
    g = catalog["S3"]
    bad = g.mul.copy()
    bad[3, 4], bad[3, 5] = bad[3, 5], bad[3, 4]
    from conjgf.groups import GroupTable

    corrupt = GroupTable(order=6, mul=bad, inv=g.inv.copy(), generators=g.generators, label="bad")
    failure = certify(corrupt).first_failure()
    assert failure.name == "cancellation"
    (line,) = failure.witness
    values = bad[line] if failure.detail.startswith("row") else bad[:, line]
    assert len(set(values.tolist())) < 6


@pytest.mark.parametrize("bad", [-1, 4])
def test_certify_range_checks_inv(catalog, bad):
    # -1 would wrap to the last element and 4 would index past the table; the
    # copy is signed, as a caller's own table may be, so it can hold -1
    c4 = catalog["C4"]
    inv = c4.inv.astype(np.int32)
    inv[1] = inv[3] = bad
    g = GroupTable(order=4, mul=c4.mul, inv=inv, generators=c4.generators, label="C4")
    assert certify(g).checks == (CheckResult("table_shape", "fail", "inv entry out of range", (1,)),)


def test_rows_and_columns_are_permutations(catalog):
    for label, g in catalog.items():
        n = g.order
        assert np.array_equal(np.sort(g.mul, axis=1), np.tile(np.arange(n), (n, 1))), label
        assert np.array_equal(np.sort(g.mul, axis=0), np.tile(np.arange(n)[:, None], (1, n))), label


def test_inv_is_involution(catalog):
    for label, g in catalog.items():
        assert np.array_equal(g.inv[g.inv], np.arange(g.order)), label


def test_certify_passes_on_catalog(catalog):
    for label, g in catalog.items():
        assert certify(g).ok, label


def test_subgroup_closure_and_generators(catalog):
    g = catalog["D8"]
    whole = subgroup_closure(g, g.generators)
    assert len(whole) == 8
    gens = minimal_generating_indices(g)
    assert len(subgroup_closure(g, gens)) == 8
    assert len(gens) <= 3


def test_induced_table_is_group(catalog):
    g = catalog["D16"]
    from conjgf.analysis import centralizer_elements

    sub = induced_table(g, centralizer_elements(g, g.generators[0]))
    assert certify(sub).ok


@pytest.mark.parametrize("elements, detail", [((1, 2, 3), "requires the identity"),
                                              ((0, 1), "not closed under multiplication")],
                         ids=["no identity", "not closed"])
def test_induced_table_rejects_a_non_subgroup(elements, detail):
    # C4 from one 4-cycle: index 1 is the generator, so {0, 1} is not closed
    with pytest.raises(InvalidParameters, match=detail):
        induced_table(cyclic(4), elements)


def test_quotient_table_by_center(catalog):
    g = catalog["Q8"]
    q, reps = _central_quotient(g)
    coset_of = central_cosets(g)[1]
    assert q.order == 4
    assert certify(q).ok
    assert (q.mul == q.mul.T).all()  # Q8 / Z = Klein four-group
    assert coset_of[0] == 0 and reps[0] == 0
    assert np.array_equal(coset_of[list(reps)], np.arange(q.order))


def test_budget_fits_the_index_type():
    # a table the budget admits has fewer than 65 536^2 entries of 2 bytes, so
    # every index of it is representable and no entry can wrap
    assert np.dtype(groups.INDEX_DTYPE).itemsize == 2
    assert groups.MEMORY_BUDGET // 2 < (np.iinfo(groups.INDEX_DTYPE).max + 1) ** 2


def test_built_tables_use_the_index_type(catalog):
    d16 = catalog["D16"]  # closed from permutations
    q = _central_quotient(d16)[0]
    coset_of = central_cosets(d16)[1]
    sub = induced_table(d16, subgroup_closure(d16, d16.generators[:1]))
    tables = [d16, catalog["Q8"], stem_group("Phi5", 3), q, sub, build_from_cayley(d16.mul.tolist())]
    for g in tables:
        assert (g.mul.dtype, g.inv.dtype) == (groups.INDEX_DTYPE,) * 2, g.label
    assert coset_of.dtype == groups.INDEX_DTYPE


def test_closure_estimate_covers_its_peak():
    # S6 closes 720 permutations of degree 6 from two generators; a first small
    # closure leaves out what the first build in a process allocates once
    symmetric(3)
    tracemalloc.start()
    try:
        g = symmetric(6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.order == 720 and peak <= groups.closure_bytes(720, 6, 2), peak


def test_tables_are_frozen(catalog):
    # a table is immutable, while its memo cache is a dict that fills in place
    g = catalog["S3"]
    for name, value in (("generators", (1,)), ("label", "x"), ("mul", g.mul.copy())):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(g, name, value)
    assert certify(g).ok and "certify" in g._cache
    # left empty, the generators are the greedy generating set, fixed at construction
    fresh = GroupTable(order=g.order, mul=g.mul, inv=g.inv)
    assert fresh.generators == minimal_generating_indices(g)


def test_cayley_order_cap(monkeypatch):
    # the estimate is the table, so one byte below it refuses before any row is
    # read: the rows here are not even lists
    c5 = [[(i + j) % 5 for j in range(5)] for i in range(5)]
    monkeypatch.setattr(groups, "MEMORY_BUDGET", groups.table_bytes(5) - 1)
    with pytest.raises(BudgetExceeded, match="C5 needs 50 bytes, over the budget of 49 bytes"):
        build_from_cayley(c5, label="C5")
    with pytest.raises(BudgetExceeded):
        build_from_cayley([None] * 5)
    monkeypatch.setattr(groups, "MEMORY_BUDGET", groups.table_bytes(5))
    assert build_from_cayley(c5).order == 5


def test_quotient_by_whole_group(catalog):
    g = catalog["D8"]
    q, reps, _ = quotient_table(g, range(g.order))
    assert q.order == 1 and reps == (0,)
    assert certify(q).ok


def test_cayley_reads_all_triples_at_any_order():
    # the label follows the proof, not the order: C300's one generator spans it
    n = 300
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    g = build_from_cayley(table, label="C300")
    assert g.order == n
    assoc = {c.name: c for c in certify(g).checks}["associativity"]
    assert (assoc.status, assoc.detail) == ("pass", "all triples")


def _cyclic_product(a: int, b: int) -> np.ndarray:
    """C_a x C_b with element i*b + j standing for (i, j)."""
    i, j = np.divmod(np.arange(a * b), b)
    return (((i[:, None] + i) % a) * b + (j[:, None] + j) % b).astype(np.int32)


def _table(mul: np.ndarray, generators: tuple[int, ...]) -> GroupTable:
    inv = np.argmax(mul == 0, axis=1).astype(np.int32)
    return GroupTable(order=len(mul), mul=mul, inv=inv, generators=generators, label="t")


def _first_bad_line(mul: np.ndarray) -> tuple[str, int] | None:
    """Reference: the lowest row, else column, that is not a permutation, one np.unique per line."""
    n = len(mul)
    rows = [x for x in range(n) if len(np.unique(mul[x])) != n]
    cols = [y for y in range(n) if len(np.unique(mul[:, y])) != n]
    return ("row", rows[0]) if rows else ("column", cols[0]) if cols else None


def _product_closure(mul: list[list[int]], seed) -> tuple[int, ...]:
    """Reference: the identity and the seed closed under all products, in pure Python."""
    inside = {0, *seed}
    while True:
        fresh = {mul[x][y] for x in inside for y in inside} - inside
        if not fresh:
            return tuple(sorted(inside))
        inside |= fresh


def _duplicate_entries(mul):
    mul[250, 3] = mul[250, 4]
    mul[130, 7] = mul[130, 9]


def _swap_within_row(mul):
    # row 200 stays a permutation; columns 10 and 290 repeat an entry
    mul[200, 10], mul[200, 290] = mul[200, 290], mul[200, 10]


def _duplicate_in_last_row(mul):
    # rows 256..299 form the last, partial block of the scatter
    mul[299, 3] = mul[299, 4]


def _swap_in_last_columns(mul):
    # columns 270 and 299 repeat an entry; 299 alone cannot be the lowest bad
    # column while every row is a permutation, since then each value appears
    # once in the other 299 columns and so once in column 299
    mul[200, 270], mul[200, 299] = mul[200, 299], mul[200, 270]


@pytest.mark.parametrize("corrupt, want", [(_duplicate_entries, ("row", 130)),
                                           (_swap_within_row, ("column", 10)),
                                           (_duplicate_in_last_row, ("row", 299)),
                                           (_swap_in_last_columns, ("column", 270))])
def test_cancellation_witness_is_first_bad_line(corrupt, want):
    mul = _cyclic_product(1, 300)
    corrupt(mul)
    kind, line = _first_bad_line(mul)
    assert (kind, line) == want
    failure = certify(_table(mul, (1,))).first_failure()
    assert failure == CheckResult("cancellation", "fail", f"{kind} {line} is not a permutation", (line,))


def test_generation_witness_is_first_missing_element():
    # in C3 x C100 the element 1 = (0, 1) spans only the first 100 indices
    mul = _cyclic_product(3, 100)
    span = _product_closure(mul.tolist(), (1,))
    missing = min(set(range(300)) - set(span))
    assert missing == 100
    failure = certify(_table(mul, (1,))).first_failure()
    assert failure == CheckResult("generation", "fail", "generators span 100 of 300 elements", (missing,))


def test_subgroup_closure_single_seeds_match_product_closure(catalog):
    for label, g in catalog.items():
        mul = g.mul.tolist()
        for x in range(g.order):
            assert subgroup_closure(g, [x]) == _product_closure(mul, [x]), (label, x)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_subgroup_closure_seed_pairs_match_product_closure(catalog, data):
    g = catalog[data.draw(st.sampled_from(sorted(catalog)))]
    seed = data.draw(st.lists(st.integers(0, g.order - 1), min_size=2, max_size=2))
    assert subgroup_closure(g, seed) == _product_closure(g.mul.tolist(), seed)


def test_certify_memory_bound_at_order_3125():
    g = stem_group("Phi5", 5)
    fresh = GroupTable(order=g.order, mul=g.mul, inv=g.inv, generators=g.generators, label="fresh")
    tracemalloc.start()
    try:
        assert certify(fresh).ok
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= g.order ** 2, f"certify peak {peak} bytes at order {g.order}"


def _loop_times_cyclic(m: int) -> np.ndarray:
    """NONASSOC_LOOP x C_m with element a*m + b standing for (a, b)."""
    a, b = np.divmod(np.arange(6 * m), m)
    loop = np.asarray(NONASSOC_LOOP)
    return (loop[a[:, None], a] * m + (b[:, None] + b) % m).astype(np.int32)


def _generator_scan(mul: np.ndarray, generators) -> tuple[int, int, int] | None:
    """Reference: the first (x, y, s) with (x y) s != x (y s), s outermost, then row-major."""
    t = mul.tolist()
    for s in generators:
        for x in range(len(t)):
            for y in range(len(t)):
                if t[t[x][y]][s] != t[x][t[y][s]]:
                    return (x, y, s)
    return None


def _redundant_generator_loops(m: int) -> tuple[GroupTable, GroupTable]:
    """NONASSOC_LOOP x C_m with a redundant generator, as is and with the identity
    relabelled away from index 0."""
    mul = _loop_times_cyclic(m)
    # (0, 2) lies in the closure of (0, 1): the check runs on S = (1, m, 2m)
    plain = _table(mul, (1, 2, m, 2 * m))
    # with the labels of the identity and (2, 0) swapped, index 0 is no identity;
    # 2m + 1 lies in the closure of 1 and 3m, and fails before 3m does
    swap = np.arange(len(mul))
    swap[[0, 2 * m]] = swap[[2 * m, 0]]
    moved = np.empty_like(mul)
    moved[np.ix_(swap, swap)] = swap[mul]
    return plain, _table(moved, (1, 2 * m + 1, 3 * m))


def _fails(mul: np.ndarray, triple: tuple[int, int, int]) -> bool:
    x, y, z = triple
    return mul[mul[x, y], z] != mul[x, mul[y, z]]


@pytest.mark.parametrize("m", [50, 60])
def test_associativity_witness_with_redundant_generator(m):
    plain, shifted = _redundant_generator_loops(m)
    kept, _ = groups._spanning_generators(plain, plain.generators)
    assert kept == (1, m, 2 * m)
    want = _generator_scan(plain.mul, kept)
    assert _fails(plain.mul, want)
    assoc = {c.name: c for c in certify(plain).checks}["associativity"]
    assert assoc == CheckResult("associativity", "fail", "generator triples", want)
    # without the identity the scan over S still names a failing triple, and
    # so does the scan over every generator, but certify reports neither
    kept, _ = groups._spanning_generators(shifted, shifted.generators)
    assert kept == (1, 3 * m)
    witness = groups._associativity_witness_generators(shifted.mul, kept)
    assert witness == _generator_scan(shifted.mul, kept)
    assert _fails(shifted.mul, witness)
    assert _generator_scan(shifted.mul, shifted.generators) is not None
    checks = {c.name: c for c in certify(shifted).checks}
    assert checks["identity"].status == "fail"
    assert checks["associativity"] == CheckResult("associativity", "skip", "needs the identity")


def _no_identity_table() -> GroupTable:
    """x o y = x + y + (1 if y is even else 3) on Z_300, generated by 11 and 2."""
    y = np.arange(300)
    return _table(((y[:, None] + y + np.where(y % 2, 3, 1)) % 300).astype(np.int32), (11, 2))


def test_spanning_subset_needs_the_identity():
    # s = 11 passes, since x o 11 = x + 14 keeps parity, and 0 o 11 = 14 lets
    # the closure of 11 reach every element, 2 included; but 2 fails, and 0 is
    # no identity, so S's passing scan proves nothing
    g = _no_identity_table()
    mul = g.mul
    kept, span = groups._spanning_generators(g, g.generators)
    assert (kept, len(span)) == ((11,), 300)
    assert groups._associativity_witness_generators(mul, kept) is None
    assert _generator_scan(mul, g.generators) == (0, 0, 2)
    checks = {c.name: c for c in certify(g).checks}
    assert checks["identity"].status == "fail"
    assert checks["associativity"] == CheckResult("associativity", "skip", "needs the identity")


def test_spanning_subset_of_stem_groups():
    stems = [(f, 2) for f in GAMMA_FAMILIES] + [(f, p) for p in (3, 5) for f in PHI_FAMILIES]
    sizes = {}
    for family, p in stems:
        g = stem_group(family, p)
        kept, span = groups._spanning_generators(g, g.generators)
        rest = iter(g.generators)
        assert all(s in rest for s in kept), (family, p)  # a subsequence
        assert span == subgroup_closure(g, kept) == tuple(range(g.order)), (family, p)
        h = relabelled(g, g.order + len(sizes))
        renamed = dict(zip(g.generators, h.generators))
        assert groups._spanning_generators(h, h.generators) == (tuple(renamed[s] for s in kept),
                                                  tuple(range(g.order))), (family, p)
        sizes[family, p] = len(kept)
    assert [sizes[f, 5] for f in ("Phi6", "Phi9", "Phi10")] == [2, 2, 2]


def _unspanned_non_latin_table() -> GroupTable:
    """C3 x C100 (element a*100 + b) generated by 1 = (0, 1), with row 100 = (1, 0)
    sending (1, b) to (1, b) in place of (2, b).  Row 100 still commutes with
    y -> y (0, 1), so the scan over S = (1,) passes, and the identity and the
    inverses hold; but row 100 is no permutation, and 1 spans only 100 elements."""
    mul = _cyclic_product(3, 100)
    mul[100, 100:200] = np.arange(100, 200)
    return _table(mul, (1,))


def test_cancellation_is_scanned_when_the_generators_do_not_span():
    g = _unspanned_non_latin_table()
    assert _generator_scan(g.mul, g.generators) is None
    assert len(subgroup_closure(g, g.generators)) == 100
    assert _first_bad_line(g.mul) == ("row", 100)
    checks = {c.name: c for c in certify(g).checks}
    assert checks["identity"].status == checks["inverses"].status == "pass"
    assert checks["associativity"] == CheckResult("associativity", "pass", "generator triples")
    assert checks["cancellation"] == CheckResult("cancellation", "fail", "row 100 is not a permutation", (100,))
    assert checks["generation"].status == "skip"


def _reference_span(g: GroupTable) -> tuple[tuple[int, ...], int]:
    """Reference: (S, |closure of S|), S kept greedily from the generators in
    order, each only when the closure of those kept before it misses it."""
    kept: list[int] = []
    span: tuple[int, ...] = (0,)
    for s in g.generators:
        if s not in span and len(span) < g.order:
            kept.append(s)
            span = subgroup_closure(g, kept)
    return tuple(kept), len(span)


def _reference_certificate(g: GroupTable) -> CertificateReport:
    """Reference for an in-range square table: both cancellation scans always,
    and with the identity the generator scan over S, read as "all triples"
    when it passes and S spans the table."""
    mul, inv, n = g.mul, g.inv, g.order
    ident = np.arange(n)
    bad_id = groups._first_true((mul[0] != ident) | (mul[:, 0] != ident))
    bad_inv = groups._first_true((mul[ident, inv] != 0) | (mul[inv, ident] != 0))
    line = _first_bad_line(mul)
    kept, spanned = _reference_span(g)
    if bad_id is None:
        # at [x, y]: (x y) s against x (y s)
        bad_assoc = next(((*hit, s) for s in kept
                          if (hit := groups._first_true(mul[mul, s] != mul[:, mul[:, s]])) is not None), None)
        mode = "all triples" if bad_assoc is None and spanned == n else "generator triples"
        assoc = CheckResult("associativity", "pass" if bad_assoc is None else "fail", mode, bad_assoc or ())
    else:
        assoc = CheckResult("associativity", "skip", "needs the identity")
    checks = [
        CheckResult("table_shape", "pass"),
        CheckResult("identity", "pass" if bad_id is None else "fail",
                    "row/col 0 must be the identity map", bad_id or ()),
        CheckResult("inverses", "pass" if bad_inv is None else "fail",
                    "inv[x] must be a two-sided inverse of x", bad_inv or ()),
        CheckResult("cancellation", "pass", "every row and column is a permutation") if line is None
        else CheckResult("cancellation", "fail", f"{line[0]} {line[1]} is not a permutation", (line[1],)),
        assoc,
    ]
    if line is None and assoc.status == "pass":
        span = subgroup_closure(g, g.generators)
        missing = min(set(range(n)) - set(span), default=None)
        checks.append(CheckResult("generation", "pass" if missing is None else "fail",
                                  f"generators span {len(span)} of {n} elements",
                                  () if missing is None else (missing,)))
    else:
        checks.append(CheckResult("generation", "skip", "earlier checks failed"))
    return CertificateReport(g.label, tuple(checks))


def _all_triples_hold(mul: np.ndarray) -> bool:
    """(xy)z = x(yz) for every triple, one x at a time: at [y, z], (x y) z against x (y z)."""
    return all(np.array_equal(mul[mul[x]], mul[x][mul]) for x in range(len(mul)))


def _is_group_by_brute_force(g: GroupTable) -> bool:
    """Reference for an in-range square table: the identity, two-sided inverses,
    every triple, and the generators' closure under all products is the table."""
    mul, inv, n = g.mul, g.inv, g.order
    ident = np.arange(n)
    if not ((mul[0] == ident).all() and (mul[:, 0] == ident).all()
            and (mul[ident, inv] == 0).all() and (mul[inv, ident] == 0).all() and _all_triples_hold(mul)):
        return False
    inside = np.zeros(n, dtype=bool)
    inside[[0, *g.generators]] = True
    while True:
        members = np.flatnonzero(inside)
        grown = inside.copy()
        grown[mul[np.ix_(members, members)]] = True
        if np.array_equal(grown, inside):
            return bool(inside.all())
        inside = grown


def _assert_agrees_with_brute_force(g: GroupTable, report: CertificateReport) -> None:
    """Up to order 256: the report passes exactly when g is a group, and an
    "all triples" pass holds on every triple."""
    if g.order <= 256:
        assoc = {c.name: c for c in report.checks}["associativity"]
        assert (assoc.status, assoc.detail) != ("pass", "all triples") or _all_triples_hold(g.mul), g.label
        assert report.ok == _is_group_by_brute_force(g), g.label


def _unchecked_cayley(mul) -> GroupTable:
    """A table wrapped as `build_from_cayley` wraps it, without its certificate."""
    return _table(np.asarray(mul, dtype=np.int32), ())


def _corrupted_tables(catalog) -> list[GroupTable]:
    """Every corrupted table of the tests above, and two monoids that are not groups."""
    s3 = catalog["S3"]
    swapped = s3.mul.copy()
    swapped[3, 4], swapped[3, 5] = swapped[3, 5], swapped[3, 4]
    tables = [
        _unchecked_cayley(NONASSOC_LOOP),
        _table(np.asarray(NONASSOC_LOOP, dtype=np.int32), (1, 2)),
        _unchecked_cayley([[1, 0], [0, 1]]),
        GroupTable(order=6, mul=swapped, inv=s3.inv.copy(), generators=s3.generators, label="bad"),
        _unchecked_cayley(_loop_times_cyclic(50)),
        _table(_cyclic_product(3, 100), (1,)),
    ]
    for corrupt in (_duplicate_entries, _swap_within_row, _duplicate_in_last_row, _swap_in_last_columns):
        mul = _cyclic_product(1, 300)
        corrupt(mul)
        tables.append(_table(mul, (1,)))
    for m in (50, 60):
        tables += _redundant_generator_loops(m)
    tables += [_no_identity_table(), _unspanned_non_latin_table()]
    # x o y = max(x, y): identity 0 and associative, but no inverses, so no row is a permutation
    tables += [_unchecked_cayley(np.maximum.outer(np.arange(n), np.arange(n))) for n in (6, 300)]
    return tables


def test_certify_matches_the_reference_certificate(catalog):
    corrupted = _corrupted_tables(catalog)
    assert sum(not certify(g).ok for g in corrupted) == len(corrupted)
    for g in [*catalog.values(), *corrupted]:
        fresh = GroupTable(order=g.order, mul=g.mul, inv=g.inv, generators=g.generators, label=g.label)
        report = certify(fresh)
        assert report == _reference_certificate(fresh), g.label
        _assert_agrees_with_brute_force(fresh, report)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_certify_matches_the_reference_on_corrupted_entries(catalog, data):
    # catalog tables, plus one table on each side of order 256, past which the
    # brute-force check is not run
    sources = {**catalog, "Phi10(3)": stem_group("Phi10", 3),
               "C3xC100": _table(_cyclic_product(3, 100), (1, 100))}
    g = sources[data.draw(st.sampled_from(sorted(sources)))]
    n = g.order
    mul, inv = g.mul.copy(), g.inv.copy()
    for _ in range(data.draw(st.integers(1, 2))):
        if data.draw(st.integers(0, 9)) == 0:
            inv[data.draw(st.integers(0, n - 1))] = data.draw(st.integers(0, n - 1))
        else:
            x, y = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
            mul[x, y] = data.draw(st.integers(0, n - 1))
    corrupt = GroupTable(order=n, mul=mul, inv=inv, generators=g.generators, label="corrupt")
    report = certify(corrupt)
    assert report == _reference_certificate(corrupt)
    _assert_agrees_with_brute_force(corrupt, report)


def _as_dtype(g: GroupTable, dtype) -> GroupTable:
    return GroupTable(order=g.order, mul=g.mul.astype(dtype), inv=g.inv.astype(dtype),
                      generators=g.generators, label=g.label)


def test_certify_reports_equal_at_int32_and_uint16(catalog):
    # in Phi3(5), columns 600 and 601 then repeat an entry; they lie in the last
    # column block, 113 wide, and entries up to 624 times 113 pass 65535
    phi3 = stem_group("Phi3", 5)
    mul = phi3.mul.copy()
    mul[3, [600, 601]] = mul[3, [601, 600]]
    swapped = GroupTable(order=phi3.order, mul=mul, inv=phi3.inv, generators=phi3.generators, label="swapped")
    for g in [*_corrupted_tables(catalog), swapped]:
        assert certify(_as_dtype(g, np.uint16)) == certify(_as_dtype(g, np.int32)), g.label
    assert certify(_as_dtype(swapped, np.uint16)).first_failure().detail == "column 600 is not a permutation"


def _results(g: GroupTable, alpha_n: int = 2) -> dict:
    """Everything downstream of a table that does arithmetic on its entries."""
    z = center_elements(g)
    q, reps = _central_quotient(g)
    coset_of = central_cosets(g)[1]
    root = prime_power_root(g.order)
    try:
        witness = are_isoclinic(g, g)
        verified = witness.verify(g, g)
    except QuotientTooLarge as exc:
        witness, verified = str(exc), None
    return {
        "A": a_of_t(g), "B": b_of_t(g), "K": commuting_cosets(g).tolist(),
        "|Z|": len(z), "|G'|": len(derived_subgroup(g)), "class": nilpotency_class(g),
        "abelian maximal": root is not None and has_abelian_maximal_subgroup(g),
        "G/Z": (q.mul.tolist(), q.inv.tolist(), q.generators, reps, coset_of.tolist()),
        "alpha": [alpha_brute(g, n).count for n in range(alpha_n + 1)],
        "beta": [beta_brute(g, n).count for n in range(3)],
        "isoclinism": (witness, verified),
    }


def test_results_equal_at_int32_and_uint16(catalog):
    # Phi5(5) codes commuting pairs past 65535 in beta; its alpha at n = 2 visits
    # 3125^2 tuples, so Phi3(5), of order 625, codes pairs past 65535 there instead
    sources = [(g, 2) for g in catalog.values()]
    sources += [(stem_group("Phi5", 5), 1), (stem_group("Phi3", 5), 2)]
    for g, alpha_n in sources:
        narrow, wide = _as_dtype(g, np.uint16), _as_dtype(g, np.int32)
        got = _results(narrow, alpha_n)
        assert got == _results(wide, alpha_n), g.label
        assert got["isoclinism"][1] in (True, None), g.label


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_certify_reports_equal_at_both_dtypes_on_corrupted_entries(data):
    g = stem_group(data.draw(st.sampled_from(("Phi3", "Phi4"))), 5)
    n, mul = g.order, g.mul.copy()
    x, y, z = (data.draw(st.integers(0, n - 1)) for _ in range(3))
    if data.draw(st.booleans()):
        mul[x, [y, z]] = mul[x, [z, y]]  # rows stay permutations: the column scan names the witness
    else:
        mul[x, y] = z
    corrupt = GroupTable(order=n, mul=mul, inv=g.inv, generators=g.generators, label="corrupt")
    assert certify(_as_dtype(corrupt, np.uint16)) == certify(_as_dtype(corrupt, np.int32))


def test_inverses_match_the_first_identity_entry(catalog):
    mul = _cyclic_product(3, 100)
    no_identity = mul.copy()
    no_identity[299, 101] = 1  # row 299 = (2, 99) then holds no 0
    twice = mul.copy()
    twice[130, 5] = 0  # row 130 holds 0 twice
    for table in [g.mul for g in catalog.values()] + [mul, no_identity, twice]:
        got = inverses(table)
        assert got.dtype == groups.INDEX_DTYPE
        assert np.array_equal(got, np.argmax(table == 0, axis=1)), len(table)
    assert inverses(no_identity)[299] == 0
