from __future__ import annotations

import numpy as np
import pytest

from conjgf.errors import ClosureExceedsCap, InvalidPermutation, NotAGroup
from conjgf import groups
from conjgf.groups import (
    build_from_cayley,
    build_from_permutations,
    certify,
    induced_table,
    minimal_generating_indices,
    quotient_table,
    subgroup_closure,
)

S3_GENS = [(1, 2, 0), (1, 0, 2)]

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


def test_closure_cap():
    rot = tuple((i + 1) % 12 for i in range(12))
    with pytest.raises(ClosureExceedsCap):
        build_from_permutations([rot], cap=5)


def test_cayley_trivial_and_klein():
    assert build_from_cayley([[0]]).order == 1
    klein = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]
    g = build_from_cayley(klein, label="V4")
    assert g.order == 4
    assert np.array_equal(g.inv, np.arange(4))
    assert g.is_abelian


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


def test_cayley_nonassociative_above_exhaustive_limit():
    # NONASSOC_LOOP x C50 (order 300, index a*50 + b) is checked on generator triples only
    n = 300
    table = [[(NONASSOC_LOOP[i // 50][j // 50]) * 50 + (i + j) % 50 for j in range(n)] for i in range(n)]
    with pytest.raises(NotAGroup) as err:
        build_from_cayley(table)
    assert err.value.axiom == "associativity"
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


def test_quotient_table_by_center(catalog):
    g = catalog["Q8"]
    from conjgf.analysis import center_elements

    q, reps, coset_of = quotient_table(g, center_elements(g))
    assert q.order == 4
    assert certify(q).ok
    assert q.is_abelian  # Q8 / Z = Klein four-group
    assert coset_of[0] == 0 and reps[0] == 0
    assert np.array_equal(coset_of[list(reps)], np.arange(q.order))


def test_cayley_order_cap(monkeypatch):
    monkeypatch.setattr(groups, "DEFAULT_ORDER_CAP", 4)
    assert build_from_cayley([[(i + j) % 4 for j in range(4)] for i in range(4)]).order == 4
    with pytest.raises(ClosureExceedsCap):
        build_from_cayley([[(i + j) % 5 for j in range(5)] for i in range(5)])


def test_quotient_by_whole_group(catalog):
    g = catalog["D8"]
    q, reps, _ = quotient_table(g, range(g.order))
    assert q.order == 1 and reps == (0,)
    assert certify(q).ok


def test_cayley_large_order_uses_generator_triples():
    # a cyclic table above the exhaustive-associativity limit goes through
    # the generator-triple reduction and still round-trips
    n = 300
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    g = build_from_cayley(table, label="C300")
    assert g.order == n
    assoc = {c.name: c for c in certify(g).checks}["associativity"]
    assert (assoc.status, assoc.detail) == ("pass", "generator triples")
