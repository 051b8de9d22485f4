from __future__ import annotations

from itertools import product

import numpy as np
import pytest

from conjgf.analysis import (
    center_elements,
    centralizer_elements,
    centralizer_histogram,
    conjugacy_data,
    derived_subgroup,
    element_orders,
    exponent,
    frattini_elements,
    has_abelian_maximal_subgroup,
    is_ac_group,
    lower_central_series,
    maximal_subgroup_generators,
    nilpotency_class,
)
from conjgf import families
from conjgf.errors import NotPrimePower
from conjgf.families import GAMMA_FAMILIES, PHI_FAMILIES, cyclic, dihedral, stem_group
from conjgf.groups import (
    GroupTable,
    build_from_permutations,
    is_abelian_subset,
    quotient_table,
    subgroup_closure,
)
from conjgf.pcp import prime_power_root


def maximal_subgroups(g, p):
    """Reference: every index-p subgroup of a p-group as a sorted element tuple,
    the preimage of a hyperplane of G/Phi(G) = F_p^k.  Enumerated in the order
    of `maximal_subgroup_generators`: the same greedy basis of G/Phi(G), and
    functionals with first nonzero entry 1 in lexicographic order."""
    q, _reps, coset_of = quotient_table(g, frattini_elements(g, p))
    basis: list[int] = []
    span = {0}
    for x in range(1, q.order):
        if x not in span:
            basis.append(x)
            span = set(subgroup_closure(q, span | {x}))
    coords = np.zeros((q.order, len(basis)), dtype=np.int64)
    for vec in product(range(p), repeat=len(basis)):
        elem = 0
        for b, c in zip(basis, vec):
            for _ in range(c):
                elem = q.mul_index(elem, b)
        coords[elem] = vec
    subs = []
    for lam in product(range(p), repeat=len(basis)):
        if next((v for v in lam if v), None) == 1:
            in_plane = (coords @ np.asarray(lam)) % p == 0
            subs.append(tuple(int(v) for v in np.nonzero(in_plane[coset_of])[0]))
    return subs


def test_s3_classes(catalog):
    cd = conjugacy_data(catalog["S3"])
    assert cd.num_classes == 3
    assert cd.class_equation == (1, 2, 3)
    assert centralizer_histogram(catalog["S3"]) == {6: 1, 3: 2, 2: 3}


def test_abelian_classes(catalog):
    g = catalog["C12"]
    cd = conjugacy_data(g)
    assert cd.num_classes == 12
    assert centralizer_histogram(g) == {12: 12}


def test_d16_histogram(catalog):
    assert centralizer_histogram(catalog["D16"]) == {16: 2, 8: 6, 4: 8}


def test_orbit_stabilizer_on_catalog(catalog):
    for label, g in catalog.items():
        cd = conjugacy_data(g)
        assert sum(len(c) for c in cd.classes) == g.order, label
        for cls, csize in zip(cd.classes, cd.centralizer_sizes):
            assert len(cls) * csize == g.order, label
        hist = centralizer_histogram(g)
        assert sum(hist.values()) == g.order, label
        assert all(g.order % m == 0 for m in hist), label
        singletons = sum(1 for c in cd.classes if len(c) == 1)
        assert singletons == len(center_elements(g)), label


def test_centralizer_basics(catalog):
    g = catalog["S3"]
    assert len(centralizer_elements(g, 0)) == 6
    transposition = next(x for x in range(g.order) if element_orders(g)[x] == 2)
    sub = centralizer_elements(g, transposition)
    assert len(sub) == 2 and transposition in sub


def test_centralizer_of_rotation_in_d16(catalog):
    g = catalog["D16"]
    rot = next(x for x in range(g.order) if element_orders(g)[x] == 8)
    sub = centralizer_elements(g, rot)
    assert len(sub) == 8
    assert is_abelian_subset(g, sub)


def test_centralizer_lattice(catalog):
    for label, g in catalog.items():
        zset = set(center_elements(g))
        for rep in conjugacy_data(g).representatives:
            elems = set(centralizer_elements(g, rep))
            assert zset <= elems, label
            assert (len(elems) == g.order) == (rep in zset), label


def test_center_derived_series_abelian(catalog):
    g = catalog["C8"]
    assert len(center_elements(g)) == 8
    assert len(derived_subgroup(g)) == 1
    series = lower_central_series(g)
    assert [len(s) for s in series] == [8, 1]
    assert nilpotency_class(g) == 1


def test_phi5_center_equals_derived():
    g = stem_group("Phi5", 3)
    z = center_elements(g)
    assert len(z) == 3
    assert set(derived_subgroup(g)) == set(z)


def test_phi10_lower_central_series():
    g = stem_group("Phi10", 3)
    assert [len(s) for s in lower_central_series(g)] == [243, 27, 9, 3, 1]
    assert nilpotency_class(g) == 4


def test_s3_not_nilpotent(catalog):
    assert nilpotency_class(catalog["S3"]) is None


def test_lower_central_series_descending_normal(catalog):
    for label, g in catalog.items():
        series = lower_central_series(g)
        for bigger, smaller in zip(series, series[1:]):
            assert set(smaller) < set(bigger), label
        for term in series:
            members = set(term)
            for s in g.generators:
                assert all(int(g.conj_by(s)[x]) in members for x in term), label


def test_ac_groups():
    assert is_ac_group(dihedral(16))
    assert is_ac_group(stem_group("Phi9", 3))
    assert not is_ac_group(stem_group("Phi10", 3))
    # extraspecial of order p^5 has nonabelian centralizers
    assert not is_ac_group(stem_group("Phi5", 3))


def test_ac_group_abelian_vacuous(catalog):
    assert is_ac_group(catalog["C3xC3"])


def test_maximal_subgroups(catalog):
    g = catalog["D8"]
    subs = maximal_subgroups(g, 2)
    assert len(subs) == 3
    assert all(len(s) == 4 for s in subs)
    assert has_abelian_maximal_subgroup(g, 2)
    with pytest.raises(NotPrimePower):
        maximal_subgroup_generators(catalog["S3"], 2)


@pytest.mark.parametrize("p", [0, 1, 4])
def test_maximal_subgroups_need_a_prime(p):
    # p = 1 used to loop forever, p = 0 to divide by zero, p = 4 to answer for C4
    for g in (dihedral(8), cyclic(4)):
        with pytest.raises(NotPrimePower):
            has_abelian_maximal_subgroup(g, p)
        with pytest.raises(NotPrimePower):
            maximal_subgroup_generators(g, p)


def test_maximal_subgroup_generators_against_blocks(catalog):
    # each generating set spans its maximal subgroup and commutes pairwise
    # exactly when the subgroup's full |M|^2 block does
    cases = [(g, prime_power_root(g.order)) for g in catalog.values() if g.order > 1]
    cases = [(g, root[0]) for g, root in cases if root]
    cases += [(stem_group(f, 2), 2) for f in GAMMA_FAMILIES]
    cases += [(stem_group(f, p), p) for p in (3, 5) for f in PHI_FAMILIES]
    for g, p in cases:
        subs = maximal_subgroups(g, p)
        gens = maximal_subgroup_generators(g, p)
        assert len(gens) == len(subs), g.label
        abelian = [is_abelian_subset(g, sub) for sub in subs]
        for sub, gen, ab in zip(subs, gens, abelian):
            assert subgroup_closure(g, gen) == sub, g.label
            assert is_abelian_subset(g, gen) == ab, g.label
        assert has_abelian_maximal_subgroup(g, p) == any(abelian), g.label


def test_maximal_class_p_series_sizes(catalog):
    # on a group of maximal class of order p^m, |gamma_i| = p^(m-i) for 2 <= i <= m
    # and |Z(G)| = p
    maximal = [("D16", 2), ("SD16", 2), ("Q16", 2), ("D32", 2), ("SD32", 2), ("Q32", 2)]
    groups = [(catalog[lbl], p) for lbl, p in maximal]
    groups += [(stem_group("Phi3", 3), 3), (stem_group("Phi9", 3), 3), (stem_group("Phi10", 3), 3)]
    for g, p in groups:
        base, m = prime_power_root(g.order)
        assert base == p, g.label
        series = lower_central_series(g)
        assert nilpotency_class(g) == m - 1, g.label
        assert [len(term) for term in series[1:]] == [p ** (m - i) for i in range(2, m + 1)], g.label
        assert len(center_elements(g)) == p, g.label


def test_exponent(catalog):
    assert exponent(catalog["Q8"]) == 4
    assert exponent(catalog["C12"]) == 12
    assert exponent(stem_group("Phi5", 3)) == 3


def _permutation_catalog(monkeypatch) -> list[tuple[GroupTable, list[tuple[int, ...]]]]:
    """The catalog groups that `build_from_permutations` closes, each with the
    generating permutations it was given."""
    given = {}

    def spy(gens, label=""):
        g = build_from_permutations(gens, label)
        given[g.label] = [tuple(p) for p in gens]
        return g

    monkeypatch.setattr(families, "build_from_permutations", spy)
    return [(g, given[g.label]) for _, g in families.small_catalog.__wrapped__() if g.label in given]


def _indexed_permutations(g: GroupTable, perms: list[tuple[int, ...]]) -> np.ndarray:
    """Row x is the permutation that index x stands for: the closure of `perms`
    in breadth-first order by right multiplication, as `build_from_permutations`
    indexes it; checked against every product of the table."""
    elems = [tuple(range(len(perms[0])))]
    seen = set(elems)
    for cur in elems:
        for s in perms:
            nxt = tuple(cur[i] for i in s)  # cur o s: s acts first
            if nxt not in seen:
                seen.add(nxt)
                elems.append(nxt)
    rows = np.asarray(elems)
    assert len(rows) == g.order, g.label
    composed = rows[np.arange(g.order)[:, None, None], rows[None, :, :]]
    assert np.array_equal(rows[g.mul], composed), g.label
    return rows


def test_permutation_groups_match_sympy(monkeypatch):
    combinatorics = pytest.importorskip("sympy.combinatorics")
    checked = set()
    for g, perms in _permutation_catalog(monkeypatch):
        rows = _indexed_permutations(g, perms)
        as_perm = lambda x: combinatorics.Permutation(rows[x].tolist())  # noqa: E731
        key = lambda p: tuple(p.array_form)  # noqa: E731
        group = combinatorics.PermutationGroup([combinatorics.Permutation(list(p)) for p in perms])
        cd = conjugacy_data(g)
        theirs = {frozenset(map(key, cls)) for cls in group.conjugacy_classes()}
        assert {frozenset(tuple(rows[x]) for x in cls) for cls in cd.classes} == theirs, g.label
        orders = [group.centralizer(as_perm(x)).order() for x in cd.representatives]
        assert orders == list(cd.centralizer_sizes), g.label
        hist: dict[int, int] = {}
        for m, cls in zip(orders, cd.classes):
            hist[m] = hist.get(m, 0) + len(cls)
        assert centralizer_histogram(g) == hist, g.label
        assert {tuple(rows[x]) for x in center_elements(g)} == set(map(key, group.center().elements)), g.label
        series = [len(term) for term in lower_central_series(g)]
        assert series == [term.order() for term in group.lower_central_series()], g.label
        checked.add(g.label)
    assert {"S3", "S4", "D8", "D12", "SD32", "C4xC2"} <= checked
