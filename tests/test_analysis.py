from __future__ import annotations

import hashlib
from itertools import product

import numpy as np
import pytest

from conjgf.analysis import (
    ClassData,
    center_elements,
    centralizer_elements,
    conjugacy_data,
    derived_subgroup,
    element_orders,
    has_abelian_maximal_subgroup,
    is_ac_group,
    lower_central_series,
    nilpotency_class,
)
from conjgf import analysis, families
from conjgf.errors import NotPrimePower
from conjgf.families import (
    GAMMA_FAMILIES,
    PHI_FAMILIES,
    cyclic,
    dihedral,
    elementary_abelian,
    stem_group,
    symmetric,
)
from conjgf.genfun import a_of_t
from conjgf.groups import (
    GroupTable,
    build_from_permutations,
    is_abelian_subset,
    orbit_labels,
    subgroup_closure,
)
from conjgf.pcp import prime_power_root
from conftest import relabelled
from test_groups import quotient_table


def frattini_elements(g, p):
    """Frattini subgroup of a p-group: closure of commutators and p-th powers."""
    pw = np.arange(g.order)
    for _ in range(p - 1):
        pw = g.mul[pw, np.arange(g.order)]
    return subgroup_closure(g, np.union1d(pw, derived_subgroup(g)).tolist())


def _greedy_basis(q):
    """A basis of the elementary abelian G/Phi(G), adjoining the smallest
    element outside the span each time."""
    basis: list[int] = []
    span = {0}
    for x in range(1, q.order):
        if x not in span:
            basis.append(x)
            span = set(subgroup_closure(q, span | {x}))
    return basis


def _unit_functionals(p, k):
    """Nonzero functionals on F_p^k up to scalar (first nonzero entry = 1), in
    lexicographic order."""
    for vec in product(range(p), repeat=k):
        if next((v for v in vec if v), None) == 1:
            yield vec


def maximal_subgroup_generators(g, p):
    """Reference: a generating set of each maximal subgroup of a p-group.

    The hyperplane lam = 0 of G/Phi(G) (lam_j = 1 its first nonzero entry) has
    the basis e_i - lam_i e_j for i != j, so its preimage M is generated by
    Phi(G) and the elements x_i x_j^(-lam_i), where x_i lifts b_i.
    """
    frat = frattini_elements(g, p)
    q, reps, _ = quotient_table(g, frat)
    frat_gens: list[int] = []
    span = {0}
    for x in frat:
        if x not in span:
            frat_gens.append(x)
            span = set(subgroup_closure(g, frat_gens))
    lifts = [reps[b] for b in _greedy_basis(q)]
    gens: list[tuple[int, ...]] = []
    for functional in _unit_functionals(p, len(lifts)):
        j = functional.index(1)
        kernel = []
        for i, (x, lam) in enumerate(zip(lifts, functional)):
            if i != j:
                for _ in range(-lam % p):
                    x = int(g.mul[x, lifts[j]])
                kernel.append(x)
        gens.append(tuple(frat_gens + kernel))
    return gens


def maximal_subgroups(g, p):
    """Reference: every index-p subgroup of a p-group as a sorted element tuple,
    the preimage of a hyperplane of G/Phi(G) = F_p^k.  Enumerated in the order
    of `maximal_subgroup_generators`."""
    q, _reps, coset_of = quotient_table(g, frattini_elements(g, p))
    basis = _greedy_basis(q)
    coords = np.zeros((q.order, len(basis)), dtype=np.int64)
    for vec in product(range(p), repeat=len(basis)):
        elem = 0
        for b, c in zip(basis, vec):
            for _ in range(c):
                elem = int(q.mul[elem, b])
        coords[elem] = vec
    subs = []
    for lam in _unit_functionals(p, len(basis)):
        in_plane = (coords @ np.asarray(lam)) % p == 0
        subs.append(tuple(int(v) for v in np.nonzero(in_plane[coset_of])[0]))
    return subs


def _p_groups(catalog) -> list[tuple[GroupTable, int]]:
    """(G, p) for every catalog p-group, Gamma(2), Phi(3) and Phi(5)."""
    cases = [(g, prime_power_root(g.order)) for g in catalog.values() if g.order > 1]
    cases = [(g, root[0]) for g, root in cases if root]
    cases += [(stem_group(f, 2), 2) for f in GAMMA_FAMILIES]
    return cases + [(stem_group(f, p), p) for p in (3, 5) for f in PHI_FAMILIES]


def centralizer_orders(g: GroupTable) -> dict:
    """Maps m to the number of x with |C_G(x)| = m, read from A's terms z_m/|G| / (1 - m t)."""
    return {m: c * g.order for m, _, c in a_of_t(g).terms}


def test_s3_classes(catalog):
    cd = conjugacy_data(catalog["S3"])
    assert cd.num_classes == 3
    assert cd.class_equation == (1, 2, 3)
    assert centralizer_orders(catalog["S3"]) == {6: 1, 3: 2, 2: 3}


def test_abelian_classes(catalog):
    g = catalog["C12"]
    cd = conjugacy_data(g)
    assert cd.num_classes == 12
    assert centralizer_orders(g) == {12: 12}


def test_d16_histogram(catalog):
    assert centralizer_orders(catalog["D16"]) == {16: 2, 8: 6, 4: 8}


def _classes_by_bfs(g: GroupTable) -> ClassData:
    """Reference: each conjugacy class by breadth-first search from its smallest
    member over conjugation by the generators."""
    moves = [g.conj_by(s) for s in g.generators]
    seen = np.zeros(g.order, dtype=bool)
    classes: list[tuple[int, ...]] = []
    for x in range(g.order):
        if seen[x]:
            continue
        orbit = {x}
        frontier = [x]
        seen[x] = True
        while frontier:
            nxt = []
            for y in frontier:
                for mv in moves:
                    z = int(mv[y])
                    if not seen[z]:
                        seen[z] = True
                        orbit.add(z)
                        nxt.append(z)
            frontier = nxt
        classes.append(tuple(sorted(orbit)))
    return ClassData(
        classes=tuple(classes),
        representatives=tuple(c[0] for c in classes),
        centralizer_sizes=tuple(g.order // len(c) for c in classes),
        class_equation=tuple(sorted(len(c) for c in classes)),
    )


def test_conjugacy_data_matches_bfs(catalog):
    # orbit labels against the search, field by field and down to the Python int type
    groups = [*catalog.values(), *(stem_group(f, 3) for f in PHI_FAMILIES)]
    groups += [relabelled(symmetric(5), 5), relabelled(symmetric(6), 6)]
    for g in groups:
        got = conjugacy_data(g)
        assert got == _classes_by_bfs(g), g.label
        values = [*(x for c in got.classes for x in c), *got.representatives,
                  *got.centralizer_sizes, *got.class_equation]
        assert {type(v) for v in values} == {int}, g.label
        assert type(got.classes) is tuple and all(type(c) is tuple for c in got.classes), g.label


def test_conjugacy_data_skips_trivial_moves(catalog, monkeypatch):
    # class data propagates over the kept conjugation moves only, no identity
    # move of a central generator among them, and is unchanged on the catalog
    # and the stem groups at p = 3 and 5 (sha256 from the build that passed
    # every generator's move)
    seen = []

    def spy(size, images, dtype):
        seen.append(images)
        return orbit_labels(size, images, dtype)

    monkeypatch.setattr(analysis, "orbit_labels", spy)
    digest = hashlib.sha256()
    for g in [*catalog.values(), *(families.build_stem_group(f, p) for p in (3, 5) for f in PHI_FAMILIES)]:
        g = GroupTable(g.order, g.mul, g.inv, g.generators, g.label)  # an empty memo
        seen.clear()
        digest.update(repr(conjugacy_data(g)).encode())
        identity = np.arange(g.order)
        assert len(seen) == 1 and not any(np.array_equal(image, identity) for image in seen[0]), g.label
    assert digest.hexdigest() == "70753231e71e1fb4ae973626f250ea307f7dfd68911e5a749c19296e89166410"
    phi4 = families.build_stem_group("Phi4", 5)
    conjugacy_data(phi4)
    assert len(seen[-1]) == 3 < len(phi4.generators)


def test_orbit_stabilizer_on_catalog(catalog):
    for label, g in catalog.items():
        cd = conjugacy_data(g)
        assert sum(len(c) for c in cd.classes) == g.order, label
        for cls, csize in zip(cd.classes, cd.centralizer_sizes):
            assert len(cls) * csize == g.order, label
        hist = centralizer_orders(g)
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


def _is_ac_by_centralizers(g: GroupTable) -> bool:
    """Reference: the centralizer of each non-central class representative,
    as an element set, is abelian."""
    z = set(center_elements(g))
    return all(is_abelian_subset(g, centralizer_elements(g, rep))
               for rep in conjugacy_data(g).representatives if rep not in z)


def test_ac_group_from_k_matches_the_centralizer_loop(survey):
    # is_ac_group reads K alone; the reference walks class representatives
    verdicts = []
    for seed, g in enumerate(survey):
        for h in (g, relabelled(g, seed)):
            verdicts.append(is_ac_group(h))
            assert verdicts[-1] == _is_ac_by_centralizers(h), h.label
    assert 0 < sum(verdicts) < len(verdicts)


def test_maximal_subgroups(catalog):
    g = catalog["D8"]
    subs = maximal_subgroups(g, 2)
    assert len(subs) == 3
    assert all(len(s) == 4 for s in subs)
    assert has_abelian_maximal_subgroup(g)
    with pytest.raises(NotPrimePower):
        has_abelian_maximal_subgroup(catalog["S3"])


def test_abelian_maximal_flag_edges():
    # the trivial group has no maximal subgroup; in an abelian p-group every one is abelian
    assert not has_abelian_maximal_subgroup(cyclic(1))
    for p in (2, 3, 5):
        assert maximal_subgroups(cyclic(p), p) == [(0,)]
        for g in (cyclic(p), elementary_abelian(p, 3)):
            assert has_abelian_maximal_subgroup(g), g.label


def test_abelian_maximal_flag_matches_enumeration(catalog):
    # the centralizer criterion against every maximal subgroup, on each group and
    # a relabelling of it; Phi5, Phi7 and Phi8 have non-abelian centralizers of index p
    for seed, (g0, p) in enumerate(_p_groups(catalog)):
        for g in (g0, relabelled(g0, seed)):
            want = any(is_abelian_subset(g, sub) for sub in maximal_subgroups(g, p))
            assert has_abelian_maximal_subgroup(g) == want, g.label


def test_maximal_subgroup_generators_against_blocks(catalog):
    # each generating set spans its maximal subgroup and commutes pairwise
    # exactly when the subgroup's full |M|^2 block does
    for g, p in _p_groups(catalog):
        subs = maximal_subgroups(g, p)
        gens = maximal_subgroup_generators(g, p)
        assert len(gens) == len(subs), g.label
        abelian = [is_abelian_subset(g, sub) for sub in subs]
        for sub, gen, ab in zip(subs, gens, abelian):
            assert subgroup_closure(g, gen) == sub, g.label
            assert is_abelian_subset(g, gen) == ab, g.label


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


def _cycle(n: int, at: int, degree: int) -> tuple[int, ...]:
    """An n-cycle on the points at..at+n-1 of 0..degree-1."""
    return tuple(at + (i - at + 1) % n if at <= i < at + n else i for i in range(degree))


def _power_map(n: int, k: int) -> tuple[int, ...]:
    return tuple(i * k % n for i in range(n))


# the permutations the catalog's pc-built groups were once closed from, one per
# pc generator: g0 = s and g1 = r of the metacyclic presentation, or one cycle
# per factor of C4xC2
PC_PERMUTATIONS = {
    "D8": [_power_map(4, -1), _cycle(4, 0, 4)],
    "D12": [_power_map(6, -1), _cycle(6, 0, 6)],
    "SD32": [_power_map(16, 7), _cycle(16, 0, 16)],
    "C4xC2": [_cycle(4, 0, 6), _cycle(2, 4, 6)],
}


def _permutation_catalog(monkeypatch) -> list[tuple[GroupTable, list[tuple[int, ...]], np.ndarray]]:
    """Catalog groups with permutations, each with its generating permutations
    and the permutation each index stands for: S3 and S4 as
    `build_from_permutations` closes them, and the pc groups of PC_PERMUTATIONS,
    whose normal form g0^e0 g1^e1 stands for P0^e0 P1^e1."""
    given = {}

    def spy(gens, label=""):
        g = build_from_permutations(gens, label)
        given[g.label] = [tuple(p) for p in gens]
        return g

    monkeypatch.setattr(families, "build_from_permutations", spy)
    out = []
    for label, g in families.small_catalog.__wrapped__():
        if label in given:
            out.append((g, given[label], _closure_rows(given[label])))
        elif label in PC_PERMUTATIONS:
            perms, r1 = PC_PERMUTATIONS[label], g.generators[0]  # g0 at index r1, g1 at 1
            rows = []
            for vec in np.ndindex(g.order // r1, r1):
                row = np.arange(len(perms[0]))
                for p, e in zip(perms, vec):
                    for _ in range(e):
                        row = row[list(p)]
                rows.append(row)
            out.append((g, perms, np.asarray(rows)))
    return out


def _closure_rows(perms: list[tuple[int, ...]]) -> np.ndarray:
    """The closure of `perms` in breadth-first order by right multiplication,
    as `build_from_permutations` indexes it."""
    elems = [tuple(range(len(perms[0])))]
    seen = set(elems)
    for cur in elems:
        for s in perms:
            nxt = tuple(cur[i] for i in s)  # cur o s: s acts first
            if nxt not in seen:
                seen.add(nxt)
                elems.append(nxt)
    return np.asarray(elems)


def _check_indexing(g: GroupTable, rows: np.ndarray) -> None:
    """Row x is the permutation that index x stands for: distinct rows, composed
    as the table multiplies, checked on every product."""
    assert len({tuple(r) for r in rows.tolist()}) == len(rows) == g.order, g.label
    composed = rows[np.arange(g.order)[:, None, None], rows[None, :, :]]
    assert np.array_equal(rows[g.mul], composed), g.label


def test_permutation_groups_match_sympy(monkeypatch):
    combinatorics = pytest.importorskip("sympy.combinatorics")
    checked = set()
    for g, perms, rows in _permutation_catalog(monkeypatch):
        _check_indexing(g, rows)
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
        assert centralizer_orders(g) == hist, g.label
        assert {tuple(rows[x]) for x in center_elements(g)} == set(map(key, group.center().elements)), g.label
        series = [len(term) for term in lower_central_series(g)]
        assert series == [term.order() for term in group.lower_central_series()], g.label
        checked.add(g.label)
    assert {"S3", "S4", "D8", "D12", "SD32", "C4xC2"} <= checked


def test_pc_groups_match_sympy_by_regular_representation(catalog, monkeypatch):
    # the pc-built groups have no permutations to give sympy; the rows g.mul[s]
    # of the generators, x -> sx, are their left regular representation, whose
    # permutation x -> hx sends 0 to h: a sympy subgroup's elements are read as
    # the images of 0.  S5 and S6, whose series stop at the perfect A5 and A6,
    # are given as the permutations they are closed from, read back by index
    combinatorics = pytest.importorskip("sympy.combinatorics")
    cases = []
    for g in ([catalog[label] for label in ("Q8", "Q16", "Q32", "Heis27", "Gamma4a2", "Gamma5a1", "Gamma6a1", "Gamma7a1")]
              + [stem_group(f, 3) for f in PHI_FAMILIES] + [stem_group(f, 2) for f in GAMMA_FAMILIES]):
        cases.append((g, [g.mul[s].tolist() for s in g.generators], lambda perm: perm.array_form[0]))
    given = []
    monkeypatch.setattr(families, "build_from_permutations",
                        lambda gens, label="": given.append(gens) or build_from_permutations(gens, label))
    for degree in (5, 6):
        g = families.symmetric(degree)
        rows = _closure_rows(given[-1])
        _check_indexing(g, rows)
        index = {tuple(row): x for x, row in enumerate(rows.tolist())}
        cases.append((g, given[-1], lambda perm, index=index: index[tuple(perm.array_form)]))
    for g, perms, index_of in cases:
        group = combinatorics.PermutationGroup([combinatorics.Permutation(list(p)) for p in perms])

        def elements(sub):
            return tuple(sorted(index_of(perm) for perm in sub.generate()))

        ours = (g.order, center_elements(g), derived_subgroup(g), lower_central_series(g))
        theirs = (group.order(), elements(group.center()), elements(group.derived_subgroup()),
                  tuple(elements(term) for term in group.lower_central_series()))
        assert ours == theirs, g.label
        if g.order <= 64:
            classes = sorted(len(cls) for cls in group.conjugacy_classes())
            assert list(conjugacy_data(g).class_equation) == classes, g.label
    assert [[len(term) for term in lower_central_series(g)] for g, _, _ in cases[-2:]] == [[120, 60], [720, 360]]
