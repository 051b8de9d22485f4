from __future__ import annotations

import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conjgf import analysis, isoclinism
from conjgf.analysis import center_elements, central_cosets, commuting_cosets, derived_subgroup
from conjgf.errors import QuotientTooLarge
from conjgf.families import PHI_FAMILIES, build_stem_group, cyclic, dihedral, stem_group, symmetric
from conjgf.genfun import a_of_t, b_of_t, normalize
from conjgf.groups import GroupTable, certify, subgroup_closure
from conjgf.isoclinism import (
    IsoclinismWitness,
    _central_quotient,
    _coset_commutators,
    _derive_phi,
    _element_invariants,
    _iso_images,
    are_isoclinic,
)
from conjgf.pcp import PcPresentation, build_from_pcp
from conftest import relabelled
from test_groups import quotient_table


def stem_order(g: GroupTable) -> int:
    """|G/Z(G)| * |Z(G) cap G'|: the order of the stem groups of G's family."""
    z = set(center_elements(g))
    der = set(derived_subgroup(g))
    return (g.order // len(z)) * len(z & der)


def _commutator(g: GroupTable, x: int, y: int) -> int:
    """[x, y] = x^-1 y^-1 x y, one pair at a time."""
    return int(g.mul[g.mul[g.inv[x], g.inv[y]], g.mul[x, y]])


def _verify_by_loops(w: IsoclinismWitness, g: GroupTable, h: GroupTable) -> bool:
    """Reference: the commutative diagram re-checked pair by pair."""
    gq, greps = _central_quotient(g)
    hq, hreps = _central_quotient(h)
    if greps != w.g_coset_reps or hreps != w.h_coset_reps:
        return False
    theta = w.theta
    if len(theta) != hq.order or sorted(theta) != list(range(gq.order)):
        return False
    for a in range(gq.order):
        for b in range(gq.order):
            if theta[int(gq.mul[a, b])] != int(hq.mul[theta[a], theta[b]]):
                return False
    gder = derived_subgroup(g)
    hder = derived_subgroup(h)
    if sorted(w.phi) != list(gder) or sorted(w.phi.values()) != list(hder):
        return False
    for x in gder:
        for y in gder:
            if w.phi[int(g.mul[x, y])] != int(h.mul[w.phi[x], w.phi[y]]):
                return False
    for a in range(gq.order):
        for b in range(gq.order):
            if w.phi[_commutator(g, greps[a], greps[b])] != _commutator(h, hreps[theta[a]], hreps[theta[b]]):
                return False
    return True


def _exp9() -> GroupTable:
    """The non-abelian group of order 27 and exponent 9."""
    return build_from_pcp(PcPresentation(
        relative_orders=(3, 9), power_words=(None, None),
        commutator_words={(1, 0): (0, 3)}, label="27exp9"))


def test_d8_q8_witness(catalog):
    w = are_isoclinic(catalog["D8"], catalog["Q8"])
    assert w is not None
    assert w.verify(catalog["D8"], catalog["Q8"])


def test_self_isoclinism(catalog):
    for label in ("S3", "D8", "D16", "Heis27", "Gamma7a1"):
        g = catalog[label]
        w = are_isoclinic(g, g)
        assert w is not None, label
        assert w.verify(g, g), label


def test_symmetry(catalog):
    d8, q8 = catalog["D8"], catalog["Q8"]
    assert (are_isoclinic(d8, q8) is not None) == (are_isoclinic(q8, d8) is not None)


def test_c4_d8_not_isoclinic(catalog):
    # central quotients have different orders
    assert are_isoclinic(cyclic(4), catalog["D8"]) is None


def test_all_abelian_groups_isoclinic(catalog):
    w = are_isoclinic(catalog["C8"], catalog["C2^3"])
    assert w is not None
    assert w.verify(catalog["C8"], catalog["C2^3"])


def test_nonisoclinic_same_order(catalog):
    # D16 has maximal class; Gamma4-like groups of order 16 do not exist in
    # the catalog, so compare against the abelian one instead
    assert are_isoclinic(catalog["D16"], catalog["C16"]) is None


def test_quotient_cap():
    # |D512 / Z| = 256 is at the cap; D258 has a trivial center, so its quotient is 258
    d512 = dihedral(512)
    w = are_isoclinic(d512, d512)
    assert w is not None and w.verify(d512, d512)
    with pytest.raises(QuotientTooLarge):
        are_isoclinic(dihedral(258), dihedral(258))


def test_unequal_quotient_orders_are_not_isoclinic_past_the_cap():
    # |D258 / Z| = 258 is over the cap, but unequal quotient orders already answer
    for g, h in ((dihedral(258), symmetric(3)), (symmetric(3), dihedral(258)),
                 (dihedral(258), dihedral(512))):
        assert are_isoclinic(g, h) is None, (g.label, h.label)


def test_unequal_derived_orders_build_no_quotient(monkeypatch):
    # |G/Z| = 27 for both, but |G'| is 9 for Phi4(3) and 27 for Phi6(3): the
    # search answers None before it builds either 27 x 27 quotient table
    built = []
    monkeypatch.setattr(isoclinism, "_central_quotient", lambda g: built.append(g.label))
    g, h = build_stem_group("Phi4", 3), build_stem_group("Phi6", 3)
    assert (len(derived_subgroup(g)), len(derived_subgroup(h))) == (9, 27)
    assert are_isoclinic(g, h) is None and are_isoclinic(h, g) is None
    assert built == []


def test_isoclinic_same_order_pairs_have_equal_functions(catalog):
    d32 = catalog["D32"]
    for label in ("SD32", "Q32"):
        other = catalog[label]
        w = are_isoclinic(d32, other)
        assert w is not None and w.verify(d32, other), label
        assert a_of_t(d32) == a_of_t(other), label
        assert b_of_t(d32) == b_of_t(other), label


def test_isoclinism_carries_the_commuting_block(catalog):
    # theta carries K on G/Z(G) onto K on H/Z(H), so the normalized A and B,
    # which read K alone, agree on every isoclinic pair
    groups = [*catalog.values(), *(stem_group(f, 3) for f in PHI_FAMILIES)]
    witnesses = 0
    for g, h in combinations(groups, 2):
        w = are_isoclinic(g, h)
        if w is None:
            continue
        witnesses += 1
        theta = np.asarray(w.theta)
        assert np.array_equal(commuting_cosets(h)[np.ix_(theta, theta)], commuting_cosets(g)), (g.label, h.label)
        for of_t in (a_of_t, b_of_t):
            assert normalize(of_t(g), g.order) == normalize(of_t(h), h.order), (of_t.__name__, g.label, h.label)
    assert witnesses == 145


def test_stem_orders(catalog):
    assert stem_order(catalog["C12"]) == 1
    assert stem_order(catalog["D8"]) == 8
    assert stem_order(stem_group("Phi5", 3)) == 243
    # a non-stem group: D8 x C2 would have stem order 8; closest catalog case
    assert stem_order(catalog["D16"]) == 16


def test_semidihedral_isoclinic_to_dihedral(catalog):
    w = are_isoclinic(catalog["SD16"], catalog["D16"])
    assert w is not None
    assert w.verify(catalog["SD16"], catalog["D16"])


def test_both_nonabelian_order_27_groups_isoclinic(catalog):
    # the rank-3 family contains two isomorphism types of order-27 stem
    # groups (exponent 3 and exponent 9); they share A, B and the table row
    from conjgf.analysis import element_orders
    from conjgf.closed_forms import table_row
    from conjgf.genfun import normalize

    exp9 = _exp9()
    heis = catalog["Heis27"]
    assert element_orders(exp9).max() == 9 and element_orders(heis).max() == 3
    assert stem_order(exp9) == 27
    w = are_isoclinic(exp9, heis)
    assert w is not None and w.verify(exp9, heis)
    assert a_of_t(exp9) == a_of_t(heis)
    assert b_of_t(exp9) == b_of_t(heis)
    assert (normalize(a_of_t(exp9), 27), normalize(b_of_t(exp9), 27)) == table_row("Phi2", 3)


def test_gamma6_gamma7_not_isoclinic(catalog):
    # same order, center and class, but derived subgroups C4 vs C2 x C2:
    # no phi can exist, so the search must come back empty
    assert are_isoclinic(catalog["Gamma6a1"], catalog["Gamma7a1"]) is None


def test_quotient_cap_raises_before_building_quotients():
    # Z(D2046) is trivial, so its quotient would be a second 2046 x 2046 table
    g = dihedral(2046)
    tracemalloc.start()
    try:
        with pytest.raises(QuotientTooLarge):
            are_isoclinic(g, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.1 * g.mul.nbytes


def test_verify_rejects_wrong_coset_count_before_building_quotients():
    # a one-element witness on D2046, whose trivial center would make each
    # quotient a second 2046 x 2046 table
    g = dihedral(2046)
    witness = IsoclinismWitness(theta=(0,), phi={0: 0}, g_coset_reps=(0,), h_coset_reps=(0,))
    tracemalloc.start()
    try:
        assert not witness.verify(g, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.1 * g.mul.nbytes


def test_verify_rejects_theta_not_onto(catalog):
    # relabel H = Gamma5a1 (|H/Z| = 16) so that a non-abelian subgroup of order 8,
    # which contains Z(H), takes labels 0-7; its cosets are then quotient elements
    # 0-3, and theta = (0, 1, 2, 3) embeds D8/Z into H/Z with a commuting square
    g, base = catalog["D8"], catalog["Gamma5a1"]
    x = base.generators[0]
    y = next(y for y in base.generators if _commutator(base, x, y) != 0)
    sub = subgroup_closure(base, (x, y))
    assert len(sub) == 8 and set(center_elements(base)) <= set(sub)
    rest = [e for e in range(base.order) if e not in set(sub)]
    perm = np.empty(base.order, dtype=np.int64)
    perm[list(sub) + rest] = np.arange(base.order)
    h = relabelled(base, perm)
    greps, hreps = _central_quotient(g)[1], _central_quotient(h)[1]
    assert len(hreps) == 16
    phi = dict(zip(derived_subgroup(g), derived_subgroup(h)))
    w = IsoclinismWitness(theta=(0, 1, 2, 3), phi=phi, g_coset_reps=greps, h_coset_reps=hreps)
    assert not w.verify(g, h)
    assert are_isoclinic(g, h) is None


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_pruning_keeps_every_relabelling(catalog, data):
    # a group is isoclinic to each of its relabellings, so no candidate it needs is dropped
    groups = {**catalog, **{f: stem_group(f, 3) for f in PHI_FAMILIES}}
    label = data.draw(st.sampled_from(sorted(groups)))
    g = groups[label]
    seed = data.draw(st.integers(0, 2**32 - 1))
    h = relabelled(g, seed)
    w = are_isoclinic(g, h)
    assert w is not None and w.verify(g, h), (label, seed)


def test_invariant_triples_agree_on_isoclinic_pairs(catalog):
    pairs = [
        (catalog["D8"], catalog["Q8"]),
        (_exp9(), catalog["Heis27"]),
        (stem_group("Gamma2", 2), catalog["Q8"]),
        (stem_group("Gamma3", 2), catalog["Q16"]),
    ]
    for trio in (("D16", "SD16", "Q16"), ("D32", "SD32", "Q32")):
        pairs += [(catalog[x], catalog[y]) for x, y in combinations(trio, 2)]
    for g, h in pairs:
        assert sorted(_element_invariants(g)) == sorted(_element_invariants(h)), (g.label, h.label)
        w = are_isoclinic(g, h)
        assert w is not None and w.verify(g, h), (g.label, h.label)


def test_phi_families_pairwise_not_isoclinic():
    for x, y in combinations(PHI_FAMILIES, 2):
        assert are_isoclinic(stem_group(x, 3), stem_group(y, 3)) is None, (x, y)


def test_commuting_cosets_rows_are_quotient_elements(catalog):
    # the lifted class size of quotient element i is read from row i
    groups = [catalog[k] for k in ("S3", "D8", "S4", "Gamma5a1", "C12")]
    groups += [stem_group(f, 3) for f in ("Phi9", "Phi10")]
    for g in groups:
        coset_of = central_cosets(g)[1]
        lifted = [t[2] for t in _element_invariants(g)]
        for x in range(g.order):
            centralizer = np.count_nonzero(g.mul[x] == g.mul[:, x])
            assert lifted[coset_of[x]] == g.order // centralizer, (g.label, x)


def test_central_quotient_and_coset_commutators_match_the_reference(catalog):
    # Q, its coset minima and coset indices, read from one block of coset-minimum
    # products, and C, gathered at those minima, against the generic quotient and
    # (yx)^-1 xy read from the table; Z(S5) and Z(S6) are trivial, so there the
    # block is `mul` itself
    groups = [*catalog.values(), symmetric(5), symmetric(6)]
    groups += [stem_group(f, p) for p in (3, 5) for f in PHI_FAMILIES]
    for seed, g0 in enumerate(groups):
        for g in (g0, relabelled(g0, seed)):
            q, reps = _central_quotient(g)
            coset_of = central_cosets(g)[1]
            want, want_reps, want_coset_of = quotient_table(g, center_elements(g))
            assert (q.order, q.generators, reps) == (want.order, want.generators, want_reps), g.label
            assert certify(q).ok, g.label
            r = np.asarray(reps, dtype=np.intp)
            pairs = [(q.mul, want.mul), (q.inv, want.inv), (coset_of, want_coset_of),
                     (_coset_commutators(g), g.mul[g.inv[g.mul[r, r[:, None]]], g.mul[r[:, None], r]])]
            for got, ref in pairs:
                assert got.dtype == ref.dtype and np.array_equal(got, ref), g.label


def test_isoclinism_search_builds_the_coset_block_twice_per_group(monkeypatch):
    # one build for G/Z(G) and its coset commutators, one for K
    calls = []

    def spy(g):
        calls.append(g.label)
        return central_cosets(g)

    monkeypatch.setattr(isoclinism, "central_cosets", spy)
    monkeypatch.setattr(analysis, "central_cosets", spy)
    g0 = stem_group("Phi7", 3)
    g, h = (GroupTable(g0.order, g0.mul, g0.inv, g0.generators, label) for label in ("G", "H"))
    assert are_isoclinic(g, h) is not None
    assert sorted(calls) == ["G", "G", "H", "H"]


def test_derive_phi_rejects_a_quotient_isomorphism(monkeypatch):
    # Phi9(3) and Phi10(3) tie on every quotient-only invariant: the first theta
    # of a search pruned by those alone is a quotient isomorphism with no phi
    g, h = stem_group("Phi9", 3), stem_group("Phi10", 3)
    full = isoclinism._element_invariants
    monkeypatch.setattr(isoclinism, "_element_invariants", lambda x: [t[:2] for t in full(x)])
    theta = next(_iso_images(g, h))
    assert _derive_phi(g, h, theta) is None


def test_lifted_class_size_prunes_phi9_phi10(monkeypatch):
    g, h = stem_group("Phi9", 3), stem_group("Phi10", 3)
    assert sorted(t[:2] for t in _element_invariants(g)) == sorted(t[:2] for t in _element_invariants(h))
    assert sorted(_element_invariants(g)) != sorted(_element_invariants(h))
    calls = []
    derive = isoclinism._derive_phi
    monkeypatch.setattr(isoclinism, "_derive_phi", lambda *a: calls.append(a) or derive(*a))
    assert are_isoclinic(g, h) is None
    assert calls == []



def _catalog_witnesses(catalog):
    """Every witness the search finds between equal-order catalog groups, itself included."""
    groups = list(catalog.values())
    for i, g in enumerate(groups):
        for h in groups[i:]:
            if g.order == h.order and (w := are_isoclinic(g, h)) is not None:
                yield g, h, w


def test_verify_matches_loop_form(catalog):
    swaps = []
    for g, h, w in _catalog_witnesses(catalog):
        assert w.verify(g, h) and _verify_by_loops(w, g, h), (g.label, h.label)
        theta, keys, values = list(w.theta), list(w.phi), list(w.phi.values())
        hder = derived_subgroup(h)
        changed = []  # (theta, phi values, must fail)
        for i in range(len(theta)):
            # one entry moved to another value, and two neighbouring entries swapped
            bumped, swap = theta.copy(), theta.copy()
            bumped[i] = (bumped[i] + 1) % len(theta)
            j = (i + 1) % len(theta)
            swap[i], swap[j] = swap[j], swap[i]
            changed += [(bumped, values, True), (swap, values, False)]
        for i in range(len(values)):
            bumped, swap = values.copy(), values.copy()
            bumped[i] = hder[(hder.index(bumped[i]) + 1) % len(hder)]
            j = (i + 1) % len(values)
            swap[i], swap[j] = swap[j], swap[i]
            changed += [(theta, bumped, True), (theta, swap, False)]
        for new_theta, new_values, must_fail in changed:
            if new_theta == theta and new_values == values:
                continue
            v = IsoclinismWitness(tuple(new_theta), dict(zip(keys, new_values)), w.g_coset_reps, w.h_coset_reps)
            verdict = v.verify(g, h)
            assert verdict == _verify_by_loops(v, g, h), (g.label, h.label, new_theta, new_values)
            assert not (must_fail and verdict), (g.label, h.label, new_theta, new_values)
            if not must_fail:
                swaps.append(verdict)
    # swaps keep theta and phi bijective, so the homomorphism and square checks decide them
    assert True in swaps and False in swaps


def test_verify_memory_on_a_large_derived_subgroup():
    # Z(D2046) is trivial and G' is the 1023 rotations: each check runs LINE_BLOCK rows
    # at a time, never a |G'| x |G'| or R x R array of intp
    g = dihedral(2046)
    # the table, built on first read, and the quotient table are built before tracing
    assert g.mul.shape == (2046, 2046)
    r = _central_quotient(g)[1]
    der = derived_subgroup(g)
    assert len(r) == 2046 and len(der) == 1023
    w = IsoclinismWitness(tuple(range(len(r))), {x: x for x in der}, r, r)
    tracemalloc.start()
    try:
        assert w.verify(g, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= len(der) ** 2 * np.dtype(np.intp).itemsize // 2, peak
