from __future__ import annotations

import pytest

from conjgf.errors import QuotientTooLarge
from conjgf.families import cyclic, dihedral, stem_group
from conjgf.genfun import a_of_t, b_of_t
from conjgf.isoclinism import are_isoclinic, stem_order


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


def test_isoclinic_same_order_pairs_have_equal_functions(catalog):
    d32 = catalog["D32"]
    for label in ("SD32", "Q32"):
        other = catalog[label]
        w = are_isoclinic(d32, other)
        assert w is not None and w.verify(d32, other), label
        assert a_of_t(d32) == a_of_t(other), label
        assert b_of_t(d32) == b_of_t(other), label


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
    from conjgf.analysis import exponent
    from conjgf.closed_forms import table_row
    from conjgf.genfun import normalize
    from conjgf.pcp import PcPresentation, build_from_pcp

    exp9 = build_from_pcp(PcPresentation(
        p=3, relative_orders=(3, 9), power_words=(None, None),
        commutator_words={(1, 0): (0, 3)}, label="27exp9"))
    heis = catalog["Heis27"]
    assert exponent(exp9) == 9 and exponent(heis) == 3
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
