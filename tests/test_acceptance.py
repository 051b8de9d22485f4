"""Acceptance suite: one test per criterion, each at its stated tolerance.

Every comparison of generating functions here is exact rational equality
(zero tolerance).  Each test prints one PASS line on success (run with -s to
see them; a failure prints through pytest regardless).
"""

from __future__ import annotations

import time
from itertools import combinations

from conjgf.analysis import conjugacy_data, lower_central_series
from conjgf.closed_forms import (
    ABELIAN_MAX,
    P1P3_NO_ABELIAN_MAX,
    a_central_quotient_p2,
    a_central_quotient_p3,
    a_dihedral,
    a_extraspecial_p5,
    a_maximal_class,
    b_central_quotient_p2,
    b_central_quotient_p3,
    b_dihedral,
    b_extraspecial_p5,
    b_maximal_class,
    table_row,
)
from conjgf.families import GAMMA_FAMILIES, PHI_FAMILIES, small_catalog, stem_group
from conjgf.genfun import (
    a_of_t,
    alpha_coefficient,
    b_of_t,
    beta_coefficient,
    gf_equal,
    normalize,
)
from conjgf.isoclinism import are_isoclinic
from conjgf.oracle import alpha_brute, beta_brute
from conjgf.ratfun import partial_fractions
from conftest import taylor


def _families_for(p: int) -> list[str]:
    return ["abelian"] + list(GAMMA_FAMILIES if p == 2 else PHI_FAMILIES)


def _check_table(p: int) -> int:
    rows = 0
    for family in _families_for(p):
        g = stem_group(family, p)
        expected_a, expected_b = table_row(family, p)
        assert gf_equal(normalize(a_of_t(g), g.order), expected_a), (family, p, "A")
        assert gf_equal(normalize(b_of_t(g), g.order), expected_b), (family, p, "B")
        rows += 1
    return rows


def test_criterion_1_table_reproduction_p2_p3():
    t0 = time.time()
    rows = _check_table(2) + _check_table(3)
    elapsed = time.time() - t0
    assert rows == 18
    assert elapsed < 120, f"expected well under 2 minutes, took {elapsed:.0f}s"
    print(f"\nACCEPTANCE 1: PASS - Table rows exact for p=2 (8 rows) and p=3 (10 rows) "
          f"in {elapsed:.1f}s")


def test_criterion_1_table_reproduction_p5():
    t0 = time.time()
    rows = _check_table(5)
    elapsed = time.time() - t0
    assert rows == 10
    assert elapsed < 300, f"expected under 5 minutes, took {elapsed:.0f}s"
    # lower central series shape of the order-5^5 maximal-class stem group
    g10 = stem_group("Phi10", 5)
    assert [len(s) for s in lower_central_series(g10)] == [5**5, 5**3, 5**2, 5, 1]
    print(f"\nACCEPTANCE 1 (p=5): PASS - all 10 table rows exact at p=5 "
          f"(stem orders <= 5^5) in {elapsed:.1f}s")


def test_criterion_2_closed_forms_agree():
    catalog = dict(small_catalog())
    checks = 0

    def both(agroup, a_formula, b_formula, tag):
        nonlocal checks
        assert gf_equal(a_of_t(agroup), a_formula), tag
        assert gf_equal(b_of_t(agroup), b_formula), tag
        checks += 2

    # (a) |G/Z| = p^2
    for label, (p, m) in (("Q8", (2, 3)), ("D8", (2, 3)), ("Heis27", (3, 3))):
        both(catalog[label], a_central_quotient_p2(p, m), b_central_quotient_p2(p, m), label)
    # (b) |G/Z| = p^3, both cases
    both(stem_group("Phi4", 3), a_central_quotient_p3(3, 5, True),
         b_central_quotient_p3(3, 5, True), "Phi4")
    both(catalog["Gamma4a2"], a_central_quotient_p3(2, 5, True),
         b_central_quotient_p3(2, 5, True), "Gamma4a2")
    both(stem_group("Phi6", 3), a_central_quotient_p3(3, 5, False),
         b_central_quotient_p3(3, 5, False), "Phi6")
    # (c) maximal class, both cases
    for label in ("D32", "Q32", "SD32"):
        both(catalog[label], a_maximal_class(2, 5, ABELIAN_MAX),
             b_maximal_class(2, 5, ABELIAN_MAX), label)
    both(stem_group("Phi9", 3), a_maximal_class(3, 5, ABELIAN_MAX),
         b_maximal_class(3, 5, ABELIAN_MAX), "Phi9")
    both(stem_group("Phi10", 3), a_maximal_class(3, 5, P1P3_NO_ABELIAN_MAX),
         b_maximal_class(3, 5, P1P3_NO_ABELIAN_MAX), "Phi10")
    # (d) dihedral lemma
    for n, label in ((4, "D8"), (8, "D16"), (16, "D32")):
        both(catalog[label], a_dihedral(n), b_dihedral(n), label)
    # (e) extraspecial p^5
    both(catalog["Gamma5a1"], a_extraspecial_p5(2), b_extraspecial_p5(2), "Gamma5a1")
    both(stem_group("Phi5", 3), a_extraspecial_p5(3), b_extraspecial_p5(3), "Phi5")
    print(f"\nACCEPTANCE 2: PASS - {checks} closed-form vs general-algorithm equalities, exact")


def test_criterion_3_oracle_equivalence():
    catalog = dict(small_catalog())
    equalities = 0
    for label, g in catalog.items():
        if g.order <= 24:
            n_max = 3
        elif g.order <= 64:
            n_max = 2
        else:
            continue
        for n in range(n_max + 1):
            assert alpha_brute(g, n).count == alpha_coefficient(g, n), (label, n)
            assert beta_brute(g, n).count == beta_coefficient(g, n), (label, n)
            equalities += 2
    assert equalities >= 60
    s3, q8 = catalog["S3"], catalog["Q8"]
    # pinned values, each produced by two independent paths
    assert alpha_brute(s3, 2).count == alpha_coefficient(s3, 2) == 11
    assert beta_brute(s3, 2).count == beta_coefficient(s3, 2) == 8
    # both paths give 22 here (the spec sheet's 23 does not survive either
    # computation; see the decisions ledger)
    assert beta_brute(q8, 2).count == beta_coefficient(q8, 2) == 22
    print(f"\nACCEPTANCE 3: PASS - {equalities} oracle/series equalities "
          f"(alpha_S3_2=11, beta_S3_2=8, beta_Q8_2=22)")


def test_criterion_4_structural_identities():
    catalog = dict(small_catalog())
    for label, g in catalog.items():
        classes = conjugacy_data(g).num_classes
        a = a_of_t(g)
        b = b_of_t(g)
        a_series = taylor(a, 9)
        b_series = taylor(b, 9)
        assert a_series[0] == 1 and b_series[0] == 1, label
        assert int(a_series[1]) == classes and int(b_series[1]) == classes, label
        assert all(x >= y for x, y in zip(a_series, b_series)), label
        assert partial_fractions(a).recombine() == a, label
        assert partial_fractions(b).recombine() == b, label
    print(f"\nACCEPTANCE 4: PASS - alpha_0=beta_0=1, alpha_1=beta_1=k(G), "
          f"alpha_n>=beta_n (n<=8), PF recombination on {len(catalog)} groups")


def test_criterion_5_equivalence_theorems():
    catalog = dict(small_catalog())
    small = {label: g for label, g in catalog.items() if g.order <= 16}
    pairs = 0
    for (l1, g1), (l2, g2) in combinations(small.items(), 2):
        same_class_eq = conjugacy_data(g1).class_equation == conjugacy_data(g2).class_equation
        assert gf_equal(a_of_t(g1), a_of_t(g2)) == same_class_eq, (l1, l2)
        pairs += 1
    assert pairs >= 100
    isoclinic_pairs = 0
    by_order: dict[int, list] = {}
    for label, g in catalog.items():
        by_order.setdefault(g.order, []).append((label, g))
    for order, groups in by_order.items():
        for (l1, g1), (l2, g2) in combinations(groups, 2):
            witness = are_isoclinic(g1, g2)
            if witness is None:
                continue
            assert witness.verify(g1, g2), (l1, l2)
            assert gf_equal(a_of_t(g1), a_of_t(g2)), (l1, l2)
            assert gf_equal(b_of_t(g1), b_of_t(g2)), (l1, l2)
            isoclinic_pairs += 1
    assert isoclinic_pairs >= 5  # includes D8/Q8 and the D32/SD32/Q32 triple
    print(f"\nACCEPTANCE 5: PASS - A-equivalence iff class equation on {pairs} pairs; "
          f"{isoclinic_pairs} isoclinic same-order pairs all A- and B-equal")


def test_criterion_6_maximal_class_2group_isoclinism():
    catalog = dict(small_catalog())
    for trio in (("D16", "SD16", "Q16"), ("D32", "SD32", "Q32")):
        for l1, l2 in combinations(trio, 2):
            witness = are_isoclinic(catalog[l1], catalog[l2])
            assert witness is not None, (l1, l2)
            assert witness.verify(catalog[l1], catalog[l2]), (l1, l2)
    print("\nACCEPTANCE 6: PASS - D/SD/Q of order 16 and 32 pairwise isoclinic, "
          "witnesses verified exhaustively")


def test_criterion_7_benchmark_sanity(tmp_path):
    from conjgf.cli import main

    out_csv = tmp_path / "bench.csv"
    code = main(["--json", "bench", "--groups", "D32", "--n-max", "2",
                 "--out", str(out_csv)])
    assert code == 0
    import csv as csvmod

    with open(out_csv, newline="", encoding="utf-8") as fh:
        rows = list(csvmod.DictReader(fh))
    eq1 = next(r for r in rows if r["strategy"] == "eq1_histogram" and r["n"] == "2")
    brute = next(r for r in rows if r["strategy"] == "brute_alpha" and r["n"] == "2")
    assert brute["count"] == eq1["count"]
    ratio = int(brute["work"]) / int(eq1["work"])
    assert ratio >= 100
    print(f"\nACCEPTANCE 7: PASS - D32 n=2 histogram summation {ratio:.0f}x cheaper "
          f"than brute force by work metric (CSV recorded)")
