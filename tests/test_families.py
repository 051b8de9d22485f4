from __future__ import annotations

import hashlib
import re
import time
import tracemalloc

import pytest

from conjgf.analysis import (
    center_elements,
    conjugacy_data,
    derived_subgroup,
    element_orders,
    nilpotency_class,
)
from conjgf import families, groups
from conjgf.errors import BudgetExceeded, FingerprintMismatch, InvalidParameters
from conjgf.families import (
    ALL_FAMILIES,
    GAMMA_FAMILIES,
    PHI_FAMILIES,
    _FINGERPRINTS,
    _PRESENTATIONS,
    _check_fingerprint,
    _stem_presentation,
    abelian_group,
    build_stem_group,
    check_family,
    cyclic,
    dihedral,
    elementary_abelian,
    named_group,
    quaternion,
    semidihedral,
    stem_group,
    symmetric,
)
from conjgf.closed_forms import TABLE_ROWS, table_row
from conjgf.genfun import a_of_t, b_of_t, normalize
from conjgf.groups import certify
from conjgf.isoclinism import are_isoclinic
from conjgf.pcp import PcPresentation
from test_groups import quotient_table
from test_isoclinism import stem_order


def test_all_stem_groups_certify_and_fingerprint():
    # FingerprintMismatch must never fire on shipped catalog entries; the pc
    # build proves its tables by Hoelder's conditions, and the full certificate
    # stays the independent check of every stem group at p <= 5
    for family in GAMMA_FAMILIES:
        g = stem_group(family, 2)
        assert certify(g).ok, family
    for family in PHI_FAMILIES:
        g = stem_group(family, 3)
        assert certify(g).ok, family
        # uncached at p = 5, one order-3125 table at a time
        assert certify(build_stem_group(family, 5)).ok, family


def test_stem_groups_have_one_build_route(monkeypatch):
    # every non-abelian family, and every solvable named group, is compiled from
    # a pc presentation, which Hoelder's conditions prove: only `symmetric`
    # closes permutations, and only its closures are certified
    seen = set()

    def spy(module, name):
        real = getattr(module, name)

        def traced(*args, **kwargs):
            out = real(*args, **kwargs)
            seen.add(args[0].label if name == "certify" else out.label)
            return out

        monkeypatch.setattr(module, name, traced)

    spy(families, "build_from_permutations")
    spy(groups, "build_from_permutations")
    spy(groups, "certify")
    for family, p in [(f, 2) for f in GAMMA_FAMILIES] + [(f, 3) for f in PHI_FAMILIES]:
        build_stem_group(family, p)
    for build in (lambda: cyclic(12), lambda: abelian_group((4, 1, 3)), lambda: dihedral(12),
                  lambda: semidihedral(32), lambda: quaternion(16), lambda: elementary_abelian(3, 3),
                  lambda: build_stem_group("abelian", 5)):
        build()
    assert seen == set()
    families.small_catalog.__wrapped__()
    assert seen == {"S3", "S4"}


# sha256 of each stem group's mul, inv, generators and label: A and B are
# invariant under relabelling, so only these pins notice a presentation edit
# that keeps them
STEM_TABLE_DIGESTS = {
    ("Gamma2", 2): "399a219e8d46333a1b423f3c95c8fb0c7b8e6c930a702c53e7ac2e2066ae168c",
    ("Gamma3", 2): "99987fb2c050ee87d65455e29d7e14495a0f5a9f0a75b3c8452fb1fc719365d5",
    ("Gamma4", 2): "e2ef8ec039f1127894431de49a0e2974865fa170d13c092fbc531f92fd0321a2",
    ("Gamma5", 2): "eb938edc7a52a95ac290c025a7344c295d42cb517b3886ed7ead50ec2fa6aa4a",
    ("Gamma6", 2): "b3140361352ac38d417fddb2603075d0573927b5bcb424e8241b284af1b10d06",
    ("Gamma7", 2): "761ddd99ac22c015380e1b1d81b007e51532ac0c427798334f7f9645150faaf4",
    ("Gamma8", 2): "48eac9c4a7b1a450d42479ef3c523373e4ff63b513287e72f5aa8621b2526b34",
    ("Phi2", 3): "3858ec8199855fb7b3b9dc8a8198096e89fc0343c6a1a78e365f32e07e555277",
    ("Phi3", 3): "8967e8b979f370c7ee4aebfa55e0cb9a26f3bbe342c25f9e0f5c259827e917fe",
    ("Phi4", 3): "50413939979cf837b69d00977a7ce7314e09673c6923422eeeddb9049c391c71",
    ("Phi5", 3): "8d44efaf126517169ca25ce36d298d04dd0106d0575f34ad2c97c6ff8f997a6d",
    ("Phi6", 3): "f172a7d1e9a0636d022e6ffef1b5bb2d1647c85627464a6a955d4fe33e561bbc",
    ("Phi7", 3): "1aa09c148d600d9ff06f247c2ce79bf459825cc4af4eb6e01751a90f63a36426",
    ("Phi8", 3): "91e2fe280d5bff6934a50126bfd8507002498ee44c62b506306d7310b8c882f3",
    ("Phi9", 3): "c43b6b97e207bebae444d713a9678ae20f52ac3451373f8bcea8ea0b8cfe80c3",
    ("Phi10", 3): "47cd22c03c7d9bd9130f87217baf46c96a6769672cf5f440c5664c171eb6c9b5",
    ("Phi2", 5): "f7f85d7f77f480fb4a62a9c2808c71a1bc10979cbfa23201d9faa37094247b33",
    ("Phi3", 5): "c57a03b82ccf45917da6dfa54743eb5c4edfe0b357ae8d34077741bd3db923eb",
    ("Phi4", 5): "8eef60c46a7eda87462c1c0ad860c306703195814f98ed81ec6af311bfce2d02",
    ("Phi5", 5): "46dcec0207b67cc5994b1308ab26c2c1df31d890e876b7950d1658751b47a92b",
    ("Phi6", 5): "ea1457d6f0999366784a8a690d7b5c9b12e05a44fbc4c5d25f523b0b4d6d85e1",
    ("Phi7", 5): "b39ba8fe195160c55487743969b100b618d6b6bd8381c97626d1e1122ed661fe",
    ("Phi8", 5): "475d57110d721d715e0fa8094c9b28f5b4c8dc5af18065323a99344db7670b4c",
    ("Phi9", 5): "734a8103e956209a653c6a9254b8277733f905cfc8855455a989fc672eec1c6f",
    ("Phi10", 5): "14e4d323b4fdaeafa025c51ba70a8462d0ace3794463e5c846ad25c088695bd5",
}


def test_stem_tables_are_pinned():
    keys = set(PHI_FAMILIES + GAMMA_FAMILIES)
    assert set(_PRESENTATIONS) == keys and set(_FINGERPRINTS) == keys
    assert set(TABLE_ROWS) == keys | {"abelian"}
    # uncached: one order-3125 table at a time; `dihedral` compiles the
    # presentations of Gamma2, Gamma3 and Gamma8, label included
    builds = [(key, lambda key=key: build_stem_group(*key)) for key in STEM_TABLE_DIGESTS]
    builds += [((family, 2), lambda order=order: dihedral(order))
               for family, order in (("Gamma2", 8), ("Gamma3", 16), ("Gamma8", 32))]
    for key, build in builds:
        g = build()
        h = hashlib.sha256()
        for part in (g.mul.astype("<u2").tobytes(), g.inv.astype("<u2").tobytes(),
                     repr(g.generators).encode(), g.label.encode()):
            h.update(part)
        assert h.hexdigest() == STEM_TABLE_DIGESTS[key], (key, g.label)


def test_dihedral_stem_groups_match_the_permutation_dihedral_groups():
    for family, order in (("Gamma2", 8), ("Gamma3", 16), ("Gamma8", 32)):
        g = stem_group(family, 2)
        assert g.label == f"D{order}"
        assert (a_of_t(g), b_of_t(g)) == (a_of_t(dihedral(order)), b_of_t(dihedral(order))), family
        for h in (dihedral(order), quaternion(order)):
            witness = are_isoclinic(g, h)
            assert witness is not None and witness.verify(g, h), (family, h.label)


def test_stem_order_equals_rank_order():
    for family in GAMMA_FAMILIES:
        g = stem_group(family, 2)
        assert stem_order(g) == g.order, family
    for family in PHI_FAMILIES:
        g = stem_group(family, 3)
        assert stem_order(g) == g.order, family


def test_gamma5_extraspecial():
    g = stem_group("Gamma5", 2)
    assert g.order == 32
    z = center_elements(g)
    assert len(z) == 2
    assert set(derived_subgroup(g)) == set(z)
    q, _, _ = quotient_table(g, z)
    assert (q.mul == q.mul.T).all() and (element_orders(q) <= 2).all()


def test_phi2_central_quotient():
    g = stem_group("Phi2", 3)
    assert g.order == 27
    assert g.order // len(center_elements(g)) == 9


def test_phi5_quotient_elementary_abelian():
    g = stem_group("Phi5", 3)
    z = center_elements(g)
    assert len(z) == 3
    q, _, _ = quotient_table(g, z)
    assert q.order == 81 and (q.mul == q.mul.T).all()
    assert set(element_orders(q).tolist()) <= {1, 3}


def test_phi8_center_is_cube_of_beta():
    g = stem_group("Phi8", 3)
    assert g.order == 243
    # generators are a1, a2, b with exponent-vector indexing: b^3 has index 3
    assert set(center_elements(g)) == {0, 3, 6}


def test_named_groups():
    q8 = quaternion(8)
    assert conjugacy_data(q8).class_equation == (1, 1, 2, 2, 2)
    sd16 = semidihedral(16)
    assert sd16.order == 16
    assert nilpotency_class(sd16) == 3
    assert cyclic(1).order == 1
    assert symmetric(4).order == 24
    assert elementary_abelian(2, 4).order == 16
    assert abelian_group((4, 2)).order == 8


def test_named_group_dispatch():
    assert named_group("dihedral", 8).order == 8
    assert named_group("cyclic", 6).order == 6
    assert named_group("elementary_abelian", 8).order == 8  # parsed as 2^3
    assert named_group("symmetric", 3).order == 6
    # the catalog families share the one dispatch and the stem-group cache
    assert named_group("Phi2", 3) is stem_group("Phi2", 3)
    assert named_group("abelian", 6).label == "C6"
    with pytest.raises(InvalidParameters):
        named_group("frobnicator", 3)
    with pytest.raises(InvalidParameters):
        named_group("elementary_abelian", 12)


def test_order_cap_admits_every_rank_5_group_at_p_7():
    # the budget is one order-7^5 table: order 16 807 is admitted and 16 808 refused
    assert groups.MEMORY_BUDGET == groups.table_bytes(7**5) == 564_950_498
    groups.check_budget("order 16807", groups.table_bytes(7**5))
    with pytest.raises(BudgetExceeded, match="needs 565017728 bytes, over the budget of 564950498 bytes"):
        PcPresentation(relative_orders=(7**5 + 1,), power_words=(None,))
    # a presentation validates itself and checks the budget on construction; nothing is built
    for family in PHI_FAMILIES:
        assert _stem_presentation(family, 7).compiled_order() == 7 ** _FINGERPRINTS[family][0]
        if family in ("Phi2", "Phi3"):  # 11^3 and 11^4 stay under the budget
            assert _stem_presentation(family, 11).compiled_order() == 11 ** _FINGERPRINTS[family][0]
        else:
            with pytest.raises(BudgetExceeded):
                _stem_presentation(family, 11)


def test_small_stem_groups_at_p_7_match_the_table():
    # orders 343 and 2401: the rank-5 groups at p = 7 are left to `verify-table --p 7`
    for family in ("Phi2", "Phi3"):
        g = build_stem_group(family, 7)
        assert g.order == 7 ** _FINGERPRINTS[family][0]
        assert (normalize(a_of_t(g), g.order), normalize(b_of_t(g), g.order)) == table_row(family, 7)


def test_invalid_family_parameters():
    with pytest.raises(InvalidParameters):
        stem_group("Gamma3", 3)
    with pytest.raises(InvalidParameters):
        stem_group("Phi5", 2)
    with pytest.raises(InvalidParameters):
        stem_group("Phi5", 9)  # not a prime
    with pytest.raises(InvalidParameters):
        stem_group("Phi1", 3)
    with pytest.raises(InvalidParameters):
        dihedral(7)
    with pytest.raises(InvalidParameters):
        semidihedral(8)
    with pytest.raises(InvalidParameters):
        quaternion(12)
    with pytest.raises(InvalidParameters):
        elementary_abelian(4, 2)  # checked after the budget, before the build


def test_fingerprint_guard_fires(monkeypatch):
    g = stem_group("Phi5", 3)
    monkeypatch.setitem(_FINGERPRINTS, "Phi5", (5, 2, 1, 2, False))  # |Z| = 9
    want = "Phi5(p=3): built (order,|Z|,|G'|,class)=(243, 3, 3, 2), expected (243, 9, 3, 2)"
    with pytest.raises(FingerprintMismatch, match=re.escape(want)):
        _check_fingerprint(g, "Phi5", 3)


def test_fingerprint_guard_names_the_abelian_maximal_flags(monkeypatch):
    for family, p, built in (("Phi5", 3, False), ("Phi2", 3, True), ("Gamma8", 2, True)):
        g = stem_group(family, p)
        monkeypatch.setitem(_FINGERPRINTS, family, _FINGERPRINTS[family][:4] + (not built,))
        want = f"{family}(p={p}): built abelian-maximal-subgroup flag {built}, expected {not built}"
        with pytest.raises(FingerprintMismatch, match=re.escape(want)):
            _check_fingerprint(g, family, p)


@pytest.mark.parametrize("entry", range(5), ids=["rank", "center", "derived", "class", "abelian max"])
def test_fingerprint_guard_checks_every_entry(monkeypatch, entry):
    record = list(_FINGERPRINTS["Phi6"])
    record[entry] = not record[entry] if entry == 4 else record[entry] + 1
    monkeypatch.setitem(_FINGERPRINTS, "Phi6", tuple(record))
    with pytest.raises(FingerprintMismatch, match=re.escape("Phi6(p=3): built ")):
        build_stem_group("Phi6", 3)


def test_fingerprint_record_shapes():
    rank, z, d, cls, abmax = _FINGERPRINTS["Phi6"]
    assert (rank, z, d, cls, abmax) == (5, 2, 3, 3, False)
    assert (3**rank, 3**z, 3**d) == (243, 9, 27)
    assert _FINGERPRINTS["Gamma8"][4] is True
    assert len(ALL_FAMILIES) == 17


def test_maximal_class_trio_same_functions(catalog):
    for n, labels in ((16, ("D16", "SD16", "Q16")), (32, ("D32", "SD32", "Q32"))):
        groups = [catalog[lbl] for lbl in labels]
        a0, b0 = a_of_t(groups[0]), b_of_t(groups[0])
        for g in groups[1:]:
            assert a_of_t(g) == a0, (n, g.label)
            assert b_of_t(g) == b0, (n, g.label)


# (degree, generators) of a permutation closure, or None for a pc build's table
@pytest.mark.parametrize("build, order, closure", [
    (lambda: cyclic(12), 12, None),
    (lambda: abelian_group((4, 3)), 12, None),
    (lambda: build_stem_group("abelian", 13), 13, None),
    (lambda: dihedral(12), 12, None),
    (lambda: semidihedral(16), 16, None),
    (lambda: quaternion(16), 16, None),
    (lambda: symmetric(4), 24, (4, 2)),
    (lambda: elementary_abelian(2, 4), 16, None),
    (lambda: named_group("elementary_abelian", 16), 16, None),
], ids=["cyclic", "abelian_group", "abelian family", "dihedral", "semidihedral",
        "quaternion", "symmetric", "elementary_abelian", "named elementary_abelian"])
def test_constructor_order_cap_at_its_edge(monkeypatch, build, order, closure):
    estimate = groups.table_bytes(order) if closure is None else groups.closure_bytes(order, *closure)
    monkeypatch.setattr(groups, "MEMORY_BUDGET", estimate - 1)
    with pytest.raises(BudgetExceeded, match=f"needs {estimate} bytes"):
        build()
    monkeypatch.setattr(groups, "MEMORY_BUDGET", estimate)
    assert build().order == order


def test_oversized_integers_are_refused_at_once():
    # the estimate of C(10^2200) has 4401 digits, past what Python writes; the
    # order of C2^(10^6) is multiplied out only to the first factor over the budget
    for build, message in ((lambda: cyclic(10**2200), "needs over 2^14617 bytes"),
                           (lambda: elementary_abelian(2, 10**6), "C2^1000000 needs 2147483648 bytes")):
        start = time.perf_counter()
        with pytest.raises(BudgetExceeded, match=re.escape(message)):
            build()
        assert time.perf_counter() - start < 1


def test_elementary_abelian_checks_the_budget_before_listing_factors():
    # C2^(10^7)'s order is multiplied out to 2^15 and refused, without a tuple of 10^7 factors
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded, match=re.escape("C2^10000000 needs 2147483648 bytes")):
            elementary_abelian(2, 10**7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak


@pytest.mark.parametrize("build", [
    lambda: cyclic(10**5000),
    lambda: abelian_group((10**5000,)),
    lambda: dihedral(2 * 10**5000),
    lambda: semidihedral(2**20000),
    lambda: quaternion(2**20000),
    lambda: symmetric(10**5000),
    lambda: elementary_abelian(10**5000 + 1, 1),
    lambda: named_group("elementary_abelian", 10**5000),
], ids=["cyclic", "abelian_group", "dihedral", "semidihedral", "quaternion", "symmetric", "elementary_abelian",
        "named elementary_abelian"])
def test_orders_past_what_python_writes_are_over_the_budget(build):
    # a 5000-digit order is past Python's 4300-digit limit: the label shows it by its bit length
    with pytest.raises(BudgetExceeded, match=r"over 2\^\d+.* needs over 2\^\d+ bytes"):
        build()


def test_oversized_requests_fail_before_building():
    # each of these used to build permutations or trial-divide until it hung
    # or ran out of memory; 2^89 - 1 is prime
    from conjgf.groupspec import group_from_spec

    huge = 2**89 - 1
    for build in (
        lambda: group_from_spec({"kind": "family", "name": "cyclic", "p": 7**5 + 1}),
        lambda: stem_group("Phi5", 11),
        lambda: stem_group("abelian", 10**12),
        lambda: abelian_group((10**6, 10**6)),
        lambda: dihedral(10**12),
        lambda: semidihedral(2**89),
        lambda: quaternion(2**89),
        lambda: symmetric(10**9),
        lambda: elementary_abelian(huge, 1),
        lambda: named_group("elementary_abelian", huge),
    ):
        with pytest.raises(BudgetExceeded):
            build()
    for p in (huge, 10**5000 + 1):  # the second is past what Python writes: named by its bit length
        with pytest.raises(InvalidParameters):
            check_family("Phi5", p)
