from __future__ import annotations

import tracemalloc
from fractions import Fraction
from itertools import combinations_with_replacement

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conjgf import genfun
from conjgf.analysis import center_elements, commuting_cosets, conjugacy_data
from conjgf.errors import InvalidParameters, LagrangeViolation
from conjgf.families import cyclic, stem_group, symmetric
from conjgf.genfun import (
    a_equivalent,
    a_of_t,
    alpha_coefficient,
    b_equivalent,
    b_of_t,
    beta_coefficient,
    gf_equal,
    normalize,
)
from conjgf.groups import LINE_BLOCK, GroupTable
from conjgf.ratfun import RationalGF, gf_sum, partial_fractions
from test_analysis import centralizer_orders
from test_groups import quotient_table
from conftest import taylor

F = Fraction


def expected_a_d16():
    return gf_sum(
        [
            RationalGF.simple(2, 16),
            RationalGF.simple(8, 4),
            RationalGF.simple(6, 8),
        ]
    ) * F(1, 16)


def expected_b_d16():
    inner = gf_sum(
        [
            RationalGF.one(),
            RationalGF.simple(3, 8).times_t(),
            RationalGF.simple(2, 4).times_t(),
        ]
    )
    return inner.over_linear(2)


def test_a_trivial_group():
    assert a_of_t(cyclic(1)) == RationalGF.simple(1, 1)


def test_a_d16_matches_display(catalog):
    assert a_of_t(catalog["D16"]) == expected_a_d16()


def test_b_d16_matches_display(catalog):
    assert b_of_t(catalog["D16"]) == expected_b_d16()


def test_a_s3_series(catalog):
    s3 = catalog["S3"]
    f = a_of_t(s3)
    assert [int(c) for c in taylor(f, 3)] == [1, 3, 11]
    expected = gf_sum(
        [RationalGF.simple(1, 6), RationalGF.simple(2, 3), RationalGF.simple(3, 2)]
    ) * F(1, 6)
    assert f == expected


def test_b_s3_series(catalog):
    s3 = catalog["S3"]
    f = b_of_t(s3)
    expected = (
        gf_sum(
            [
                RationalGF.one(),
                RationalGF.simple(1, 2).times_t(),
                RationalGF.simple(1, 3).times_t(),
            ]
        )
    ).over_linear(1)
    assert f == expected
    assert [int(c) for c in taylor(f, 3)] == [1, 3, 8]


def test_alpha_coefficients(catalog):
    s3 = catalog["S3"]
    assert alpha_coefficient(s3, 0) == 1
    assert alpha_coefficient(s3, 1) == 3
    assert alpha_coefficient(s3, 2) == 11
    assert alpha_coefficient(catalog["D16"], 2) == (2 * 16**2 + 6 * 8**2 + 8 * 4**2) // 16
    assert alpha_coefficient(catalog["D16"], 2) == 64


def test_beta_coefficients(catalog):
    assert beta_coefficient(catalog["S3"], 2) == 8
    # both independent paths give 22 for Q8 at n = 2: the closed form
    # (1-t)/((1-2t)(1-4t)) and the brute-force orbit count
    closed = RationalGF.from_poly((1, -1), ((2, 1), (4, 1)))
    assert b_of_t(catalog["Q8"]) == closed
    assert int(closed.coefficient(2)) == 22
    assert beta_coefficient(catalog["Q8"], 2) == 22
    assert beta_coefficient(catalog["Q8"], 0) == 1


def test_abelian_b_is_single_pole(catalog):
    for label in ("C8", "C12", "C3xC3", "C2^5"):
        g = catalog[label]
        assert b_of_t(g) == RationalGF.simple(1, g.order), label


def test_alpha_equals_series_coefficient(catalog):
    # slow path: alpha_n = sum over classes of |cls| |C(x)|^n / |G|, from the class data
    for label, g in catalog.items():
        cd = conjugacy_data(g)
        for n in range(9):
            total = sum(len(cls) * m**n for cls, m in zip(cd.classes, cd.centralizer_sizes))
            assert total % g.order == 0, (label, n)
            assert alpha_coefficient(g, n) == total // g.order, (label, n)


def test_non_integral_coefficient_is_an_error():
    # not a group: 1 and 2 do not commute, yet nothing else is wrong with the
    # commuting block, so alpha_1 = (3 + 2 + 2)/3 and beta_1 = c_2/|G| = 7/3
    mul = np.array([[0, 1, 2], [1, 2, 0], [2, 1, 0]], dtype=np.uint16)
    g = GroupTable(3, mul, np.array([0, 2, 1], dtype=np.uint16), (1, 2), "not a group")
    assert alpha_coefficient(g, 0) == beta_coefficient(g, 0) == 1
    for coefficient in (alpha_coefficient, beta_coefficient):
        with pytest.raises(ArithmeticError):
            coefficient(g, 1)
        with pytest.raises(InvalidParameters):
            coefficient(g, -1)


def test_series_sanity_on_catalog(catalog):
    for label, g in catalog.items():
        a = taylor(a_of_t(g), 9)
        b = taylor(b_of_t(g), 9)
        assert a[0] == 1 and b[0] == 1, label
        classes = conjugacy_data(g).num_classes
        assert int(a[1]) == classes and int(b[1]) == classes, label
        assert all(x >= y for x, y in zip(a, b)), label


def test_normalize_examples(catalog):
    n = 7
    assert normalize(RationalGF.simple(1, n), n) == RationalGF.simple(1, 1)
    a16 = normalize(a_of_t(catalog["D16"]), 16)
    expected = gf_sum(
        [
            RationalGF.simple(F(1, 2), F(1, 4)),
            RationalGF.simple(F(3, 8), F(1, 2)),
            RationalGF.simple(F(1, 8), 1),
        ]
    )
    assert a16 == expected
    f = a_of_t(catalog["S3"])
    assert normalize(f, 1) == f


@pytest.mark.parametrize("order", [0, -6])
def test_normalize_rejects_a_nonpositive_order(order):
    with pytest.raises(InvalidParameters, match="order must be positive"):
        normalize(RationalGF.simple(1, 2), order)


def test_equivalences(catalog):
    assert a_equivalent(catalog["D8"], catalog["Q8"])
    assert b_equivalent(catalog["D8"], catalog["Q8"])
    assert not a_equivalent(catalog["C6"], catalog["S3"])
    assert not b_equivalent(catalog["C6"], catalog["S3"])
    assert gf_equal(a_of_t(catalog["D8"]), a_of_t(catalog["Q8"]))


def test_a_equivalence_iff_class_equation(catalog):
    d8, q8 = catalog["D8"], catalog["Q8"]
    assert conjugacy_data(d8).class_equation == conjugacy_data(q8).class_equation == (1, 1, 2, 2, 2)


def test_partial_fractions_of_a_d16(catalog):
    pf = partial_fractions(a_of_t(catalog["D16"]))
    assert pf.terms == (
        (F(1, 2), F(4), 1),
        (F(3, 8), F(8), 1),
        (F(1, 8), F(16), 1),
    )


def test_gamma6_gamma7_displays(catalog):
    # A = (1/32)(2/(1-32t) + 6/(1-16t) + 24/(1-8t)), B = (1-t)/((1-8t)(1-4t))
    expected_a = gf_sum(
        [
            RationalGF.simple(2, 32),
            RationalGF.simple(6, 16),
            RationalGF.simple(24, 8),
        ]
    ) * F(1, 32)
    expected_b = RationalGF.from_poly((1, -1), ((8, 1), (4, 1)))
    for label in ("Gamma6a1", "Gamma7a1"):
        assert a_of_t(catalog[label]) == expected_a, label
        assert b_of_t(catalog[label]) == expected_b, label


def test_b_recursion_rejects_a_row_over_half_its_block():
    # each of four cosets fails to commute with one other, so every row holds
    # three of the four, which no proper subgroup of a group of order 4 allows
    block = ~np.eye(4, dtype=bool)[::-1]
    with pytest.raises(LagrangeViolation, match="row 3 of K commutes with 3 of its node's 4 cosets"):
        genfun._commuting_sum(block, np.arange(4), {})


def test_b_sums_each_node_shape_once(monkeypatch):
    # Phi5(5)'s 156 child nodes are isomorphic: each is computed on its own
    # element set, but their S~ and N~ are summed once, by (central, terms) shape
    g0 = stem_group("Phi5", 5)
    g = GroupTable(g0.order, g0.mul, g0.inv, g0.generators, g0.label)
    calls: dict[str, list] = {"gf_sum": [], "_commuting_sum": [], "_count_series": []}

    def spy(name):
        fn = getattr(genfun, name)

        def logged(*args):
            calls[name].append(frozenset(args[0]) if name == "gf_sum" else args[:2])
            return fn(*args)
        monkeypatch.setattr(genfun, name, logged)

    for name in calls:
        spy(name)
    sums, nodes, counts = calls.values()
    b, work = genfun.b_and_work(g)
    assert b == RationalGF.from_poly((1, 474, 5), ((5, 1), (25, 1), (125, 1)))
    assert work == 1249
    assert len(nodes) == 157
    # the top node and one child shape: no sum or series is computed twice
    assert len(sums) == len(set(sums)) == 2
    # the child shape's N~, then the top node's own
    assert len(counts) == len(set(counts)) == 2


def _commuting_counts(g: GroupTable) -> tuple[int, int]:
    """(c_2, c_3), the numbers of commuting pairs and pairwise commuting triples,
    counted from the commuting block alone: c_3 = sum over commuting (x, y)
    of |C(x) & C(y)|, by popcounts of bit-packed centralizer rows."""
    block = g.mul == g.mul.T
    packed = np.packbits(block, axis=1)
    c3 = 0
    for x in range(g.order):
        c3 += int(np.bitwise_count(packed[block[x]] & packed[x]).sum())
    return int(block.sum()), c3


def test_b_against_commuting_counts(survey):
    # Burnside: beta_n |G| = c_(n+1), the number of commuting (n+1)-tuples
    for g in survey:
        c2, c3 = _commuting_counts(g)
        series = taylor(b_of_t(g), 3)
        assert (series[1] * g.order, series[2] * g.order) == (c2, c3), g.label


def test_beta_1_and_2_from_the_commuting_block(survey):
    # c_2 = |Z|^2 sum K and c_3 = |Z|^3 sum K o (K K) over the cosets of Z(G);
    # each sum is at most R^3 <= 720^3 < 2^53, so a float64 product is exact
    for g in survey:
        k = commuting_cosets(g).astype(np.float64)
        z = g.order // len(k)
        c2, c3 = z**2 * int(k.sum()), z**3 * int((k * (k @ k)).sum())
        assert (g.order * beta_coefficient(g, 1), g.order * beta_coefficient(g, 2)) == (c2, c3), g.label


def direct_product(g: GroupTable, h: GroupTable) -> GroupTable:
    """G x H on the indices a |H| + b, generated by the (s, 1) and the (1, t)."""
    n = h.order
    mul = g.mul[:, None, :, None].astype(np.intp) * n + h.mul[None, :, None, :]
    gens = [s * n for s in g.generators if s] + [t for t in h.generators if t]
    return GroupTable(order=g.order * n, mul=mul.reshape(g.order * n, -1).astype(g.mul.dtype),
                      inv=(g.inv[:, None].astype(np.intp) * n + h.inv).ravel().astype(g.inv.dtype),
                      generators=tuple(gens) or (0,), label=f"{g.label}x{h.label}")


def test_product_identities_without_an_oracle(catalog):
    # conjugacy in G x H is coordinatewise, so alpha and beta multiply, A of the
    # product is the Hadamard product of the stored terms, and an abelian factor
    # of order k only rescales t by k
    pairs = [(g, h) for g, h in combinations_with_replacement(catalog.values(), 2) if g.order * h.order <= 256]
    assert len(pairs) == 395
    for g, h in pairs:
        gh = direct_product(g, h)
        hadamard = gf_sum([RationalGF.simple(c * d, m * n)
                           for m, _, c in a_of_t(g).terms for n, _, d in a_of_t(h).terms])
        assert a_of_t(gh) == hadamard, gh.label
        assert [beta_coefficient(gh, n) for n in range(6)] == [
            beta_coefficient(g, n) * beta_coefficient(h, n) for n in range(6)], gh.label
        for x, y in ((g, h), (h, g)):
            if len(center_elements(y)) == y.order:
                assert (a_of_t(gh), b_of_t(gh)) == (a_of_t(x).scale_t(y.order), b_of_t(x).scale_t(y.order)), gh.label


def _traced_b_peak(g: GroupTable) -> int:
    tracemalloc.start()
    try:
        b_of_t(g)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_b_memory_and_cache_on_order_3125():
    # a fresh copy of the table, so its cache starts empty and nothing is reused
    g0 = stem_group("Phi5", 5)
    g = GroupTable(g0.order, g0.mul, g0.inv, g0.generators, g0.label)
    peak = _traced_b_peak(g)
    r = g.order // len(center_elements(g))
    assert r == 625
    assert peak <= 2 * g.order**2, peak
    # the block is R x R over G/Z(G), never n x n
    assert peak <= 6 * r**2, peak
    # the only array kept on the table is the memoized R x R bool block
    kept = [a for v in g._cache.values() for a in (v if isinstance(v, tuple) else (v,))
            if isinstance(a, np.ndarray)]
    assert [(a.shape, a.dtype) for a in kept] == [((r, r), np.dtype(bool))], set(g._cache)
    assert b_of_t(g) == b_of_t(g0)
    # Z(S6) is trivial, so R = n: the table is compared with its transpose, never copied
    s6 = symmetric(6)
    assert len(center_elements(s6)) == 1
    peak = _traced_b_peak(s6)
    assert peak <= 3 * s6.order**2, peak


def test_commuting_block_of_groups(survey):
    # the block on G/Z(G), read through each element's coset, is the whole commuting block
    sizes = set()
    for g in survey:
        block = commuting_cosets(g)
        _, _, coset_of = quotient_table(g, center_elements(g))
        assert np.array_equal(block[np.ix_(coset_of, coset_of)], g.mul == g.mul.T), g.label
        sizes.add((len(block), len(block) == g.order))
    # the block is filled LINE_BLOCK rows at a time: R below it (Phi(3)), R not a
    # multiple of it (Phi(5)), and R = n, where nothing is gathered (S5, S6)
    assert {(81, False), (625, False), (120, True), (720, True)} <= sizes
    assert 81 < LINE_BLOCK and 625 % LINE_BLOCK


def test_centralizer_histogram_against_classes(survey):
    # slow path: each conjugacy class contributes its size at its centralizer order
    for g in survey:
        cd = conjugacy_data(g)
        hist: dict[int, int] = {}
        for cls, m in zip(cd.classes, cd.centralizer_sizes):
            hist[m] = hist.get(m, 0) + len(cls)
        assert centralizer_orders(g) == hist, g.label


@given(st.randoms(use_true_random=False))
@settings(max_examples=20, deadline=None)
def test_functions_invariant_under_relabeling(rng):
    # A and B are isomorphism invariants, so an arbitrary relabeling of the
    # element indices (identity staying at 0) must not change them
    from conjgf.families import dihedral, symmetric
    from conjgf.groups import build_from_cayley

    base = dihedral(12) if rng.random() < 0.5 else symmetric(3)
    perm = list(range(1, base.order))
    rng.shuffle(perm)
    sigma = [0] + perm
    inverse = [0] * base.order
    for i, v in enumerate(sigma):
        inverse[v] = i
    table = [
        [sigma[int(base.mul[inverse[i], inverse[j]])] for j in range(base.order)]
        for i in range(base.order)
    ]
    relabeled = build_from_cayley(table, label=f"{base.label}-relabeled")
    assert a_of_t(relabeled) == a_of_t(base)
    assert b_of_t(relabeled) == b_of_t(base)
