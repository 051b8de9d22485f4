from __future__ import annotations

import math
import time
from fractions import Fraction

import pytest

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
from conjgf.errors import InvalidParameters
from conjgf.families import stem_group
from conjgf.genfun import a_of_t, b_of_t, normalize
from conjgf.pcp import EXACT_PRIME_LIMIT
from conjgf.ratfun import RationalGF, gf_sum
from conftest import taylor

F = Fraction


def test_central_quotient_p2_q8_d8(catalog):
    a = a_central_quotient_p2(2, 3)
    b = b_central_quotient_p2(2, 3)
    assert a == a_of_t(catalog["Q8"]) == a_of_t(catalog["D8"])
    assert b == b_of_t(catalog["Q8"]) == b_of_t(catalog["D8"])
    assert b == RationalGF.from_poly((1, -1), ((2, 1), (4, 1)))


def test_central_quotient_p2_heisenberg(catalog):
    assert a_central_quotient_p2(3, 3) == a_of_t(catalog["Heis27"])
    b = b_central_quotient_p2(3, 3)
    assert b == b_of_t(catalog["Heis27"])
    assert int(b.coefficient(1)) == 11  # class number of the extraspecial 27 group


def test_central_quotient_p3_displays():
    p = F(3)
    a = a_central_quotient_p3(3, 4, True)
    expected = gf_sum(
        [
            RationalGF.simple(p, p**4),
            RationalGF.simple(p**3 - p, p**3),
            RationalGF.simple(p**4 - p**3, p**2),
        ]
    ) * F(1, 81)
    assert a == expected


def test_central_quotient_p3_vs_groups(catalog):
    phi4 = stem_group("Phi4", 3)
    assert a_central_quotient_p3(3, 5, True) == a_of_t(phi4)
    assert b_central_quotient_p3(3, 5, True) == b_of_t(phi4)
    g4 = catalog["Gamma4a2"]
    assert a_central_quotient_p3(2, 5, True) == a_of_t(g4)
    assert b_central_quotient_p3(2, 5, True) == b_of_t(g4)
    phi6 = stem_group("Phi6", 3)
    assert a_central_quotient_p3(3, 5, False) == a_of_t(phi6)
    assert b_central_quotient_p3(3, 5, False) == b_of_t(phi6)
    # the no-abelian-max B display: (1-t)/((1-p^3 t)(1-p^2 t))
    assert b_central_quotient_p3(3, 5, False) == RationalGF.from_poly(
        (1, -1), ((9, 1), (27, 1))
    )


def test_maximal_class_vs_groups(catalog):
    for label in ("D32", "SD32", "Q32"):
        g = catalog[label]
        assert a_maximal_class(2, 5, ABELIAN_MAX) == a_of_t(g), label
        assert b_maximal_class(2, 5, ABELIAN_MAX) == b_of_t(g), label
    phi9 = stem_group("Phi9", 3)
    assert a_maximal_class(3, 5, ABELIAN_MAX) == a_of_t(phi9)
    assert b_maximal_class(3, 5, ABELIAN_MAX) == b_of_t(phi9)
    phi10 = stem_group("Phi10", 3)
    assert a_maximal_class(3, 5, P1P3_NO_ABELIAN_MAX) == a_of_t(phi10)
    assert b_maximal_class(3, 5, P1P3_NO_ABELIAN_MAX) == b_of_t(phi10)


def test_b_maximal_class_abelian_display(catalog):
    # (1/(1-2t))(1 + 7t/(1-16t) + 2t/(1-4t)) for order 32
    expected = gf_sum(
        [
            RationalGF.one(),
            RationalGF.simple(7, 16).times_t(),
            RationalGF.simple(2, 4).times_t(),
        ]
    ).over_linear(2)
    assert b_maximal_class(2, 5, ABELIAN_MAX) == expected


def test_dihedral_formulas(catalog):
    for n, label in ((4, "D8"), (8, "D16"), (16, "D32")):
        g = catalog[label]
        assert a_dihedral(n) == a_of_t(g), label
        assert b_dihedral(n) == b_of_t(g), label
    # n = 16 display: (2 - 22t + 8t^2)/(2 (1-2t)(1-16t)(1-4t))
    display = RationalGF.from_poly((2, -22, 8), ((2, 1), (16, 1), (4, 1))) * F(1, 2)
    assert b_dihedral(16) == display
    # n = 4 coincides with the central-quotient-p^2 instance at (2, 3)
    assert a_dihedral(4) == a_central_quotient_p2(2, 3)
    assert b_dihedral(4) == b_central_quotient_p2(2, 3)


def test_dihedral_rejects_odd():
    with pytest.raises(InvalidParameters):
        a_dihedral(5)
    with pytest.raises(InvalidParameters):
        b_dihedral(7)


def test_extraspecial_p5(catalog):
    a2 = a_extraspecial_p5(2)
    expected = gf_sum(
        [RationalGF.simple(2, 32), RationalGF.simple(30, 16)]
    ) * F(1, 32)
    assert a2 == expected
    assert a2 == a_of_t(catalog["Gamma5a1"])
    assert b_extraspecial_p5(2) == b_of_t(catalog["Gamma5a1"])
    phi5 = stem_group("Phi5", 3)
    assert a_extraspecial_p5(3) == a_of_t(phi5)
    assert b_extraspecial_p5(3) == b_of_t(phi5)


def test_invalid_parameters():
    with pytest.raises(InvalidParameters):
        a_central_quotient_p2(4, 3)
    with pytest.raises(InvalidParameters):
        a_central_quotient_p2(2, 2)
    with pytest.raises(InvalidParameters):
        a_central_quotient_p3(3, 4, False)
    with pytest.raises(InvalidParameters):
        a_maximal_class(3, 3, ABELIAN_MAX)
    with pytest.raises(InvalidParameters):
        b_maximal_class(3, 5, "nonsense")
    with pytest.raises(InvalidParameters):
        table_row("Gamma5", 3)
    with pytest.raises(InvalidParameters):
        table_row("Phi5", 2)
    with pytest.raises(InvalidParameters):
        table_row("Phi99", 3)


def _accepts(fn, *args) -> bool:
    try:
        fn(*args)
    except InvalidParameters:
        return False
    return True


def test_table_row_primality_at_scale():
    t0 = time.perf_counter()
    table_row("Phi5", 2**61 - 1)
    assert time.perf_counter() - t0 < 1.0
    for family, p in (("Phi5", 561), ("Phi5", 2**89 - 1), ("Gamma2", 2**89 - 1)):
        assert not _accepts(table_row, family, p), (family, p)  # Carmichael; past the exact limit; not 2
    # the closed forms accept exactly the primes trial division finds
    primes = [n for n in range(10**4 + 1) if n >= 2 and all(n % f for f in range(2, math.isqrt(n) + 1))]
    assert [n for n in range(10**4 + 1) if _accepts(b_central_quotient_p2, n, 3)] == primes
    odd = [n for n in primes if n % 2 and n < 1000]
    assert [n for n in range(1, 1000, 2) if _accepts(table_row, "Phi2", n)] == odd


def test_table_row_has_one_prime_rule():
    # `check_family` alone rules on p: past the exact limit a Phi family is
    # refused by `is_prime`, while the abelian row, which is free of p, is returned
    with pytest.raises(InvalidParameters, match="where primality is decided exactly"):
        table_row("Phi5", EXACT_PRIME_LIMIT)
    one = RationalGF.from_poly((1,), ((1, 1),))  # 1 / (1 - t)
    assert table_row("abelian", EXACT_PRIME_LIMIT) == table_row("abelian", 3) == (one, one)


def test_table_row_examples():
    a, b = table_row("Phi2", 3)
    p = F(3)
    assert a == gf_sum(
        [
            RationalGF.simple(1 - p**-2, p**-1),
            RationalGF.simple(p**-2, 1),
        ]
    )
    a5, b5 = table_row("Phi5", 5)
    q = F(5)
    assert b5 == gf_sum(
        [
            RationalGF.simple(1, q**-4),
            RationalGF.simple(-q - 1 - q**-1 - q**-2, q**-3),
            RationalGF.simple(q + 1 + q**-1 + q**-2, q**-2),
        ]
    )
    a_ab, b_ab = table_row("abelian", 7)
    assert a_ab == b_ab == RationalGF.simple(1, 1)


def test_rows_shared_between_families():
    assert table_row("Phi3", 3) == table_row("Phi4", 3)
    assert table_row("Phi7", 5) == table_row("Phi8", 5)
    assert table_row("Gamma3", 2) == table_row("Gamma4", 2)
    assert table_row("Gamma6", 2) == table_row("Gamma7", 2)


def test_table_rows_match_normalized_closed_forms():
    # every family whose A/B has a displayed closed form: evaluating the
    # formula at the stem parameters and normalizing reproduces its table row
    for p in (3, 5):
        stem5 = p**5
        cases = [
            ("Phi2", p**3, a_central_quotient_p2(p, 3), b_central_quotient_p2(p, 3)),
            ("Phi3", p**4, a_central_quotient_p3(p, 4, True), b_central_quotient_p3(p, 4, True)),
            ("Phi4", stem5, a_central_quotient_p3(p, 5, True), b_central_quotient_p3(p, 5, True)),
            ("Phi5", stem5, a_extraspecial_p5(p), b_extraspecial_p5(p)),
            ("Phi6", stem5, a_central_quotient_p3(p, 5, False), b_central_quotient_p3(p, 5, False)),
            ("Phi9", stem5, a_maximal_class(p, 5, ABELIAN_MAX), b_maximal_class(p, 5, ABELIAN_MAX)),
            ("Phi10", stem5, a_maximal_class(p, 5, P1P3_NO_ABELIAN_MAX),
             b_maximal_class(p, 5, P1P3_NO_ABELIAN_MAX)),
        ]
        for family, order, a, b in cases:
            assert table_row(family, p) == (normalize(a, order), normalize(b, order)), (family, p)
    assert table_row("Gamma2", 2) == (
        normalize(a_central_quotient_p2(2, 3), 8), normalize(b_central_quotient_p2(2, 3), 8))
    assert table_row("Gamma3", 2) == (normalize(a_dihedral(8), 16), normalize(b_dihedral(8), 16))
    assert table_row("Gamma8", 2) == (normalize(a_dihedral(16), 32), normalize(b_dihedral(16), 32))
    assert table_row("Gamma4", 2) == (
        normalize(a_central_quotient_p3(2, 5, True), 32),
        normalize(b_central_quotient_p3(2, 5, True), 32))


def test_gamma5_row_matches_generic_extraspecial_at_2():
    # the 2-group statement prints -3 - 2^-1 - 2^-2 where the generic row has
    # -p - 1 - p^-1 - p^-2; at p = 2 both equal -15/4
    _, b = table_row("Gamma5", 2)
    assert b == normalize(b_extraspecial_p5(2), 32)


def test_closed_forms_have_integer_series():
    pairs = {
        "central_quotient_p2(3, 4)": (a_central_quotient_p2(3, 4), b_central_quotient_p2(3, 4)),
        "central_quotient_p3(3, 5, abelian max)": (
            a_central_quotient_p3(3, 5, True), b_central_quotient_p3(3, 5, True)),
        "central_quotient_p3(5, 5, no abelian max)": (
            a_central_quotient_p3(5, 5, False), b_central_quotient_p3(5, 5, False)),
        "maximal_class(3, 5, abelian max)": (
            a_maximal_class(3, 5, ABELIAN_MAX), b_maximal_class(3, 5, ABELIAN_MAX)),
        "maximal_class(5, 6, P1P3)": (
            a_maximal_class(5, 6, P1P3_NO_ABELIAN_MAX), b_maximal_class(5, 6, P1P3_NO_ABELIAN_MAX)),
        "extraspecial_p5(7)": (a_extraspecial_p5(7), b_extraspecial_p5(7)),
        "dihedral(12)": (a_dihedral(12), b_dihedral(12)),
        "maximal_class(2, 6, abelian max)": (
            a_maximal_class(2, 6, ABELIAN_MAX), b_maximal_class(2, 6, ABELIAN_MAX)),
    }
    for name, (a, b) in pairs.items():
        for f in (a, b):
            series = taylor(f, 9)
            assert series[0] == 1, name
            assert all(c.denominator == 1 for c in series), name
