from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conjgf import ratfun
from conjgf.errors import InvalidParameters
from conjgf.families import small_catalog
from conjgf.genfun import a_of_t, b_of_t, normalize
from conjgf.ratfun import RationalGF, partial_fractions
from conftest import taylor

F = Fraction


def _exact(v) -> bool:
    """int when integral, else a Fraction that is not; never float."""
    return type(v) is int or (type(v) is Fraction and v.denominator != 1)


def _gf_values(f: RationalGF) -> tuple:
    return f.numerator + tuple(m for m, _ in f.poles)


def _pf_values(pf) -> tuple:
    return pf.poly + tuple(v for c, m, _ in pf.terms for v in (c, m))


def test_simple_series():
    f = RationalGF.simple(1, 2)
    assert taylor(f, 5) == (1, 2, 4, 8, 16)


def test_reduction_cancels_common_factor():
    # (1 - 2t) / ((1 - 2t)(1 - 3t)) reduces to 1 / (1 - 3t)
    f = RationalGF.from_poly((1, -2), ((2, 1), (3, 1)))
    assert f == RationalGF.simple(1, 3)
    assert f.poles == ((F(3), 1),)


def test_addition_matches_series():
    f = RationalGF.simple(1, 2) + RationalGF.simple(3, 5)
    expected = tuple(2**n + 3 * 5**n for n in range(6))
    assert taylor(f, 6) == expected


def test_multiplication_and_scalar():
    f = RationalGF.from_poly((1,), ((2, 2),))  # 1/(1-2t)^2
    g = f * F(1, 2)
    assert taylor(g, 2) == (F(1, 2), 2)
    with pytest.raises(InvalidParameters):  # only scalars multiply
        f * f


def test_times_t_and_over_linear():
    f = RationalGF.one().times_t().over_linear(3)
    assert taylor(f, 4) == (0, 1, 3, 9)


def test_scale_t_is_exact():
    f = RationalGF.simple(1, 16)
    g = f.scale_t(F(1, 16))
    assert g == RationalGF.simple(1, 1)
    assert all(m.denominator == 1 for m, _ in g.poles)
    h = f.scale_t(F(1, 8))
    assert h.poles == ((F(2), 1),)


def test_zero_and_identity_substitution():
    z = RationalGF((), ())
    assert z == RationalGF.from_poly((0,)) == RationalGF.simple(0, 3) and z.poles == ()
    f = RationalGF.from_poly((1, -3), ((2, 1), (7, 1)))
    assert f.scale_t(1) == f


def test_equality_is_canonical():
    a = RationalGF.simple(2, 3) + RationalGF.simple(-1, 3)
    b = RationalGF.simple(1, 3)
    assert a == b
    assert hash(a) == hash(b)


def test_partial_fractions_frozen_example():
    # (1 - t)/((1 - 2t)(1 - 4t)) = (-1/2)/(1 - 2t) + (3/2)/(1 - 4t)
    f = RationalGF.from_poly((1, -1), ((2, 1), (4, 1)))
    pf = partial_fractions(f)
    assert pf.poly == ()
    assert pf.terms == ((F(-1, 2), F(2), 1), (F(3, 2), F(4), 1))
    assert pf.recombine() == f


def test_partial_fractions_single_term():
    pf = partial_fractions(RationalGF.simple(1, 1))
    assert pf.terms == ((F(1), F(1), 1),)


def test_partial_fractions_with_multiplicity():
    f = RationalGF.from_poly((1, 1), ((2, 2), (5, 1)))
    pf = partial_fractions(f)
    assert pf.recombine() == f
    assert {(m, e) for _, m, e in pf.terms} <= {(F(2), 1), (F(2), 2), (F(5), 1)}


def test_partial_fractions_polynomial_part():
    # t^2 has no poles at all
    f = RationalGF.from_poly((0, 0, 1), ())
    pf = partial_fractions(f)
    assert pf.poly == (0, 0, 1)
    assert pf.terms == ()


def test_payload_shapes():
    f = RationalGF.from_poly((1, F(-1, 2)), ((2, 1),))
    payload = f.to_payload()
    assert payload == {"numerator": ["1", "-1/2"], "denominator": [["2", 1]]}
    proper = RationalGF.from_poly((1, 1), ((2, 1), (3, 1)))
    assert all(len(term) == 5 for term in partial_fractions(proper).to_payload())
    # improper fractions carry their polynomial part as a trailing entry
    improper = partial_fractions(f).to_payload()
    assert improper[-1] == {"poly": ["1/4"]}


def test_payload_then_display_builds_the_numerator_once(monkeypatch):
    # the CLI prints to_payload() and str() of one value; the second reads the
    # first's numerator and poles, and == and hash still read the fields alone
    f = RationalGF.from_poly((1, -1), ((8, 1), (4, 2)))
    fresh = RationalGF(f.poly, f.terms)
    want = str(fresh)
    payload = f.to_payload()

    def rebuilt(*args):
        raise AssertionError("numerator rebuilt")

    monkeypatch.setattr(ratfun, "_pmul", rebuilt)
    monkeypatch.setattr(ratfun, "_divmod_linear", rebuilt)
    assert str(f) == want
    assert f.to_payload() == payload
    assert f == fresh and hash(f) == hash(fresh)


def _rationals(lo: int, hi: int, dens: tuple[int, ...]):
    """Fractions n/d with n in [lo, hi]; many are integral."""
    return st.builds(F, st.integers(lo, hi), st.sampled_from(dens))


@st.composite
def rational_gfs(draw):
    num = draw(st.lists(_rationals(-6, 6, (1, 1, 2, 3)), min_size=1, max_size=4))
    poles = draw(
        st.lists(
            st.tuples(_rationals(1, 6, (1, 1, 2)), st.integers(1, 2)), min_size=0, max_size=3
        )
    )
    return RationalGF.from_poly(tuple(num), tuple(poles))


@pytest.mark.parametrize("bad", [0.5, 2.7, 2.0, True, False, "1", None])
def test_non_exact_values_are_rejected(bad):
    # int() used to truncate these: simple(0.5, 2) was 0, simple(1, 2.7) had
    # pole 2 and simple(True, 3) was 1/(1 - 3t)
    f = RationalGF.simple(1, 2)
    for make in (lambda: RationalGF.simple(bad, 3), lambda: RationalGF.simple(1, bad),
                 lambda: RationalGF.from_poly((1, bad), ((2, 1),)), lambda: f * bad,
                 lambda: f.scale_t(bad), lambda: f.over_linear(bad)):
        with pytest.raises(InvalidParameters):
            make()


@pytest.mark.parametrize("pole", [0, -2, F(-1, 3)], ids=["0", "-2", "-1/3"])
def test_nonpositive_poles_are_rejected(pole):
    f = RationalGF.simple(1, 2)
    for make in (lambda: RationalGF.simple(1, pole), lambda: RationalGF.from_poly((1,), ((pole, 1),)),
                 lambda: f.over_linear(pole), lambda: f.scale_t(pole)):
        with pytest.raises(InvalidParameters, match="pole parameter must be positive"):
            make()


def test_integral_values_are_stored_as_int():
    f = RationalGF.simple(np.int64(3), np.uint16(4)) * F(4, 2)
    assert f.numerator == (6,) and f.poles == ((4, 1),)
    assert all(type(v) is int for v in _gf_values(f))
    g = RationalGF.from_poly((F(1, 2), F(6, 3)), ((F(4, 2), 1), (F(1, 3), 1)))
    assert [type(v) for v in _gf_values(g)] == [Fraction, int, Fraction, int]


@given(rational_gfs(), rational_gfs(), _rationals(-4, 4, (1, 1, 3)),
       _rationals(1, 6, (1, 2)), st.sampled_from((-2, -1, 1, 3)))
@settings(max_examples=80, deadline=None)
def test_values_stay_int_or_fraction_through_every_operation(f, g, c, m, lead):
    # a term above f's numerator degree leaves a polynomial part
    improper = f + RationalGF.from_poly((0,) * len(f.numerator) + (lead,), ())
    assert partial_fractions(improper).poly
    results = [f + g, f * c, f * 3, f.scale_t(m), f.scale_t(2),
               f.over_linear(m), f.times_t(), improper, improper.over_linear(m)]
    for h in results:
        _check_normal_form(h)
        assert all(_exact(v) for v in _gf_values(h)), h
        pf = partial_fractions(h)
        assert all(_exact(v) for v in _pf_values(pf)), pf
        assert pf.recombine() == h


def _vanishes_at_inverse(a: tuple, m) -> bool:
    """a(1/m) == 0, tested without dividing as sum a_k m^(deg-k) == 0 (Horner)."""
    acc = 0
    for c in a:
        acc = acc * m + c
    return acc == 0


def _check_normal_form(f: RationalGF) -> None:
    """One term per (m, e), sorted, each c != 0; the numerator read back is
    reduced and rebuilds f."""
    keys = [(m, e) for m, e, _ in f.terms]
    assert keys == sorted(set(keys)), f.terms
    assert all(m > 0 and e >= 1 and c != 0 for m, e, c in f.terms), f.terms
    assert not f.poly or f.poly[-1] != 0, f.poly
    assert not any(_vanishes_at_inverse(f.numerator, m) for m, _ in f.poles), f
    assert RationalGF.from_poly(f.numerator, f.poles) == f


@given(rational_gfs(), _rationals(1, 6, (1, 2)))
@settings(max_examples=25, deadline=None)
def test_numerator_and_poles_match_sympy_cancel(f, m):
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    q = lambda x: sympy.Rational(x.numerator, x.denominator)  # noqa: E731
    for h in (f, f.times_t(), f.over_linear(m), f.over_linear(m).over_linear(m), f.scale_t(m)):
        _check_normal_form(h)
        # the sum of h's own terms, cancelled, with the denominator's constant term 1
        expr = sum(q(c) * t**k for k, c in enumerate(h.poly)) + sum(
            q(c) / (1 - q(p) * t) ** e for p, e, c in h.terms)
        num, den = sympy.fraction(sympy.cancel(sympy.together(expr)))
        lead = den.subs(t, 0)
        num, den = sympy.Poly(num / lead, t), sympy.Poly(den / lead, t)
        got_den = sympy.Mul(*[(1 - q(p) * t) ** e for p, e in h.poles])
        assert num.all_coeffs()[::-1] == [q(c) for c in h.numerator] or (num.is_zero and not h.numerator), h
        assert sympy.expand(den.as_expr() - got_den) == 0, h


@given(rational_gfs(), _rationals(1, 6, (1, 2)))
@settings(max_examples=60, deadline=None)
def test_over_linear_and_times_t_act_on_the_series(f, m):
    a, b = taylor(f, 7), taylor(f.over_linear(m), 7)
    # b = a / (1 - m t): b_n = a_n + m b_(n-1)
    assert b == tuple(a[n] + (m * b[n - 1] if n else 0) for n in range(7))
    assert taylor(f.times_t(), 7) == (0,) + a[:6]


def test_raw_generating_functions_run_on_ints():
    for label, g in small_catalog():
        for f in (a_of_t(g), b_of_t(g)):
            assert all(type(v) is int for v in _gf_values(f)), (label, f)


@given(rational_gfs(), rational_gfs())
@settings(max_examples=60, deadline=None)
def test_addition_commutes_with_series(f, g):
    lhs = taylor(f + g, 6)
    rhs = tuple(a + b for a, b in zip(taylor(f, 6), taylor(g, 6)))
    assert lhs == rhs


@given(rational_gfs())
@settings(max_examples=80, deadline=None)
def test_partial_fraction_recombination_is_identity(f):
    assert partial_fractions(f).recombine() == f


@given(rational_gfs(), st.integers(1, 12))
@settings(max_examples=60, deadline=None)
def test_scale_t_matches_series_rescaling(f, order):
    s = F(1, order)
    scaled = f.scale_t(s)
    assert taylor(scaled, 5) == tuple(c * s**n for n, c in enumerate(taylor(f, 5)))


def _sympy_partial_fractions(f: RationalGF) -> tuple[dict, tuple]:
    """sympy.apart's decomposition of f, read back as {(m, e): c} for the terms
    c / (1 - m t)^e, and the polynomial part's coefficients, lowest first."""
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    q = lambda x: sympy.Rational(x.numerator, x.denominator)  # noqa: E731
    num = sum(q(c) * t**k for k, c in enumerate(f.numerator))
    den = sympy.Mul(*[(1 - q(m) * t) ** e for m, e in f.poles])
    expanded = sympy.apart(num / den, t)
    assert sympy.cancel(expanded - num / den) == 0
    terms, poly = {}, sympy.Integer(0)
    for term in sympy.Add.make_args(expanded):
        top, bottom = term.as_numer_denom()
        if bottom.free_symbols:
            scale, [(linear, e)] = sympy.factor_list(bottom, t)
            beta, alpha = sympy.Poly(linear, t).all_coeffs()[::-1]
            # top / (scale (alpha t + beta)^e) = c / (1 - m t)^e
            m, c = -alpha / beta, top / (scale * beta**e)
            terms[F(int(sympy.numer(m)), int(sympy.denom(m))), int(e)] = F(int(sympy.numer(c)), int(sympy.denom(c)))
        else:
            poly += term
    coeffs = sympy.Poly(poly, t).all_coeffs()[::-1] if poly != 0 else []
    return terms, tuple(F(int(sympy.numer(c)), int(sympy.denom(c))) for c in coeffs)


def test_partial_fractions_match_sympy_apart_on_catalog(catalog):
    pytest.importorskip("sympy")
    cases = [((label, which), f) for label, g in catalog.items()
             for which, f in (("A", a_of_t(g)), ("B", b_of_t(g)))]
    # and a double pole, rational poles and a polynomial part, which no raw A or B has
    double = RationalGF.from_poly((1, 1), ((2, 2), (5, 1)))
    cases += [("double pole", double),
              ("scaled double pole", double.scale_t(F(1, 4))),
              ("improper", RationalGF.from_poly((1, 0, 0, F(-1, 2)), ((2, 1), (3, 1)))),
              ("normalized B(Q8) plus t^3", normalize(b_of_t(catalog["Q8"]), 8)
               + RationalGF.from_poly((0, 0, 0, F(1, 3)), ()))]
    for case, f in cases:
        pf = partial_fractions(f)
        assert pf.recombine() == f, case
        assert all(_exact(v) for v in _pf_values(pf)), case
        terms, poly = _sympy_partial_fractions(f)
        assert {(m, e): c for c, m, e in pf.terms} == terms, case
        assert pf.poly == poly, case
