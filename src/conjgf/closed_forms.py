"""Direct evaluators for the closed-form A/B results, used as independent
checks against the general algorithms.

Each evaluator transcribes one displayed formula term by term, so it can be
audited against its source; parameters are validated against the hypotheses
of the statement they come from.  TABLE_ROWS holds the normalized invariants
for the isoclinism families of rank up to 5 as pure data: a term is a
(laurent coefficient, pole exponent) pair, where a laurent coefficient
[(c, k), ...] means sum of c * p^k and a pole exponent k means 1/(1 - p^k t).
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InvalidParameters
from .families import check_family
from .pcp import is_prime
from .ratfun import RationalGF, gf_sum

ABELIAN_MAX = "abelian_max"
P1P3_NO_ABELIAN_MAX = "P1P3_no_abelian_max"


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise InvalidParameters(msg)


def _check_prime(p: int) -> Fraction:
    _require(is_prime(p), f"p = {p} must be prime")
    return Fraction(p)


# -- |G/Z| = p^2 -------------------------------------------------------------


def a_central_quotient_p2(p: int, m: int) -> RationalGF:
    P = _check_prime(p)
    _require(m >= 3, "central quotient p^2 needs order >= p^3")
    return gf_sum(
        [
            RationalGF.simple(P ** (m - 2), P**m),
            RationalGF.simple(P**m - P ** (m - 2), P ** (m - 1)),
        ]
    ) * Fraction(1, p**m)


def b_central_quotient_p2(p: int, m: int) -> RationalGF:
    P = _check_prime(p)
    _require(m >= 3, "central quotient p^2 needs order >= p^3")
    return RationalGF.from_poly(
        (1, -(P ** (m - 3))), ((P ** (m - 2), 1), (P ** (m - 1), 1))
    )


# -- |G/Z| = p^3 -------------------------------------------------------------


def a_central_quotient_p3(p: int, m: int, has_abelian_max: bool) -> RationalGF:
    P = _check_prime(p)
    if has_abelian_max:
        _require(m >= 4, "central quotient p^3 needs order >= p^4")
        terms = [
            RationalGF.simple(P ** (m - 3), P**m),
            RationalGF.simple(P ** (m - 1) - P ** (m - 3), P ** (m - 1)),
            RationalGF.simple(P**m - P ** (m - 1), P ** (m - 2)),
        ]
    else:
        # order p^4 always has an abelian maximal subgroup, so this case needs m >= 5
        _require(m >= 5, "no-abelian-max case needs order >= p^5")
        terms = [
            RationalGF.simple(P ** (m - 3), P**m),
            RationalGF.simple(P**m - P ** (m - 3), P ** (m - 2)),
        ]
    return gf_sum(terms) * Fraction(1, p**m)


def b_central_quotient_p3(p: int, m: int, has_abelian_max: bool) -> RationalGF:
    P = _check_prime(p)
    if has_abelian_max:
        _require(m >= 4, "central quotient p^3 needs order >= p^4")
        inner = gf_sum(
            [
                RationalGF.one(),
                RationalGF.simple(P ** (m - 2) - P ** (m - 4), P ** (m - 1)).times_t(),
                RationalGF.simple(P ** (m - 2) - P ** (m - 3), P ** (m - 2)).times_t(),
            ]
        )
        return inner.over_linear(P ** (m - 3))
    _require(m >= 5, "no-abelian-max case needs order >= p^5")
    return RationalGF.from_poly(
        (1, -(P ** (m - 5))), ((P ** (m - 2), 1), (P ** (m - 3), 1))
    )


# -- maximal class -----------------------------------------------------------


def a_maximal_class(p: int, m: int, case: str) -> RationalGF:
    P = _check_prime(p)
    _require(m >= 4, "maximal class needs order >= p^4")
    if case == ABELIAN_MAX:
        terms = [
            RationalGF.simple(P, P**m),
            RationalGF.simple(P**m - P ** (m - 1), P**2),
            RationalGF.simple(P ** (m - 1) - P, P ** (m - 1)),
        ]
    elif case == P1P3_NO_ABELIAN_MAX:
        _require(m >= 5, "the no-abelian-max case needs order >= p^5")
        terms = [
            RationalGF.simple(P, P**m),
            RationalGF.simple(P**m - P ** (m - 1), P**2),
            RationalGF.simple(P ** (m - 1) - P ** (m - 3), P ** (m - 2)),
            RationalGF.simple(P ** (m - 3) - P, P ** (m - 1)),
        ]
    else:
        raise InvalidParameters(f"unknown maximal-class case {case!r}")
    return gf_sum(terms) * Fraction(1, p**m)


def b_maximal_class(p: int, m: int, case: str) -> RationalGF:
    P = _check_prime(p)
    _require(m >= 4, "maximal class needs order >= p^4")
    if case == ABELIAN_MAX:
        inner = gf_sum(
            [
                RationalGF.one(),
                RationalGF.simple(P ** (m - 2) - 1, P ** (m - 1)).times_t(),
                RationalGF.simple(P**2 - P, P**2).times_t(),
            ]
        )
    elif case == P1P3_NO_ABELIAN_MAX:
        _require(m >= 5, "the no-abelian-max case needs order >= p^5")
        chunk = RationalGF.from_poly(
            (P ** (m - 4) - 1, -(P ** (m - 4)) * (P ** (m - 4) - 1)),
            ((P ** (m - 2), 1), (P ** (m - 3), 1)),
        ).times_t()
        inner = gf_sum(
            [
                RationalGF.one(),
                chunk,
                RationalGF.simple(P ** (m - 3) - P ** (m - 5), P ** (m - 2)).times_t(),
                RationalGF.simple(P**2 - P, P**2).times_t(),
            ]
        )
    else:
        raise InvalidParameters(f"unknown maximal-class case {case!r}")
    return inner.over_linear(P)


# -- dihedral ----------------------------------------------------------------


def a_dihedral(n: int) -> RationalGF:
    """A for the dihedral group of order 2n, even n only."""
    _require(n >= 4 and n % 2 == 0, "the dihedral formula is stated for even n >= 4")
    return gf_sum(
        [
            RationalGF.simple(2, 2 * n),
            RationalGF.simple(n, 4),
            RationalGF.simple(n - 2, n),
        ]
    ) * Fraction(1, 2 * n)


def b_dihedral(n: int) -> RationalGF:
    _require(n >= 4 and n % 2 == 0, "the dihedral formula is stated for even n >= 4")
    inner = gf_sum(
        [
            RationalGF.one(),
            RationalGF.simple(Fraction(n - 2, 2), n).times_t(),
            RationalGF.simple(2, 4).times_t(),
        ]
    )
    return inner.over_linear(2)


# -- extraspecial of order p^5 -------------------------------------------------


def a_extraspecial_p5(p: int) -> RationalGF:
    P = _check_prime(p)
    return gf_sum(
        [RationalGF.simple(P, P**5), RationalGF.simple(P**5 - P, P**4)]
    ) * Fraction(1, p**5)


def b_extraspecial_p5(p: int) -> RationalGF:
    """B for extraspecial groups of order p^5.

    Every non-central class (there are p^4 - 1) has centralizer of order p^4
    with central quotient of order p^2, so the recursion closes in one step:
    B = 1/(1-pt) + (p^4-1) t / ((1-p^2 t)(1-p^3 t)).
    """
    P = _check_prime(p)
    one_step = RationalGF.from_poly((0, P**4 - 1), ((P**2, 1), (P**3, 1)))
    return RationalGF.simple(1, P) + one_step


# -- Table of normalized invariants -------------------------------------------

Laurent = tuple[tuple[int, int], ...]  # sum of c * p^k
Row = tuple[tuple[Laurent, int], ...]  # terms: coefficient / (1 - p^k t)

_ROW_ABELIAN: tuple[Row, Row] = (
    ((((1, 0),), 0),),
    ((((1, 0),), 0),),
)

_ROW_RANK3: tuple[Row, Row] = (
    # A: (1-p^-2)/(1-p^-1 t) + p^-2/(1-t)
    ((((1, 0), (-1, -2)), -1), (((1, -2),), 0)),
    # B: -p^-1/(1-p^-2 t) + (1+p^-1)/(1-p^-1 t)
    ((((-1, -1),), -2), (((1, 0), (1, -1)), -1)),
)

_ROW_RANK4: tuple[Row, Row] = (
    ((((1, 0), (-1, -1)), -2), (((1, -1), (-1, -3)), -1), (((1, -3),), 0)),
    ((((-1, -1),), -3), (((1, 0),), -2), (((1, -1),), -1)),
)

_ROW_EXTRASPECIAL: tuple[Row, Row] = (
    ((((1, 0), (-1, -4)), -1), (((1, -4),), 0)),
    (
        (((1, 0),), -4),
        (((-1, 1), (-1, 0), (-1, -1), (-1, -2)), -3),
        (((1, 1), (1, 0), (1, -1), (1, -2)), -2),
    ),
)

_ROW_PHI6_B: Row = (
    (((-1, -1), (-1, -2)), -3),
    (((1, 0), (1, -1), (1, -2)), -2),
)

_ROW_PHI6: tuple[Row, Row] = (
    ((((1, 0), (-1, -3)), -2), (((1, -3),), 0)),
    _ROW_PHI6_B,
)

_ROW_PHI7: tuple[Row, Row] = (
    ((((1, 0), (-1, -2)), -2), (((1, -2), (-1, -4)), -1), (((1, -4),), 0)),
    _ROW_PHI6_B,
)

_ROW_PHI9: tuple[Row, Row] = (
    ((((1, 0), (-1, -1)), -3), (((1, -1), (-1, -4)), -1), (((1, -4),), 0)),
    ((((-1, -1),), -4), (((1, 0),), -3), (((1, -1),), -1)),
)

_ROW_PHI10: tuple[Row, Row] = (
    (
        (((1, 0), (-1, -1)), -3),
        (((1, -1), (-1, -3)), -2),
        (((1, -3), (-1, -4)), -1),
        (((1, -4),), 0),
    ),
    (
        (((-1, -1),), -4),
        (((1, 0), (-1, -2)), -3),
        (((1, -1), (1, -2)), -2),
    ),
)

TABLE_ROWS: dict[str, tuple[Row, Row]] = {
    "abelian": _ROW_ABELIAN,
    "Phi2": _ROW_RANK3,
    "Phi3": _ROW_RANK4,
    "Phi4": _ROW_RANK4,
    "Phi5": _ROW_EXTRASPECIAL,
    "Phi6": _ROW_PHI6,
    "Phi7": _ROW_PHI7,
    "Phi8": _ROW_PHI7,
    "Phi9": _ROW_PHI9,
    "Phi10": _ROW_PHI10,
    "Gamma2": _ROW_RANK3,
    "Gamma3": _ROW_RANK4,
    "Gamma4": _ROW_RANK4,
    "Gamma5": _ROW_EXTRASPECIAL,
    "Gamma6": _ROW_PHI7,
    "Gamma7": _ROW_PHI7,
    "Gamma8": _ROW_PHI9,
}


def _eval_row(row: Row, p: Fraction) -> RationalGF:
    return gf_sum([RationalGF.simple(sum((c * p**e for c, e in coeff), Fraction(0)), p**k) for coeff, k in row])


def table_row(family: str, p: int) -> tuple[RationalGF, RationalGF]:
    """The Table-1 pair (normalized A, normalized B) for a family at prime p;
    `check_family` is the one rule for p."""
    check_family(family, p)
    a_row, b_row = TABLE_ROWS[family]
    P = Fraction(p)
    return _eval_row(a_row, P), _eval_row(b_row, P)

