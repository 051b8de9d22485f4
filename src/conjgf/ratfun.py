"""Exact rational functions with factored (1 - m t)^e denominators.

Coefficients and pole parameters are int when integral, else Fraction; never
float, so every operation is exact.  The raw generating functions have integer
coefficients and poles and run on Python ints; poles become rationals (p^-k)
after normalization.  Fraction(n) == n and hash(Fraction(n)) == hash(n), so
equality, hashing and printing do not depend on which type holds a value.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Sequence

import numpy as np

from .errors import InvalidParameters

Exact = int | Fraction
Poly = tuple[Exact, ...]  # coefficients by degree: int when integral, else Fraction; never float


def _frac(x) -> Exact:
    """x as an exact value: int when integral, else Fraction.

    Accepts int, numpy integers and Fraction; anything else (float, bool,
    str, None) raises InvalidParameters rather than being truncated."""
    if type(x) is int:
        return x
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    if isinstance(x, (int, np.integer)) and not isinstance(x, bool):
        return int(x)
    raise InvalidParameters(f"exact values must be int or Fraction, got {type(x).__name__} {x!r}")


def _trim(coeffs: Sequence[Exact]) -> Poly:
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _padd(a: Poly, b: Poly) -> Poly:
    n = max(len(a), len(b))
    return _trim([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)])


def _pmul(a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return _trim(out)


def _pscale(a: Poly, c: Exact) -> Poly:
    return _trim([x * c for x in a])


def _vanishes_at_inverse(a: Poly, m: Exact) -> bool:
    """a(1/m) == 0, tested without dividing as sum a_k m^(deg-k) == 0 (Horner)."""
    acc = 0
    for c in a:
        acc = acc * m + c
    return acc == 0


def _linear_power(m: Exact, e: int) -> Poly:
    """(1 - m t)^e as a coefficient tuple."""
    return tuple(comb(e, k) * (-m) ** k for k in range(e + 1))


def _pdivmod(num: Poly, den: Poly) -> tuple[Poly, Poly]:
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(_trim(num))
    q = [0] * max(len(rem) - len(den) + 1, 0)
    d = len(den) - 1
    lead = den[-1]
    while len(rem) > d:
        k = len(rem) - 1 - d
        c = _frac(Fraction(rem[-1], lead))
        q[k] = c
        for i, dc in enumerate(den):
            rem[k + i] -= c * dc
        rem = list(_trim(rem))
    return _trim(q), tuple(rem)


def _div_linear(num: Poly, m: Exact) -> Poly:
    """Exact division of a polynomial by (1 - m t); caller guarantees divisibility."""
    out: list[Exact] = []
    carry = 0
    for k in range(len(num) - 1):
        carry = _frac(num[k] + m * carry)
        out.append(carry)
    return _trim(out)


@dataclass(frozen=True)
class RationalGF:
    """numerator(t) / prod (1 - m t)^e, kept reduced.

    Reduced means the numerator does not vanish at any pole's 1/m, so two
    equal functions have identical representations and == is exact equality.
    """

    numerator: Poly
    poles: tuple[tuple[Exact, int], ...]

    def __post_init__(self):
        num = _trim(tuple(_frac(c) for c in self.numerator))
        merged: dict[Exact, int] = {}
        for m, e in self.poles:
            mf = _frac(m)
            if mf <= 0:
                raise ValueError(f"pole parameter must be positive, got {mf}")
            if e > 0:
                merged[mf] = merged.get(mf, 0) + int(e)
        if not num:
            poles: tuple[tuple[Exact, int], ...] = ()
        else:
            for m in sorted(merged):
                while merged[m] > 0 and _vanishes_at_inverse(num, m):
                    num = _div_linear(num, m)
                    merged[m] -= 1
            poles = tuple((m, merged[m]) for m in sorted(merged) if merged[m] > 0)
        object.__setattr__(self, "numerator", num)
        object.__setattr__(self, "poles", poles)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "RationalGF":
        return cls((), ())

    @classmethod
    def one(cls) -> "RationalGF":
        return cls((1,), ())

    @classmethod
    def simple(cls, c, m, e: int = 1) -> "RationalGF":
        """c / (1 - m t)^e."""
        return cls((_frac(c),), ((_frac(m), e),))

    @classmethod
    def from_poly(cls, coeffs: Sequence, poles: Sequence[tuple] = ()) -> "RationalGF":
        return cls(tuple(_frac(c) for c in coeffs), tuple((_frac(m), int(e)) for m, e in poles))

    # -- structure ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.numerator

    def denominator_poly(self) -> Poly:
        out: Poly = (1,)
        for m, e in self.poles:
            out = _pmul(out, _linear_power(m, e))
        return out

    # -- arithmetic ----------------------------------------------------------

    def _cofactor(self, union: dict[Exact, int]) -> Poly:
        mine = dict(self.poles)
        out: Poly = (1,)
        for m, e in union.items():
            extra = e - mine.get(m, 0)
            if extra:
                out = _pmul(out, _linear_power(m, extra))
        return out

    def __add__(self, other: "RationalGF") -> "RationalGF":
        if not isinstance(other, RationalGF):
            return NotImplemented
        union: dict[Exact, int] = {}
        for m, e in self.poles + other.poles:
            union[m] = max(union.get(m, 0), e)
        num = _padd(
            _pmul(self.numerator, self._cofactor(union)),
            _pmul(other.numerator, other._cofactor(union)),
        )
        return RationalGF(num, tuple(union.items()))

    def __neg__(self) -> "RationalGF":
        return RationalGF(_pscale(self.numerator, -1), self.poles)

    def __sub__(self, other: "RationalGF") -> "RationalGF":
        return self + (-other)

    def __mul__(self, other) -> "RationalGF":
        if isinstance(other, RationalGF):
            merged: dict[Exact, int] = {}
            for m, e in self.poles + other.poles:
                merged[m] = merged.get(m, 0) + e
            return RationalGF(_pmul(self.numerator, other.numerator), tuple(merged.items()))
        return RationalGF(_pscale(self.numerator, _frac(other)), self.poles)

    __rmul__ = __mul__

    def times_t(self) -> "RationalGF":
        """Multiply by t."""
        if self.is_zero:
            return self
        return RationalGF((0,) + self.numerator, self.poles)

    def over_linear(self, m) -> "RationalGF":
        """Divide by (1 - m t)."""
        return RationalGF(self.numerator, self.poles + ((_frac(m), 1),))

    def scale_t(self, s) -> "RationalGF":
        """Substitute t -> s t (exactly)."""
        sf = _frac(s)
        num = tuple(c * sf**i for i, c in enumerate(self.numerator))
        return RationalGF(num, tuple((m * sf, e) for m, e in self.poles))

    # -- series --------------------------------------------------------------

    def series(self, count: int) -> tuple[Exact, ...]:
        """First `count` Taylor coefficients at t = 0."""
        den = self.denominator_poly()
        out: list[Exact] = []
        for k in range(count):
            acc = self.numerator[k] if k < len(self.numerator) else 0
            for i in range(1, min(k, len(den) - 1) + 1):
                acc -= den[i] * out[k - i]
            out.append(acc)  # den[0] == 1
        return tuple(out)

    def coefficient(self, n: int) -> Exact:
        return self.series(n + 1)[n]

    # -- presentation ----------------------------------------------------------

    def to_payload(self) -> dict:
        return {
            "numerator": [str(c) for c in self.numerator],
            "denominator": [[str(m), e] for m, e in self.poles],
        }

    def __str__(self) -> str:
        num = _poly_str(self.numerator)
        if not self.poles:
            return num
        den = "".join(
            f"(1-{_pole_str(m)}t)" + (f"^{e}" if e > 1 else "") for m, e in self.poles
        )
        return f"({num}) / {den}"


def _pole_str(m: Exact) -> str:
    if m == 1:
        return ""
    if m.denominator == 1:
        return str(m)
    return f"({m})"


def _poly_str(p: Poly) -> str:
    if not p:
        return "0"
    parts = []
    for i, c in enumerate(p):
        if c == 0:
            continue
        if i == 0:
            parts.append(str(c))
            continue
        power = "t" if i == 1 else f"t^{i}"
        if c == 1:
            parts.append(power)
        elif c == -1:
            parts.append(f"-{power}")
        else:
            parts.append(f"{c}{power}")
    return " + ".join(parts).replace("+ -", "- ")


def gf_sum(terms: Sequence[RationalGF]) -> RationalGF:
    acc = RationalGF.zero()
    for t in terms:
        acc = acc + t
    return acc


@dataclass(frozen=True)
class PartialFractions:
    """Sum of coeff / (1 - m t)^e terms plus an optional polynomial part."""

    terms: tuple[tuple[Exact, Exact, int], ...]  # (coeff, pole m, exponent e)
    poly: Poly = ()

    def recombine(self) -> RationalGF:
        acc = RationalGF(self.poly, ())
        for c, m, e in self.terms:
            acc = acc + RationalGF.simple(c, m, e)
        return acc

    def to_payload(self) -> list:
        out = [
            [c.numerator, c.denominator, m.numerator, m.denominator, e]
            for c, m, e in self.terms
        ]
        if self.poly:
            out.append({"poly": [str(c) for c in self.poly]})
        return out

    def __str__(self) -> str:
        bits = []
        if self.poly:
            bits.append(_poly_str(self.poly))
        for c, m, e in self.terms:
            suffix = f"^{e}" if e > 1 else ""
            bits.append(f"({c})/(1-{_pole_str(m)}t){suffix}")
        return " + ".join(bits) if bits else "0"


def _solve_exact(matrix: list[list[Exact]], rhs: list[Exact]) -> list[Exact]:
    """Gaussian elimination over the rationals; the system must be square+regular."""
    n = len(matrix)
    a = [row[:] + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if a[r][col] != 0)
        a[col], a[pivot] = a[pivot], a[col]
        inv = Fraction(1, a[col][col])
        a[col] = [v * inv for v in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [v - f * w for v, w in zip(a[r], a[col])]
    return [_frac(a[r][n]) for r in range(n)]


def partial_fractions(f: RationalGF) -> PartialFractions:
    """Exact decomposition into c/(1 - m t)^e terms (poles ascending)."""
    if not f.poles:
        return PartialFractions((), f.numerator)
    den = f.denominator_poly()
    poly_part, rem = _pdivmod(f.numerator, den)
    slots: list[tuple[Exact, int]] = []
    basis: list[Poly] = []
    for m, e in f.poles:
        others: Poly = (1,)
        for m2, e2 in f.poles:
            if m2 != m:
                others = _pmul(others, _linear_power(m2, e2))
        for j in range(1, e + 1):
            slots.append((m, j))
            basis.append(_pmul(others, _linear_power(m, e - j)))
    dim = len(slots)
    matrix = [[b[r] if r < len(b) else 0 for b in basis] for r in range(dim)]
    rhs = [rem[r] if r < len(rem) else 0 for r in range(dim)]
    coeffs = _solve_exact(matrix, rhs)
    terms = tuple((c, m, e) for c, (m, e) in zip(coeffs, slots) if c != 0)
    return PartialFractions(terms, poly_part)
