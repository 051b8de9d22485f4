"""Exact rational functions, stored as their partial fractions.

A RationalGF is poly(t) + sum c / (1 - m t)^e.  Partial fractions are unique,
so equal functions have equal fields and == is exact, with no reduction step;
the reduced numerator and the poles are read back from the terms.  Values are
int when integral, else Fraction; never float.  The raw A and B have integer
poles and numerators but, in general, Fraction terms: z_m/|G| in A, and
t/(1 - m t) = (1/m)/(1 - m t) - 1/m in B.  Poles become rationals (p^-k) after
normalization.  Fraction(n) == n and hash(Fraction(n)) == hash(n), so
equality, hashing and printing do not depend on which type holds a value.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
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


def _pole(m) -> Exact:
    mf = _frac(m)
    if mf <= 0:
        raise InvalidParameters(f"pole parameter must be positive, got {mf}")
    return mf


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


def _divmod_linear(p: Poly, m: Exact) -> tuple[Poly, Exact]:
    """(q, r) with p = (1 - m t) q + r: r = p(1/m), q_k = p_k + m q_(k-1), less r at k = 0."""
    r = reduce(lambda acc, c: acc * m + c, p, 0)  # Horner: sum p_k m^(deg-k), then over m^deg
    r = _frac(Fraction(r, m ** (len(p) - 1))) if len(p) > 1 else r
    q = list(p[:-1])
    for k in range(len(q)):
        q[k] = _frac(q[k] + (m * q[k - 1] if k else -r))
    return tuple(q), r


def _put(acc: dict, key: tuple[Exact, int], n: Exact, d: Exact) -> None:
    """acc[key] += n/d as an unreduced pair: cheaper than a Fraction sum, built once in _build."""
    if key in acc:
        n0, d0 = acc[key]
        n, d = n0 * d + n * d0, d0 * d
    acc[key] = (n, d)


def _build(poly: Sequence[Exact], acc: dict) -> "RationalGF":
    """poly + sum n/d / (1 - m t)^e over acc[m, e] = (n, d), values int when integral."""
    terms = tuple((m, e, _frac(Fraction(n, d))) for (m, e), (n, d) in sorted(acc.items()) if n)
    return RationalGF(_trim([_frac(c) for c in poly]), terms)


@dataclass(frozen=True)
class RationalGF:
    """poly(t) + sum c / (1 - m t)^e: one (m, e, c) term per pole m and
    exponent e, sorted, each c != 0, and poly without trailing zeros.

    The constructor takes these fields as they are; the classmethods and
    operators check and coerce their inputs and keep the form.  `numerator`
    and `poles` are built once per value; == and hash read the fields alone."""

    poly: Poly
    terms: tuple[tuple[Exact, int, Exact], ...]  # (pole m, exponent e >= 1, coefficient c != 0)

    # -- constructors ------------------------------------------------------

    @classmethod
    def one(cls) -> "RationalGF":
        return cls((1,), ())

    @classmethod
    def simple(cls, c, m, e: int = 1) -> "RationalGF":
        """c / (1 - m t)^e."""
        c, m, e = _frac(c), _pole(m), int(e)
        return cls((), ((m, e, c),)) if c and e > 0 else cls.from_poly((c,))

    @classmethod
    def from_poly(cls, coeffs: Sequence, poles: Sequence[tuple] = ()) -> "RationalGF":
        """coeffs(t) / prod (1 - m t)^e, divided by one (1 - m t) at a time."""
        linears = [_pole(m) for m, e in poles for _ in range(int(e))]
        return reduce(RationalGF._over, linears, cls(_trim([_frac(c) for c in coeffs]), ()))

    # -- structure ---------------------------------------------------------

    @cached_property
    def poles(self) -> tuple[tuple[Exact, int], ...]:
        """(m, top exponent) for each pole m, ascending."""
        return tuple({m: e for m, e, _ in self.terms}.items())

    @cached_property
    def numerator(self) -> Poly:
        """poly den + sum c den / (1 - m t)^e over den = prod (1 - m t)^e of the poles.

        It does not vanish at any 1/m, since the top term at m is nonzero, so
        numerator / den is reduced."""
        den: Poly = (1,)
        for m, e in self.poles:
            for _ in range(e):
                den = _pmul(den, (1, -m))
        num = _pmul(self.poly, den)
        for m, e, c in self.terms:
            cof = den
            for _ in range(e):
                cof = _divmod_linear(cof, m)[0]
            num = _padd(num, tuple(c * x for x in cof))
        return tuple(_frac(x) for x in num)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "RationalGF") -> "RationalGF":
        if not isinstance(other, RationalGF):
            return NotImplemented
        return gf_sum((self, other))

    def __mul__(self, other) -> "RationalGF":
        """Multiply by an exact scalar, int or Fraction."""
        s = _frac(other)
        pairs = {(m, e): (c.numerator * s.numerator, c.denominator * s.denominator)
                 for m, e, c in self.terms}
        return _build([c * s for c in self.poly], pairs)

    def times_t(self) -> "RationalGF":
        """Multiply by t: t/(1 - m t)^e = (1/(1 - m t)^e - 1/(1 - m t)^(e-1)) / m."""
        poly = [0, *self.poly]
        acc: dict = {}
        for m, e, c in self.terms:
            n, d = c.numerator, c.denominator * m
            _put(acc, (m, e), n, d)
            if e > 1:
                _put(acc, (m, e - 1), -n, d)
            else:
                poly[0] -= Fraction(n, d)
        return _build(poly, acc)

    def over_linear(self, m) -> "RationalGF":
        """Divide by (1 - m t)."""
        return self._over(_pole(m))

    def _over(self, z: Exact) -> "RationalGF":
        q, r = _divmod_linear(self.poly, z)
        acc: dict = {(z, 1): (r, 1)}
        for m, e, c in self.terms:
            n, d = c.numerator, c.denominator
            if m == z:
                acc[m, e + 1] = (n, d)
                continue
            # 1/((1-mt)^e (1-zt)) = (m/(m-z))/(1-mt)^e - (z/(m-z))/((1-mt)^(e-1) (1-zt)),
            # down to e = 0
            for k in range(e, 0, -1):
                d *= m - z
                _put(acc, (m, k), n * m, d)
                n *= -z
            _put(acc, (z, 1), n, d)
        return _build(q, acc)

    def scale_t(self, s) -> "RationalGF":
        """Substitute t -> s t (exactly): each pole m becomes m s."""
        sf = _frac(s)
        poly = _trim([_frac(c * sf**i) for i, c in enumerate(self.poly)])
        return RationalGF(poly, tuple((_pole(m * sf), e, c) for m, e, c in self.terms))

    # -- series --------------------------------------------------------------

    def coefficient(self, n: int) -> Exact:
        """poly[n] + sum c C(n+e-1, e-1) m^n."""
        if n < 0:
            raise InvalidParameters(f"coefficient index must be nonnegative, got {n}")
        value = self.poly[n] if n < len(self.poly) else 0
        for m, e, c in self.terms:
            value += c * comb(n + e - 1, e - 1) * m**n
        return _frac(value)

    # -- presentation ----------------------------------------------------------

    def to_payload(self) -> dict:
        return {
            "numerator": [str(c) for c in self.numerator],
            "denominator": [[str(m), e] for m, e in self.poles],
        }

    def __str__(self) -> str:
        num = _poly_str(self.numerator)
        if not self.terms:
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
    poly: Poly = ()
    acc: dict = {}
    for f in terms:
        poly = _padd(poly, f.poly)
        for m, e, c in f.terms:
            _put(acc, (m, e), c.numerator, c.denominator)
    return _build(poly, acc)


@dataclass(frozen=True)
class PartialFractions:
    """Sum of coeff / (1 - m t)^e terms plus an optional polynomial part."""

    terms: tuple[tuple[Exact, Exact, int], ...]  # (coeff, pole m, exponent e)
    poly: Poly = ()

    def recombine(self) -> RationalGF:
        parts = [RationalGF.simple(c, m, e) for c, m, e in self.terms]
        return gf_sum([RationalGF.from_poly(self.poly)] + parts)

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


def partial_fractions(f: RationalGF) -> PartialFractions:
    """f's own terms as c/(1 - m t)^e (poles ascending) and its polynomial part."""
    return PartialFractions(tuple((c, m, e) for m, e, c in f.terms), f.poly)
