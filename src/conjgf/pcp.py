"""Polycyclic presentations, compiled to tables by cyclic extension.

A presentation lists d >= 0 generators (d = 0 is the trivial group) with
relative orders r_i >= 2, prime or not, an optional power word for each
g_i^(r_i), and commutator words [g_j, g_i] for j > i.  Every word is a
normal-form exponent vector and may only reference generators strictly deeper
than the smaller index of its relation (weight ordering), which is what makes
collection terminate.

Elements of the compiled group are the normal forms g_1^e1 ... g_d^ed with
0 <= e_i < r_i, indexed lexicographically by exponent vector.  The build
proves each cyclic extension a group by Hoelder's conditions, in O(|N| d)
per level, and raises at the first level that fails them, before building
its table.  A level's conjugation map phi comes from the images of the
generators, and its table from r_i whole-row gathers of the level below.
The top level is kept factored as a `CyclicExtension` of N_1: products are
read from N_1's table and O(|G|) indices, and the full |G| x |G| table is
built only when something reads it.
`collect` (collection from the left) is the reference that tests check the
cyclic extension build against; only it has a rewrite budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .errors import InconsistentPresentation, InvalidParameters
from .groups import INDEX_DTYPE, GroupTable, checked_order, gather_block, int_text

DEFAULT_REWRITE_BUDGET = 1_000_000

Word = tuple[int, ...]  # exponent vector, length d


# Miller-Rabin on the first 13 primes decides primality exactly below the
# smallest strong pseudoprime to all of them (Sorenson and Webster, 2015).
PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
EXACT_PRIME_LIMIT = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for every n below EXACT_PRIME_LIMIT."""
    if n >= EXACT_PRIME_LIMIT:
        raise InvalidParameters(
            f"{int_text(n)} is not below {EXACT_PRIME_LIMIT}, where primality is decided exactly"
        )
    if n < 2:
        return False
    for q in PRIME_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in PRIME_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_power_root(n: int) -> tuple[int, int] | None:
    """Return (p, k) with n = p^k, or None if n is not a prime power (n >= 2)."""
    if n < 2:
        return None
    for p in range(2, n + 1):
        if p * p > n:
            return (n, 1)
        if n % p == 0:
            k, m = 0, n
            while m % p == 0:
                m //= p
                k += 1
            return (p, k) if m == 1 else None
    return None


@dataclass(frozen=True)
class PcPresentation:
    """Weight-ordered polycyclic presentation with relative orders r_i >= 2."""

    relative_orders: tuple[int, ...]
    power_words: tuple[Word | None, ...]
    commutator_words: Mapping[tuple[int, int], Word] = field(default_factory=dict)
    label: str = ""

    def __post_init__(self):
        d = len(self.relative_orders)
        if len(self.power_words) != d:
            raise InvalidParameters("power_words must list one entry per generator")
        checked_order(self.label or "presentation", self.relative_orders)
        for i, r in enumerate(self.relative_orders):
            if r < 2:
                raise InvalidParameters(f"relative order r_{i} = {r} is below 2")
        for i, w in enumerate(self.power_words):
            if w is not None:
                self._check_word(w, leading=i, what=f"power word of g{i}")
        for (j, i), w in self.commutator_words.items():
            if not (0 <= i < j < d):
                raise InvalidParameters(f"commutator key ({j},{i}) must satisfy j > i")
            self._check_word(w, leading=i, what=f"commutator word [g{j}, g{i}]")

    def _check_word(self, w: Word, leading: int, what: str) -> None:
        d = len(self.relative_orders)
        if len(w) != d:
            raise InvalidParameters(f"{what}: expected exponent vector of length {d}")
        for k, e in enumerate(w):
            if not 0 <= e < self.relative_orders[k]:
                raise InvalidParameters(f"{what}: exponent {e} out of range for g{k}")
            if e and k <= leading:
                raise InvalidParameters(
                    f"{what}: references g{k}, violating the weight ordering"
                )

    @property
    def num_generators(self) -> int:
        return len(self.relative_orders)

    def compiled_order(self) -> int:
        return math.prod(self.relative_orders)


def _word_syllables(w: Word) -> list[list[int]]:
    return [[g, e] for g, e in enumerate(w) if e]


def collect(pres: PcPresentation, syllables: list[list[int]]) -> Word:
    """Collection from the left: rewrite a syllable word into normal form.

    Repeatedly fixes the leftmost defect (an over-range exponent or an
    out-of-order adjacent pair).  The rewrite budget, DEFAULT_REWRITE_BUDGET
    read at call time, converts a non-terminating presentation bug into a
    diagnosable error: the rewrite past it raises.
    """
    orders = pres.relative_orders
    powers = pres.power_words
    comms = pres.commutator_words
    budget = DEFAULT_REWRITE_BUDGET
    word = [[g, e] for g, e in syllables if e]
    steps = 0
    i = 0
    while i < len(word):
        g, e = word[i]
        # past the last syllable, a generator deeper than any: nothing to merge or swap
        h, a = word[i + 1] if i + 1 < len(word) else (pres.num_generators, 0)
        if e >= orders[g]:
            width = 1
            replacement = [[g, e - orders[g]]] if e > orders[g] else []
            pw = powers[g]
            if pw is not None:
                replacement += _word_syllables(pw)
        elif h == g:
            word[i : i + 2] = [[g, e + a]]
            continue
        elif h < g:
            width = 2
            comm = comms.get((g, h))
            if comm is None:
                replacement = [[h, a], [g, e]]
            else:
                # g^e h^a  ->  g^(e-1) h g [g,h] h^(a-1)
                replacement = []
                if e > 1:
                    replacement.append([g, e - 1])
                replacement += [[h, 1], [g, 1]]
                replacement += _word_syllables(comm)
                if a > 1:
                    replacement.append([h, a - 1])
        else:
            i += 1
            continue
        steps += 1
        if steps > budget:
            raise InconsistentPresentation(f"{pres.label or 'pcp'}: rewrite budget {budget} exceeded")
        word[i : i + width] = replacement
        i = max(i - 1, 0)
    vec = [0] * pres.num_generators
    for g, e in word:
        vec[g] = e
    return tuple(vec)


def _holder_conditions(mul: np.ndarray, phi: np.ndarray, w: int, r: int,
                       gens: dict[int, int]) -> str | None:
    """The first of Hoelder's conditions that fails, or None, for extending the
    group N (table `mul`, generated by the elements gens[j], each g_j named by
    its number j) by g with g^r = w and g^-1 u g = phi(u): phi is an
    automorphism of N fixing w, and phi^r is conjugation by w.  Both sides of
    the homomorphism and of the phi^r identity are homomorphisms, so checking
    them on `gens` suffices, and phi^r = conjugation makes phi a bijection.
    When they hold, a group of order r|N| exists whose product is the build's
    block formula (M. Hall, The Theory of Groups, Thm 15.3.1)."""
    if phi[w] != w:
        return "phi(w) != w"
    for j, s in gens.items():
        if not np.array_equal(phi.take(mul[:, s]), mul[phi, phi[s]]):
            return f"phi is not a homomorphism at g{j}"
    for j, s in gens.items():
        power = s
        for _ in range(r):
            power = phi[power]
        if mul[w, power] != mul[s, w]:
            return f"phi^{r} is not conjugation by w at g{j}"
    return None


class CyclicExtension:
    """G = <g> N, extending the group N (its table `low`, of order m) by g with
    g^r = w and g^-1 u g = phi(u), kept factored: powers[b, u] = phi^b(u) and
    wrapped[b, u] = w phi^b(u) are O(|G|) indices past N's table.  g^a u has
    index a*m + u, and

        (g^a u)(g^b v) = g^((a+b) mod r) [w] phi^b(u) v,

    w entering once a + b >= r: a product is one gather from powers or
    wrapped, one from N's table and the offset ((a+b) mod r) m, below |G|, so
    nothing wraps."""

    def __init__(self, low: np.ndarray, powers: np.ndarray, wrapped: np.ndarray):
        self.low, self.powers, self.wrapped = low, powers, wrapped
        self.r, self.m = powers.shape
        self.offsets = (np.arange(2 * self.r - 1) % self.r * self.m).astype(low.dtype)  # by a + b

    def prod(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """xs ys elementwise, broadcast, by the product formula."""
        a, u = np.divmod(xs, self.m)
        b, v = np.divmod(ys, self.m)
        c = np.add(a, b, dtype=np.intp)  # up to 2r - 2, which can pass the order
        out = self.low[np.where(c >= self.r, self.wrapped[b, u], self.powers[b, u]), v]
        out += self.offsets[c]
        return out

    def block(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """prod(xs[:, None], ys), one run of ys with one top exponent t at a
        time: N's table on the rows [w] phi^t(u) of the xs and the columns v
        of the run, plus one offset per row."""
        a, u = np.divmod(xs, self.m)
        b, v = np.divmod(ys, self.m)
        out = np.empty((xs.size, ys.size), dtype=self.low.dtype)
        bounds = [0, *(np.flatnonzero(b[1:] != b[:-1]) + 1).tolist(), ys.size] if ys.size else []
        for lo, hi in zip(bounds, bounds[1:]):
            c = np.add(a, b[lo], dtype=np.intp)
            lead = np.where(c >= self.r, self.wrapped[b[lo]].take(u), self.powers[b[lo]].take(u))
            part = gather_block(self.low, lead, v[lo:hi])
            part += self.offsets.take(c)[:, None]
            out[:, lo:hi] = part
        return out

    def table(self, out: np.ndarray) -> np.ndarray:
        """The full table, written into `out`, an empty (|G|, |G|) array of
        N's dtype: row block a is one gather of N's rows plus one offset add,
        in place, r gathers in all."""
        low, m, r = self.low, self.m, self.r
        lead = self.powers.T.copy()  # lead[u, b]; column b turns to wrapped once a + b >= r
        grown = out.reshape(r, m, r, m)
        for a in range(r):
            if a:
                lead[:, r - a] = self.wrapped[r - a]
            # indices are in range by construction, and "clip" writes into grown[a] unbuffered
            np.take(low, lead, axis=0, out=grown[a], mode="clip")
            # the offset and the sum stay below r * m, an order the budget admits: no uint16 wrap
            np.add(grown[a], self.offsets[a : a + r, None], out=grown[a])
        return out


def build_from_pcp(pres: PcPresentation) -> GroupTable:
    """Compile a presentation into a group by cyclic extension, its top level factored.

    N_i = <g_i, ..., g_(d-1)> is built from N_(i+1) for i = d-1 ... 0 as the
    `CyclicExtension` of N_(i+1) by g_i: its element g_i^a u (u in N_(i+1))
    has index a*m + u with m = |N_(i+1)|, and

        (g_i^a u)(g_i^b v) = g_i^((a+b) mod r_i) [w] phi^b(u) v,

    where phi(u) = g_i^-1 u g_i, and w = g_i^(r_i), the power word, enters
    when a + b >= r_i.  phi(g_j) = g_j [g_j, g_i] on generators, and extends
    to N_(i+1) one generator at a time, deepest first, as the homomorphism
    phi(g_k^e v) = phi(g_k)^e phi(v) for v in N_(k+1): one gather per g_k,
    whose products are well defined because N_(i+1) was proved a group.
    powers[b, u] = phi^b(u) and its w-shifted copy are made once.  Every level
    below the top gets its table, r_i row gathers of N_(i+1)'s table written
    in place; G = N_0 keeps N_1's table, powers and wrapped, and builds its
    own table only when `mul` is first read.  So the build holds no more than
    N_1's table, N_2's and O(|G|) indices.

    The inverse of g_i^a u is u^-1 g_i^-a, one product of two inverses known
    before: inv of N_(i+1), and g_i^-a = g_i^(r_i - a) w^-1 for a > 0.

    Starting from the trivial group, each level is proved a group by
    `_holder_conditions` on N_(i+1), phi and w before its table is built.  A
    level that fails them raises InconsistentPresentation naming g_i and the
    failed condition: no group has this presentation's normal forms, since in
    one every N_(i+1) is a subgroup, conjugation by g_i is phi and
    g_i^r_i = w.
    """
    orders, comms = pres.relative_orders, pres.commutator_words
    d, n = len(orders), pres.compiled_order()
    label = pres.label or f"pcp({n})"
    radix = [1] * d
    for i in range(d - 2, -1, -1):
        radix[i] = radix[i + 1] * orders[i + 1]

    def idx_of(w: Word | None) -> int:
        return 0 if w is None else sum(e * radix[k] for k, e in enumerate(w))

    mul = np.zeros((1, 1), dtype=INDEX_DTYPE)
    inv = np.zeros(1, dtype=INDEX_DTYPE)
    top = None
    for i in range(d - 1, -1, -1):
        if top is not None:
            mul = top.table(np.empty((top.r * top.m,) * 2, dtype=INDEX_DTYPE))
        r, m = orders[i], len(mul)
        phi = np.zeros(m, dtype=np.intp)
        for k in range(d - 1, i, -1):  # phi(g_k^e v) = phi(g_k)^e phi(v) on N_k, v in N_(k+1)
            image = mul[radix[k], idx_of(comms.get((k, i)))]
            power = [0]
            for _ in range(orders[k] - 1):
                power.append(mul[power[-1], image])
            phi[: orders[k] * radix[k]] = mul[np.array(power)[:, None], phi[: radix[k]]].ravel()
        w = idx_of(pres.power_words[i])
        failed = _holder_conditions(mul, phi, w, r, {j: radix[j] for j in range(i + 1, d)})
        if failed is not None:
            raise InconsistentPresentation(f"{label}: level g{i} fails Hoelder's conditions: {failed}")
        powers = np.empty((r, m), dtype=INDEX_DTYPE)  # powers[b, u] = phi^b(u)
        powers[0] = np.arange(m)
        for b in range(1, r):
            powers[b] = phi[powers[b - 1]]
        top = CyclicExtension(mul, powers, mul[w].take(powers))
        # (g_i^a u)^-1 = u^-1 g_i^-a, where g_i^a g_i^(r-a) w^-1 = w w^-1 = 1 for a > 0
        ginv = -np.arange(r) % r * m
        ginv[1:] += inv[w]
        inv = top.prod(inv[None, :], ginv[:, None]).ravel()
    if top is None:
        return GroupTable(order=n, mul=mul, inv=inv, label=label)
    return GroupTable(order=n, mul=None, inv=inv, generators=tuple(radix), label=label, top=top)
