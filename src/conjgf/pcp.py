"""Power-commutator presentations and collection from the left.

A presentation lists d generators with prime-power relative orders r_i,
an optional power word for each g_i^(r_i), and commutator words [g_j, g_i]
for j > i.  Every word is a normal-form exponent vector and may only
reference generators strictly deeper than the smaller index of its relation
(weight ordering), which is what makes collection terminate.

Elements of the compiled group are the normal forms g_1^e1 ... g_d^ed with
0 <= e_i < r_i, indexed lexicographically by exponent vector.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .errors import ClosureExceedsCap, InconsistentPresentation, InvalidParameters
from .groups import DEFAULT_ORDER_CAP, GroupTable, certify

DEFAULT_REWRITE_BUDGET = 1_000_000

Word = tuple[int, ...]  # exponent vector, length d


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def prime_power_root(n: int) -> tuple[int, int] | None:
    """Return (p, k) with n = p^k, or None if n is not a prime power (n >= 2)."""
    if n < 2:
        return None
    for p in range(2, n + 1):
        if p * p > n:
            return (n, 1)
        if n % p == 0:
            k = 0
            m = n
            while m % p == 0:
                m //= p
                k += 1
            return (p, k) if m == 1 else None
    return None


@dataclass(frozen=True)
class PcPresentation:
    """Weight-ordered power-commutator presentation over a prime p."""

    p: int
    relative_orders: tuple[int, ...]
    power_words: tuple[Word | None, ...]
    commutator_words: Mapping[tuple[int, int], Word] = field(default_factory=dict)
    label: str = ""

    def __post_init__(self):
        d = len(self.relative_orders)
        if not is_prime(self.p):
            raise InvalidParameters(f"p = {self.p} is not prime")
        if d == 0:
            raise InvalidParameters("presentation needs at least one generator")
        if len(self.power_words) != d:
            raise InvalidParameters("power_words must list one entry per generator")
        for i, r in enumerate(self.relative_orders):
            root = prime_power_root(r)
            if root is None or root[0] != self.p:
                raise InvalidParameters(f"relative order r_{i} = {r} is not a power of {self.p}")
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
        n = 1
        for r in self.relative_orders:
            n *= r
        return n


def _word_syllables(w: Word) -> list[list[int]]:
    return [[g, e] for g, e in enumerate(w) if e]


def collect(
    pres: PcPresentation,
    syllables: list[list[int]],
    budget: int = DEFAULT_REWRITE_BUDGET,
) -> Word:
    """Collection from the left: rewrite a syllable word into normal form.

    Repeatedly fixes the leftmost defect (an over-range exponent or an
    out-of-order adjacent pair).  The rewrite budget converts a
    non-terminating presentation bug into a diagnosable error.
    """
    orders = pres.relative_orders
    powers = pres.power_words
    comms = pres.commutator_words
    word = [[g, e] for g, e in syllables if e]
    steps = 0
    i = 0
    while i < len(word):
        g, e = word[i]
        if e >= orders[g]:
            steps += 1
            if steps > budget:
                raise InconsistentPresentation(
                    f"{pres.label or 'pcp'}: rewrite budget {budget} exceeded"
                )
            replacement = [[g, e - orders[g]]] if e > orders[g] else []
            pw = powers[g]
            if pw is not None:
                replacement += _word_syllables(pw)
            word[i : i + 1] = replacement
            i = max(i - 1, 0)
            continue
        if i + 1 < len(word):
            h, a = word[i + 1]
            if h == g:
                word[i : i + 2] = [[g, e + a]]
                continue
            if h < g:
                steps += 1
                if steps > budget:
                    raise InconsistentPresentation(
                        f"{pres.label or 'pcp'}: rewrite budget {budget} exceeded"
                    )
                comm = comms.get((g, h))
                if comm is None:
                    word[i : i + 2] = [[h, a], [g, e]]
                else:
                    # g^e h^a  ->  g^(e-1) h g [g,h] h^(a-1)
                    replacement = []
                    if e > 1:
                        replacement.append([g, e - 1])
                    replacement += [[h, 1], [g, 1]]
                    replacement += _word_syllables(comm)
                    if a > 1:
                        replacement.append([h, a - 1])
                    word[i : i + 2] = replacement
                i = max(i - 1, 0)
                continue
        i += 1
    vec = [0] * pres.num_generators
    for g, e in word:
        vec[g] = e
    return tuple(vec)


def build_from_pcp(
    pres: PcPresentation,
    label: str = "",
    cap: int = DEFAULT_ORDER_CAP,
    budget: int = DEFAULT_REWRITE_BUDGET,
) -> GroupTable:
    """Compile a presentation into a full multiplication table.

    Only |G| * d products are collected (right multiplication by each
    generator); the remaining columns follow from the parent decomposition
    of each normal form.  The certificate then checks the result is really
    a group: a consistent presentation is exactly one whose normal forms
    multiply associatively.
    """
    n = pres.compiled_order()
    if n > cap:
        raise ClosureExceedsCap(f"presentation compiles to order {n} > cap {cap}")
    d = pres.num_generators
    orders = pres.relative_orders

    radix = [1] * d
    for i in range(d - 2, -1, -1):
        radix[i] = radix[i + 1] * orders[i + 1]

    def vec_of(idx: int) -> Word:
        out = []
        for i in range(d):
            out.append(idx // radix[i] % orders[i])
        return tuple(out)

    def idx_of(vec: Word) -> int:
        return sum(e * radix[i] for i, e in enumerate(vec))

    vectors = [vec_of(x) for x in range(n)]

    right = []
    for gi in range(d):
        col = np.empty(n, dtype=np.int32)
        for x in range(n):
            col[x] = idx_of(collect(pres, _word_syllables(vectors[x]) + [[gi, 1]], budget))
        right.append(col)

    mul = np.empty((n, n), dtype=np.int32)
    mul[:, 0] = np.arange(n, dtype=np.int32)
    for y in range(1, n):
        vec = vectors[y]
        gi = max(i for i, e in enumerate(vec) if e)
        parent = y - radix[gi]
        mul[:, y] = right[gi][mul[:, parent]]
    inv = np.argmax(mul == 0, axis=1).astype(np.int32)

    gens = tuple(idx_of(tuple(1 if j == i else 0 for j in range(d))) for i in range(d))
    table = GroupTable(order=n, mul=mul, inv=inv, generators=gens,
                       label=label or pres.label or f"pcp({n})")
    bad = certify(table).first_failure()
    if bad is not None:
        raise InconsistentPresentation(
            f"{table.label}: certificate failed at {bad.name} {bad.witness} ({bad.detail})"
        )
    return table
