"""Catalog of constructible stem groups and named small groups.

Each stem family has one p-free row in `_PRESENTATIONS`, its pc presentation
with the relative orders written as exponents of p, and one p-free fingerprint
in `_FINGERPRINTS`: the exponents of p in its order, center and derived
subgroup, its nilpotency class and its abelian-maximal-subgroup flag.
`_stem_presentation` compiles a row at the requested p, and construction
re-computes the fingerprint and refuses to hand out a group that does not
match, so a transcription slip in a presentation cannot silently poison
downstream results.

Every named group but `symmetric` compiles through `build_from_pcp` too: the
abelian ones from a presentation with no words, and the dihedral, semidihedral
and generalized quaternion groups from one metacyclic presentation.

Power-commutator relations fix the orders of the *generators* only, so the
p = 3 stem groups may have exponent p^2 even when every listed generator has
order p; `_P3_POWER_WORDS` holds the stated reductions of the binomial power
relations for Phi3, Phi7, Phi9 and Phi10, applied over the row's own power
words, and the remaining families compile consistently as printed.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import repeat

from .analysis import (
    derived_subgroup,
    center_elements,
    has_abelian_maximal_subgroup,
    nilpotency_class,
)
from .errors import FingerprintMismatch, InvalidParameters
from .groups import (GroupTable, build_from_permutations, check_budget, checked_order, closure_bytes, int_text,
                     table_bytes)
from .pcp import PcPresentation, Word, build_from_pcp, is_prime, prime_power_root

PHI_FAMILIES = tuple(f"Phi{k}" for k in range(2, 11))
GAMMA_FAMILIES = tuple(f"Gamma{k}" for k in range(2, 9))
ALL_FAMILIES = ("abelian",) + PHI_FAMILIES + GAMMA_FAMILIES

# family -> (relative orders as exponents of p, commutator words [g_j, g_i],
# power words of g_i^(r_i), label or None for "family(p)").  A word is a sparse
# {k: e} for the product of the g_k^e, with e read mod g_k's relative order r_k,
# so -1 is g_k^(r_k - 1); the marker "p" is the exponent p itself, which only
# Phi8's [b, a2] = b^p needs.  A generator with no power word has g_i^(r_i) = 1.
_PRESENTATIONS: dict[str, tuple] = {
    # Heisenberg group: gens a, b, c with [a, b] = c, exponent p
    "Phi2": ((1, 1, 1), {(1, 0): {2: -1}}, {}, None),
    # gens a, a1, a2, a3 with [a1,a]=a2, [a2,a]=a3
    "Phi3": ((1, 1, 1, 1), {(1, 0): {2: 1}, (2, 0): {3: 1}}, {}, None),
    # gens a, a1, a2, b1, b2 with [ai, a] = bi
    "Phi4": ((1,) * 5, {(1, 0): {3: 1}, (2, 0): {4: 1}}, {}, None),
    # gens a1..a4, b with [a1,a2] = [a3,a4] = b (extraspecial of exponent p)
    "Phi5": ((1,) * 5, {(1, 0): {4: -1}, (3, 2): {4: -1}}, {}, None),
    # gens a1, a2, b, b1, b2 with [a1,a2]=b, [b,ai]=bi
    "Phi6": ((1,) * 5, {(1, 0): {2: -1}, (2, 0): {3: 1}, (2, 1): {4: 1}}, {}, None),
    # gens a, a1, a2, a3, b with [a1,a]=a2, [a2,a]=a3, [a1,b]=a3
    "Phi7": ((1,) * 5, {(1, 0): {2: 1}, (2, 0): {3: 1}, (4, 1): {3: -1}}, {}, None),
    # gens a1, a2, b of relative orders p, p^2, p^2 with a1^p = b,
    # [a1,a2] = b, [b,a2] = b^p
    "Phi8": ((1, 2, 2), {(1, 0): {2: -1}, (2, 1): {2: "p"}}, {0: {2: 1}}, None),
    # gens a, a1..a4 with [ai,a]=a_{i+1}
    "Phi9": ((1,) * 5, {(1, 0): {2: 1}, (2, 0): {3: 1}, (3, 0): {4: 1}}, {}, None),
    # Phi9's relations and [a1,a2]=a4
    "Phi10": ((1,) * 5, {(1, 0): {2: 1}, (2, 0): {3: 1}, (3, 0): {4: 1}, (2, 1): {4: -1}},
              {}, None),
    # D8: g0 inverts g1, so [g1, g0] = g1^-2
    "Gamma2": ((1, 2), {(1, 0): {1: -2}}, {}, "D8"),
    # D16, likewise
    "Gamma3": ((1, 3), {(1, 0): {1: -2}}, {}, "D16"),
    # (C4 x C4) : C2 with the inverting involution
    "Gamma4": ((1, 2, 2), {(1, 0): {1: -2}, (2, 0): {2: -2}}, {}, "Gamma4a2"),
    # extraspecial of order 32: five involutions, [a2,a1]=[a4,a1]=[a3,a2]=b
    "Gamma5": ((1,) * 5, {(1, 0): {4: 1}, (3, 0): {4: 1}, (2, 1): {4: 1}}, {}, "Gamma5a1"),
    # C8 : (C2 x C2); one factor inverts, the other is the 5th-power map
    "Gamma6": ((1, 1, 3), {(2, 0): {2: -2}, (2, 1): {2: 4}}, {}, "Gamma6a1"),
    # C2^3 : C4 acting as a single unipotent Jordan block
    "Gamma7": ((2, 1, 1, 1), {(1, 0): {2: 1, 3: 1}, (2, 0): {3: 1}}, {}, "Gamma7a1"),
    # D32, likewise
    "Gamma8": ((1, 4), {(1, 0): {1: -2}}, {}, "D32"),
}

# at p = 3 the binomial power relations force a1^3 = a3^-1 (Phi3, Phi7), and
# a2^3 a4 = 1 and a1^3 a2^3 a3 = 1 (Phi9, Phi10)
_P3_POWER_WORDS = {
    "Phi3": {1: {3: -1}},
    "Phi7": {1: {3: -1}},
    "Phi9": {1: {3: -1, 4: 1}, 2: {4: -1}},
    "Phi10": {1: {3: -1, 4: 1}, 2: {4: -1}},
}


def _stem_presentation(family: str, p: int) -> PcPresentation:
    """Compile a family's `_PRESENTATIONS` row at p, refusing what `check_family` refuses."""
    check_family(family, p)
    exponents, comms, powers, label = _PRESENTATIONS[family]
    if p == 3:
        powers = {**powers, **_P3_POWER_WORDS.get(family, {})}
    orders = tuple(p**e for e in exponents)

    def word(sparse: dict) -> Word:
        out = [0] * len(orders)
        for k, e in sparse.items():
            out[k] = (p if e == "p" else e) % orders[k]
        return tuple(out)

    return PcPresentation(
        relative_orders=orders,
        power_words=tuple(word(powers[i]) if i in powers else None for i in range(len(orders))),
        commutator_words={key: word(w) for key, w in comms.items()},
        label=label or f"{family}({p})")


_FINGERPRINTS: dict[str, tuple] = {
    # family -> (rank, center, derived, class, abelian max); the order, center
    # and derived subgroup are p to the powers given
    "Phi2": (3, 1, 1, 2, True),
    "Phi3": (4, 1, 2, 3, True),
    "Phi4": (5, 2, 2, 2, True),
    "Phi5": (5, 1, 1, 2, False),
    "Phi6": (5, 2, 3, 3, False),
    "Phi7": (5, 1, 2, 3, False),
    "Phi8": (5, 1, 2, 3, False),
    "Phi9": (5, 1, 3, 4, True),
    "Phi10": (5, 1, 3, 4, False),
    "Gamma2": (3, 1, 1, 2, True),
    "Gamma3": (4, 1, 2, 3, True),
    "Gamma4": (5, 2, 2, 2, True),
    "Gamma5": (5, 1, 1, 2, False),
    "Gamma6": (5, 1, 2, 3, False),
    "Gamma7": (5, 1, 2, 3, False),
    "Gamma8": (5, 1, 3, 4, True),
}


def check_family(family: str, p: int) -> None:
    """The one (family, p) rule; the budget refuses a group too large to build."""
    if family == "abelian":
        if p < 1:
            raise InvalidParameters("abelian family parameter must be a positive order")
        return
    if family not in _FINGERPRINTS:
        raise InvalidParameters(f"unknown family {family!r}")
    if family in GAMMA_FAMILIES and p != 2:
        raise InvalidParameters(f"{family} is a family of 2-groups; p must be 2")
    if family in PHI_FAMILIES and (p % 2 == 0 or not is_prime(p)):
        raise InvalidParameters(f"{family} needs an odd prime, got {p}")


def _check_fingerprint(g: GroupTable, family: str, p: int) -> GroupTable:
    rank, z, d, cls, abmax = _FINGERPRINTS[family]
    got = (g.order, len(center_elements(g)), len(derived_subgroup(g)), nilpotency_class(g))
    want = (p**rank, p**z, p**d, cls)
    if got != want:
        raise FingerprintMismatch(
            f"{family}(p={p}): built (order,|Z|,|G'|,class)={got}, expected {want}"
        )
    flag = has_abelian_maximal_subgroup(g)
    if flag != abmax:
        raise FingerprintMismatch(
            f"{family}(p={p}): built abelian-maximal-subgroup flag {flag}, expected {abmax}"
        )
    return g


def build_stem_group(family: str, p: int) -> GroupTable:
    """A family's stem group, non-abelian ones from their pc presentation; fingerprint-checked, uncached."""
    if family == "abelian":
        check_family(family, p)
        return cyclic(p)
    return _check_fingerprint(build_from_pcp(_stem_presentation(family, p)), family, p)


# library callers share one table per (family, p); a caller that walks the whole
# catalog, as `verify-table` does, builds each with `build_stem_group` and drops it
stem_group = lru_cache(maxsize=None)(build_stem_group)


# -- named groups ---------------------------------------------------------------


def _abelian_presentation(orders: tuple[int, ...], label: str) -> PcPresentation:
    """C_r0 x C_r1 x ... with no words, factors of order 1 dropped: C_n's table is (i + j) mod n."""
    orders = tuple(r for r in orders if r > 1)
    return PcPresentation(relative_orders=orders, power_words=(None,) * len(orders), label=label)


def _metacyclic(n: int, w: int, k: int, label: str) -> GroupTable:
    """<s, r | r^n, s^2 = r^w, s^-1 r s = r^k>, with g0 = s and g1 = r, so [r, s] = r^(k-1)."""
    return build_from_pcp(PcPresentation(
        relative_orders=(2, n), power_words=((0, w % n), None),
        commutator_words={(1, 0): (0, (k - 1) % n)}, label=label))


def cyclic(n: int) -> GroupTable:
    if n < 1:
        raise InvalidParameters("cyclic group order must be >= 1")
    return build_from_pcp(_abelian_presentation((n,), f"C{int_text(n)}"))


def abelian_group(orders: tuple[int, ...]) -> GroupTable:
    if not orders or any(n < 1 for n in orders):
        raise InvalidParameters("factor orders must be positive")
    return build_from_pcp(_abelian_presentation(orders, "C" + "xC".join(map(int_text, orders))))


def elementary_abelian(p: int, rank: int) -> GroupTable:
    """C_p^rank; the budget is checked on the order before the rank's factors
    are listed, and then p is tested for primality."""
    if rank < 0 or p < 2:
        raise InvalidParameters("need a prime and a nonnegative rank")
    label = f"C{int_text(p)}^{int_text(rank)}"
    checked_order(label, repeat(p, rank))
    if not is_prime(p):
        raise InvalidParameters(f"{p} is not a prime")
    return build_from_pcp(_abelian_presentation((p,) * rank, label))


def dihedral(order: int) -> GroupTable:
    if order < 6 or order % 2:
        raise InvalidParameters("dihedral groups here have even order >= 6")
    return _metacyclic(order // 2, 0, -1, f"D{int_text(order)}")


def semidihedral(order: int) -> GroupTable:
    if order < 16 or order & (order - 1):
        raise InvalidParameters("semidihedral groups have order 2^n, n >= 4")
    half = order // 2
    return _metacyclic(half, 0, half // 2 - 1, f"SD{int_text(order)}")


def quaternion(order: int) -> GroupTable:
    if order < 8 or order & (order - 1):
        raise InvalidParameters("generalized quaternion groups have order 2^n, n >= 3")
    half = order // 2
    return _metacyclic(half, half // 2, -1, f"Q{int_text(order)}")


def symmetric(degree: int) -> GroupTable:
    if degree < 1:
        raise InvalidParameters("symmetric group degree must be >= 1")
    checked_order(f"S{int_text(degree)}", range(2, degree + 1), lambda order: closure_bytes(order, degree, 2))
    cycle = tuple((i + 1) % degree for i in range(degree))
    swap = (1, 0) + tuple(range(2, degree))
    return build_from_permutations([cycle, swap] if degree > 1 else [cycle], label=f"S{degree}")


_NAMED = {fn.__name__: fn for fn in (cyclic, dihedral, semidihedral, quaternion, symmetric)}


def named_group(name: str, size: int) -> GroupTable:
    """The group a spec's `family` kind names: a catalog family's stem group at
    p = size, or a named family of that order (degree, for `symmetric`)."""
    if name in ALL_FAMILIES:
        return stem_group(name, size)
    if name == "elementary_abelian":
        check_budget(f"elementary_abelian({int_text(size)})", table_bytes(size))
        root = prime_power_root(size)
        if root is None:
            raise InvalidParameters(f"{size} is not a prime power")
        return elementary_abelian(*root)
    fn = _NAMED.get(name)
    if fn is None:
        raise InvalidParameters(f"unknown named group {name!r}")
    return fn(size)


# -- test/benchmark catalog -------------------------------------------------------


@lru_cache(maxsize=1)
def small_catalog() -> tuple[tuple[str, GroupTable], ...]:
    """Labeled groups of order <= 64 exercised by oracles and equivalence tests."""
    entries: list[tuple[str, GroupTable]] = [
        ("C1", cyclic(1)),
        ("C2", cyclic(2)),
        ("C3", cyclic(3)),
        ("C4", cyclic(4)),
        ("C2xC2", elementary_abelian(2, 2)),
        ("C5", cyclic(5)),
        ("C6", cyclic(6)),
        ("S3", symmetric(3)),
        ("C8", cyclic(8)),
        ("C4xC2", abelian_group((4, 2))),
        ("C2^3", elementary_abelian(2, 3)),
        ("D8", dihedral(8)),
        ("Q8", quaternion(8)),
        ("C9", cyclic(9)),
        ("C3xC3", elementary_abelian(3, 2)),
        ("C12", cyclic(12)),
        ("D12", dihedral(12)),
        ("C16", cyclic(16)),
        ("D16", dihedral(16)),
        ("SD16", semidihedral(16)),
        ("Q16", quaternion(16)),
        ("S4", symmetric(4)),
        ("Heis27", stem_group("Phi2", 3)),
        ("C27", cyclic(27)),
        ("C3^3", elementary_abelian(3, 3)),
        ("D32", dihedral(32)),
        ("SD32", semidihedral(32)),
        ("Q32", quaternion(32)),
        ("Gamma4a2", stem_group("Gamma4", 2)),
        ("Gamma5a1", stem_group("Gamma5", 2)),
        ("Gamma6a1", stem_group("Gamma6", 2)),
        ("Gamma7a1", stem_group("Gamma7", 2)),
        ("C2^5", elementary_abelian(2, 5)),
    ]
    return tuple(entries)
