from __future__ import annotations

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conjgf import groups, pcp
from conjgf.analysis import center_elements, element_orders
from conjgf.errors import ClosureExceedsCap, InconsistentPresentation, InvalidParameters
from conjgf.families import _GAMMA_PRESENTATIONS, PHI_FAMILIES, _phi_presentation
from conjgf.groups import certify
from conjgf.pcp import (
    EXACT_PRIME_LIMIT,
    PcPresentation,
    Word,
    build_from_pcp,
    collect,
    is_prime,
    prime_power_root,
)


def test_is_prime_and_prime_power():
    assert [n for n in range(20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert prime_power_root(243) == (3, 5)
    assert prime_power_root(1024) == (2, 10)
    assert prime_power_root(12) is None
    assert prime_power_root(1) is None


def _trial_division(n: int) -> bool:
    return n >= 2 and all(n % f for f in range(2, math.isqrt(n) + 1))


def test_is_prime_matches_trial_division():
    primes = [n for n in range(10**4 + 1) if _trial_division(n)]
    assert [n for n in range(10**4 + 1) if is_prime(n)] == primes

    # PcPresentation accepts a cyclic group of prime order n exactly when n is prime
    def accepted(n: int) -> bool:
        try:
            PcPresentation(p=n, relative_orders=(n,), power_words=(None,))
        except InvalidParameters:
            return False
        return True

    assert [n for n in range(2, 10**4 + 1) if accepted(n)] == primes


def test_is_prime_large_inputs():
    # strong pseudoprimes to the bases 2..7, 2..23 and 2..37, each refused
    for n in (3_215_031_751, 3_825_123_056_546_413_051, 318_665_857_834_031_151_167_461):
        assert not is_prime(n), n
    assert not is_prime(561)  # Carmichael
    assert is_prime(2**61 - 1) and is_prime(2**31 - 1)
    assert not is_prime(EXACT_PRIME_LIMIT - 1)  # even
    with pytest.raises(InvalidParameters):
        is_prime(EXACT_PRIME_LIMIT)
    with pytest.raises(InvalidParameters):
        is_prime(2**89 - 1)


def test_cyclic_c8():
    pres = PcPresentation(p=2, relative_orders=(8,), power_words=(None,), label="C8")
    g = build_from_pcp(pres)
    assert g.order == 8
    assert (g.mul == g.mul.T).all()
    assert element_orders(g)[g.generators[0]] == 8


def test_compiled_order_is_product_of_relative_orders():
    pres = PcPresentation(p=3, relative_orders=(3, 9), power_words=(None, None))
    assert pres.compiled_order() == 27
    g = build_from_pcp(pres)
    assert g.order == 27


def test_collection_normalizes_words():
    # Heisenberg p=3: [g1, g0] = g2^2  (i.e. the generators' commutator is central)
    pres = PcPresentation(
        p=3, relative_orders=(3, 3, 3), power_words=(None,) * 3,
        commutator_words={(1, 0): (0, 0, 2)},
    )
    # g1 * g0 must collect to g0 g1 g2^2
    assert collect(pres, [[1, 1], [0, 1]]) == (1, 1, 2)
    # exponent overflow uses the power word (here trivial)
    assert collect(pres, [[0, 2], [0, 2]]) == (1, 0, 0)


def test_weight_ordering_enforced():
    with pytest.raises(InvalidParameters):
        PcPresentation(p=2, relative_orders=(2, 2), power_words=((1, 0), None))
    with pytest.raises(InvalidParameters):
        PcPresentation(p=2, relative_orders=(2, 2), power_words=(None, None),
                       commutator_words={(1, 0): (1, 0)})
    with pytest.raises(InvalidParameters):
        PcPresentation(p=2, relative_orders=(2, 6), power_words=(None, None))


def test_phi8_example_order_and_center():
    # order p, p^2, p^2 with a1^p = b, [a1,a2] = b, [b,a2] = b^p
    p = 3
    pres = PcPresentation(
        p=p, relative_orders=(p, p * p, p * p),
        power_words=((0, 0, 1), None, None),
        commutator_words={(1, 0): (0, 0, p * p - 1), (2, 1): (0, 0, p)},
        label="Phi8(3)",
    )
    g = build_from_pcp(pres)
    assert g.order == 243
    z = center_elements(g)
    assert len(z) == 3
    # the center is generated by b^p: exponent vector (0, 0, p)
    assert set(z) == {0, p, 2 * p}


def test_inconsistent_presentation_rejected():
    # C4 presented with relative order 2 and a bogus central power word:
    # g0^2 = g1 with [g1, g0] = g1 forces a non-associative table
    pres = PcPresentation(
        p=2, relative_orders=(2, 2), power_words=((0, 1), None),
        commutator_words={(1, 0): (0, 1)},
    )
    with pytest.raises(InconsistentPresentation, match=re.escape("certificate failed at inverses (2,)")):
        build_from_pcp(pres)


@pytest.mark.parametrize("family", ["Phi9", "Phi10"])
def test_p3_presentation_without_power_words_rejected(family):
    # at p = 3 these families are consistent only with their power words
    pres = _phi_presentation(family, 3)
    bare = PcPresentation(p=3, relative_orders=pres.relative_orders, power_words=(None,) * 5,
                          commutator_words=pres.commutator_words, label=family)
    with pytest.raises(InconsistentPresentation, match=re.escape("certificate failed at inverses (108,)")):
        build_from_pcp(bare)


def _assert_matches_collect(pres: PcPresentation) -> None:
    """Every generator product x * g_i of the built table is collect's normal
    form of the word x g_i.  Both tables are certified groups generated by the
    g_i, so agreeing on these |G| * d products makes them equal."""
    g = build_from_pcp(pres)
    orders = pres.relative_orders
    got = g.mul[:, list(g.generators)].tolist()
    for x, vec in enumerate(np.ndindex(*orders)):  # lexicographic, as the element indices
        word = [[k, e] for k, e in enumerate(vec) if e]
        want = [np.ravel_multi_index(collect(pres, word + [[i, 1]]), orders) for i in range(len(orders))]
        assert got[x] == want, (pres.label, x)


CATALOG_PRESENTATIONS = (
    list(_GAMMA_PRESENTATIONS.values())
    + [_phi_presentation(f, 3) for f in PHI_FAMILIES]
    + [_phi_presentation("Phi5", 5), _phi_presentation("Phi10", 5)]
)


@pytest.mark.parametrize("pres", CATALOG_PRESENTATIONS, ids=lambda pres: pres.label)
def test_build_matches_collect_on_catalog(pres):
    _assert_matches_collect(pres)


@st.composite
def class_two_presentations(draw):
    """Commutator words only into trailing central generators that no commutator
    key names, and no power words: class at most 2 and odd p, so consistent."""
    p = draw(st.sampled_from((3, 5)))
    d = draw(st.integers(3, 5))
    top = draw(st.integers(2, d - 1))  # g_top .. g_(d-1) are central
    word = st.lists(st.integers(0, p - 1), min_size=d - top, max_size=d - top)
    comms = {}
    for j in range(1, top):
        for i in range(j):
            tail = draw(word)
            if any(tail):
                comms[(j, i)] = (0,) * top + tuple(tail)
    return PcPresentation(p=p, relative_orders=(p,) * d, power_words=(None,) * d,
                          commutator_words=comms, label=f"class2({p}, {d}, {sorted(comms)})")


@given(class_two_presentations())
@settings(max_examples=20, deadline=None)
def test_build_matches_collect_on_class_two(pres):
    _assert_matches_collect(pres)


def test_presentation_order_cap_at_its_edge(monkeypatch):
    monkeypatch.setattr(groups, "DEFAULT_ORDER_CAP", 27)
    assert build_from_pcp(PcPresentation(p=3, relative_orders=(3, 9), power_words=(None, None))).order == 27
    monkeypatch.setattr(groups, "DEFAULT_ORDER_CAP", 26)
    with pytest.raises(ClosureExceedsCap):
        PcPresentation(p=3, relative_orders=(3, 9), power_words=(None, None))


def test_huge_prime_is_refused_before_trial_division():
    # trial division of 2^89 - 1 would run for days
    p = 2**89 - 1
    with pytest.raises(ClosureExceedsCap):
        PcPresentation(p=p, relative_orders=(p,), power_words=(None,))
    with pytest.raises(InvalidParameters, match="is not a prime dividing the order 2"):
        PcPresentation(p=p, relative_orders=(2,), power_words=(None,))


def test_certificate_skips_full_check_above_256():
    pres = PcPresentation(p=3, relative_orders=(3,) * 5, power_words=(None,) * 5,
                          commutator_words={(1, 0): (0, 0, 0, 0, 2)}, label="big")
    g = build_from_pcp(pres)
    assert g.order == 243
    assoc = {c.name: c for c in certify(g).checks}["associativity"]
    assert (assoc.status, assoc.detail) == ("pass", "all triples")
    bigger = PcPresentation(p=2, relative_orders=(2,) * 9, power_words=(None,) * 9, label="C2^9")
    h = build_from_pcp(bigger)
    assoc = {c.name: c for c in certify(h).checks}["associativity"]
    assert (assoc.status, assoc.detail) == ("pass", "generator triples")


def test_quaternion_presentation():
    pres = PcPresentation(p=2, relative_orders=(2, 4), power_words=((0, 2), None),
                          commutator_words={(1, 0): (0, 2)}, label="Q8")
    g = build_from_pcp(pres)
    assert g.order == 8
    assert len(center_elements(g)) == 2
    orders = sorted(element_orders(g).tolist())
    assert orders == [1, 2, 4, 4, 4, 4, 4, 4]


def test_build_memory_bound_at_order_3125():
    # each block is written into the new uint16 table in place: no (r, m, m) temporaries
    pres = _phi_presentation("Phi5", 5)
    tracemalloc.start()
    try:
        g = build_from_pcp(pres)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * 2 * g.order**2, f"build peak {peak} bytes at order {g.order}"


def _build_spying_on_certify(pres: PcPresentation, bypass_proof: bool = False):
    """(table or None, the InconsistentPresentation message or None, every table
    `build_from_pcp` handed to `certify`); with bypass_proof every level's
    Hoelder check reports failure, so the build certifies its table as it
    did before the proof."""
    certified = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pcp, "certify", lambda t: certified.append(t) or certify(t))
        if bypass_proof:
            mp.setattr(pcp, "_holder_conditions", lambda *args: False)
        try:
            return build_from_pcp(pres), None, certified
        except InconsistentPresentation as exc:
            return None, str(exc), certified


@st.composite
def weight_ordered_presentations(draw):
    """Random weight-ordered presentations with p in {2, 3}, d <= 5 and order
    <= 2000; each power or commutator word is absent (two times in three), or
    random over the deeper generators, so both verdicts come up often."""
    p = draw(st.sampled_from((2, 3)))
    d = draw(st.integers(1, 5))
    budget = 10 if p == 2 else 6  # p^budget <= 2000
    exps = []
    for i in range(d):
        exps.append(draw(st.integers(1, min(3, budget - sum(exps) - (d - 1 - i)))))
    orders = tuple(p**e for e in exps)

    def word(leading: int) -> Word | None:
        if draw(st.integers(0, 2)):
            return None
        return tuple(0 if k <= leading else draw(st.integers(0, orders[k] - 1)) for k in range(d))

    powers = tuple(word(i) for i in range(d))
    comms = {(j, i): w for j in range(d) for i in range(j) if (w := word(i)) is not None}
    return PcPresentation(p=p, relative_orders=orders, power_words=powers, commutator_words=comms,
                          label=f"random({orders}, {powers}, {sorted(comms.items())})")


@given(weight_ordered_presentations())
@settings(max_examples=150, deadline=None)
def test_holder_proof_agrees_with_certify(pres):
    _, want_error, [table] = _build_spying_on_certify(pres, bypass_proof=True)
    is_group = certify(table).ok
    got, error, certified = _build_spying_on_certify(pres)
    assert error == want_error
    assert (error is None) == is_group
    # the proof alone accepts exactly the presentations whose table is a group
    assert len(certified) == (0 if is_group else 1)
    if got is not None:
        assert np.array_equal(got.mul, table.mul) and np.array_equal(got.inv, table.inv)


def test_consistent_build_does_not_certify():
    _, error, certified = _build_spying_on_certify(_phi_presentation("Phi5", 5))
    assert error is None and certified == []
    bogus = PcPresentation(p=2, relative_orders=(2, 2), power_words=((0, 1), None),
                           commutator_words={(1, 0): (0, 1)})
    _, error, certified = _build_spying_on_certify(bogus)
    assert error is not None and len(certified) == 1


def test_consistent_build_does_not_scan_for_inverses():
    # the levels give inv; only a table that fails the proof is scanned, for certify's witness
    scanned = []
    bogus = PcPresentation(p=2, relative_orders=(2, 2), power_words=((0, 1), None),
                           commutator_words={(1, 0): (0, 1)})
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pcp, "inverses", lambda mul: scanned.append(len(mul)) or groups.inverses(mul))
        build_from_pcp(_phi_presentation("Phi5", 5))
        assert scanned == []
        with pytest.raises(InconsistentPresentation):
            build_from_pcp(bogus)
    assert scanned == [4]


def test_level_inverses_match_the_scan():
    stems = list(_GAMMA_PRESENTATIONS.values()) + [_phi_presentation(f, p) for p in (3, 5) for f in PHI_FAMILIES]
    for pres in stems:
        g = build_from_pcp(pres)
        assert g.inv.dtype == groups.INDEX_DTYPE, pres.label
        assert np.array_equal(g.inv, groups.inverses(g.mul)), pres.label
