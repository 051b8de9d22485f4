from __future__ import annotations

import hashlib
import math
import re
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conjgf import families, groups, pcp
from conjgf.analysis import center_elements, element_orders
from conjgf.errors import BudgetExceeded, InconsistentPresentation, InvalidParameters
from conjgf.families import (
    GAMMA_FAMILIES,
    PHI_FAMILIES,
    _stem_presentation,
    abelian_group,
    cyclic,
    dihedral,
    quaternion,
    semidihedral,
)
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
    pres = PcPresentation(relative_orders=(8,), power_words=(None,), label="C8")
    g = build_from_pcp(pres)
    assert g.order == 8
    assert (g.mul == g.mul.T).all()
    assert element_orders(g)[g.generators[0]] == 8


def test_compiled_order_is_product_of_relative_orders():
    pres = PcPresentation(relative_orders=(3, 9), power_words=(None, None))
    assert pres.compiled_order() == 27
    g = build_from_pcp(pres)
    assert g.order == 27


def test_collection_normalizes_words():
    # Heisenberg p=3: [g1, g0] = g2^2  (i.e. the generators' commutator is central)
    pres = PcPresentation(
        relative_orders=(3, 3, 3), power_words=(None,) * 3,
        commutator_words={(1, 0): (0, 0, 2)},
    )
    # g1 * g0 must collect to g0 g1 g2^2
    assert collect(pres, [[1, 1], [0, 1]]) == (1, 1, 2)
    # exponent overflow uses the power word (here trivial)
    assert collect(pres, [[0, 2], [0, 2]]) == (1, 0, 0)


_C2XC2 = PcPresentation(relative_orders=(2, 2), power_words=(None, None))
_HEIS3 = PcPresentation(relative_orders=(3, 3, 3), power_words=(None,) * 3,
                        commutator_words={(1, 0): (0, 0, 2)})


@pytest.mark.parametrize("pres, word, rewrites, normal", [
    # (g1 g0)^2: one swap, then g1^2 and g0^2 each rewritten by a power relation
    (_C2XC2, [[1, 1], [0, 1], [1, 1], [0, 1]], 3, (0, 0)),
    # g1 g0 g0^2 = g1: two commutator rewrites, two swaps, three powers and one more
    # commutator rewrite, counted by hand
    (_HEIS3, [[1, 1], [0, 1], [0, 2]], 8, (0, 1, 0)),
], ids=["C2xC2", "Heisenberg"])
def test_rewrite_budget_at_its_edge(monkeypatch, pres, word, rewrites, normal):
    # the budget is read at call time: the word's exact rewrite count passes and
    # one less raises at the (budget + 1)-th rewrite
    monkeypatch.setattr(pcp, "DEFAULT_REWRITE_BUDGET", rewrites)
    assert collect(pres, word) == normal
    monkeypatch.setattr(pcp, "DEFAULT_REWRITE_BUDGET", rewrites - 1)
    with pytest.raises(InconsistentPresentation, match=f"rewrite budget {rewrites - 1} exceeded"):
        collect(pres, word)


def test_weight_ordering_enforced():
    with pytest.raises(InvalidParameters):
        PcPresentation(relative_orders=(2, 2), power_words=((1, 0), None))
    with pytest.raises(InvalidParameters):
        PcPresentation(relative_orders=(2, 2), power_words=(None, None),
                       commutator_words={(1, 0): (1, 0)})


def test_relative_orders_are_at_least_two():
    # any relative order from 2 up is a cyclic extension, and no generator is the trivial group
    assert build_from_pcp(PcPresentation(relative_orders=(2, 6), power_words=(None, None))).order == 12
    trivial = build_from_pcp(PcPresentation(relative_orders=(), power_words=()))
    assert (trivial.order, trivial.mul.tolist(), trivial.inv.tolist()) == (1, [[0]], [0])
    with pytest.raises(InvalidParameters, match=re.escape("relative order r_1 = 1 is below 2")):
        PcPresentation(relative_orders=(3, 1), power_words=(None, None))


def test_phi8_example_order_and_center():
    # order p, p^2, p^2 with a1^p = b, [a1,a2] = b, [b,a2] = b^p
    p = 3
    pres = PcPresentation(
        relative_orders=(p, p * p, p * p),
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


def _holder_message(label: str, level: int, condition: str) -> str:
    return re.escape(f"{label}: level g{level} fails Hoelder's conditions: {condition}")


# C4 presented with relative order 2 and a bogus central power word:
# g0^2 = g1 with [g1, g0] = g1 forces a non-associative table
FAILS_FIXING_W = PcPresentation(relative_orders=(2, 2), power_words=((0, 1), None),
                                commutator_words={(1, 0): (0, 1)})


def test_inconsistent_presentation_rejected():
    # phi(g1) = g1^2 moves w = g1
    with pytest.raises(InconsistentPresentation, match=_holder_message("pcp(4)", 0, "phi(w) != w")):
        build_from_pcp(FAILS_FIXING_W)


@pytest.mark.parametrize("family", ["Phi9", "Phi10"])
def test_p3_presentation_without_power_words_rejected(family):
    # at p = 3 these families are consistent only with their power words
    pres = _stem_presentation(family, 3)
    bare = PcPresentation(relative_orders=pres.relative_orders, power_words=(None,) * 5,
                          commutator_words=pres.commutator_words, label=family)
    with pytest.raises(InconsistentPresentation,
                       match=_holder_message(family, 0, "phi^3 is not conjugation by w at g1")):
        build_from_pcp(bare)


@pytest.mark.parametrize("pres, condition", [
    # [g2, g1] = g3 but phi([g2, g1]) = [g2, g1] != g3 g2 = phi(g3)
    (PcPresentation(relative_orders=(3,) * 4, power_words=(None,) * 4,
                    commutator_words={(2, 1): (0, 0, 0, 1), (3, 0): (0, 0, 1, 0)}, label="b"),
     "phi is not a homomorphism at g1"),
    # phi(g1) = g1^2, so phi^3(g1) = g1^8 while w = 1 conjugates g1 to itself
    (PcPresentation(relative_orders=(3, 9), power_words=(None, None),
                    commutator_words={(1, 0): (0, 1)}, label="c"),
     "phi^3 is not conjugation by w at g1"),
    # a composite relative order: phi(g1) = g1^3 is an endomorphism of C6, and
    # phi^2(g1) = g1^9 = g1^3, not g1
    (PcPresentation(relative_orders=(2, 6), power_words=(None, None),
                    commutator_words={(1, 0): (0, 2)}, label="d"),
     "phi^2 is not conjugation by w at g1"),
], ids=["homomorphism", "conjugation", "composite"])
def test_each_holder_condition_names_its_witness(pres, condition):
    # test_inconsistent_presentation_rejected covers the third condition, phi(w) = w
    with pytest.raises(InconsistentPresentation, match=_holder_message(pres.label, 0, condition)):
        build_from_pcp(pres)


def test_inconsistent_order_7_5_raises_before_the_top_table():
    # g0^7 = g1 with [g1, g0] = g1 fails at level g0, so only N_1's table,
    # of order 7^4, is ever built: not the 7^5 x 7^5 one
    pres = PcPresentation(relative_orders=(7,) * 5, power_words=((0, 1, 0, 0, 0),) + (None,) * 4,
                          commutator_words={(1, 0): (0, 1, 0, 0, 0)}, label="bad7")
    tracemalloc.start()
    try:
        with pytest.raises(InconsistentPresentation, match=_holder_message("bad7", 0, "phi(w) != w")):
            build_from_pcp(pres)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 2 * 2401**2, f"peak {peak} bytes"


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
    [_stem_presentation(f, 2) for f in GAMMA_FAMILIES]
    + [_stem_presentation(f, 3) for f in PHI_FAMILIES]
    + [_stem_presentation("Phi5", 5), _stem_presentation("Phi10", 5)]
)


@pytest.mark.parametrize("pres", CATALOG_PRESENTATIONS, ids=lambda pres: pres.label)
def test_build_matches_collect_on_catalog(pres):
    _assert_matches_collect(pres)


def _named_presentation(monkeypatch, build) -> PcPresentation:
    """The presentation a named-group constructor hands to `build_from_pcp`."""
    given = []
    monkeypatch.setattr(families, "build_from_pcp", lambda pres: given.append(pres) or build_from_pcp(pres))
    build()
    return given[0]


@pytest.mark.parametrize("build", [
    lambda: cyclic(12), lambda: abelian_group((4, 3)), lambda: dihedral(12),
    lambda: semidihedral(32), lambda: quaternion(16),
], ids=["C12", "C4xC3", "D12", "SD32", "Q16"])
def test_build_matches_collect_on_named_groups(monkeypatch, build):
    _assert_matches_collect(_named_presentation(monkeypatch, build))


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
    return PcPresentation(relative_orders=(p,) * d, power_words=(None,) * d,
                          commutator_words=comms, label=f"class2({p}, {d}, {sorted(comms)})")


@given(class_two_presentations())
@settings(max_examples=20, deadline=None)
def test_build_matches_collect_on_class_two(pres):
    _assert_matches_collect(pres)


def test_presentation_order_cap_at_its_edge(monkeypatch):
    # the estimate is the order-27 table, checked when the presentation is made
    monkeypatch.setattr(groups, "MEMORY_BUDGET", groups.table_bytes(27))
    assert build_from_pcp(PcPresentation(relative_orders=(3, 9), power_words=(None, None))).order == 27
    monkeypatch.setattr(groups, "MEMORY_BUDGET", groups.table_bytes(27) - 1)
    with pytest.raises(BudgetExceeded, match="presentation needs 1458 bytes, over the budget of 1457 bytes"):
        PcPresentation(relative_orders=(3, 9), power_words=(None, None))


def test_certificate_label_does_not_depend_on_order():
    pres = PcPresentation(relative_orders=(3,) * 5, power_words=(None,) * 5,
                          commutator_words={(1, 0): (0, 0, 0, 0, 2)}, label="big")
    g = build_from_pcp(pres)
    assert g.order == 243
    assoc = {c.name: c for c in certify(g).checks}["associativity"]
    assert (assoc.status, assoc.detail) == ("pass", "all triples")
    bigger = PcPresentation(relative_orders=(2,) * 9, power_words=(None,) * 9, label="C2^9")
    h = build_from_pcp(bigger)
    assert h.order == 512
    assoc = {c.name: c for c in certify(h).checks}["associativity"]
    assert (assoc.status, assoc.detail) == ("pass", "all triples")


def test_quaternion_presentation():
    pres = PcPresentation(relative_orders=(2, 4), power_words=((0, 2), None),
                          commutator_words={(1, 0): (0, 2)}, label="Q8")
    g = build_from_pcp(pres)
    assert g.order == 8
    assert len(center_elements(g)) == 2
    orders = sorted(element_orders(g).tolist())
    assert orders == [1, 2, 4, 4, 4, 4, 4, 4]


def test_build_memory_bound_at_order_3125():
    # the build keeps the top level factored: it holds N_1's table (1/25 of
    # the group's), N_2's, and O(|G| r) index bytes, never the group's table;
    # the first read of mul gathers each row block into the new uint16 table
    # in place, besides which only N_1's table and O(|G|) indices are held.
    # That table is a memory mapping, outside tracemalloc's count
    pres = _stem_presentation("Phi5", 5)
    tracemalloc.start()
    try:
        g = build_from_pcp(pres)
        built = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        mul = g.mul
        read = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n, r = g.order, 5
    assert built <= groups.table_bytes(n // r) + 16 * n * r, built
    assert read < mul.nbytes == groups.table_bytes(n)
    assert mul.nbytes + read <= 1.06 * groups.table_bytes(n), read


def _differential_groups():
    """Every stem group at p = 2, 3 and 5, and Q256, fresh from their presentations."""
    for p in (2, 3, 5):
        for family in ("abelian",) + (GAMMA_FAMILIES if p == 2 else PHI_FAMILIES):
            yield families.build_stem_group(family, p)
    yield quaternion(256)


def test_factored_products_equal_the_table():
    # every product shape `prod` reads by a factored top level (elementwise,
    # broadcast, scalar, a column by a row in sorted, unsorted and empty
    # runs, uint16 and intp indices) equals the materialized table, exactly
    rng = np.random.default_rng(36)
    for g in _differential_groups():
        assert g._mul is None, g.label
        cases = []
        for dtype in (groups.INDEX_DTYPE, np.intp):
            xs, ys = (rng.integers(0, g.order, 700).astype(dtype) for _ in range(2))
            cases += [(xs, ys), (xs[:, None], ys[:40]), (xs[:30, None], ys[None, :50]),
                      (xs[:, None], np.sort(ys)), (np.sort(xs)[:, None], ys[:3]), (xs[:0, None], ys),
                      (xs[:5, None], ys[:0]), (xs[0], ys), (xs[0], ys[0]), (xs.reshape(7, 100), ys[:100])]
        got = [g.prod(x, y) for x, y in cases]
        for (x, y), value in zip(cases, got):
            want = g.mul[x, y]
            assert np.asarray(value).dtype == want.dtype and np.array_equal(value, want), (g.label, np.shape(x))


def test_factored_tables_equal_the_full_build():
    # mul, built on first read, and inv are byte for byte the tables the build
    # made when it materialized every level (sha256 from that build)
    digest = hashlib.sha256()
    for g in _differential_groups():
        digest.update(g.mul.tobytes())
        digest.update(g.inv.tobytes())
    assert digest.hexdigest() == "74867765853b9c8642e4857873e68b8a0a27d8238bc81171a3b3d6c5c0b5c6e7"


def test_build_of_one_large_relative_order():
    # Q4096 has relative orders (2, 2048): level g1 takes 2048 row gathers, not
    # 2048^2 block gathers, and at level g0 the only large temporary is N_1's
    # table, 1/4 of the new one
    tracemalloc.start()
    try:
        start = time.perf_counter()
        g = quaternion(4096)
        seconds = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.order == 4096 and len(center_elements(g)) == 2
    assert seconds <= 2, f"Q4096 built in {seconds:.2f} s"
    assert peak <= 1.3 * 2 * g.order**2, f"build peak {peak} bytes at order {g.order}"


@st.composite
def weight_ordered_presentations(draw):
    """Random weight-ordered presentations with relative orders in {2, ..., 6, 8, 9},
    prime powers and composite, d <= 5 and order <= 2000; each power or commutator
    word is absent (two times in three), or random over the deeper generators, so
    both verdicts come up often."""
    d = draw(st.integers(1, 5))
    orders: tuple[int, ...] = ()
    for i in range(d):  # room stays for a 2 at each later generator
        room = 2000 // (math.prod(orders) * 2 ** (d - 1 - i))
        orders += (draw(st.sampled_from([r for r in (2, 3, 4, 5, 6, 8, 9) if r <= room])),)

    def word(leading: int) -> Word | None:
        if draw(st.integers(0, 2)):
            return None
        return tuple(0 if k <= leading else draw(st.integers(0, orders[k] - 1)) for k in range(d))

    powers = tuple(word(i) for i in range(d))
    comms = {(j, i): w for j in range(d) for i in range(j) if (w := word(i)) is not None}
    return PcPresentation(relative_orders=orders, power_words=powers, commutator_words=comms,
                          label=f"random({orders}, {powers}, {sorted(comms.items())})")


@given(weight_ordered_presentations())
@settings(max_examples=150, deadline=None)
def test_holder_proof_agrees_with_certify(pres):
    # the block formula's table, built with the proof bypassed, certified with the
    # scan's inverses: the level formula's inverses mean nothing on a non-group
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pcp, "_holder_conditions", lambda *args: None)
        raw = build_from_pcp(pres)
    scan = groups.inverses(raw.mul)
    is_group = certify(groups.GroupTable(order=raw.order, mul=raw.mul, inv=scan,
                                         generators=raw.generators)).ok
    try:
        got = build_from_pcp(pres)
    except InconsistentPresentation:
        got = None
    # the proof accepts exactly the presentations whose table is a group, and on
    # a group the level formula's inverses are the scan's
    assert (got is not None) == is_group
    if got is not None:
        assert np.array_equal(got.mul, raw.mul) and np.array_equal(got.inv, scan)


def _build_spying_on(monkeypatch, name):
    # calls of groups.<name> by a consistent Phi5(5) build and by a failing build
    calls = []
    real = getattr(groups, name)
    monkeypatch.setattr(groups, name, lambda *a: calls.append(name) or real(*a))
    build_from_pcp(_stem_presentation("Phi5", 5))
    with pytest.raises(InconsistentPresentation):
        build_from_pcp(FAILS_FIXING_W)
    return calls


def test_consistent_build_does_not_certify(monkeypatch):
    # Hoelder's conditions are the proof, on either verdict
    assert not hasattr(pcp, "certify")
    assert _build_spying_on(monkeypatch, "certify") == []


def test_consistent_build_does_not_scan_for_inverses(monkeypatch):
    # the levels give inv, and a failing build stops before its table exists
    assert not hasattr(pcp, "inverses")
    assert _build_spying_on(monkeypatch, "inverses") == []


def test_level_inverses_match_the_scan():
    stems = [_stem_presentation(f, 2) for f in GAMMA_FAMILIES] + [
        _stem_presentation(f, p) for p in (3, 5) for f in PHI_FAMILIES]
    for pres in stems:
        g = build_from_pcp(pres)
        assert g.inv.dtype == groups.INDEX_DTYPE, pres.label
        assert np.array_equal(g.inv, groups.inverses(g.mul)), pres.label
