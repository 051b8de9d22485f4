from __future__ import annotations

import json
import time
import tracemalloc

import pytest

from conjgf import groups, groupspec
from conjgf.errors import BudgetExceeded, GroupSpecError, InvalidParameters, NotAGroup
from conjgf.groupspec import group_from_spec, load_group_spec
from conjgf.pcp import is_prime


def test_permutation_kind():
    g = group_from_spec({"kind": "permutation", "generators": [[1, 2, 0], [1, 0, 2]], "label": "S3"})
    assert g.order == 6
    assert g.label == "S3"


def test_cayley_kind():
    g = group_from_spec({"kind": "cayley", "table": [[0, 1], [1, 0]]})
    assert g.order == 2
    for table in ([[0, "x"], [1, 0]], 5):
        with pytest.raises(NotAGroup) as err:
            group_from_spec({"kind": "cayley", "table": table})
        assert err.value.axiom == "shape"


HEIS27 = {
    "kind": "pcp",
    "p": 3,
    "relative_orders": [3, 3, 3],
    "power_words": [None, None, None],
    "commutators": [{"left": 1, "right": 0, "word": [0, 0, 2]}],
    "label": "Heis27",
}


def test_pcp_kind():
    g = group_from_spec(HEIS27)
    assert g.order == 27


def _comm(**entry):
    return [{"left": 1, "right": 0, "word": [0, 0, 2], **entry}]


@pytest.mark.parametrize("field, doc", [
    ("p", {**HEIS27, "p": 3.9}),
    ("p", {**HEIS27, "p": "x"}),
    ("p", {**HEIS27, "p": None}),
    ("p", {**HEIS27, "p": True}),
    ("relative_orders", {**HEIS27, "relative_orders": 5}),
    ("relative_orders", {**HEIS27, "relative_orders": [3, 3.0, 3]}),
    ("power word", {**HEIS27, "power_words": [None, [0, 0, 1.0], None]}),
    ("power word", {**HEIS27, "power_words": [None, 7, None]}),
    ("commutator word", {**HEIS27, "commutators": _comm(word=[0, 0, "2"])}),
    ("left", {**HEIS27, "commutators": _comm(left=1.7)}),
    ("right", {**HEIS27, "commutators": _comm(right=False)}),
    ("commutators", {**HEIS27, "commutators": 5}),
    ("p", {"kind": "family", "name": "Phi5", "p": 3.9}),
    ("p", {"kind": "family", "name": "Phi5", "p": "x"}),
    ("p", {"kind": "family", "name": "Phi5", "p": None}),
])
def test_integer_fields_reject_non_integers(field, doc):
    with pytest.raises(GroupSpecError, match=field):
        group_from_spec(doc)


@pytest.mark.parametrize("field, doc", [
    ("name", {"kind": "family", "name": ["Phi5"], "p": 3}),
    ("name", {"kind": "family", "name": 5, "p": 3}),
    ("name", {"kind": "family", "name": None, "p": 3}),
    ("label", {"kind": "permutation", "generators": [[1, 0]], "label": 5}),
    ("label", {"kind": "cayley", "table": [[0]], "label": ["x"]}),
    ("label", {**HEIS27, "label": None}),
])
def test_string_fields_reject_non_strings(field, doc):
    with pytest.raises(GroupSpecError, match=f"{field} must be a string"):
        group_from_spec(doc)


def test_family_kind():
    assert group_from_spec({"kind": "family", "name": "Phi5", "p": 3}).order == 243
    assert group_from_spec({"kind": "family", "name": "Gamma3", "p": 2}).order == 16
    assert group_from_spec({"kind": "family", "name": "abelian", "p": 7}).order == 7
    assert group_from_spec({"kind": "family", "name": "dihedral", "p": 16}).order == 16
    assert group_from_spec({"kind": "family", "name": "quaternion", "p": 32}).order == 32
    assert group_from_spec({"kind": "family", "name": "semidihedral", "p": 16}).order == 16
    assert group_from_spec({"kind": "family", "name": "symmetric", "p": 4}).order == 24
    assert group_from_spec({"kind": "family", "name": "cyclic", "p": 5}).order == 5
    assert group_from_spec({"kind": "family", "name": "elementary_abelian", "p": 27}).order == 27


@pytest.mark.parametrize("name", ["teapot", "phi5", "Phi11"])
def test_family_kind_unknown_name(name):
    with pytest.raises(InvalidParameters, match=f"unknown .*{name!r}"):
        group_from_spec({"kind": "family", "name": name, "p": 3})


def test_unknown_fields_rejected():
    with pytest.raises(GroupSpecError):
        group_from_spec({"kind": "permutation", "generators": [[0]], "surprise": 1})
    with pytest.raises(GroupSpecError):
        group_from_spec({"kind": "family", "name": "Phi5", "p": 3, "label": "x"})
    with pytest.raises(GroupSpecError):
        group_from_spec({"kind": "cayley"})
    with pytest.raises(GroupSpecError):
        group_from_spec({"kind": "teapot"})
    with pytest.raises(GroupSpecError):
        group_from_spec({"kind": "pcp", "p": 3, "relative_orders": [3],
                         "power_words": [None], "commutators": [{"left": 1, "word": [0]}]})


def _cyclic_pcp(p: int, *orders: int) -> dict:
    return {"kind": "pcp", "p": p, "relative_orders": list(orders),
            "power_words": [None] * len(orders), "commutators": []}


def test_pcp_spec_p_is_a_prime_dividing_the_order():
    # a cyclic spec of order n with p = n is accepted exactly when n is prime
    def accepted(n: int) -> bool:
        try:
            group_from_spec(_cyclic_pcp(n, n))
        except InvalidParameters:
            return False
        return True

    assert [n for n in range(2, 300) if accepted(n)] == [n for n in range(2, 300) if is_prime(n)]
    for doc, message in (
        (_cyclic_pcp(4, 4), "p = 4 is not a prime dividing the order 4"),
        (_cyclic_pcp(29, 3, 9), "p = 29 is not a prime dividing the order 27"),
        (_cyclic_pcp(2, 2, 6), "relative order r_1 = 6 is not a power of 2"),
        (_cyclic_pcp(3, 3, 1), "relative order r_1 = 1 is not a power of 3"),
        (_cyclic_pcp(2), "presentation needs at least one generator"),
    ):
        with pytest.raises(InvalidParameters) as err:
            group_from_spec(doc)
        assert str(err.value) == message


def test_huge_prime_is_refused_before_trial_division():
    # trial division of 2^89 - 1 would run for days: the budget refuses the order
    # first, and 2 is too small an order for p
    p = 2**89 - 1
    with pytest.raises(BudgetExceeded):
        group_from_spec(_cyclic_pcp(p, p))
    with pytest.raises(InvalidParameters, match="is not a prime dividing the order 2"):
        group_from_spec(_cyclic_pcp(p, 2))


def test_long_pcp_spec_is_refused_at_the_first_factor_over_the_budget():
    # 2^15's table passes the budget: the product of 10^5 relative orders of 2,
    # quadratic in their count, is never multiplied out
    orders = [2] * 10**5
    spec = {"kind": "pcp", "p": 2, "relative_orders": orders, "power_words": [None] * len(orders),
            "commutators": []}
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded, match="needs 2147483648 bytes"):
        group_from_spec(spec)
    assert time.perf_counter() - start < 1


def test_pcp_commutator_listed_twice_rejected():
    twice = {**HEIS27, "commutators": _comm() + _comm(word=[0, 0, 1])}
    with pytest.raises(GroupSpecError, match=r"\[g1, g0\] twice"):
        group_from_spec(twice)


def test_load_group_spec_file(tmp_path):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"kind": "family", "name": "Gamma5", "p": 2}), encoding="utf-8")
    g = load_group_spec(path)
    assert g.order == 32
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(GroupSpecError):
        load_group_spec(bad)


def _cyclic_spec(path, n: int) -> int:
    """Write the Cayley table of C_n as a spec, as `json.dump` spaces it; its size in bytes."""
    rows = ("[" + ", ".join(map(str, [(i + j) % n for j in range(n)])) + "]" for i in range(n))
    path.write_text('{"kind": "cayley", "table": [' + ", ".join(rows) + "]}", encoding="utf-8")
    return path.stat().st_size


def test_spec_text_budget_at_its_edge(tmp_path, monkeypatch):
    # a spec of s bytes is estimated at 25 s: one byte below refuses it before
    # the text is parsed, and the estimate itself loads it
    real_loads, parsed = json.loads, []
    monkeypatch.setattr(json, "loads", lambda text: parsed.append(text) or real_loads(text))
    path = tmp_path / "c3.json"
    size = _cyclic_spec(path, 3)
    estimate = groupspec.SPEC_BYTES_PER_TEXT_BYTE * size
    monkeypatch.setattr(groups, "MEMORY_BUDGET", estimate - 1)
    with pytest.raises(BudgetExceeded, match=f"c3.json: a spec of {size} bytes needs {estimate} bytes"):
        load_group_spec(path)
    assert parsed == []
    monkeypatch.setattr(groups, "MEMORY_BUDGET", estimate)
    assert load_group_spec(path).order == 3 and len(parsed) == 1


def test_spec_estimate_covers_an_order_2000_table(tmp_path):
    # 21.8 MB of text, which peaks near 7.4 bytes a byte against the estimate's 25
    path = tmp_path / "c2000.json"
    size = _cyclic_spec(path, 2000)
    _cyclic_spec(tmp_path / "c3.json", 3)
    load_group_spec(tmp_path / "c3.json")  # what the first load in a process allocates once
    tracemalloc.start()
    try:
        g = load_group_spec(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.order == 2000 and peak <= groupspec.SPEC_BYTES_PER_TEXT_BYTE * size <= groups.MEMORY_BUDGET, peak
