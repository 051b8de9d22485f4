"""Group-spec documents: one JSON object per file describing a group to build.

Schema (unknown fields are rejected):

  {"kind": "permutation", "generators": [[1,2,0], ...], "label": "..."}
      Each generator is the image array of a bijection on 0..k-1.

  {"kind": "cayley", "table": [[0,1],[1,0]], "label": "..."}
      A full multiplication table over element indices; identity at index 0.

  {"kind": "pcp", "p": 3, "relative_orders": [3,3,3],
   "power_words": [null, [0,0,1], null],
   "commutators": [{"left": 1, "right": 0, "word": [0,0,2]}],
   "label": "..."}
      Words are normal-form exponent vectors over the generators (0-based);
      a commutator entry gives [g_left, g_right] for left > right, each pair
      at most once.  p must be a prime dividing the order, and every relative
      order a power of p.

  {"kind": "family", "name": "Phi5", "p": 3}
      Catalog families: abelian (p = any order), Phi2..Phi10 (p odd prime),
      Gamma2..Gamma8 (p = 2).  Named families reuse the p slot as their size
      parameter: cyclic/dihedral/semidihedral/quaternion (order),
      symmetric (degree), elementary_abelian (prime-power order).
"""

from __future__ import annotations

import json
from pathlib import Path

from . import families
from .errors import GroupSpecError, InvalidParameters
from .groups import GroupTable, _is_index, build_from_cayley, build_from_permutations, check_budget, checked_order
from .pcp import PcPresentation, build_from_pcp, is_prime, prime_power_root

# An entry takes at least 2 bytes of text ("0,") and at most 43 parsed and built (a
# list slot, an int object, a uint16): with the text read twice, under 25 a byte.
SPEC_BYTES_PER_TEXT_BYTE = 25

def _require_fields(doc: dict, required: set[str], optional: set[str]) -> None:
    missing = required - doc.keys()
    if missing:
        raise GroupSpecError(f"missing fields: {sorted(missing)}")
    unknown = doc.keys() - required - optional
    if unknown:
        raise GroupSpecError(f"unknown fields: {sorted(unknown)}")


def _int_field(value, what: str) -> int:
    """An integer field; bools, floats, strings and null are rejected, not coerced."""
    if not _is_index(value):
        raise GroupSpecError(f"{what} must be an integer, got {value!r}")
    return value


def _int_list(value, what: str) -> tuple[int, ...]:
    if not isinstance(value, list):
        raise GroupSpecError(f"{what} must be a list of integers, got {value!r}")
    return tuple(_int_field(v, what) for v in value)


def _str_field(value, what: str) -> str:
    if not isinstance(value, str):
        raise GroupSpecError(f"{what} must be a string, got {value!r}")
    return value


def _check_prime(p: int, orders: tuple[int, ...], label: str) -> None:
    """p is a prime dividing the order, and each r_i a power of p; the budget bounds the trials."""
    if not orders:
        raise InvalidParameters("presentation needs at least one generator")
    n = checked_order(label or "presentation", orders)
    if p > n or not is_prime(p):
        raise InvalidParameters(f"p = {p} is not a prime dividing the order {n}")
    for i, r in enumerate(orders):
        root = prime_power_root(r)
        if root is None or root[0] != p:
            raise InvalidParameters(f"relative order r_{i} = {r} is not a power of {p}")


def group_from_spec(doc: dict) -> GroupTable:
    """Build a group from a parsed group-spec document."""
    if not isinstance(doc, dict):
        raise GroupSpecError("group spec must be a JSON object")
    label = _str_field(doc.get("label", ""), "label")
    kind = doc.get("kind")
    if kind == "permutation":
        _require_fields(doc, {"kind", "generators"}, {"label"})
        gens = doc["generators"]
        if not isinstance(gens, list) or not all(isinstance(p, list) for p in gens):
            raise GroupSpecError("generators must be a list of image arrays")
        return build_from_permutations(gens, label=label)
    if kind == "cayley":
        _require_fields(doc, {"kind", "table"}, {"label"})
        return build_from_cayley(doc["table"], label=label)
    if kind == "pcp":
        _require_fields(
            doc, {"kind", "p", "relative_orders", "power_words", "commutators"}, {"label"}
        )
        orders = _int_list(doc["relative_orders"], "relative_orders")
        words = doc["power_words"]
        if not isinstance(words, list) or len(words) != len(orders):
            raise GroupSpecError("power_words must list one entry (or null) per generator")
        entries = doc["commutators"]
        if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
            raise GroupSpecError("commutators must be a list of objects")
        comms = {}
        for entry in entries:
            _require_fields(entry, {"left", "right", "word"}, set())
            key = (_int_field(entry["left"], "left"), _int_field(entry["right"], "right"))
            if key in comms:
                raise GroupSpecError(f"commutators list [g{key[0]}, g{key[1]}] twice")
            comms[key] = _int_list(entry["word"], "a commutator word")
        p = _int_field(doc["p"], "p")
        powers = tuple(None if w is None else _int_list(w, "a power word") for w in words)
        _check_prime(p, orders, label)
        return build_from_pcp(PcPresentation(relative_orders=orders, power_words=powers,
                                             commutator_words=comms, label=label))
    if kind == "family":
        _require_fields(doc, {"kind", "name", "p"}, set())
        return families.named_group(_str_field(doc["name"], "name"), _int_field(doc["p"], "p"))
    raise GroupSpecError(f"unknown kind {kind!r}")


def load_group_spec(path: str | Path) -> GroupTable:
    """Parse a group-spec file and build its group; the budget is checked before it is read."""
    try:
        size = Path(path).stat().st_size
        check_budget(f"{path}: a spec of {size} bytes", size * SPEC_BYTES_PER_TEXT_BYTE)
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise GroupSpecError(f"{path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an integer past Python's 4300 digits
        raise GroupSpecError(f"{path}: not valid JSON: {exc}") from exc
    try:
        return group_from_spec(doc)
    except GroupSpecError as exc:
        raise GroupSpecError(f"{path}: {exc}") from exc
