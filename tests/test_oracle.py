from __future__ import annotations

from itertools import product

import pytest

from conjgf.errors import TupleCapExceeded
from conjgf.genfun import alpha_coefficient, beta_coefficient
from conjgf.groups import GroupTable
from conjgf import oracle
from conjgf.oracle import alpha_brute, beta_brute, commuting_tuples


def commuting_tuples_filter(g: GroupTable, n: int) -> list[tuple[int, ...]]:
    """Reference enumeration: filter G^n for pairwise commuting tuples."""
    return sorted(tup for tup in product(range(g.order), repeat=n)
                  if all(g.mul_index(tup[i], tup[j]) == g.mul_index(tup[j], tup[i])
                         for i in range(n) for j in range(i + 1, n)))


def test_alpha_brute_basics(catalog):
    s3 = catalog["S3"]
    assert alpha_brute(s3, 0).count == 1
    assert alpha_brute(s3, 2).count == 11
    result = alpha_brute(s3, 2)
    assert result.tuples_visited == 36
    assert result.mode == "all_tuples"
    assert result.record() == "S3 all_tuples 2 11 36"


def test_alpha_abelian_is_full_tuple_count(catalog):
    g = catalog["C6"]
    assert alpha_brute(g, 2).count == 36
    assert alpha_brute(g, 3).count == 216


def test_beta_brute_basics(catalog):
    s3 = catalog["S3"]
    assert beta_brute(s3, 1).count == 3  # class number
    assert beta_brute(s3, 2).count == 8
    q8 = catalog["Q8"]
    result = beta_brute(q8, 2)
    assert result.count == 22
    assert result.tuples_visited == 40  # commuting pairs in Q8


def test_beta_le_alpha(catalog):
    for label in ("S3", "D8", "Q8", "D12"):
        g = catalog[label]
        for n in range(3):
            assert beta_brute(g, n).count <= alpha_brute(g, n).count, (label, n)
        assert beta_brute(g, 1).count == alpha_brute(g, 1).count, label


def test_cap_enforced(catalog, monkeypatch):
    # D32 at n = 2 has exactly 32^2 tuples: one under the cap raises, at the cap runs
    d32 = catalog["D32"]
    monkeypatch.setattr(oracle, "DEFAULT_TUPLE_CAP", 32**2 - 1)
    with pytest.raises(TupleCapExceeded):
        alpha_brute(d32, 2)
    with pytest.raises(TupleCapExceeded):
        beta_brute(d32, 2)
    monkeypatch.setattr(oracle, "DEFAULT_TUPLE_CAP", 32**2)
    assert alpha_brute(d32, 2).tuples_visited == 1024
    assert beta_brute(d32, 2).tuples_visited == 32 * 11  # |G| k(G) commuting pairs


def test_prefix_centralizer_enumeration_matches_filter(catalog):
    for label in ("C6", "S3", "D8", "Q8", "C12"):
        g = catalog[label]
        for n in (1, 2, 3):
            assert sorted(commuting_tuples(g, n)) == commuting_tuples_filter(g, n), (label, n)


def test_oracle_matches_series_small(catalog):
    # S4 and Gamma5a1 have non-abelian centralizers, so B recurses below them
    for label in ("S3", "D8", "Q8", "C12", "S4", "Gamma5a1"):
        g = catalog[label]
        for n in range(4):
            assert alpha_brute(g, n).count == alpha_coefficient(g, n), (label, n)
            assert beta_brute(g, n).count == beta_coefficient(g, n), (label, n)
