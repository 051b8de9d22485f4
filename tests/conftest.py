from __future__ import annotations

import numpy as np
import pytest

from conjgf.families import GAMMA_FAMILIES, PHI_FAMILIES, small_catalog, stem_group, symmetric
from conjgf.groups import GroupTable, inverses


def relabelled(g: GroupTable, labelling: int | np.ndarray) -> GroupTable:
    """A copy of g in which element x is renamed perm[x].  `labelling` is perm
    itself (perm[0] must be 0), or a seed for a random perm fixing 0."""
    if isinstance(labelling, int):
        perm = np.concatenate(([0], 1 + np.random.default_rng(labelling).permutation(g.order - 1)))
        label = f"{g.label}~{labelling}"
    else:
        perm, label = np.asarray(labelling), f"{g.label}'"
    mul = np.empty_like(g.mul)
    mul[np.ix_(perm, perm)] = perm[g.mul]
    gens = tuple(int(perm[s]) for s in g.generators)
    return GroupTable(order=g.order, mul=mul, inv=inverses(mul), generators=gens, label=label)


def taylor(f, count: int) -> tuple:
    """The first `count` Taylor coefficients of a `RationalGF` at t = 0."""
    return tuple(f.coefficient(n) for n in range(count))


@pytest.fixture(scope="session")
def catalog():
    """Labeled groups of order <= 64 shared across the suite (build once)."""
    return dict(small_catalog())


@pytest.fixture(scope="session")
def survey(catalog):
    """60 groups: the catalog, Phi2-Phi10 at p = 3 and 5, Gamma2-Gamma8, S5 and S6."""
    return [*catalog.values(), *(stem_group(f, p) for p in (3, 5) for f in PHI_FAMILIES),
            *(stem_group(f, 2) for f in GAMMA_FAMILIES), symmetric(5), symmetric(6)]
