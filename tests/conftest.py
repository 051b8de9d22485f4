from __future__ import annotations

import pytest

from conjgf.families import GAMMA_FAMILIES, PHI_FAMILIES, small_catalog, stem_group, symmetric


@pytest.fixture(scope="session")
def catalog():
    """Labeled groups of order <= 64 shared across the suite (build once)."""
    return dict(small_catalog())


@pytest.fixture(scope="session")
def survey(catalog):
    """60 groups: the catalog, Phi2-Phi10 at p = 3 and 5, Gamma2-Gamma8, S5 and S6."""
    return [*catalog.values(), *(stem_group(f, p) for p in (3, 5) for f in PHI_FAMILIES),
            *(stem_group(f, 2) for f in GAMMA_FAMILIES), symmetric(5), symmetric(6)]
