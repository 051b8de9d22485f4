from __future__ import annotations

import pytest

import conjgf
import conjgf.genfun


@pytest.mark.parametrize("module", [conjgf, conjgf.genfun])
def test_every_export_resolves(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
