from __future__ import annotations

import importlib
import sys
from pathlib import Path

import pytest

import conjgf
import conjgf.genfun


@pytest.mark.parametrize("module", [conjgf, conjgf.genfun])
def test_every_export_resolves(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


def test_benchmark_workloads_import(monkeypatch):
    # perfbench/workloads.py imports public and test-only names from conjgf;
    # deleting one of them must fail here, not first in a benchmark run
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    monkeypatch.delitem(sys.modules, "workloads", raising=False)
    workloads = importlib.import_module("workloads")
    assert Path(workloads.__file__).parent.name == "perfbench"
