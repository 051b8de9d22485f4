from __future__ import annotations

import ast
import importlib
import sys
from pathlib import Path

import pytest

import conjgf
import conjgf.genfun

REPO_ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("module", [conjgf, conjgf.genfun])
def test_every_export_resolves(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


def test_benchmark_workloads_import(monkeypatch):
    # perfbench/workloads.py imports public and test-only names from conjgf;
    # deleting one of them must fail here, not first in a benchmark run
    monkeypatch.syspath_prepend(str(REPO_ROOT / "perfbench"))
    monkeypatch.delitem(sys.modules, "workloads", raising=False)
    workloads = importlib.import_module("workloads")
    assert Path(workloads.__file__).parent.name == "perfbench"


def _names_read(node: ast.AST) -> set[str]:
    return ({n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)})


def _constants_assigned(stmt: ast.stmt) -> set[str]:
    """The UPPER_CASE module-level names a statement assigns."""
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    else:
        return set()
    return {t.id for t in targets if isinstance(t, ast.Name) and t.id.isupper()}


def test_every_src_name_has_a_caller():
    # no API that only tests call: each top-level function, class and UPPER_CASE
    # constant in src/conjgf is read in src/conjgf or perfbench outside its own
    # definition, or exported
    defined: dict[str, str] = {}
    read: set[str] = set()
    src = sorted((REPO_ROOT / "src" / "conjgf").glob("*.py"))
    for path in src + sorted((REPO_ROOT / "perfbench").glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            names = _names_read(stmt)
            own = {stmt.name} if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) else _constants_assigned(stmt)
            if path in src:
                defined.update(dict.fromkeys(own, path.name))
            read |= names - own
    unread = {name: where for name, where in defined.items() if name not in read | set(conjgf.__all__)}
    assert unread == {}
