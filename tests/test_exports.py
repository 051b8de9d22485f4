from __future__ import annotations

import ast
import importlib
import os
import subprocess
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
    """Every name read, bare as `name` and through an attribute as `.name`."""
    return ({n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            | {f".{n.attr}" for n in ast.walk(node) if isinstance(n, ast.Attribute)})


def _constants_assigned(stmt: ast.stmt) -> set[str]:
    """The UPPER_CASE module-level names a statement assigns."""
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    else:
        return set()
    return {t.id for t in targets if isinstance(t, ast.Name) and t.id.isupper()}


def _own_and_read(stmt: ast.stmt) -> tuple[dict[str, str], set[str]]:
    """The names a top-level statement defines, each with what it is, and the
    names it reads outside each definition's own body.  A statement defines
    its function or class, its UPPER_CASE constants, and a class's methods and
    properties other than dunders, as `.name`: an instance reads those only
    through attribute access, so a bare variable of the same name is no call."""
    if not isinstance(stmt, ast.ClassDef):
        own = {stmt.name} if isinstance(stmt, ast.FunctionDef) else _constants_assigned(stmt)
        return dict.fromkeys(own, ""), _names_read(stmt) - own - {f".{name}" for name in own}
    own, read = {stmt.name: ""}, set()
    for part in [*stmt.decorator_list, *stmt.bases, *stmt.keywords, *stmt.body]:
        names = _names_read(part)
        if isinstance(part, ast.FunctionDef) and not (part.name.startswith("__") and part.name.endswith("__")):
            own[f".{part.name}"] = stmt.name
            names.discard(f".{part.name}")
        read |= names
    return own, read - {stmt.name, f".{stmt.name}"}


def test_every_src_name_has_a_caller():
    # no API that only tests call: each top-level function, class and UPPER_CASE
    # constant in src/conjgf, and each method and property of its classes (by
    # attribute access only), is read in src/conjgf or perfbench outside its
    # own definition, or exported
    defined: dict[str, str] = {}
    read: set[str] = set()
    src = sorted((REPO_ROOT / "src" / "conjgf").glob("*.py"))
    for path in src + sorted((REPO_ROOT / "perfbench").glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            own, names = _own_and_read(stmt)
            if path in src:
                defined.update({name: f"{path.name} {cls}{name}" for name, cls in own.items()})
            read |= names
    exported = set(conjgf.__all__)
    # a module-level name may be read bare or as an attribute of its module
    unread = {name: where for name, where in defined.items()
              if name not in read | exported and (name.startswith(".") or f".{name}" not in read)}
    assert unread == {}


def _functions(tree: ast.Module):
    """(the name a call uses, the def, whether a call binds its first parameter)
    for every function and method; a class's __init__ is called by the class name."""
    methods = {}
    for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
        for item in cls.body:
            if isinstance(item, ast.FunctionDef):
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in item.decorator_list)
                methods[item] = (cls.name if item.name == "__init__" else item.name, not static)
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            name, bound = methods.get(node, (node.name, False))
            yield name, node, bound


def _arguments_passed(tree: ast.Module) -> dict[str, list[tuple[float, set[str] | None]]]:
    """For each called name, one (positional count, keyword names) per call; a
    *args call passes every position and a **kwargs call every keyword (None)."""
    passed: dict[str, list] = {}
    for call in (n for n in ast.walk(tree) if isinstance(n, ast.Call)):
        func = call.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name is None:
            continue
        starred = any(isinstance(a, ast.Starred) for a in call.args)
        keywords = {k.arg for k in call.keywords}
        passed.setdefault(name, []).append(
            (float("inf") if starred else len(call.args), None if None in keywords else keywords))
    return passed


def test_every_defaulted_src_parameter_is_passed():
    # no parameter nobody sets: each defaulted parameter of a function in
    # src/conjgf is passed, by position or keyword, by some call in src/conjgf
    # or perfbench to a function of that name
    src = sorted((REPO_ROOT / "src" / "conjgf").glob("*.py"))
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in src + sorted((REPO_ROOT / "perfbench").glob("*.py"))}
    passed: dict[str, list] = {}
    for tree in trees.values():
        for name, calls in _arguments_passed(tree).items():
            passed.setdefault(name, []).extend(calls)
    unset = []
    for path in src:
        for name, fn, bound in _functions(trees[path]):
            params = [a.arg for a in fn.args.posonlyargs + fn.args.args][bound:]
            defaulted = list(enumerate(params))[len(params) - len(fn.args.defaults):]
            defaulted += [(float("inf"), a.arg) for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
                          if d is not None]
            for at, param in defaulted:
                if not any(count > at or keywords is None or param in keywords
                           for count, keywords in passed.get(name, [])):
                    unset.append(f"{path.name}:{fn.lineno} {name}({param}=)")
    assert unset == []


def test_cli_import_loads_no_heavy_package():
    # setup_s, the benchmark's start-up time, pays for every module the CLI
    # imports: numpy is its one third-party import, and sympy alone would add
    # about 0.23 s
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")])))
    probe = "import sys, conjgf.cli; print(*{m.split('.')[0] for m in sys.modules})"
    loaded = set(subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                                check=True, timeout=60).stdout.split())
    assert "numpy" in loaded and not {"sympy", "scipy", "hypothesis"} & loaded
