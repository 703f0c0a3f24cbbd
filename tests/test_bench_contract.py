"""The benchmark's use of citecheck: every name it imports resolves, and every
direct call of an imported name binds to that name's signature.

bench/ runs only in a full or smoke benchmark run; these checks make a rename
or a dropped parameter that would break it fail here too. bench/ is parsed,
never imported or changed.
"""

from __future__ import annotations

import ast
import importlib
import inspect
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
FILES = sorted(BENCH.glob("*.py"))


def _resolve(module: str, name: str):
    try:
        return getattr(importlib.import_module(module), name)
    except AttributeError:
        return importlib.import_module(f"{module}.{name}")


def _imported(tree: ast.AST) -> dict[str, tuple[str, str]]:
    """local name -> (module, name) for each name imported from citecheck,
    function-local imports included."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "citecheck":
            for alias in node.names:
                names[alias.asname or alias.name] = (node.module, alias.name)
    return names


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.name)
def test_bench_imports_resolve(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "citecheck":
                    importlib.import_module(alias.name)
    for module, name in _imported(tree).values():
        _resolve(module, name)


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.name)
def test_bench_calls_bind(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names = {local: _resolve(*target) for local, target in _imported(tree).items()}
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and callable(names.get(node.func.id))):
            continue
        if any(isinstance(a, ast.Starred) for a in node.args) or any(
                k.arg is None for k in node.keywords):
            continue
        signature = inspect.signature(names[node.func.id])
        try:
            signature.bind(*node.args, **{k.arg: k.value for k in node.keywords})
        except TypeError as exc:
            pytest.fail(f"{path.name}:{node.lineno}: {node.func.id}{signature}: {exc}")


def test_bench_uses_the_names_it_is_checked_on():
    """Guards the two checks above against passing on nothing."""
    imported = {name for path in FILES
                for _, name in _imported(ast.parse(path.read_text(encoding="utf-8"))).values()}
    assert {"verify_entries", "plan_rewrite", "make_transport", "RunOptions",
            "group_manifestations", "DEFAULT_WORKERS", "dedupe_and_cluster",
            "resolve_preference", "score_match"} <= imported
