"""Every imported name is used, and every exported name is bound.

A stdlib stand-in for a linter's unused-import check over ``src/`` and
``tests/``.  A name counts as used when the module reads it or lists it
in ``__all__``, so an ``__all__`` entry must name something the module
binds at top level; a stale entry would otherwise hide the imports that
only the deleted code read.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "tests").glob("*.py")])


def _exports(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            return ast.literal_eval(node.value)
    return []


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = {}
    used = set(_exports(tree))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used]


def _unbound_exports(tree: ast.Module) -> list[str]:
    bound = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(alias.asname or alias.name.split(".")[0]
                         for alias in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            bound.update(t.id for t in targets if isinstance(t, ast.Name))
    return [name for name in _exports(tree) if name not in bound]


def _offenders(check) -> dict[str, list[str]]:
    assert FILES
    return {str(path.relative_to(ROOT)): names for path in FILES
            if (names := check(ast.parse(path.read_text())))}


def test_no_unused_imports():
    assert _offenders(_unused_imports) == {}


def test_every_export_is_bound():
    assert _offenders(_unbound_exports) == {}
