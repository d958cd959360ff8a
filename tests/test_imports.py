"""Every imported name is used somewhere in its module.

A stdlib stand-in for a linter's unused-import check over ``src/`` and
``tests/``.  A name counts as used when the module reads it or lists it
in ``__all__``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = {}
    used = set()
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
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used]


def test_no_unused_imports():
    files = sorted([*(ROOT / "src").rglob("*.py"),
                    *(ROOT / "tests").glob("*.py")])
    assert files
    unused = {str(path.relative_to(ROOT)): names for path in files
              if (names := _unused_imports(ast.parse(path.read_text())))}
    assert unused == {}
