"""Every imported name is used, and every exported name is bound.

A stdlib stand-in for a linter's unused-import check over ``src/`` and
``tests/``.  A name counts as used when the module reads it or lists it
in ``__all__``, so an ``__all__`` entry must name something the module
binds at top level; a stale entry would otherwise hide the imports that
only the deleted code read.

Also: the command-line module stays light to import.
"""

import ast
import os
import subprocess
import sys
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



#: Modules that ``import coopftc.cli`` and a synth -> simulate -> verify
#: pass leave unloaded: ``scipy.signal`` alone took about 1 s of the
#: 1.4-1.8 s import and pulled in ``scipy.stats`` and the rest.
HEAVY_MODULES = ["scipy.signal", "scipy.stats", "scipy.interpolate",
                 "scipy.optimize"]

_PIPELINE = """
import io, os, sys
from contextlib import redirect_stdout
import coopftc.cli
heavy = sys.argv[2:]
loaded = {name for name in heavy if name in sys.modules}
os.chdir(sys.argv[1])
with open("short.yaml", "w") as fh:
    fh.write("sim: {T: 4.0}")
with redirect_stdout(io.StringIO()):
    for argv in (["synth", "-s", "short.yaml", "-o", "gains"],
                 ["simulate", "-s", "short.yaml", "-o", "out",
                  "--gains", "gains"],
                 ["verify", "-s", "short.yaml", "--trace", "out/trace.csv",
                  "--gains", "gains"]):
        assert coopftc.cli.main(argv) == 0, argv
loaded |= {name for name in heavy if name in sys.modules}
print(sorted(loaded))
"""


def test_cli_leaves_heavy_scipy_modules_unloaded(tmp_path):
    """In a fresh interpreter, so that no test's imports count."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-c", _PIPELINE, str(tmp_path), *HEAVY_MODULES],
        env=env, capture_output=True, text=True, timeout=120, check=True)
    assert out.stdout.strip() == "[]"
