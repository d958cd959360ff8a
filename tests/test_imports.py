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



_PIPELINE = """
import io, os, sys
from contextlib import redirect_stderr, redirect_stdout
import coopftc.cli

def scipy_modules():
    return sorted(name for name in sys.modules
                  if name == "scipy" or name.startswith("scipy."))

loaded = {"import coopftc.cli": scipy_modules()}
os.chdir(sys.argv[1])
with open("short.yaml", "w") as fh:
    fh.write("sim: {T: 4.0}")
with open("m5.yaml", "w") as fh:
    fh.write(sys.argv[2])
with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
    for argv, code in (
            (["synth", "-s", "short.yaml", "-o", "gains"], 0),
            (["simulate", "-s", "short.yaml", "-o", "out",
              "--gains", "gains"], 0),
            (["verify", "-s", "short.yaml", "--trace", "out/trace.csv",
              "--gains", "gains"], 0),
            (["simulate", "-s", "short.yaml", "-o", "sweep",
              "--gains", "gains", "--sweep"], 0),
            (["synth", "-s", "m5.yaml", "-o", "m5"], 3)):
        assert coopftc.cli.main(argv) == code, argv
        loaded[" ".join(argv)] = scipy_modules()
print(loaded)
"""

#: Five motors on a ring at delta = 0.3: ``synth`` exits 3 (infeasible).
_INFEASIBLE_M5 = (
    "graph: {edges: [[1, 2, 0.3], [2, 3, 0.3], [3, 4, 0.3], [4, 5, 0.3], "
    "[5, 1, 0.3], [2, 1, 0.3], [3, 2, 0.3], [4, 3, 0.3], [5, 4, 0.3], "
    "[1, 5, 0.3]], sources: [[1, 0.4], [2, 0.4], [3, 0.4], [4, 0.4], "
    "[5, 0.4]], normalize: true}\nplant: {m: 5}\n")


def test_cli_leaves_heavy_scipy_modules_unloaded(tmp_path):
    """No command loads scipy, which takes about half the time of a
    fresh ``import coopftc.cli`` (scipy.linalg alone about 0.35 s on a
    2-vCPU host): checked after the import and after each of synth,
    simulate, verify, simulate --sweep and an infeasible synth, in a
    fresh interpreter, so that no test's imports count."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-c", _PIPELINE, str(tmp_path), _INFEASIBLE_M5],
        env=env, capture_output=True, text=True, timeout=300, check=True)
    loaded = ast.literal_eval(out.stdout.strip())
    assert len(loaded) == 6
    assert loaded == {stage: [] for stage in loaded}
