"""Print the line counts of a Python package, per module and in total.

Two counts per ``.py`` file of the directory given (not recursive):

* ``lines``: physical lines, as ``wc -l`` counts them (newline bytes);
* ``code``: lines that hold a token other than a comment, and that are
  not part of a docstring (the string statement that opens a module,
  class or function body).  Blank lines, comment-only lines and
  docstring lines do not count.

Usage::

    python3 tools/sloc.py src/coopftc
"""

from __future__ import annotations

import argparse
import ast
import io
import os
import tokenize

#: Tokens that make no line count as code.
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set[int]:
    """Line numbers covered by the docstrings of ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        body = node.body
        if (body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(source: bytes) -> tuple[int, int]:
    """``(lines, code)`` of one module's source."""
    lines = source.count(b"\n")
    docstrings = _docstring_lines(ast.parse(source))
    code = set()
    for tok in tokenize.tokenize(io.BytesIO(source).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return lines, len(code - docstrings)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", help="package directory, e.g. src/coopftc")
    args = parser.parse_args(argv)
    names = sorted(n for n in os.listdir(args.src) if n.endswith(".py"))
    totals = [0, 0]
    print(f"{'module':<16} {'lines':>6} {'code':>6}")
    for name in names:
        with open(os.path.join(args.src, name), "rb") as fh:
            counts = count(fh.read())
        totals = [t + c for t, c in zip(totals, counts)]
        print(f"{name:<16} {counts[0]:>6} {counts[1]:>6}")
    print(f"{'total':<16} {totals[0]:>6} {totals[1]:>6}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
