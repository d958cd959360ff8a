"""Output gate: every command's exit code and outputs against the expected.

An operation fails when its exit code differs from the expected one,
when an expected stderr pattern is missing, or when an output value
differs from ``reference.json``.

``reference.json`` is fixed data.  It holds the outputs of one pass of
each workload at the default seed, taken from the program at the commit
that added this benchmark, which changed nothing under ``src/``.  The
benchmark has no way to rewrite it: a change that moves these values
fails the gate until someone edits the file by hand and says why.

What is compared:

* ``synth``: every ``certificate.txt`` value, at every seed (synthesis
  does not read the seed);
* ``simulate`` and ``sweep``: ``summary.txt``; ``verify``: its report on
  stdout.  At the default seed every value; at other seeds the values
  that are not numbers (names, files, pass flags), the shape of the rest
  and the row counts.
  Every trace file the summary names must exist and be non-empty.

Tolerance: numbers match when ``|a - b| <= REL_TOL * max(|a|, |b|) +
ABS_TOL``; settling times, which sit on the step grid, within
``SETTLING_TOL`` seconds (two steps at h=1e-3).
"""

from __future__ import annotations

import json
import math
import os
import re

REL_TOL = 1e-6
ABS_TOL = 1e-9
SETTLING_TOL = 2e-3

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

# Where each command's checked values live, relative to the work dir.
_OUTPUT_FILE = {
    "synth": "gains/certificate.txt",
    "simulate": "out/summary.txt",
    "sweep": "sweep/summary.txt",
}


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def parse_lines(text: str) -> dict:
    """``key=value`` lines to key -> list of values (keys may repeat)."""
    out: dict = {}
    for line in text.splitlines():
        key, sep, value = line.partition("=")
        if sep:
            out.setdefault(key.strip(), []).append(value.strip())
    return out


def outputs(op_name: str, workdir: str, stdout: str) -> dict:
    """The checked values of one command that exited as expected."""
    if op_name == "verify":
        return parse_lines(stdout)
    with open(os.path.join(workdir, _OUTPUT_FILE[op_name]),
              encoding="utf-8") as fh:
        return parse_lines(fh.read())


_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?"
                     r"|[-+]?(?:inf|nan)\b")


def _split(value: str):
    """A value as (text with every number replaced by '#', the numbers)."""
    numbers = [float(v) for v in _NUMBER.findall(value)]
    return _NUMBER.sub("#", value), numbers


def _close(a: float, b: float, tol_abs: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b)) + tol_abs


def compare(got: dict, want: dict, numbers_too: bool) -> list[str]:
    problems = []
    for key, want_values in want.items():
        got_values = got.get(key)
        if got_values is None or len(got_values) != len(want_values):
            problems.append(f"{key}: got {got_values}, expected {want_values}")
            continue
        for g, w in zip(got_values, want_values):
            (g_text, gn), (w_text, wn) = _split(g), _split(w)
            if g_text != w_text or len(gn) != len(wn):
                problems.append(f"{key}: got {g!r}, expected {w!r}")
                continue
            if not (numbers_too or key.endswith(".rows")):
                continue
            tol_abs = SETTLING_TOL if "settling_time" in key else ABS_TOL
            if not all(_close(a, b, tol_abs) for a, b in zip(gn, wn)):
                problems.append(f"{key}: got {g}, expected {w} "
                                f"(rel {REL_TOL:g}, abs {tol_abs:g})")
    return problems


def _trace_files(values: dict, workdir: str, op_name: str) -> list[str]:
    sub = os.path.dirname(_OUTPUT_FILE[op_name])
    problems = []
    for key, names in values.items():
        if key.endswith("trace.file"):
            for name in names:
                path = os.path.join(workdir, sub, name)
                if not os.path.isfile(path) or os.path.getsize(path) == 0:
                    problems.append(f"{op_name}: trace file {name} missing "
                                    "or empty")
    return problems


def check(op, rc, stdout: str, stderr: str, workdir: str, want: dict | None,
          default_seed: bool) -> list[str]:
    """Problems with one command's result; empty when it is as expected.

    ``want`` is the reference entry for this command, or None when the
    command is expected to fail.
    """
    if rc != op.exit_code:
        tail = stderr.strip().splitlines()[-1:] or [""]
        return [f"{op.name}: exit {rc}, expected {op.exit_code}: {tail[0]}"]
    problems = []
    if op.stderr_pattern and not re.search(op.stderr_pattern, stderr):
        problems.append(f"{op.name}: stderr lacks /{op.stderr_pattern}/")
    if op.exit_code != 0:
        return problems
    try:
        got = outputs(op.name, workdir, stdout)
    except OSError as exc:
        return problems + [f"{op.name}: cannot read output: {exc}"]
    if want is None:
        return problems + [f"{op.name}: no reference values"]
    problems += compare(got, want,
                        numbers_too=default_seed or op.name == "synth")
    if op.name in ("simulate", "sweep"):
        problems += _trace_files(got, workdir, op.name)
    return problems
