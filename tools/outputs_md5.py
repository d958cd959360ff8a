"""Print an md5 manifest of everything the three commands produce.

Runs ``synth``, ``simulate`` and ``verify`` in-process through
``coopftc.cli.main`` on the benchmark scenarios of
``perfbench/workloads.py`` (bench4, fleet24, the bench4 ``--sweep`` and
infeasible-m5), on a short run whose initial states reach 1e18, so that
the trace prints in exponential notation, and on scenarios the commands
reject (a graph that does not fit the plant, a unit the source cannot
reach, an unnormalized graph whose in-weights do not sum to one, agents
with two outputs on a graph that fits them and on the default star, an
attenuation level of 1e-9).  For each command it prints the exit code
and the md5 of its stdout and stderr, then the md5 of every file left
in the work directory.

Two trees give the same results exactly when their manifests are equal::

    python3 tools/outputs_md5.py > change.txt
    python3 tools/outputs_md5.py --src ../parent/src > parent.txt
    diff parent.txt change.txt

The commands run in a fresh temporary directory with relative paths, so
no message carries a path that differs between runs.  A run takes about
7 s on a 2-vCPU host and writes about 300 MB, removed on exit.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

TWO_OUTPUTS = ("{A: [[-1.0, 0.0], [0.0, -2.0]], B: [[1.0], [1.0]], "
               "C: [[1.0, 0.0], [0.0, 1.0]], D: [[1.0], [0.0]]}")

#: Initial states up to 1e18 in magnitude: ``simulate`` writes cells of
#: every notation ``'%.17g'`` uses, and ``verify`` fails on consensus.
WIDE_RANGE = {"wide_range.yaml": ("sim: {T: 0.5, init_bounds: "
                                  "[-1.0e+18, 1.0e+18]}\n")}

#: Scenarios the commands reject: file name -> text.
FAILING = {
    "misfit_graph.yaml": "plant: {m: 3}\n",
    "unreached.yaml": ("graph: {edges: [[2, 1, 1.0], [3, 4, 1.0], "
                       "[4, 3, 1.0]], sources: [[1, 1.0]]}\n"),
    # unit 2's in-weights sum to 0.5
    "unbalanced.yaml": ("graph: {edges: [[2, 1, 0.5], [3, 2, 1.0], "
                        "[4, 3, 1.0]], sources: [[1, 1.0]], "
                        "normalize: false}\n"),
    "two_outputs.yaml": ("graph: {edges: [[2, 1, 1.0]], sources: [[1, 1.0]]}\n"
                         "plant: {kind: explicit, agents: "
                         f"[{TWO_OUTPUTS}, {TWO_OUTPUTS}]}}\n"),
    # the same agents on the default four-unit star
    "two_outputs_star.yaml": ("plant: {kind: explicit, agents: "
                              f"[{TWO_OUTPUTS}, {TWO_OUTPUTS}]}}\n"),
    "tiny_delta.yaml": "synthesis: {delta: 1.0e-9}\n",
}


def _workloads():
    """``perfbench/workloads.py``, loaded by path; it imports only the
    standard library."""
    path = os.path.join(ROOT, "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look the module up
    spec.loader.exec_module(module)
    return module


def _commands() -> list[tuple[str, list[str]]]:
    """(label, argv) of every command, in the order they run."""
    commands = []
    for stem in ("bench4", "fleet24"):
        scenario = f"{stem}.yaml"
        commands += [
            (f"{stem}.synth", ["synth", "-s", scenario, "-o",
                               f"{stem}_gains"]),
            (f"{stem}.simulate", ["simulate", "-s", scenario, "-o",
                                  f"{stem}_out", "--gains", f"{stem}_gains"]),
            (f"{stem}.verify", ["verify", "-s", scenario, "--trace",
                                f"{stem}_out/trace.csv", "--gains",
                                f"{stem}_gains"]),
        ]
    commands += [
        ("bench4.sweep", ["simulate", "-s", "bench4.yaml", "-o",
                          "bench4_sweep", "--gains", "bench4_gains",
                          "--sweep"]),
        # synthesis in-process, on the short warm-up scenario
        ("bench4_warm.simulate", ["simulate", "-s", "bench4_warm.yaml", "-o",
                                  "bench4_warm_out"]),
        ("bench4_warm.verify", ["verify", "-s", "bench4_warm.yaml", "--trace",
                                "bench4_warm_out/trace.csv"]),
        ("bench4_warm.missing_trace", ["verify", "-s", "bench4_warm.yaml",
                                       "--trace", "missing.csv"]),
        ("wide_range.simulate", ["simulate", "-s", "wide_range.yaml", "-o",
                                 "wide_range_out"]),
        ("wide_range.verify", ["verify", "-s", "wide_range.yaml", "--trace",
                               "wide_range_out/trace.csv"]),
        ("infeasible_m5.synth", ["synth", "-s", "infeasible_m5.yaml", "-o",
                                 "infeasible_m5_gains"]),
    ]
    for name in FAILING:
        stem = name.removesuffix(".yaml")
        commands += [
            (f"{stem}.synth", ["synth", "-s", name, "-o", f"{stem}_gains"]),
            (f"{stem}.simulate", ["simulate", "-s", name, "-o",
                                  f"{stem}_out"]),
            # an existing trace: a missing one is reported first
            (f"{stem}.verify", ["verify", "-s", name, "--trace",
                                "bench4_out/trace.csv"]),
        ]
    return commands


def _md5(data: bytes) -> str:
    return hashlib.md5(data).hexdigest()


def _run(main, argv) -> tuple[str, str, str]:
    """Exit code (or the name of an exception ``main`` let through),
    stdout and stderr of one command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = str(main(argv))
        except BaseException as exc:  # noqa: BLE001 - reported, not raised
            code = f"raised {type(exc).__name__}"
    return code, out.getvalue(), err.getvalue()


def manifest(seed: int) -> list[str]:
    from coopftc.cli import main

    lines = []
    with tempfile.TemporaryDirectory(prefix="outputs_md5_") as work:
        scenarios = dict(_workloads().scenario_files(seed), **WIDE_RANGE,
                         **FAILING)
        for name, text in scenarios.items():
            with open(os.path.join(work, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        here = os.getcwd()
        os.chdir(work)
        try:
            for label, argv in _commands():
                code, out, err = _run(main, argv)
                lines += [f"{label} exit {code}",
                          f"{label} stdout {_md5(out.encode())}",
                          f"{label} stderr {_md5(err.encode())}"]
        finally:
            os.chdir(here)
        for parent, _, names in sorted(os.walk(work)):
            for name in sorted(names):
                path = os.path.join(parent, name)
                with open(path, "rb") as fh:
                    digest = _md5(fh.read())
                lines.append(f"file {os.path.relpath(path, work)} {digest}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=os.path.join(ROOT, "src"),
                        help="directory holding the coopftc package to run "
                             "(default: this checkout's src)")
    parser.add_argument("--seed", type=int, default=0,
                        help="sim.seed written into the benchmark scenarios")
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    print("\n".join(manifest(args.seed)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
