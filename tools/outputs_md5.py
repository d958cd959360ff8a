"""Print an md5 manifest of everything the three commands produce.

Runs ``synth``, ``simulate`` and ``verify`` in-process through
``coopftc.cli.main`` on the benchmark scenarios of
``perfbench/workloads.py`` (bench4, fleet24, the bench4 ``--sweep`` and
infeasible-m5), on a short run whose initial states reach 1e18, so that
the trace prints in exponential notation, on a ring pinned with weight
3e-9 (``ill_conditioned``: ``synth`` and ``simulate`` exit 0, and
``verify`` exits 5 because L has 1-norm condition number 4e9, too large
for the ISS certificate's transform), and on scenarios the commands
reject (a graph that does not fit the plant, a unit the source cannot
reach, an unnormalized graph whose in-weights do not sum to one, agents
with two outputs on a graph that fits them and on the default star, an
attenuation level of 1e-9).  ``synth`` alone runs on two explicit
agents of two and three states (``mixed_dims``: exit 2 naming
``plant.agents`` and each agent's n_x, n_u, n_y and n_v), and on two
identical explicit agents whose observer LMI is infeasible though the
projection iteration never stalls on it (``never_stalls``: exit 3, the
dual solve certifying agent 1).  Last, bench4's gains with
``observer_storage.txt`` scaled by 1e-3 (``bench4_tampered``: the
observer margin drops to about -1) run through ``simulate`` and
``verify``, which both exit 5 before taking a step or reading the
trace.  For each command it prints the exit code and the md5 of its
stdout and stderr, then the md5 of every file left in the work
directory.

bench4's ``simulate`` and ``verify`` run twice: as the benchmark runs
them, where the trace is written and read by two processes on a host of
two or more CPUs, and the two plot files are written one by each, and
with this process pinned to one CPU (``bench4_one_cpu``), where nothing
is split.  The two traces (``bench4_out/trace.csv`` and
``bench4_one_cpu_out/trace.csv``), the two pairs of plot files and the
two ``verify`` stdouts must have the same md5; where they do not, the
tool says so on stderr and exits 1.

Two trees give the same results exactly when their manifests are equal::

    python3 tools/outputs_md5.py > change.txt
    python3 tools/outputs_md5.py --src ../parent/src > parent.txt
    diff parent.txt change.txt

The commands run in a fresh temporary directory with relative paths, so
no message carries a path that differs between runs.  A run takes about
10 s on a 2-vCPU host and writes about 350 MB, removed on exit.
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

#: A ring pinned with weight 3e-9: A + B K is Hurwitz, but the ISS
#: certificate's transform L (x) I is too ill-conditioned to certify it.
ILL_CONDITIONED = {"ill_conditioned.yaml": (
    "graph: {edges: [[2, 1, 1.0], [3, 2, 1.0], [4, 3, 1.0], [1, 2, 1.0]], "
    "sources: [[1, 3.0e-9]]}\nsim: {T: 2.0}\n")}

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

#: Agents of two and three states: ``synth`` rejects their stack.
MIXED_DIMS = {"mixed_dims.yaml": (
    "graph: {edges: [[2, 1, 1.0]], sources: [[1, 1.0]]}\n"
    "plant: {kind: explicit, agents: ["
    "{A: [[-1.0, 0.0], [0.0, -2.0]], B: [[1.0], [1.0]], C: [[1.0, 1.0]], "
    "D: [[1.0], [0.0]]}, "
    "{A: [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [-1.0, -3.0, -3.0]], "
    "B: [[0.0], [0.0], [1.0]], C: [[1.0, 0.0, 0.0]], "
    "D: [[0.0], [0.0], [1.0]]}]}\n")}

#: Two identical agents at delta = 0.3 whose observer LMI is infeasible,
#: though the projection iteration's gap keeps improving on it.
NEVER_STALLS_AGENT = ("{A: [[-1.377, 0.294], [-0.077, -0.698]], "
                      "B: [[0.0], [1.0]], C: [[-0.047, -1.086]], "
                      "D: [[-0.102], [0.052]]}")
NEVER_STALLS = {"never_stalls.yaml": (
    "graph: {edges: [[2, 1, 0.5]], sources: [[1, 1.0], [2, 0.5]]}\n"
    f"plant: {{kind: explicit, agents: [{NEVER_STALLS_AGENT}, "
    f"{NEVER_STALLS_AGENT}]}}\n"
    "synthesis: {delta: 0.3}\n")}

#: Commands run with this process pinned to one CPU, so that no table
#: is split.
ONE_CPU = {
    "bench4_one_cpu.simulate": ["simulate", "-s", "bench4.yaml", "-o",
                                "bench4_one_cpu_out", "--gains",
                                "bench4_gains"],
    "bench4_one_cpu.verify": ["verify", "-s", "bench4.yaml", "--trace",
                              "bench4_one_cpu_out/trace.csv", "--gains",
                              "bench4_gains"],
}

#: Commands run on bench4's gains with the observer storage P scaled by
#: 1e-3 (``_tamper_gains``): Pi(P, P L) then fails its re-verification.
TAMPERED = {
    "bench4_tampered.simulate": ["simulate", "-s", "bench4.yaml", "-o",
                                 "bench4_tampered_out", "--gains",
                                 "bench4_tampered_gains"],
    "bench4_tampered.verify": ["verify", "-s", "bench4.yaml", "--trace",
                               "bench4_out/trace.csv", "--gains",
                               "bench4_tampered_gains"],
}

#: Manifest lines that the split and the one-CPU runs must share.
SAME = [*((f"file bench4_out/{name}", f"file bench4_one_cpu_out/{name}")
          for name in ("trace.csv", "plot_estimation_errors.dat",
                       "plot_outputs.dat")),
        ("bench4.verify stdout", "bench4_one_cpu.verify stdout")]


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
    """(label, argv) of every command before the ``TAMPERED`` ones, in
    the order they run."""
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
        *ONE_CPU.items(),
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
        ("ill_conditioned.synth", ["synth", "-s", "ill_conditioned.yaml",
                                   "-o", "ill_conditioned_gains"]),
        ("ill_conditioned.simulate", ["simulate", "-s", "ill_conditioned.yaml",
                                      "-o", "ill_conditioned_out", "--gains",
                                      "ill_conditioned_gains"]),
        ("ill_conditioned.verify", ["verify", "-s", "ill_conditioned.yaml",
                                    "--trace", "ill_conditioned_out/trace.csv",
                                    "--gains", "ill_conditioned_gains"]),
        ("infeasible_m5.synth", ["synth", "-s", "infeasible_m5.yaml", "-o",
                                 "infeasible_m5_gains"]),
        ("mixed_dims.synth", ["synth", "-s", "mixed_dims.yaml", "-o",
                              "mixed_dims_gains"]),
        ("never_stalls.synth", ["synth", "-s", "never_stalls.yaml", "-o",
                                "never_stalls_gains"]),
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


@contextlib.contextmanager
def _one_cpu():
    """This process pinned to one of the CPUs it may use, and then given
    back the CPUs it had."""
    cpus = os.sched_getaffinity(os.getpid())
    os.sched_setaffinity(os.getpid(), {min(cpus)})
    try:
        yield
    finally:
        os.sched_setaffinity(os.getpid(), cpus)


def _run(main, argv, one_cpu: bool) -> tuple[str, str, str]:
    """Exit code (or the name of an exception ``main`` let through),
    stdout and stderr of one command, run on one CPU if ``one_cpu``."""
    out, err = io.StringIO(), io.StringIO()
    with (contextlib.redirect_stdout(out), contextlib.redirect_stderr(err),
          _one_cpu() if one_cpu else contextlib.nullcontext()):
        try:
            code = str(main(argv))
        except BaseException as exc:  # noqa: BLE001 - reported, not raised
            code = f"raised {type(exc).__name__}"
    return code, out.getvalue(), err.getvalue()


def _tamper_gains(cli, source: str, target: str) -> None:
    """Copy the gains files from ``source`` to ``target``, with the
    observer storage scaled by 1e-3."""
    os.mkdir(target)
    for name in (cli.OBSERVER_GAIN_FILE, cli.FEEDBACK_GAIN_FILE,
                 cli.OBSERVER_STORAGE_FILE):
        M = cli.load_matrix(os.path.join(source, name))
        if name == cli.OBSERVER_STORAGE_FILE:
            M = 1e-3 * M
        cli.save_matrix(os.path.join(target, name), M)


def manifest(seed: int) -> list[str]:
    from coopftc import cli

    lines = []
    with tempfile.TemporaryDirectory(prefix="outputs_md5_") as work:
        scenarios = dict(_workloads().scenario_files(seed), **WIDE_RANGE,
                         **ILL_CONDITIONED, **MIXED_DIMS, **NEVER_STALLS,
                         **FAILING)
        for name, text in scenarios.items():
            with open(os.path.join(work, name), "w", encoding="utf-8") as fh:
                fh.write(text)

        def record(label, argv):
            code, out, err = _run(cli.main, argv, label in ONE_CPU)
            lines.extend([f"{label} exit {code}",
                          f"{label} stdout {_md5(out.encode())}",
                          f"{label} stderr {_md5(err.encode())}"])

        here = os.getcwd()
        os.chdir(work)
        try:
            for label, argv in _commands():
                record(label, argv)
            _tamper_gains(cli, "bench4_gains", "bench4_tampered_gains")
            for label, argv in TAMPERED.items():
                record(label, argv)
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
    lines = manifest(args.seed)
    print("\n".join(lines))
    digests = dict(line.rsplit(" ", 1) for line in lines)
    differ = [pair for pair in SAME if digests[pair[0]] != digests[pair[1]]]
    for split, serial in differ:
        print(f"{split} and {serial} differ", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
