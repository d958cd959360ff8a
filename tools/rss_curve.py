"""Print the wall time and peak RSS of ``synth``, ``simulate`` and
``verify`` as the horizon grows, on the benchmark's ring of ``m`` motors,
for one or more agent counts ``m``.

The scenarios are ``fleet_yaml`` of ``perfbench/workloads.py`` (seed 0),
loaded by path.  For each ``m``, ``synth`` runs once, on the shortest
horizon; then, for each horizon T, ``simulate --gains`` and ``verify
--gains`` each run in a fresh interpreter.  Each line gives the
command's exit code, its wall time inside ``coopftc.cli.main``
(interpreter start and imports excluded) and the ``ru_maxrss`` of its
process (a forked child's memory is its own, not counted).  Two summary
lines follow for each ``m``: ``verify``'s largest peak over its
smallest, and ``simulate``'s peak growth per simulated second between
the shortest and the longest horizon.  With several ``m``, a last line
gives ``synth``'s wall time at the largest ``m`` over the smallest::

    python3 tools/rss_curve.py                     # m = 128, T = 4, 8, 16
    python3 tools/rss_curve.py --m 128 256 --horizons 4
    python3 tools/rss_curve.py --src ../parent/src # another tree's code

The commands run in a fresh temporary directory, removed on exit.  At
m = 128 and T = 16 s the trace is about 570 MB.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Runs one command in this fresh interpreter: its stdout goes nowhere,
#: and one JSON line with the exit code, the wall time of ``main`` and
#: this process's ``ru_maxrss`` goes to stdout.
_RUN = """
import contextlib, io, json, os, resource, sys, time
from coopftc.cli import main
start = time.perf_counter()
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
wall = time.perf_counter() - start
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
print(json.dumps({"exit": code, "wall_s": wall, "maxrss_mb": rss}))
"""


def _workloads():
    """``perfbench/workloads.py``, loaded by path; it imports only the
    standard library."""
    path = os.path.join(ROOT, "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look the module up
    spec.loader.exec_module(module)
    return module


def _run(src: str, argv: list[str], cwd: str) -> dict:
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", _RUN, *argv], cwd=cwd,
                          env=env, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=os.path.join(ROOT, "src"),
                        help="directory holding the coopftc package to run "
                             "(default: this checkout's src)")
    parser.add_argument("--m", type=int, nargs="+", default=[128],
                        help="motors, one run of the curve each")
    parser.add_argument("--horizons", type=float, nargs="+",
                        default=[4.0, 8.0, 16.0], help="sim.T values, s")
    args = parser.parse_args(argv)
    src, horizons = os.path.abspath(args.src), sorted(args.horizons)
    fleet_yaml = _workloads().fleet_yaml
    print(f"{'m':>4} {'T_s':>6} {'command':<9} {'exit':>4} {'wall_s':>7} "
          f"{'maxrss_mb':>9}")
    synth_wall = {}
    for m in sorted(set(args.m)):
        synth_wall[m] = _curve(src, m, horizons, fleet_yaml)
    if len(synth_wall) > 1:
        low, high = min(synth_wall), max(synth_wall)
        print(f"synth wall m{high}/m{low}: "
              f"{synth_wall[high] / synth_wall[low]:.3f}")
    return 0


def _curve(src: str, m: int, horizons: list[float], fleet_yaml) -> float:
    """Print one line per command at ``m`` and the two summary lines;
    return ``synth``'s wall time."""
    peaks = {"simulate": {}, "verify": {}}
    with tempfile.TemporaryDirectory(prefix="rss_curve_") as work:
        for T in horizons:
            with open(os.path.join(work, f"T{T:g}.yaml"), "w",
                      encoding="utf-8") as fh:
                fh.write(fleet_yaml(m, 0, T))
        commands = [("synth", horizons[0],
                     ["synth", "-s", f"T{horizons[0]:g}.yaml", "-o", "gains"])]
        for T in horizons:
            scenario, out = f"T{T:g}.yaml", f"out{T:g}"
            commands += [
                ("simulate", T, ["simulate", "-s", scenario, "-o", out,
                                 "--gains", "gains"]),
                ("verify", T, ["verify", "-s", scenario, "--trace",
                               f"{out}/trace.csv", "--gains", "gains"]),
            ]
        for name, T, command in commands:
            result = _run(src, command, work)
            if name == "synth":
                synth_wall = result["wall_s"]
            else:
                peaks[name][T] = result["maxrss_mb"]
            print(f"{m:>4} {T:>6g} {name:<9} {result['exit']:>4} "
                  f"{result['wall_s']:>7.3f} {result['maxrss_mb']:>9.1f}",
                  flush=True)
            if name == "verify":  # the trace is not needed again
                os.remove(os.path.join(work, f"out{T:g}", "trace.csv"))
    verify = peaks["verify"].values()
    print(f"m={m} verify maxrss max/min: {max(verify) / min(verify):.3f}")
    if len(horizons) > 1:
        first, last = horizons[0], horizons[-1]
        growth = peaks["simulate"][last] - peaks["simulate"][first]
        print(f"m={m} simulate maxrss growth: "
              f"{growth / (last - first):.2f} MB per simulated second")
    return synth_wall


if __name__ == "__main__":
    sys.exit(main())
