"""coopftc benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload bench4 --seed 3 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all        # every workload, both modes

Untraced (``--trace 0``) runs report the end-to-end metrics of
``BENCHMARK.json``; traced runs (``--trace 1``) report its per-layer
metrics.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it give every metric measured, with its unit, median, sample count and
the highest percentile that has at least ten samples beyond it.  The
exit code is nonzero when any output check fails.

The workload runs in a fresh interpreter (``worker.py``).  Set-up time
is measured here, in further fresh interpreters, after the worker has
warmed the file cache.  Times are scaled to a reference host
speed (``hostspeed.py``); the table prints the raw wall medians too.
Metric meanings are in ``perfbench/METRICS.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

sys.path.insert(0, HERE)
import hostspeed  # noqa: E402
from workloads import (BENCHMARK_JSON, DEFAULT_SEED, WORKLOADS,  # noqa: E402
                       write_scenarios)

#: Fresh interpreters timed for ``setup_s`` in each run.
SETUP_SAMPLES = 5
#: Cumulative ``-X importtime`` entries reported as per-layer metrics.
IMPORT_MODULES = ("coopftc.synth", "coopftc.estimator", "coopftc.cli")
#: The worker must end well inside the 180 s a run may take.
WORKER_TIMEOUT_S = 150


class BenchmarkError(Exception):
    """The benchmark cannot run here; no result is printed."""


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def _python(args, timeout):
    try:
        return subprocess.run([sys.executable, *args], cwd=ROOT, env=_env(),
                              capture_output=True, text=True, timeout=timeout,
                              check=True)
    except subprocess.CalledProcessError as exc:
        raise BenchmarkError(f"{args[0]} exited {exc.returncode}:\n"
                             f"{exc.stderr[-2000:]}") from exc
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{args[0]} did not end within {timeout} s") \
            from exc


def setup_samples(k: int) -> list[dict]:
    """Seconds from starting an interpreter to ``import coopftc.cli`` done,
    each with the host-speed kernel's time around it."""
    code = "import coopftc.cli, time; print(repr(time.monotonic()))"
    hostspeed.kernel_seconds()  # the first reading pays numpy's lazy set-up
    samples = []
    before = hostspeed.kernel_seconds()
    for _ in range(k):
        start = time.monotonic()
        done = float(_python(["-c", code], timeout=60).stdout)
        after = hostspeed.kernel_seconds()
        samples.append({"wall": done - start, "kernel": (before + after) / 2})
        before = after
    return samples


def import_breakdown() -> dict:
    """Cumulative import seconds of IMPORT_MODULES in a fresh interpreter."""
    err = _python(["-X", "importtime", "-c", "import coopftc.cli"],
                  timeout=60).stderr
    cumulative = {}
    for line in err.splitlines():
        m = re.match(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*(\S+)\s*$", line)
        if m:
            cumulative[m.group(2)] = int(m.group(1)) * 1e-6
    missing = [mod for mod in IMPORT_MODULES if mod not in cumulative]
    if missing:
        raise BenchmarkError(f"-X importtime did not list {missing}")
    return {f"setup.import.{mod.split('.')[-1]}_s": (cumulative[mod], "s")
            for mod in IMPORT_MODULES}


def run_worker(workload: str, seed: int, seconds: float, trace: int) -> dict:
    workdir = os.path.join(WORK, workload)
    shutil.rmtree(workdir, ignore_errors=True)
    write_scenarios(workdir, seed)
    result_path = os.path.join(WORK, f"{workload}.result.json")
    args = [os.path.join(HERE, "worker.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--dir", workdir, "--result", result_path]
    try:
        _python(args, timeout=WORKER_TIMEOUT_S)
        with open(result_path, encoding="utf-8") as fh:
            return json.load(fh)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if os.path.exists(result_path):
            os.remove(result_path)


# --- reduction -------------------------------------------------------------

def tail(values: list[float]):
    """(percentile, value) of the highest order statistic with at least ten
    samples above it, or None with ten samples or fewer."""
    n = len(values)
    if n <= 10:
        return None
    k = n - 10
    return 100.0 * k / n, sorted(values)[k - 1]


def _row(name, value, unit, samples=None) -> str:
    line = f"  {name:<30} {value:>14.6g} {unit}"
    if samples is not None:
        t = tail(samples)
        line += f"   median of n={len(samples)}"
        line += f", p{t[0]:.0f}={t[1]:.6g}" if t else ", no tail (n<=10)"
    return line


def _timed_row(name, pairs) -> str:
    """A row of scaled seconds, with the raw wall median after it."""
    scaled = [s for s, _ in pairs]
    return (_row(name, statistics.median(scaled), "s", scaled)
            + f"; wall {statistics.median(w for _, w in pairs):.6g} s")


def summarize(trace: int, result: dict, host_scaling: str) -> tuple:
    """(metrics for the JSON line, table rows, attempted, failed, problems).

    ``host_scaling`` says which kernel readings scale a command's time
    (see ``Workload.host_scaling``); set-up times are scaled by their own.
    """
    passes = list(result["passes"])
    if trace:
        passes.append(result["traced_pass"])
    records = [r for p in passes for r in p]
    problems = [msg for r in records for msg in r["problems"]]
    attempted = len(records)
    failed = sum(1 for r in records if r["problems"])

    run_kernel = statistics.median(r["kernel"] for p in result["passes"]
                                   for r in p)

    def pair(r, kernel=None):
        return hostspeed.scaled(r["wall"], kernel or r["kernel"]), r["wall"]

    # metric -> [(scaled seconds, wall seconds)]
    samples: dict = {}
    for p in result["passes"]:
        pairs = [(r["op"], pair(r, run_kernel if host_scaling == "run"
                                else None)) for r in p]
        for op, pr in pairs:
            samples.setdefault(f"{op}_s", []).append(pr)
        timed = [pr for op, pr in pairs if op != "sweep"]
        samples.setdefault("pipeline_s", []).append(
            (sum(s for s, _ in timed), sum(w for _, w in timed)))
    samples["setup_s"] = [pair(r) for r in result["setup"]]

    def median_s(name):
        return statistics.median(s for s, _ in samples.get(name, [(0.0, 0)]))

    rows = [_timed_row(name, v) for name, v in samples.items()]
    rows.append(_row("peak_rss_mb", result["peak_rss_mb"], "MB"))
    rows.append(_row("error_rate", failed / attempted, "ratio")
                + f"   ({failed} of {attempted} operations failed)")

    if not trace:
        metrics = {name: (median_s(name), "s")
                   for name in ("setup_s", "synth_s", "pipeline_s")}
        metrics["peak_rss_mb"] = (result["peak_rss_mb"], "MB")
        return metrics, rows, attempted, failed, problems

    metrics = dict(result["layers"])
    metrics.update(result["imports"])
    for op in ("simulate", "verify", "sweep"):
        metrics[f"{op}_s"] = (median_s(f"{op}_s"), "s")
    metrics["error_rate"] = (failed / attempted, "ratio")
    metrics["trace.overhead_s"] = (result["overhead_s"], "s")
    rows.append("  per layer, traced pass:")
    rows += [_row(name, value, unit) for name, (value, unit) in metrics.items()
             if name not in samples and name != "error_rate"]
    return metrics, rows, attempted, failed, problems


def check_spec(metrics: dict, trace: int) -> None:
    """The metrics printed must be exactly those BENCHMARK.json lists."""
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        spec = json.load(fh)
    listed = {w["name"]: w["why"] for w in spec["workloads"]}
    if listed != {w.name: w.why for w in WORKLOADS.values()}:
        raise BenchmarkError("BENCHMARK.json workloads differ from "
                             "perfbench/workloads.py; run that script to record them")
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: unit for name, (_, unit) in metrics.items()}
    if want != got:
        raise BenchmarkError(f"metrics differ from BENCHMARK.json: "
                             f"got {sorted(got.items())}, "
                             f"listed {sorted(want.items())}")


def run_one(workload: str, seed: int, seconds: float, trace: int) -> tuple:
    result = run_worker(workload, seed, seconds, trace)
    result["setup"] = setup_samples(SETUP_SAMPLES)
    if trace:
        result["imports"] = import_breakdown()
        with open(os.path.join(WORK, f"spans-{workload}.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(result["spans"], fh)
    metrics, rows, attempted, failed, problems = summarize(
        trace, result, WORKLOADS[workload].host_scaling)
    check_spec(metrics, trace)
    print(f"workload {workload}, seed {seed}, "
          f"{'traced' if trace else 'untraced'}, "
          f"{len(result['passes'])} timed pass(es)")
    print("machine " + json.dumps(result["machine"], sort_keys=True))
    print("\n".join(rows))
    for msg in problems:
        print(f"check failed: {msg}", file=sys.stderr)
    return metrics, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed seconds (default: run_seconds of "
                             "BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0 end-to-end metrics, 1 per-layer metrics "
                             "(default: 0, or both for --workload all)")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "coopftc", "cli.py")):
        print(f"error: no program source at {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    os.makedirs(WORK, exist_ok=True)
    if args.seconds is None:
        with open(BENCHMARK_JSON, encoding="utf-8") as fh:
            args.seconds = json.load(fh)["run_seconds"]
    traces = [args.trace] if args.trace is not None else (
        [0, 1] if args.workload == "all" else [0])

    out = {}
    attempted = failed = 0
    try:
        for name in names:
            for trace in traces:
                metrics, a, f = run_one(name, args.seed, args.seconds, trace)
                out[(name, trace)] = {k: {"value": v, "unit": u}
                                      for k, (v, u) in metrics.items()}
                attempted, failed = attempted + a, failed + f
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    metrics = (next(iter(out.values())) if len(out) == 1 else
               {f"{name}/trace{trace}": m for (name, trace), m in out.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
