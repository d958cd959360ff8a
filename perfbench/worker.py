"""One workload in one fresh interpreter, commands called in-process.

``run.py`` starts this script; it is not meant to be run by hand.  It
imports ``coopftc.cli`` from the checkout's ``src``, runs an untimed
warm-up pass on the workload's short scenario, and then either

* (untraced) repeats timed passes of the workload's commands for about
  ``--seconds``, at least one, or
* (traced) runs one untraced pass and one pass with the tracer's spans
  installed; the difference of their wall times is the tracing overhead.

Every command's result goes through the output gate.  The result is
written as JSON to ``--result``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import gate  # noqa: E402
import hostspeed  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

OUTPUT_DIRS = ("gains", "out", "sweep")


def run_op(cli_main, op):
    """Call the CLI once; an exception is a failed operation, not a crash."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli_main(list(op.argv))
    except (Exception, SystemExit):
        rc = None
        err.write(traceback.format_exc())
    return rc, time.perf_counter() - start, out.getvalue(), err.getvalue()


def run_pass(cli_main, ops, workload, seed, reference, tracer=None):
    """One pass through ``ops``; returns a record per command.

    ``kernel`` is the host-speed kernel's time around the command, the
    mean of its readings just before and just after.
    """
    for name in OUTPUT_DIRS:
        shutil.rmtree(name, ignore_errors=True)
    gc.collect()
    records = []
    before = hostspeed.kernel_seconds()
    for op in ops:
        if tracer is None:
            rc, wall, out, err = run_op(cli_main, op)
        else:
            with tracer.command_span(op.name):
                rc, wall, out, err = run_op(cli_main, op)
        after = hostspeed.kernel_seconds()
        want = reference.get(workload, {}).get(op.name)
        records.append({"op": op.name, "wall": wall,
                        "kernel": (before + after) / 2,
                        "problems": gate.check(
                            op, rc, out, err, ".", want,
                            default_seed=seed == DEFAULT_SEED)})
        before = after
    return records


def machine_record() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)

    from coopftc.cli import main as cli_main

    workload = WORKLOADS[args.workload]
    reference = gate.load_reference()
    os.chdir(args.dir)

    timed = [op for op in workload.ops if args.trace or op.in_timed_runs]
    warm = [op for op in workload.warm_ops if args.trace or op.in_timed_runs]
    for op in warm:
        run_op(cli_main, op)
        hostspeed.kernel_seconds()
    result = {"passes": []}
    if args.trace:
        result["passes"].append(run_pass(cli_main, timed, args.workload,
                                         args.seed, reference))
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_pass(cli_main, timed, args.workload, args.seed,
                              reference, tracer)
        finally:
            tracer.uninstall()
        result["traced_pass"] = traced
        result["overhead_s"] = (sum(r["wall"] for r in traced)
                                - sum(r["wall"] for r in result["passes"][0]))
        result["layers"] = tracer.layer_metrics()
        result["spans"] = tracer.dump()
    else:
        # A further pass starts only if at least half of it, judged by the
        # last one, fits in --seconds.  fleet24's 15-16 s passes would
        # otherwise make a run last two or three passes by small changes in
        # host speed.
        start, pass_s = time.monotonic(), 0.0
        while (not result["passes"]
               or time.monotonic() - start + pass_s / 2 < args.seconds):
            pass_start = time.monotonic()
            result["passes"].append(run_pass(cli_main, timed, args.workload,
                                             args.seed, reference))
            pass_s = time.monotonic() - pass_start
    result["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                             / 1024.0)
    result["machine"] = machine_record()
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
