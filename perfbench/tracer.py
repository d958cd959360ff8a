"""Spans and counters around the program's public functions, from outside.

The tracer replaces a function by a timing wrapper in every ``coopftc``
module that holds it under its name (``from .linalg import solve_lyapunov``
binds a second name that the defining module's attribute does not
cover), and puts the originals back on :meth:`Tracer.uninstall`.

A span records its name, start, end, parent span, thread and the command
it ran under.  Spans stay in memory until the run ends.  Work a thread
pool does for a command has that command's span as parent; self time
only subtracts children from the same thread, because children in other
threads run concurrently.
"""

from __future__ import annotations

import importlib
import itertools
import os
import statistics
import sys
import threading
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    command: str | None
    note: float = 0.0     # a size the wrapper read: n, steps or bytes
    failed: bool = False  # the call raised

    @property
    def duration(self) -> float:
        return self.end - self.start


def _lyapunov_n(args, kwargs, result):
    return float(len(args[0] if args else kwargs["Phi"]))


def _integrate_steps(args, kwargs, result):
    return float(len(result[0]) - 1)


def _written_bytes(args, kwargs, result):
    return float(os.path.getsize(args[2] if len(args) > 2 else kwargs["path"]))


#: (module, attribute, span name, note) for every span.  ``cli._run_one``
#: and ``cli._emit_plots`` are private but are the per-topology run and
#: the plot writer the layer table names.
SPANS = (
    ("coopftc.cli", "parse_scenario", "cli.parse_scenario", None),
    ("coopftc.cli", "_emit_plots", "cli.plot_write", None),
    ("coopftc.cli", "_run_one", "cli.run_one", None),
    ("coopftc.synth", "synth_observer", "synth.observer", None),
    ("coopftc.synth", "synth_controller", "synth.controller", None),
    ("coopftc.synth", "solve_lmi", "synth.solve_lmi", None),
    ("coopftc.linalg", "is_hurwitz", "linalg.is_hurwitz", None),
    ("coopftc.linalg", "solve_lyapunov", "linalg.lyapunov", _lyapunov_n),
    ("coopftc.estimator", "build_observer", "estimator.build_observer", None),
    ("coopftc.control", "closed_loop_maps", "control.closed_loop_maps", None),
    ("coopftc.sim", "run_experiment", "sim.run_experiment", None),
    ("coopftc.sim", "integrate", "sim.integrate", _integrate_steps),
    ("coopftc.sim", "trace_to_csv", "sim.csv_write", _written_bytes),
    ("coopftc.sim", "trace_from_csv", "sim.csv_read", None),
    ("coopftc.analysis", "iss_certificate", "analysis.iss_certificate", None),
    ("coopftc.analysis", "verify_iss_bound", "analysis.iss_bound", None),
    ("coopftc.analysis", "dissipation_check", "analysis.dissipation", None),
    ("coopftc.analysis", "consensus_report", "analysis.consensus", None),
)

#: (module, attribute, counter name) for calls too frequent for a span.
#: ``synth`` calls ``scipy.signal.place_poles`` through the module
#: attribute, so patching that attribute is what ``synth`` sees.
COUNTERS = (
    ("coopftc.control", "closed_loop_rhs", "control.rhs_calls"),
    ("scipy.signal", "place_poles", "synth.place_poles_calls"),
)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()  # (command, name) -> calls
        self.command: str | None = None
        self._root: int | None = None
        self._ids = itertools.count()
        self._lock = threading.Lock()  # pool threads count concurrently
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    # --- wrappers -----------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str):
        stack = self._stack()
        span = Span(id=next(self._ids), name=name, start=time.perf_counter(),
                    end=0.0, parent=stack[-1] if stack else self._root,
                    thread=threading.get_ident(), command=self.command)
        stack.append(span.id)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def _span_wrapper(self, fn, name: str, note):
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                self._close(span)
            if note is not None:
                span.note = note(args, kwargs, result)
            return result
        traced.__wrapped__ = fn
        return traced

    def _counter_wrapper(self, fn, name: str):
        def counted(*args, **kwargs):
            with self._lock:
                self.counts[(self.command, name)] += 1
            return fn(*args, **kwargs)
        counted.__wrapped__ = fn
        return counted

    # --- installation -------------------------------------------------------

    def _patch_everywhere(self, module_name: str, attr: str, wrapper) -> None:
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        owners = {id(module): module}
        for name, mod in list(sys.modules.items()):
            if name == "coopftc" or name.startswith("coopftc."):
                owners.setdefault(id(mod), mod)
        wrapped = wrapper(original)
        for owner in owners.values():
            for key, value in list(vars(owner).items()):
                if value is original:
                    setattr(owner, key, wrapped)
                    self._patched.append((owner, key, original))

    def install(self) -> None:
        for module_name, attr, name, note in SPANS:
            self._patch_everywhere(
                module_name, attr,
                lambda fn, name=name, note=note: self._span_wrapper(fn, name,
                                                                    note))
        for module_name, attr, name in COUNTERS:
            self._patch_everywhere(
                module_name, attr,
                lambda fn, name=name: self._counter_wrapper(fn, name))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    @contextmanager
    def command_span(self, command: str):
        """Root span of one CLI command; pool threads parent to it."""
        self.command = command
        span = self._open(f"cmd.{command}")
        self._root = span.id
        try:
            yield span
        finally:
            self._close(span)
            self._root = None
            self.command = None

    # --- reduction ----------------------------------------------------------

    def self_time(self, span: Span) -> float:
        children = sum(s.duration for s in self.spans
                       if s.parent == span.id and s.thread == span.thread)
        return span.duration - children

    def layer_metrics(self) -> dict:
        """Per-layer totals over the traced pass.

        The sweep re-runs the simulate path three times concurrently, so
        layer totals leave its spans out; ``cli.sweep_run_s`` alone
        reports it, as the median wall of one topology run in the pool.
        """
        own = [s for s in self.spans if s.command != "sweep"]

        def of(name):
            return [s for s in own if s.name == name]

        def total(name):
            return sum(s.duration for s in of(name))

        def count(name):
            return sum(n for (cmd, key), n in self.counts.items()
                       if key == name and cmd != "sweep")

        lmi = of("synth.solve_lmi")
        failed = [s for s in lmi if s.failed]
        lyap = of("linalg.lyapunov")
        steps = sum(s.note for s in of("sim.integrate"))
        integrate_s = total("sim.integrate")
        sweep_runs = [s.duration for s in self.spans
                      if s.command == "sweep" and s.name == "cli.run_one"]
        return {
            "synth.observer_s": (total("synth.observer"), "s"),
            "synth.controller_s": (total("synth.controller"), "s"),
            "synth.lmi_calls": (len(lmi), "count"),
            "synth.lmi_failed": (len(failed), "count"),
            "synth.lmi_failed_s": (sum(s.duration for s in failed), "s"),
            "synth.lmi_ok_ratio": (
                (len(lmi) - len(failed)) / len(lmi) if lmi else 0.0, "ratio"),
            "synth.place_poles_calls": (count("synth.place_poles_calls"),
                                        "count"),
            "linalg.lyapunov_calls": (len(lyap), "count"),
            "linalg.lyapunov_s": (total("linalg.lyapunov"), "s"),
            "linalg.lyapunov_max_n": (
                max((s.note for s in lyap), default=0.0), "count"),
            "estimator.build_observer_s": (total("estimator.build_observer"),
                                           "s"),
            "control.closed_loop_maps_s": (total("control.closed_loop_maps"),
                                           "s"),
            "control.rhs_calls": (count("control.rhs_calls"), "count"),
            "sim.run_experiment_s": (total("sim.run_experiment"), "s"),
            "sim.integrate_s": (integrate_s, "s"),
            "sim.steps": (steps, "count"),
            "sim.us_per_step": (1e6 * integrate_s / steps if steps else 0.0,
                                "us"),
            "sim.reconstruct_s": (
                sum(self.self_time(s) for s in of("sim.run_experiment")), "s"),
            "sim.csv_write_s": (total("sim.csv_write"), "s"),
            "sim.csv_bytes": (sum(s.note for s in of("sim.csv_write")),
                              "bytes"),
            "sim.csv_read_s": (total("sim.csv_read"), "s"),
            "analysis.iss_certificate_s": (total("analysis.iss_certificate"),
                                           "s"),
            "analysis.iss_bound_s": (total("analysis.iss_bound"), "s"),
            "analysis.dissipation_s": (total("analysis.dissipation"), "s"),
            "analysis.consensus_s": (total("analysis.consensus"), "s"),
            "cli.parse_scenario_s": (total("cli.parse_scenario"), "s"),
            "cli.plot_write_s": (total("cli.plot_write"), "s"),
            "cli.sweep_run_s": (
                statistics.median(sweep_runs) if sweep_runs else 0.0, "s"),
        }

    def dump(self) -> list[dict]:
        return [vars(s).copy() for s in self.spans]
