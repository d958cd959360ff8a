"""Command-line front end: scenarios in, traces and certificates out.

Three subcommands cover the whole workflow:

``coopftc synth``
    Read a scenario, run both synthesis stages, write the gains as
    plain-text matrix files plus a ``certificate.txt`` report.

``coopftc simulate``
    Run the closed loop (optionally for each of the three named
    topologies in turn), write the CSV trace, a ``summary.txt`` with
    tracking metrics, and plot-ready data files (two-column series per
    curve, so any plotting tool can render them; this package
    deliberately has no rendering dependency).

``coopftc verify``
    Re-run every certificate check against a recorded trace: the
    agreement identity of the interaction graph, the estimator's
    dissipation inequality, the pointwise ISS bound, and the tracking
    thresholds.  Exit status is nonzero naming the first failed check.

Scenario files are YAML with a ``schema_version`` field; an empty file
reproduces the built-in four-motor benchmark exactly.  Unknown keys are
rejected so typos cannot silently fall back to defaults.

Exit codes: 0 all pass; 2 validation/input problems (bad scenario,
unreadable or unwritable files, schema mismatches); 3 synthesis
infeasible; 4 simulation failure; 5 certificate failure, including an
internal identity check (a fast path disagreeing with its reference).
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, replace

import numpy as np
import yaml

from . import __version__
from .analysis import (
    consensus_report,
    dissipation_check,
    iss_certificate,
    verify_iss_bound,
)
from .control import ControlLaw, build_closed_loop
from .errors import (
    BadEdgeError,
    DimensionMismatchError,
    IdentityCheckFailedError,
    InfeasibleError,
    IsolatedUnitError,
    ModelValidationError,
    NonFiniteStateError,
    NotHurwitzError,
    NotPositiveStableError,
    NotSymmetricError,
    ParseError,
    SchemaError,
    SingularMatrixError,
    ValidationError,
)
from .estimator import build_observer
from .graph import (
    BENCHMARK_TOPOLOGIES,
    NetworkGraph,
    benchmark_topology,
    build_graph,
    is_positive_stable,
    normalize_weights,
)
from .linalg import is_hurwitz, solve_linear, sym_eigendecomp
from .plant import (
    AgentModel,
    AugmentedModel,
    NetworkModel,
    augment_network,
    dc_motor_agent,
    stack_network,
)
from .sim import (
    SignalSchedule,
    constant_disturbance,
    piecewise_setpoint,
    run_experiment,
    sample_initial_state,
    step_fault,
    trace_from_csv,
    trace_to_csv,
)
from .synth import (
    ObserverSynthesis,
    observer_inequality,
    synth_controller,
    synth_observer,
)

__all__ = [
    "Scenario",
    "parse_scenario",
    "build_plant",
    "build_interaction",
    "build_schedule",
    "save_matrix",
    "load_matrix",
    "cmd_synth",
    "cmd_simulate",
    "cmd_verify",
    "main",
    "EXIT_OK",
    "EXIT_VALIDATION",
    "EXIT_INFEASIBLE",
    "EXIT_SIMULATION",
    "EXIT_CERTIFICATE",
]

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_INFEASIBLE = 3
EXIT_SIMULATION = 4
EXIT_CERTIFICATE = 5

SCHEMA_VERSION = 1

OBSERVER_GAIN_FILE = "observer_gain.txt"
FEEDBACK_GAIN_FILE = "feedback_gain.txt"
OBSERVER_STORAGE_FILE = "observer_storage.txt"
CERTIFICATE_FILE = "certificate.txt"

#: Steady-state tracking offset allowed by ``verify`` under active
#: disturbance (the estimation floor is well below this).
OFFSET_TOL = 1e-2

#: Tolerances of the graph agreement-identity check.
BALANCE_TOL = 1e-12
AGREEMENT_TOL = 1e-8


# ---------------------------------------------------------------------------
# scenario schema


@dataclass(frozen=True)
class Scenario:
    """Fully resolved run configuration; defaults are the benchmark."""

    schema_version: int = SCHEMA_VERSION
    topology: str | None = "star"
    graph_edges: tuple = ()
    graph_sources: tuple = ()
    normalize: bool = True
    plant_kind: str = "dc_motor"
    m: int = 4
    agents: tuple = ()
    delta: float = 0.3
    alpha: float = 0.2
    margin: float = 1e-6
    ell_p: object = 0.1
    ell_i: object = 90.0
    setpoint: tuple = ((0.0, 1.0), (20.0, 2.0))
    h: float = 1e-3
    T: float = 40.0
    seed: int = 0
    init_bounds: tuple = (-1.0, 1.0)
    disturbance: object = 0.1
    fault_magnitude: object = 5.75
    fault_onset: float = 10.0


_TOP_KEYS = frozenset({
    "schema_version", "topology", "graph", "plant", "synthesis",
    "control", "sim",
})
_GRAPH_KEYS = frozenset({"edges", "sources", "normalize"})
_PLANT_KEYS = frozenset({"kind", "m", "agents"})
_SYNTH_KEYS = frozenset({"delta", "alpha", "margin"})
_CONTROL_KEYS = frozenset({"ell_p", "ell_i", "setpoint"})
_SIM_KEYS = frozenset({"h", "T", "seed", "init_bounds", "disturbance",
                       "fault"})
_FAULT_KEYS = frozenset({"magnitude", "onset"})


def _reject_unknown(mapping, allowed, where: str) -> None:
    for key in mapping:
        if key not in allowed:
            raise ValidationError(f"unknown key '{key}' in {where}")


def _section(raw: dict, name: str) -> dict:
    value = raw.get(name)
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ValidationError(f"section '{name}' must be a mapping")
    return value


def _number(section: str, key: str, value, default,
            positive: bool = False, nonnegative: bool = False) -> float:
    if value is None:
        value = default
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{section}.{key} must be a number, "
                              f"got {value!r}")
    value = float(value)
    if positive and not value > 0.0:
        raise ValidationError(f"{section}.{key} must be > 0, got {value}")
    if nonnegative and value < 0.0:
        raise ValidationError(f"{section}.{key} must be >= 0, got {value}")
    return value


def _gain(section: str, key: str, value, default):
    """Scalar or per-agent list of outer-loop gains."""
    if value is None:
        return default
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    if isinstance(value, list) and value and all(
            isinstance(v, (int, float)) and not isinstance(v, bool)
            for v in value):
        return tuple(float(v) for v in value)
    raise ValidationError(f"{section}.{key} must be a number or a list "
                          f"of numbers, got {value!r}")


def parse_scenario(path) -> Scenario:
    """Read and fully validate a YAML scenario file.

    An empty file yields the benchmark defaults.  Unknown keys raise
    :class:`ValidationError` naming the offending field; syntax errors
    raise :class:`ParseError` with the line and column when available.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        loc = (f" (line {mark.line + 1}, column {mark.column + 1})"
               if mark is not None else "")
        detail = getattr(exc, "problem", None) or str(exc)
        raise ParseError(f"{path}: invalid scenario syntax{loc}: "
                         f"{detail}") from exc
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ParseError(f"{path}: top level must be a mapping, "
                         f"got {type(raw).__name__}")
    _reject_unknown(raw, _TOP_KEYS, "the top level")

    version = raw.get("schema_version", SCHEMA_VERSION)
    if not isinstance(version, int) or isinstance(version, bool) \
            or version != SCHEMA_VERSION:
        raise ValidationError(
            f"schema_version must be {SCHEMA_VERSION}, got {version!r}")

    # --- graph ---
    graph_raw = _section(raw, "graph")
    _reject_unknown(graph_raw, _GRAPH_KEYS, "section 'graph'")
    topology = raw.get("topology")
    if topology is not None and graph_raw:
        raise ValidationError(
            "give either 'topology' or an explicit 'graph' section, not both")
    graph_edges: tuple = ()
    graph_sources: tuple = ()
    if graph_raw:
        graph_edges = _edge_list(graph_raw.get("edges"))
        graph_sources = _source_list(graph_raw.get("sources"))
        topology = None
    else:
        if topology is None:
            topology = "star"
        if not isinstance(topology, str) or topology not in BENCHMARK_TOPOLOGIES:
            raise ValidationError(
                f"topology must be one of {sorted(BENCHMARK_TOPOLOGIES)}, "
                f"got {topology!r}")
    normalize = graph_raw.get("normalize", True)
    if not isinstance(normalize, bool):
        raise ValidationError("graph.normalize must be true or false")

    # --- plant ---
    plant_raw = _section(raw, "plant")
    _reject_unknown(plant_raw, _PLANT_KEYS, "section 'plant'")
    kind = plant_raw.get("kind", "dc_motor")
    if kind not in ("dc_motor", "explicit"):
        raise ValidationError(
            f"plant.kind must be 'dc_motor' or 'explicit', got {kind!r}")
    m = plant_raw.get("m", 4)
    if not isinstance(m, int) or isinstance(m, bool) or m < 1:
        raise ValidationError(f"plant.m must be a positive integer, got {m!r}")
    agents: tuple = ()
    if kind == "explicit":
        agents_raw = plant_raw.get("agents")
        if not isinstance(agents_raw, list) or not agents_raw:
            raise ValidationError(
                "plant.agents must be a non-empty list of matrix mappings")
        agents = _agent_list(agents_raw)
        m = len(agents)
    elif "agents" in plant_raw:
        raise ValidationError("plant.agents requires plant.kind: explicit")

    # --- synthesis ---
    synth_raw = _section(raw, "synthesis")
    _reject_unknown(synth_raw, _SYNTH_KEYS, "section 'synthesis'")
    delta = _number("synthesis", "delta", synth_raw.get("delta"), 0.3,
                    positive=True)
    alpha = _number("synthesis", "alpha", synth_raw.get("alpha"), 0.2,
                    positive=True)
    margin = _number("synthesis", "margin", synth_raw.get("margin"), 1e-6,
                     positive=True)

    # --- control ---
    control_raw = _section(raw, "control")
    _reject_unknown(control_raw, _CONTROL_KEYS, "section 'control'")
    ell_p = _gain("control", "ell_p", control_raw.get("ell_p"), 0.1)
    ell_i = _gain("control", "ell_i", control_raw.get("ell_i"), 90.0)
    setpoint = _setpoint_list(control_raw.get("setpoint"))

    # --- sim ---
    sim_raw = _section(raw, "sim")
    _reject_unknown(sim_raw, _SIM_KEYS, "section 'sim'")
    h = _number("sim", "h", sim_raw.get("h"), 1e-3, positive=True)
    T = _number("sim", "T", sim_raw.get("T"), 40.0, positive=True)
    if T < h:
        raise ValidationError(f"sim.T ({T}) must be at least sim.h ({h})")
    seed = sim_raw.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ValidationError(f"sim.seed must be a non-negative integer, "
                              f"got {seed!r}")
    bounds_raw = sim_raw.get("init_bounds", [-1.0, 1.0])
    if (not isinstance(bounds_raw, list) or len(bounds_raw) != 2
            or any(isinstance(v, bool) or not isinstance(v, (int, float))
                   for v in bounds_raw)
            or float(bounds_raw[0]) > float(bounds_raw[1])):
        raise ValidationError(
            f"sim.init_bounds must be [lo, hi] with lo <= hi, "
            f"got {bounds_raw!r}")
    disturbance = _gain("sim", "disturbance", sim_raw.get("disturbance"), 0.1)
    fault_raw = sim_raw.get("fault")
    if fault_raw is None:
        fault_raw = {}
    if not isinstance(fault_raw, dict):
        raise ValidationError("sim.fault must be a mapping")
    _reject_unknown(fault_raw, _FAULT_KEYS, "section 'sim.fault'")
    fault_magnitude = _gain("sim.fault", "magnitude",
                            fault_raw.get("magnitude"), 5.75)
    fault_onset = _number("sim.fault", "onset", fault_raw.get("onset"), 10.0,
                          nonnegative=True)

    return Scenario(
        schema_version=SCHEMA_VERSION, topology=topology,
        graph_edges=graph_edges, graph_sources=graph_sources,
        normalize=normalize, plant_kind=kind, m=m, agents=agents,
        delta=delta, alpha=alpha, margin=margin,
        ell_p=ell_p, ell_i=ell_i, setpoint=setpoint,
        h=h, T=T, seed=seed,
        init_bounds=(float(bounds_raw[0]), float(bounds_raw[1])),
        disturbance=disturbance, fault_magnitude=fault_magnitude,
        fault_onset=fault_onset,
    )


def _edge_list(value) -> tuple:
    if not isinstance(value, list) or not value:
        raise ValidationError(
            "graph.edges must be a non-empty list of [i, j, weight] triples")
    edges = []
    for item in value:
        if (not isinstance(item, list) or len(item) != 3
                or any(isinstance(v, bool) for v in item)
                or not all(isinstance(v, (int, float)) for v in item)):
            raise ValidationError(
                f"graph.edges entries must be [i, j, weight], got {item!r}")
        edges.append((int(item[0]), int(item[1]), float(item[2])))
    return tuple(edges)


def _source_list(value) -> tuple:
    if value is None:
        return ()
    if not isinstance(value, list):
        raise ValidationError(
            "graph.sources must be a list of [i, weight] pairs")
    sources = []
    for item in value:
        if (not isinstance(item, list) or len(item) != 2
                or any(isinstance(v, bool) for v in item)
                or not all(isinstance(v, (int, float)) for v in item)):
            raise ValidationError(
                f"graph.sources entries must be [i, weight], got {item!r}")
        sources.append((int(item[0]), float(item[1])))
    return tuple(sources)


def _matrix(where: str, value) -> tuple:
    if (not isinstance(value, list) or not value
            or not all(isinstance(row, list) and row for row in value)):
        raise ValidationError(f"{where} must be a list of rows")
    width = len(value[0])
    for row in value:
        if len(row) != width or any(
                isinstance(v, bool) or not isinstance(v, (int, float))
                for v in row):
            raise ValidationError(f"{where} rows must be equal-length "
                                  "lists of numbers")
    return tuple(tuple(float(v) for v in row) for row in value)


def _agent_list(value: list) -> tuple:
    agents = []
    for k, item in enumerate(value, start=1):
        if not isinstance(item, dict):
            raise ValidationError(f"plant.agents[{k}] must be a mapping")
        _reject_unknown(item, frozenset({"A", "B", "C", "D"}),
                        f"plant.agents[{k}]")
        mats = {}
        for name in ("A", "B", "C", "D"):
            if name not in item:
                raise ValidationError(f"plant.agents[{k}] is missing '{name}'")
            mats[name] = _matrix(f"plant.agents[{k}].{name}", item[name])
        agents.append((mats["A"], mats["B"], mats["C"], mats["D"]))
    return tuple(agents)


def _setpoint_list(value) -> tuple:
    if value is None:
        return ((0.0, 1.0), (20.0, 2.0))
    if not isinstance(value, list) or not value:
        raise ValidationError(
            "control.setpoint must be a non-empty list of [time, value] pairs")
    pairs = []
    for item in value:
        if (not isinstance(item, list) or len(item) != 2
                or any(isinstance(v, bool) for v in item)
                or not all(isinstance(v, (int, float)) for v in item)):
            raise ValidationError(
                f"control.setpoint entries must be [time, value], got {item!r}")
        pairs.append((float(item[0]), float(item[1])))
    times = [t for t, _ in pairs]
    if times[0] != 0.0:
        raise ValidationError("control.setpoint must start at time 0")
    if any(b <= a for a, b in zip(times, times[1:])):
        raise ValidationError("control.setpoint times must be strictly "
                              "increasing")
    return tuple(pairs)


# ---------------------------------------------------------------------------
# builders


def build_plant(sc: Scenario) -> NetworkModel:
    """Instantiate the stacked plant described by a scenario."""
    if sc.plant_kind == "dc_motor":
        return stack_network(dc_motor_agent(i) for i in range(1, sc.m + 1))
    agents = []
    for A, B, C, D in sc.agents:
        C_arr = np.asarray(C, dtype=float)
        agents.append(AgentModel(A=np.asarray(A, float),
                                 B=np.asarray(B, float),
                                 C=C_arr, D=np.asarray(D, float),
                                 F=np.eye(C_arr.shape[0])))
    return stack_network(agents)


def build_interaction(sc: Scenario, net: NetworkModel) -> NetworkGraph:
    """Instantiate the interaction topology described by a scenario."""
    if sc.topology is not None:
        g = benchmark_topology(sc.topology, normalize=sc.normalize)
    else:
        g = build_graph(net.m, sc.graph_edges, sc.graph_sources)
        if sc.normalize:
            g = normalize_weights(g)
    if g.m != net.m:
        raise ValidationError(
            f"graph has {g.m} units but the plant has {net.m} agents")
    return g


def _snap(t: float, h: float) -> float:
    return round(t / h) * h


def build_schedule(sc: Scenario, net: NetworkModel) -> SignalSchedule:
    """Signal schedule with all breakpoints snapped to the time grid."""
    times = tuple(_snap(t, sc.h) for t, _ in sc.setpoint)
    values = tuple(v for _, v in sc.setpoint)
    onset = _snap(sc.fault_onset, sc.h)
    mag = sc.fault_magnitude
    active = np.any(np.asarray(mag, dtype=float) != 0.0) and onset <= sc.T
    return SignalSchedule(
        disturbance=constant_disturbance(sc.disturbance, net.m),
        fault=step_fault(mag, onset, net.m),
        setpoint=piecewise_setpoint(times, values),
        setpoint_times=times,
        fault_times=(onset,) if active else (),
    )


# ---------------------------------------------------------------------------
# gains files


def save_matrix(path, M: np.ndarray) -> None:
    """Write ``rows cols`` then row-major values, full double precision."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{M.shape[0]} {M.shape[1]}\n")
        for row in M:
            fh.write(" ".join(f"{v:.17g}" for v in row) + "\n")


def load_matrix(path) -> np.ndarray:
    """Read a matrix written by :func:`save_matrix`."""
    with open(path, encoding="utf-8") as fh:
        tokens = fh.read().split()
    if len(tokens) < 2:
        raise SchemaError(f"{path}: missing 'rows cols' header")
    try:
        rows, cols = int(tokens[0]), int(tokens[1])
    except ValueError as exc:
        raise SchemaError(f"{path}: header must be two integers") from exc
    body = tokens[2:]
    if rows < 1 or cols < 1 or len(body) != rows * cols:
        raise SchemaError(
            f"{path}: expected {rows}x{cols} values, got {len(body)}")
    try:
        values = np.array([float(v) for v in body], dtype=float)
    except ValueError as exc:
        raise SchemaError(f"{path}: non-numeric matrix entry") from exc
    return values.reshape(rows, cols)


def _load_gains(sc: Scenario, aug: AugmentedModel, net: NetworkModel,
                gains_dir) -> tuple[ObserverSynthesis, np.ndarray]:
    Lgain = load_matrix(os.path.join(gains_dir, OBSERVER_GAIN_FILE))
    K = load_matrix(os.path.join(gains_dir, FEEDBACK_GAIN_FILE))
    P = load_matrix(os.path.join(gains_dir, OBSERVER_STORAGE_FILE))
    if Lgain.shape != (aug.n_aug, net.nbar_y):
        raise SchemaError(
            f"observer gain has shape {Lgain.shape}, expected "
            f"{(aug.n_aug, net.nbar_y)}")
    if K.shape != (net.nbar_u, net.nbar_x):
        raise SchemaError(
            f"feedback gain has shape {K.shape}, expected "
            f"{(net.nbar_u, net.nbar_x)}")
    if P.shape != (aug.n_aug, aug.n_aug):
        raise SchemaError(
            f"observer storage has shape {P.shape}, expected "
            f"{(aug.n_aug, aug.n_aug)}")
    P = 0.5 * (P + P.T)
    H = P @ Lgain
    pi = observer_inequality(P, H, aug.F1 @ aug.A_a, aug.E2, aug.F1 @ net.D,
                             sc.delta)
    margin = -float(sym_eigendecomp(pi).eigenvalues[-1])
    so = ObserverSynthesis(delta=sc.delta, P=P, H=H, Lgain=Lgain,
                           margin=margin)
    return so, K


def _obtain_gains(sc: Scenario, aug: AugmentedModel, net: NetworkModel,
                  gains_dir) -> tuple[ObserverSynthesis, np.ndarray]:
    """Load gains from files, or synthesize them in-process."""
    if gains_dir is not None:
        return _load_gains(sc, aug, net, gains_dir)
    so = synth_observer(aug, net, sc.delta, margin=sc.margin)
    ctrl = synth_controller(net, sc.alpha, sc.delta, margin=sc.margin)
    return so, ctrl.K


# ---------------------------------------------------------------------------
# plot emission


def _write_series(path, curves) -> None:
    """Write gnuplot-style two-column blocks, one block per curve."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# two-column series; blank lines separate curves\n")
        for label, t, values in curves:
            fh.write(f"# curve={label}\n")
            np.savetxt(fh, np.column_stack([t, values]), fmt="%.17g",
                       delimiter=" ")
            fh.write("\n")


def _emit_plots(outdir, suffix: str, trace, net: NetworkModel) -> list[str]:
    n_x, n_y, m = net.n_x, net.n_y, net.m
    err_curves = []
    for i in range(m):
        sl = slice(i * n_x, (i + 1) * n_x)
        fl = slice(i * n_y, (i + 1) * n_y)
        err = np.sqrt(
            np.sum((trace.x[:, sl] - trace.x_hat[:, sl]) ** 2, axis=1)
            + np.sum((trace.f_s[:, fl] - trace.f_hat[:, fl]) ** 2, axis=1))
        err_curves.append((f"agent{i + 1}", trace.t, err))
    out_curves = [(f"agent{i + 1}", trace.t, (trace.x @ net.C.T)[:, i])
                  for i in range(m)]
    out_curves.append(("setpoint", trace.t, trace.y0.ravel()))
    names = [f"plot_estimation_errors{suffix}.dat",
             f"plot_outputs{suffix}.dat"]
    _write_series(os.path.join(outdir, names[0]), err_curves)
    _write_series(os.path.join(outdir, names[1]), out_curves)
    return names


# ---------------------------------------------------------------------------
# subcommands


def cmd_synth(sc: Scenario, outdir) -> int:
    """Run both synthesis stages and write gains plus a certificate."""
    net = build_plant(sc)
    aug = augment_network(net)
    so = synth_observer(aug, net, sc.delta, margin=sc.margin)
    ctrl = synth_controller(net, sc.alpha, sc.delta, margin=sc.margin)

    os.makedirs(outdir, exist_ok=True)
    save_matrix(os.path.join(outdir, OBSERVER_GAIN_FILE), so.Lgain)
    save_matrix(os.path.join(outdir, FEEDBACK_GAIN_FILE), ctrl.K)
    save_matrix(os.path.join(outdir, OBSERVER_STORAGE_FILE), so.P)

    obs_hurwitz = is_hurwitz(aug.F1 @ aug.A_a - so.Lgain @ aug.E2)
    loop_hurwitz = is_hurwitz(net.A + net.B @ ctrl.K)
    lines = [
        f"synth.schema_version={sc.schema_version}",
        f"synth.delta={sc.delta:.12g}",
        f"synth.alpha={sc.alpha:.12g}",
        f"synth.observer.margin={so.margin:.12g}",
        f"synth.observer.error_dynamics_hurwitz={'true' if obs_hurwitz else 'false'}",
        f"synth.controller.margin={ctrl.margin:.12g}",
        f"synth.controller.closed_loop_hurwitz={'true' if loop_hurwitz else 'false'}",
        f"synth.controller.gamma={ctrl.gamma:.12g}",
    ]
    with open(os.path.join(outdir, CERTIFICATE_FILE), "w",
              encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    print("\n".join(lines))
    if not (obs_hurwitz and loop_hurwitz):
        print("certificate failed: stability re-check", file=sys.stderr)
        return EXIT_CERTIFICATE
    return EXIT_OK


def _run_one(sc: Scenario, net: NetworkModel, aug: AugmentedModel,
             so: ObserverSynthesis, K: np.ndarray, g: NetworkGraph):
    law = ControlLaw(graph=g, K=K, ell_p=sc.ell_p, ell_i=sc.ell_i)
    obs = build_observer(aug, net, so)
    loop = build_closed_loop(net, aug, obs, law)
    schedule = build_schedule(sc, net)
    s0 = sample_initial_state(net, aug, sc.seed, sc.init_bounds)
    return run_experiment(loop, schedule, s0, h=sc.h, T=sc.T)


def cmd_simulate(sc: Scenario, outdir, gains_dir=None,
                 sweep: bool = False) -> int:
    """Simulate the scenario (or all named topologies) and write artifacts."""
    net = build_plant(sc)
    aug = augment_network(net)
    runs = ([replace(sc, topology=name, graph_edges=(), graph_sources=())
             for name in sorted(BENCHMARK_TOPOLOGIES)] if sweep else [sc])
    # Every graph is built before synthesis, so a graph that does not fit
    # the plant fails before the expensive work.
    graphs = {run.topology or "custom": build_interaction(run, net)
              for run in runs}
    so, K = _obtain_gains(sc, aug, net, gains_dir)
    os.makedirs(outdir, exist_ok=True)

    summary: list[str] = []
    for name, g in graphs.items():
        trace = _run_one(sc, net, aug, so, K, g)
        suffix = f"_{name}" if sweep else ""
        trace_name = f"trace{suffix}.csv"
        trace_to_csv(trace, net, os.path.join(outdir, trace_name))
        plot_names = _emit_plots(outdir, suffix, trace, net)
        report = consensus_report(trace, net, g)
        prefix = f"{name}." if sweep else ""
        summary.append(f"{prefix}topology={name}")
        summary.append(f"{prefix}trace.rows={trace.t.size}")
        summary.append(f"{prefix}trace.file={trace_name}")
        for f in plot_names:
            summary.append(f"{prefix}plot.file={f}")
        summary.extend(f"{prefix}{line}" for line in report.as_lines())
    if sweep:
        summary.append("sweep.topologies=" + ",".join(graphs))

    with open(os.path.join(outdir, "summary.txt"), "w",
              encoding="utf-8") as fh:
        fh.write("\n".join(summary) + "\n")
    print("\n".join(summary))
    return EXIT_OK


def _agreement_identity(g: NetworkGraph) -> tuple[bool, list[str]]:
    """Zero cooperative error if and only if every output equals the
    setpoint: checked as row balance, positive stability, and both
    implication directions on the graph matrices."""
    balance = float(np.abs(g.A_m.sum(axis=1) + np.diag(g.A_0) - 1.0).max())
    positive = is_positive_stable(g.L)
    ones = np.ones(g.m)
    forward = float(np.abs(g.L @ ones - g.A_0 @ ones).max())
    try:
        y_sol = solve_linear(g.L, g.A_0 @ ones)
        converse = float(np.abs(y_sol - ones).max())
    except SingularMatrixError:
        converse = np.inf
    ok = (balance <= BALANCE_TOL and positive
          and forward <= AGREEMENT_TOL and converse <= AGREEMENT_TOL)
    lines = [
        f"agreement.balance_deviation={balance:.12g}",
        f"agreement.positive_stable={'true' if positive else 'false'}",
        f"agreement.zero_error_at_consensus={forward:.12g}",
        f"agreement.consensus_at_zero_error={converse:.12g}",
        f"agreement.passed={'true' if ok else 'false'}",
    ]
    return ok, lines


def cmd_verify(sc: Scenario, trace_path, gains_dir=None,
               offset_tol: float = OFFSET_TOL) -> int:
    """Re-run every certificate check against a recorded trace."""
    net = build_plant(sc)
    aug = augment_network(net)
    g = build_interaction(sc, net)
    so, K = _obtain_gains(sc, aug, net, gains_dir)
    law = ControlLaw(graph=g, K=K, ell_p=sc.ell_p, ell_i=sc.ell_i)
    trace = trace_from_csv(trace_path, net)

    failures: list[str] = []
    lines: list[str] = []

    ok, agreement_lines = _agreement_identity(g)
    lines.extend(agreement_lines)
    if not ok:
        failures.append("agreement-identity")

    if so.margin <= 0.0:
        lines.append(f"observer.margin={so.margin:.12g}")
        failures.append("observer-certificate")

    dis = dissipation_check(trace, aug, net, so)
    lines.extend(dis.as_lines())
    if not dis.passed:
        failures.append("dissipation")

    try:
        cert = iss_certificate(g, net, K)
        iss = verify_iss_bound(trace, cert, net, law)
        lines.extend(iss.as_lines())
        if not iss.passed:
            failures.append("iss-bound")
    except (NotPositiveStableError, NotHurwitzError) as exc:
        lines.append(f"iss.error={exc}")
        failures.append("iss-bound")

    report = consensus_report(trace, net, g)
    lines.extend(report.as_lines())
    tracking_ok = (np.all(np.isfinite(report.settling_time))
                   and float(report.final_offset.max()) <= offset_tol)
    lines.append(f"consensus.passed={'true' if tracking_ok else 'false'}")
    if not tracking_ok:
        failures.append("consensus")

    print("\n".join(lines))
    if failures:
        print(f"certificate failed: {failures[0]}", file=sys.stderr)
        return EXIT_CERTIFICATE
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing and dispatch


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coopftc",
        description="Synthesis, simulation, and verification of "
                    "cooperative fault-tolerant tracking loops.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_scenario(p):
        p.add_argument("-s", "--scenario", metavar="FILE", default=None,
                       help="YAML scenario file (omit for the built-in "
                            "benchmark defaults)")

    p_synth = sub.add_parser(
        "synth", help="synthesize observer and feedback gains")
    add_scenario(p_synth)
    p_synth.add_argument("-o", "--out", metavar="DIR", default=".",
                         help="directory for gains and certificate files")

    p_sim = sub.add_parser(
        "simulate", help="run the closed loop and write trace, summary, "
                         "and plot data")
    add_scenario(p_sim)
    p_sim.add_argument("-o", "--out", metavar="DIR", default=".",
                       help="output directory")
    p_sim.add_argument("--gains", metavar="DIR", default=None,
                       help="directory with files from 'synth' "
                            "(default: synthesize in-process)")
    p_sim.add_argument("--sweep", action="store_true",
                       help="run each of the three named topologies in turn")

    p_ver = sub.add_parser(
        "verify", help="check every certificate against a recorded trace")
    add_scenario(p_ver)
    p_ver.add_argument("--trace", metavar="CSV", required=True,
                       help="trace file written by 'simulate'")
    p_ver.add_argument("--gains", metavar="DIR", default=None,
                       help="directory with files from 'synth' "
                            "(default: synthesize in-process)")
    return parser


_VALIDATION_ERRORS = (
    ParseError, ValidationError, SchemaError, ModelValidationError,
    BadEdgeError, IsolatedUnitError, DimensionMismatchError,
    NotSymmetricError,
)

_CERTIFICATE_ERRORS = (
    NotHurwitzError, NotPositiveStableError, IdentityCheckFailedError,
)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        sc = (parse_scenario(args.scenario) if args.scenario is not None
              else Scenario())
        if args.command == "synth":
            return cmd_synth(sc, args.out)
        if args.command == "simulate":
            return cmd_simulate(sc, args.out, gains_dir=args.gains,
                                sweep=args.sweep)
        return cmd_verify(sc, args.trace, gains_dir=args.gains)
    except _VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except InfeasibleError as exc:
        print(f"synthesis failed: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except NonFiniteStateError as exc:
        print(f"simulation failed: {exc}", file=sys.stderr)
        return EXIT_SIMULATION
    except _CERTIFICATE_ERRORS as exc:
        print(f"certificate failed: {exc}", file=sys.stderr)
        return EXIT_CERTIFICATE


if __name__ == "__main__":
    sys.exit(main())
