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
infeasible; 4 simulation failure; 5 certificate failure: a failed
check, loaded gains that fail re-verification, or an internal identity
check (a fast path disagreeing with its reference).
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys
import tempfile
from dataclasses import dataclass, field, fields, replace

import numpy as np
import yaml

from . import __version__
from .analysis import (
    ConsensusCheck,
    DissipationCheck,
    IssBoundCheck,
    iss_certificate,
)
from .control import (
    ClosedLoopState,
    ControlLaw,
    build_closed_loop,
    cooperative_error,
)
from .errors import (
    BadEdgeError,
    CertificateFailedError,
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
from .estimator import ObserverRealization, build_observer
from .graph import (
    BENCHMARK_TOPOLOGIES,
    NetworkGraph,
    benchmark_topology,
    build_graph,
    check_balance,
    check_source_reachability,
    is_positive_stable,
    normalize_weights,
)
from .linalg import as_symmetric, solve_linear
from .plant import (
    AgentModel,
    AugmentedModel,
    NetworkModel,
    augment_network,
    dc_motor_agent,
    stack_network,
)
from .sim import (
    PartColumn,
    Rollout,
    SignalSchedule,
    StagedColumns,
    read_rows,
    read_trace,
    rollout,
    sample_initial_state,
    step_schedule,
    trace_to_csv,
    write_rows,
    write_series,
)
from .synth import (
    ControllerSynthesis,
    ObserverSynthesis,
    certify_observer,
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


# ---------------------------------------------------------------------------
# scenario schema


def _is_number(value) -> bool:
    """A finite int or float; YAML booleans are not numbers."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int too large for a float
        return False


def _not_a_number(key: str, value) -> str:
    """The message for a ``key`` whose ``value`` is not a finite number.

    YAML 1.1 reads exponent notation as a number only with a dot and a
    signed exponent (``1.0e-1``, ``1.0e+3``); it reads ``1e-1`` or
    ``1.0e3`` as a string.  For a string that Python reads as a finite
    number, the message says how to write it so that it parses."""
    message = f"{key} must be a finite number, got {value!r}"
    if not isinstance(value, str):
        return message
    try:
        if not math.isfinite(float(value)):
            return message
    except ValueError:
        return message
    mantissa, e, exponent = value.lower().partition("e")
    if e:
        if "." not in mantissa:
            mantissa += ".0"
        if exponent[0] not in "+-":
            exponent = "+" + exponent
    written = f"{mantissa}{e}{exponent}"
    if written == value.lower():
        return f"{message}; a quoted number is a string, write it unquoted"
    return f"{message}; YAML reads {value} as a string, write {written}"


def _finite(key: str, value) -> float:
    """``value`` as a float if it is a finite number, else the error
    naming ``key``, with the hint of :func:`_not_a_number`."""
    if not _is_number(value):
        raise ValidationError(_not_a_number(key, value))
    return float(value)


def _elements(key: str, values) -> tuple:
    """Each of the list ``values`` through :func:`_finite`, named
    ``key[1]``, ``key[2]``, ..."""
    return tuple(_finite(f"{key}[{i}]", v) for i, v in enumerate(values, 1))


def _is_index(value) -> bool:
    """An integral number: an int, or a float with no fractional part."""
    return _is_number(value) and float(value).is_integer()


# Readers: each takes a field's dotted key and the value the file gives
# it, rejects a bad value naming the key, and returns the value in the
# form the Scenario field holds.


def _one_of(*choices):
    def read(key: str, value):
        # the type must match too: YAML's true is not the number 1
        if not any(type(value) is type(c) and value == c for c in choices):
            raise ValidationError(
                f"{key} must be one of {list(choices)}, got {value!r}")
        return value
    return read


def _integer(minimum: int):
    def read(key: str, value) -> int:
        if (not isinstance(value, int) or isinstance(value, bool)
                or value < minimum):
            raise ValidationError(
                f"{key} must be an integer >= {minimum}, got {value!r}")
        return value
    return read


def _number(minimum: float, strict: bool):
    """A finite number at least, or if ``strict`` above, ``minimum``."""
    def read(key: str, value) -> float:
        value = _finite(key, value)
        if value < minimum or (strict and value == minimum):
            raise ValidationError(f"{key} must be {'>' if strict else '>='} "
                                  f"{minimum:g}, got {value}")
        return value
    return read


_positive = _number(0.0, strict=True)


def _per_agent(key: str, value):
    """One number for every agent, or a list of one number per agent
    (its length is checked against ``plant.m`` once that is known)."""
    if isinstance(value, list) and value:
        return _elements(key, value)
    if not _is_number(value):
        raise ValidationError(f"{key} must be a finite number or a list of "
                              f"finite numbers, got {value!r}")
    return float(value)


def _bounds(key: str, value) -> tuple:
    bounds = (_elements(key, value)
              if isinstance(value, list) and len(value) == 2 else None)
    if bounds is None or bounds[0] > bounds[1]:
        raise ValidationError(
            f"{key} must be [lo, hi] of finite numbers with lo <= hi, "
            f"got {value!r}")
    return bounds


def _index_rows(pattern: str, n_index: int):
    """A list of ``pattern`` rows: ``n_index`` integral unit indices,
    then a weight."""
    def read(key: str, value) -> tuple:
        if not isinstance(value, list):
            raise ValidationError(f"{key} must be a list of {pattern} rows")
        rows = []
        for row, item in enumerate(value, start=1):
            if (not isinstance(item, list) or len(item) != n_index + 1
                    or not all(map(_is_index, item[:n_index]))):
                raise ValidationError(
                    f"{key} entries must be {pattern} with integral "
                    f"indices, got {item!r}")
            weight = _finite(f"{key}[{row}][{n_index + 1}]", item[n_index])
            rows.append(tuple(map(int, item[:n_index])) + (weight,))
        return tuple(rows)
    return read


def _matrix(where: str, value) -> tuple:
    if (not isinstance(value, list) or not value
            or not all(isinstance(row, list) and row for row in value)):
        raise ValidationError(f"{where} must be a list of rows")
    width = len(value[0])
    rows = []
    for i, row in enumerate(value, start=1):
        if len(row) != width:
            raise ValidationError(f"{where} rows must be equal-length "
                                  "lists of finite numbers")
        rows.append(_elements(f"{where}[{i}]", row))
    return tuple(rows)


def _agents(key: str, value) -> tuple:
    if not isinstance(value, list) or not value:
        raise ValidationError(
            f"{key} must be a non-empty list of matrix mappings")
    agents = []
    for k, item in enumerate(value, start=1):
        where = f"{key}[{k}]"
        if not isinstance(item, dict):
            raise ValidationError(f"{where} must be a mapping")
        if set(item) != {"A", "B", "C", "D"}:
            raise ValidationError(f"{where} must have exactly the keys "
                                  f"A, B, C, D, got {list(item)}")
        agents.append(tuple(_matrix(f"{where}.{name}", item[name])
                            for name in ("A", "B", "C", "D")))
    return tuple(agents)


def _setpoints(key: str, value) -> tuple:
    if not isinstance(value, list) or not value:
        raise ValidationError(
            f"{key} must be a non-empty list of [time, value] pairs")
    pairs = []
    for i, item in enumerate(value, start=1):
        if not isinstance(item, list) or len(item) != 2:
            raise ValidationError(
                f"{key} entries must be [time, value], got {item!r}")
        pairs.append(_elements(f"{key}[{i}]", item))
    times = [t for t, _ in pairs]
    if times[0] != 0.0:
        raise ValidationError(f"{key} must start at time 0")
    if any(b <= a for a, b in zip(times, times[1:])):
        raise ValidationError(f"{key} times must be strictly increasing")
    return tuple(pairs)


def _key(key: str, read, default):
    """A Scenario field: its dotted scenario key, reader and default."""
    return field(default=default, metadata={"key": key, "read": read})


@dataclass(frozen=True)
class Scenario:
    """Fully resolved run configuration; the defaults are the benchmark.

    This table is the single source of the scenario schema: each field
    declares its dotted key in the YAML file, its default and the reader
    that checks a given value.  :func:`parse_scenario` accepts exactly
    these keys, and a key left out (or null) takes the field's default.
    """

    schema_version: int = _key(
        "schema_version", _one_of(SCHEMA_VERSION), SCHEMA_VERSION)
    topology: str | None = _key(
        "topology", _one_of(*BENCHMARK_TOPOLOGIES), "star")
    graph_edges: tuple = _key(
        "graph.edges", _index_rows("[i, j, weight]", 2), ())
    graph_sources: tuple = _key(
        "graph.sources", _index_rows("[i, weight]", 1), ())
    normalize: bool = _key("graph.normalize", _one_of(True, False), True)
    plant_kind: str = _key(
        "plant.kind", _one_of("dc_motor", "explicit"), "dc_motor")
    m: int = _key("plant.m", _integer(1), 4)
    agents: tuple = _key("plant.agents", _agents, ())
    delta: float = _key("synthesis.delta", _positive, 0.3)
    alpha: float = _key("synthesis.alpha", _positive, 0.2)
    margin: float = _key("synthesis.margin", _positive, 1e-6)
    ell_p: object = _key("control.ell_p", _per_agent, 0.1)
    ell_i: object = _key("control.ell_i", _per_agent, 90.0)
    setpoint: tuple = _key("control.setpoint", _setpoints,
                           ((0.0, 1.0), (20.0, 2.0)))
    h: float = _key("sim.h", _positive, 1e-3)
    T: float = _key("sim.T", _positive, 40.0)
    seed: int = _key("sim.seed", _integer(0), 0)
    init_bounds: tuple = _key("sim.init_bounds", _bounds, (-1.0, 1.0))
    disturbance: object = _key("sim.disturbance", _per_agent, 0.1)
    fault_magnitude: object = _key("sim.fault.magnitude", _per_agent, 5.75)
    fault_onset: float = _key(
        "sim.fault.onset", _number(0.0, strict=False), 10.0)


#: Dotted scenario key -> Scenario field, and the sections holding them.
_FIELDS = {f.metadata["key"]: f for f in fields(Scenario)}
_SECTIONS = {key[:i] for key in _FIELDS
             for i, c in enumerate(key) if c == "."}


#: libyaml's safe loader when PyYAML was built with it: the same
#: documents and types as ``yaml.SafeLoader``, parsed in C.
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def parse_scenario(path) -> Scenario:
    """Read and fully validate a YAML scenario file.

    An empty file yields the benchmark defaults.  Unknown keys and bad
    values raise :class:`ValidationError` naming the field; syntax
    errors raise :class:`ParseError` with the line and column when
    available.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    try:
        raw = yaml.load(text, Loader=_YAML_LOADER)
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
    given = _flatten(raw)
    sc = Scenario(**{f.name: f.metadata["read"](key, given[key])
                     for key, f in _FIELDS.items() if key in given})
    return _cross_check(sc, given)


def _flatten(mapping: dict, prefix: str = "") -> dict:
    """Dotted key -> value of every non-null leaf of the file."""
    flat = {}
    for name, value in mapping.items():
        key = f"{prefix}{name}"
        if "." in str(name) or (key not in _FIELDS and key not in _SECTIONS):
            raise ValidationError(f"unknown key '{key}'")
        if value is None:
            continue
        if key not in _SECTIONS:
            flat[key] = value
        elif isinstance(value, dict):
            flat.update(_flatten(value, key + "."))
        else:
            raise ValidationError(f"section '{key}' must be a mapping")
    return flat


def _cross_check(sc: Scenario, given: dict) -> Scenario:
    """The checks that read more than one field."""
    if any(key.startswith("graph.") for key in given):
        if "topology" in given:
            raise ValidationError("give either 'topology' or an explicit "
                                  "'graph' section, not both")
        if "graph.edges" not in given:
            raise ValidationError("a graph section needs graph.edges")
        sc = replace(sc, topology=None)
    if sc.plant_kind == "explicit":
        if not sc.agents:
            raise ValidationError("plant.kind: explicit needs plant.agents")
        if "plant.m" in given and sc.m != len(sc.agents):
            raise ValidationError(f"plant.m is {sc.m} but plant.agents "
                                  f"lists {len(sc.agents)} agents")
        sc = replace(sc, m=len(sc.agents))
    elif sc.agents:
        raise ValidationError("plant.agents requires plant.kind: explicit")
    for key, f in _FIELDS.items():
        value = getattr(sc, f.name)
        if (f.metadata["read"] is _per_agent and isinstance(value, tuple)
                and len(value) != sc.m):
            raise ValidationError(
                f"{key} lists {len(value)} values for {sc.m} agents")
    if sc.T < sc.h:
        raise ValidationError(
            f"sim.T ({sc.T}) must be at least sim.h ({sc.h})")
    snapped = [_snap(t, sc.h) for t, _ in sc.setpoint]
    if any(b <= a for a, b in zip(snapped, snapped[1:])):
        raise ValidationError(
            "control.setpoint times must lie at least one step apart on "
            f"the sim.h={sc.h:g} time grid, got {[t for t, _ in sc.setpoint]}")
    return sc


# ---------------------------------------------------------------------------
# builders


def build_plant(sc: Scenario) -> NetworkModel:
    """Instantiate the stacked plant described by a scenario."""
    if sc.plant_kind == "dc_motor":
        return stack_network(dc_motor_agent(i) for i in range(1, sc.m + 1))
    agents = []
    for k, (A, B, C, D) in enumerate(sc.agents, start=1):
        try:
            agents.append(AgentModel(A=A, B=B, C=C, D=D))
        except ModelValidationError as exc:
            raise ModelValidationError(f"plant.agents[{k}]: {exc}") from exc
    try:
        return stack_network(agents)
    except DimensionMismatchError as exc:
        raise DimensionMismatchError(f"plant.agents: {exc}") from exc


def build_interaction(sc: Scenario, net: NetworkModel) -> NetworkGraph:
    """Instantiate the interaction topology described by a scenario: a
    named topology as the benchmark defines it (normalized), or the
    explicit graph, normalized if ``sc.normalize``.

    The graph must fit the plant, the source must reach every unit, and
    every unit's in-weights must sum to one, else the scenario is
    rejected before any synthesis.
    """
    if sc.topology is not None:
        g = benchmark_topology(sc.topology)
    else:
        g = build_graph(net.m, sc.graph_edges, sc.graph_sources)
    if g.m != net.m:
        raise ValidationError(
            f"graph has {g.m} units but the plant has {net.m} agents")
    # Checked before normalizing: a unit with no in-weight at all is
    # unreached, and this message names the field that fixes it.
    unreached = check_source_reachability(g)
    if unreached:
        raise ValidationError(
            f"graph.sources: units {unreached} are not reachable from the "
            "source; pin one of them or add an edge from a reached unit")
    if sc.topology is None and sc.normalize:
        g = normalize_weights(g)
    _, unbalanced = check_balance(g)
    if unbalanced:
        raise ValidationError(
            f"graph.normalize: the in-weights (edges plus source) of units "
            f"{unbalanced} do not sum to 1; set graph.normalize: true or "
            "rescale graph.edges and graph.sources")
    return g


def _snap(t: float, h: float) -> float:
    return round(t / h) * h


def build_schedule(sc: Scenario, net: NetworkModel) -> SignalSchedule:
    """Signal schedule with all breakpoints snapped to the time grid."""
    return step_schedule(net.m, sc.disturbance, sc.fault_magnitude,
                         _snap(sc.fault_onset, sc.h),
                         [(_snap(t, sc.h), y) for t, y in sc.setpoint])


def _require_single_channel(sc: Scenario) -> None:
    """``simulate`` and ``verify`` need one input, output and disturbance
    channel per agent: the trace CSV has one column per agent for each
    signal, and the consensus metrics compare one output per agent."""
    for k, (_, B, C, D) in enumerate(sc.agents, start=1):
        n_u, n_y, n_v = len(B[0]), len(C), len(D[0])
        if (n_u, n_y, n_v) != (1, 1, 1):
            raise ValidationError(
                f"plant.agents[{k}] has n_u={n_u}, n_y={n_y}, n_v={n_v}; "
                "simulate and verify need single-channel agents "
                "(n_u = n_y = n_v = 1)")


def _require_grid_in_memory(sc: Scenario) -> None:
    """A grid whose loop states ``(x, eta, q)`` at every point would
    exceed physical memory is rejected before synthesis, as a bound on
    the run's size: ``run_experiment`` holds all of them, and
    ``simulate``, which holds the time grid and one block of states,
    writes a trace of at least as many cells."""
    steps = sc.T / sc.h
    rows = round(steps) + 1 if math.isfinite(steps) else math.inf
    n_x = len(sc.agents[0][0]) if sc.agents else dc_motor_agent(1).n_x
    need = rows * sc.m * (2 * n_x + 2) * 8  # single-channel agents
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > memory:
        raise ValidationError(
            f"sim.T / sim.h gives {rows:.4g} time points, whose loop states "
            f"need {need / 2**30:.4g} GiB, more than the {memory / 2**30:.4g} "
            "GiB of physical memory; raise sim.h or lower sim.T")


# ---------------------------------------------------------------------------
# gains files and assembly


def save_matrix(path, M: np.ndarray) -> None:
    """Write ``rows cols``, then one line per row at full precision."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{M.shape[0]} {M.shape[1]}\n")
        write_rows(fh, [M], " ")


def load_matrix(path) -> np.ndarray:
    """Read a matrix written by :func:`save_matrix`; every entry must be
    finite."""
    header, M = read_rows(path, " ")
    if header.split() != [str(n) for n in M.shape]:
        raise SchemaError(f"{path}: header {header!r} is not 'rows cols' "
                          f"of the {M.shape[0]}x{M.shape[1]} values below")
    return M


def _load_gains(sc: Scenario, aug: AugmentedModel, net: NetworkModel,
                gains_dir) -> tuple[ObserverSynthesis, np.ndarray]:
    """The gains in ``gains_dir``; the observer's certificate gets the
    verdict that ``synth`` gives its own gains."""
    shapes = {OBSERVER_GAIN_FILE: (aug.n_aug, net.nbar_y),
              FEEDBACK_GAIN_FILE: (net.nbar_u, net.nbar_x),
              OBSERVER_STORAGE_FILE: (aug.n_aug, aug.n_aug)}
    Lgain, K, P = (load_matrix(os.path.join(gains_dir, name))
                   for name in shapes)
    for (name, shape), M in zip(shapes.items(), (Lgain, K, P)):
        if M.shape != shape:
            raise SchemaError(f"{name} has shape {M.shape}, expected {shape}")
    P = as_symmetric(P, OBSERVER_STORAGE_FILE)
    try:
        so = certify_observer(aug, net, sc.delta, P, P @ Lgain, Lgain,
                              sc.margin)
    except InfeasibleError as exc:  # a certificate, not a synthesis, failed
        raise CertificateFailedError(
            f"{exc}; gains read from {gains_dir}") from exc
    return so, K


@dataclass(frozen=True)
class _Assembly:
    """A scenario built for a command: one control law per graph, keyed by
    topology name; ``ctrl`` is None when the gains were loaded."""

    net: NetworkModel
    aug: AugmentedModel
    laws: dict[str, ControlLaw]
    so: ObserverSynthesis
    ctrl: ControllerSynthesis | None


def _assemble(sc: Scenario, gains_dir=None, sweep: bool = False,
              trace=None) -> _Assembly:
    """The plant, then every graph (the named topologies if ``sweep``),
    then the gains, loaded from ``gains_dir`` or synthesized: a graph that
    does not fit the plant fails before the expensive work, and so does a
    ``trace`` file the command will read that cannot be opened."""
    net = build_plant(sc)
    runs = ([replace(sc, topology=name, graph_edges=(), graph_sources=())
             for name in sorted(BENCHMARK_TOPOLOGIES)] if sweep else [sc])
    graphs = {run.topology or "custom": build_interaction(run, net)
              for run in runs}
    aug = augment_network(net)
    ctrl = None
    if gains_dir is None:
        if trace is not None:
            open(trace, "rb").close()
        so = synth_observer(aug, net, sc.delta, margin=sc.margin)
        ctrl = synth_controller(net, sc.alpha, sc.delta, margin=sc.margin)
        K = ctrl.K
    else:
        so, K = _load_gains(sc, aug, net, gains_dir)
    laws = {name: ControlLaw(graph=g, K=K, ell_p=sc.ell_p, ell_i=sc.ell_i)
            for name, g in graphs.items()}
    return _Assembly(net=net, aug=aug, laws=laws, so=so, ctrl=ctrl)


# ---------------------------------------------------------------------------
# plot emission


class _PlotCurves:
    """A run's plot curves, each agent's estimation-error norm and true
    output and the setpoint, filled a block of rows at a time and staged
    in a part file next to ``near`` (by default in the temporary
    directory): :class:`~coopftc.sim.StagedColumns`."""

    def __init__(self, net: NetworkModel, rows: int, near=None):
        if near is None:
            near = os.path.join(tempfile.gettempdir(), "coopftc_curves")
        self.net = net
        self.staged = StagedColumns(near, rows)

    def update(self, block) -> None:
        net, m = self.net, self.net.m
        # one expression, so no difference outlives it
        err = np.sqrt(
            np.sum(((block.x - block.x_hat) ** 2).reshape(-1, m, net.n_x),
                   axis=2)
            + np.sum(((block.f_s - block.f_hat) ** 2).reshape(-1, m, net.n_y),
                     axis=2))
        self.staged.append((*err.T, *(block.x @ net.C.T).T, block.y0.ravel()))

    def curve(self, c: int) -> PartColumn:
        """Curve ``c``: agent ``c + 1``'s error norm for ``c < m``, its
        output for ``m <= c < 2 m``, the setpoint for ``c = 2 m``."""
        return self.staged.column(c)


def _emit_plots(outdir, suffix: str, t, curves: _PlotCurves) -> list[str]:
    m = curves.net.m
    err_curves = [(f"agent{i + 1}", curves.curve(i)) for i in range(m)]
    out_curves = [(f"agent{i + 1}", curves.curve(m + i)) for i in range(m)]
    out_curves.append(("setpoint", curves.curve(2 * m)))
    names = [f"plot_estimation_errors{suffix}.dat",
             f"plot_outputs{suffix}.dat"]
    write_series([(os.path.join(outdir, names[0]), t, err_curves),
                  (os.path.join(outdir, names[1]), t, out_curves)])
    return names


# ---------------------------------------------------------------------------
# subcommands


def cmd_synth(sc: Scenario, outdir) -> int:
    """Run both synthesis stages and write gains plus a certificate."""
    built = _assemble(sc)
    so, ctrl = built.so, built.ctrl
    os.makedirs(outdir, exist_ok=True)
    save_matrix(os.path.join(outdir, OBSERVER_GAIN_FILE), so.Lgain)
    save_matrix(os.path.join(outdir, FEEDBACK_GAIN_FILE), ctrl.K)
    save_matrix(os.path.join(outdir, OBSERVER_STORAGE_FILE), so.P)

    # both syntheses return only gains whose re-verified block proves
    # their loop Hurwitz (synth module docstring)
    lines = [
        f"synth.schema_version={sc.schema_version}",
        f"synth.delta={sc.delta:.12g}",
        f"synth.alpha={sc.alpha:.12g}",
        f"synth.observer.margin={so.margin:.12g}",
        "synth.observer.error_dynamics_hurwitz=true",
        f"synth.controller.margin={ctrl.margin:.12g}",
        "synth.controller.closed_loop_hurwitz=true",
        f"synth.controller.gamma={ctrl.gamma:.12g}",
    ]
    with open(os.path.join(outdir, CERTIFICATE_FILE), "w",
              encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    print("\n".join(lines))
    return EXIT_OK


def _run_one(sc: Scenario, built: _Assembly, law: ControlLaw,
             obs: ObserverRealization, schedule: SignalSchedule,
             s0: ClosedLoopState) -> Rollout:
    loop = build_closed_loop(built.net, built.aug, obs, law)
    return rollout(loop, schedule, s0, h=sc.h, T=sc.T)


def _feed(blocks, *checks) -> None:
    """Hand every block to each of ``checks``, in order."""
    with contextlib.closing(blocks):
        for block in blocks:
            for check in checks:
                check.update(block)
            del block  # before the next block is made


def cmd_simulate(sc: Scenario, outdir, gains_dir=None,
                 sweep: bool = False) -> int:
    """Simulate the scenario (or all named topologies) and write artifacts."""
    _require_single_channel(sc)
    _require_grid_in_memory(sc)
    built = _assemble(sc, gains_dir, sweep)
    net = built.net
    # The topologies of a sweep share the gains, the signals and the
    # initial state, so the observer realization is built once.
    obs = build_observer(built.aug, net, built.so)
    schedule = build_schedule(sc, net)
    s0 = sample_initial_state(net, built.aug, sc.seed, sc.init_bounds)
    os.makedirs(outdir, exist_ok=True)

    summary: list[str] = []
    for name, law in built.laws.items():
        # The run is stepped and wired a block at a time, and each block
        # goes to the file, the staged plot curves and the consensus
        # metrics.
        run = _run_one(sc, built, law, obs, schedule, s0)
        suffix = f"_{name}" if sweep else ""
        trace_name = f"trace{suffix}.csv"
        consensus = ConsensusCheck(net, law.graph)
        curves = _PlotCurves(net, run.t.size,
                             os.path.join(outdir, f"plot_curves{suffix}"))
        trace_to_csv(run, net, os.path.join(outdir, trace_name), curves,
                     consensus)
        plot_names = _emit_plots(outdir, suffix, run.t, curves)
        lines = [f"topology={name}", f"trace.rows={run.t.size}",
                 f"trace.file={trace_name}",
                 *(f"plot.file={f}" for f in plot_names),
                 *consensus.report().as_lines()]
        prefix = f"{name}." if sweep else ""
        summary.extend(f"{prefix}{line}" for line in lines)
    if sweep:
        summary.append("sweep.topologies=" + ",".join(built.laws))

    with open(os.path.join(outdir, "summary.txt"), "w",
              encoding="utf-8") as fh:
        fh.write("\n".join(summary) + "\n")
    print("\n".join(summary))
    return EXIT_OK


def _agreement_identity(g: NetworkGraph) -> tuple[bool, list[str]]:
    """Zero cooperative error if and only if every output equals the
    setpoint.  L 1 = A_0 1 holds for every pinned graph, and the converse
    needs only a nonsingular L, so the verdict is "balanced and positive
    stable"; both implication directions are still evaluated and
    printed."""
    balance, unbalanced = check_balance(g)
    positive = is_positive_stable(g.L)
    ones = np.ones(g.m)
    forward = float(np.abs(cooperative_error(g, ones, 1.0)).max())
    try:
        y_sol = solve_linear(g.L, g.A_0 @ ones)
        converse = float(np.abs(y_sol - ones).max())
    except SingularMatrixError:
        converse = np.inf
    ok = not unbalanced and positive
    lines = [
        f"agreement.balance_deviation={balance:.12g}",
        f"agreement.positive_stable={'true' if positive else 'false'}",
        f"agreement.zero_error_at_consensus={forward:.12g}",
        f"agreement.consensus_at_zero_error={converse:.12g}",
        f"agreement.passed={'true' if ok else 'false'}",
    ]
    return ok, lines


def cmd_verify(sc: Scenario, trace_path, gains_dir=None) -> int:
    """Re-run every certificate check against a recorded trace, read one
    block at a time; every check is decided once the whole file has been
    read, so a fault in the file is reported first."""
    _require_single_channel(sc)
    built = _assemble(sc, gains_dir, trace=trace_path)
    net, aug, so = built.net, built.aug, built.so
    [law] = built.laws.values()

    dissipation = DissipationCheck(aug, net, so)
    consensus = ConsensusCheck(net, law.graph)
    try:
        iss = IssBoundCheck(iss_certificate(law.graph, net, law.K), law)
    except (NotPositiveStableError, NotHurwitzError) as exc:
        iss, iss_error = None, exc
    _feed(read_trace(trace_path, net), dissipation, consensus,
          *([iss] if iss else []))

    ok, lines = _agreement_identity(law.graph)
    checks = [("agreement-identity", ok)]

    dis = dissipation.report()
    lines += dis.as_lines()
    checks.append(("dissipation", dis.passed))

    if iss is not None:
        report = iss.report()
        lines += report.as_lines()
        checks.append(("iss-bound", report.passed))
    else:
        lines.append(f"iss.error={iss_error}")
        checks.append(("iss-bound", False))

    report = consensus.report()
    tracking_ok = (np.all(np.isfinite(report.settling_time))
                   and float(report.final_offset.max()) <= OFFSET_TOL)
    lines += [*report.as_lines(),
              f"consensus.passed={'true' if tracking_ok else 'false'}"]
    checks.append(("consensus", tracking_ok))

    print("\n".join(lines))
    failures = [name for name, passed in checks if not passed]
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
    NotSymmetricError, OSError,
)

_CERTIFICATE_ERRORS = (
    CertificateFailedError, NotPositiveStableError, IdentityCheckFailedError,
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
