"""End-to-end command-line behavior: parsing, exit codes, file outputs.

Commands run in-process through ``main`` so exit codes and console
output can be asserted without subprocess plumbing.  Most scenarios
shorten the horizon to keep the suite quick; one round trip runs the
full 40-second benchmark.
"""

import dataclasses
import hashlib
import importlib.util
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import numpy.testing as npt
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from coopftc import analysis, cli, linalg, sim, synth
from coopftc.cli import (Scenario, build_interaction, build_plant,
                         load_matrix, main, parse_scenario, save_matrix)
from coopftc.errors import NonFiniteStateError, ParseError, ValidationError
from coopftc.estimator import build_observer
from coopftc.graph import BENCHMARK_TOPOLOGIES, benchmark_topology
from oracles import savetxt_series

#: Scenario field name -> its dotted key in a scenario file.
KEYS = {f.name: f.metadata["key"] for f in dataclasses.fields(Scenario)}

SHORT_SCENARIO = "sim:\n  T: 2.0\n"

# A ring closed through unit 1 and pinned with weight 3e-9: A + B K is
# Hurwitz, but L has 1-norm condition number 4e9, and the Lyapunov solve
# on (L (x) I)(A + B K)(L (x) I)^-1 cannot certify it.
ILL_CONDITIONED_SCENARIO = (
    "graph: {edges: [[2, 1, 1.0], [3, 2, 1.0], [4, 3, 1.0], [1, 2, 1.0]], "
    "sources: [[1, 3.0e-9]]}\n"
    "sim: {T: 2.0}\n"
)

# A setpoint step half a second before the end of the horizon: the loop
# cannot settle in time, so `verify` must report a consensus failure.
UNSETTLED_SCENARIO = (
    "control:\n  setpoint: [[0.0, 1.0], [1.5, 2.0]]\n"
    "sim:\n  T: 2.0\n"
)


@pytest.fixture(scope="module")
def short_scenario(tmp_path_factory):
    p = tmp_path_factory.mktemp("scen") / "short.yaml"
    p.write_text(SHORT_SCENARIO)
    return p


@pytest.fixture(scope="module")
def gains_dir(tmp_path_factory, short_scenario):
    out = tmp_path_factory.mktemp("gains")
    assert main(["synth", "-s", str(short_scenario), "-o", str(out)]) == 0
    return out


# --- scenario parsing -------------------------------------------------------

def test_empty_file_yields_benchmark_defaults(tmp_path):
    p = tmp_path / "empty.yaml"
    p.write_text("")
    sc = parse_scenario(p)
    assert sc.topology == "star"
    assert sc.plant_kind == "dc_motor" and sc.m == 4
    assert sc.delta == 0.3 and sc.alpha == 0.2
    assert sc.ell_p == 0.1 and sc.ell_i == 90.0
    assert sc.disturbance == 0.1
    assert sc.fault_magnitude == 5.75 and sc.fault_onset == 10.0
    assert sc.h == 1e-3 and sc.T == 40.0 and sc.seed == 0
    assert sc.setpoint == ((0.0, 1.0), (20.0, 2.0))
    assert sc == Scenario()


def _yaml_value(value):
    if isinstance(value, tuple):
        return [_yaml_value(v) for v in value]
    return value


def _nested(values: dict) -> dict:
    """Scenario field values as the nested mapping of a scenario file."""
    doc: dict = {}
    for name, value in values.items():
        *sections, leaf = KEYS[name].split(".")
        node = doc
        for section in sections:
            node = node.setdefault(section, {})
        node[leaf] = _yaml_value(value)
    return doc


_positive = st.floats(1e-6, 1e3)
_finite = st.floats(-1e3, 1e3, allow_nan=False)
_per_agent = st.one_of(_finite, st.tuples(*[_finite] * 4))


@st.composite
def _setpoints(draw):
    # steps at least 0.5 s apart stay apart on every drawn grid (h <= 0.01)
    gaps = draw(st.lists(st.floats(0.5, 10.0), max_size=3))
    times = [0.0]
    for gap in gaps:
        times.append(times[-1] + gap)
    return tuple((t, draw(_finite)) for t in times)


# Valid values for every field whose validity does not hang on a field
# left out (graph, explicit agents, plant size).
_FIELD_VALUES = {
    "schema_version": st.just(1),
    "topology": st.sampled_from(BENCHMARK_TOPOLOGIES),
    "plant_kind": st.just("dc_motor"),
    "m": st.just(4),
    "delta": _positive, "alpha": _positive, "margin": _positive,
    "ell_p": _per_agent, "ell_i": _per_agent, "setpoint": _setpoints(),
    "h": st.floats(1e-4, 1e-2), "T": st.floats(1.0, 100.0),
    "seed": st.integers(0, 2 ** 31),
    "init_bounds": st.tuples(_finite, _finite).map(
        lambda b: tuple(sorted(b))),
    "disturbance": _per_agent, "fault_magnitude": _per_agent,
    "fault_onset": st.floats(0.0, 100.0),
}


@settings(max_examples=60, deadline=None)
@given(drawn=st.fixed_dictionaries({}, optional=_FIELD_VALUES))
def test_field_table_round_trip(tmp_path_factory, drawn):
    p = tmp_path_factory.mktemp("round_trip") / "drawn.yaml"
    p.write_text(yaml.safe_dump(_nested(drawn)))
    assert parse_scenario(p) == dataclasses.replace(Scenario(), **drawn)


def test_readme_schema_block_lists_every_key():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("### Scenario schema", 1)[1]
    block = block.split("```yaml\n", 1)[1].split("```", 1)[0]

    def flatten(node, prefix=""):
        for name, value in node.items():
            if isinstance(value, dict):
                yield from flatten(value, f"{prefix}{name}.")
            else:
                yield f"{prefix}{name}"
    assert sorted(flatten(yaml.safe_load(block))) == sorted(KEYS.values())


def test_named_cyclic_topology_weights(tmp_path):
    p = tmp_path / "c.yaml"
    p.write_text("topology: cyclic\n")
    sc = parse_scenario(p)
    g = build_interaction(sc, build_plant(sc))
    npt.assert_allclose(np.diag(g.A_0), 0.4 * np.ones(4))
    npt.assert_allclose(g.A_m[0, 1], 0.3)
    npt.assert_allclose(g.A_m.sum(axis=1) + np.diag(g.A_0), 1.0, atol=1e-12)


def test_unknown_topology_rejected(tmp_path):
    p = tmp_path / "m.yaml"
    p.write_text("topology: moebius\n")
    with pytest.raises(ValidationError, match="topology"):
        parse_scenario(p)


def test_unknown_key_named_in_error(tmp_path):
    p = tmp_path / "u.yaml"
    p.write_text("sim:\n  wild: 3\n")
    with pytest.raises(ValidationError, match="wild"):
        parse_scenario(p)


def test_nonpositive_step_rejected(tmp_path):
    p = tmp_path / "h.yaml"
    p.write_text("sim:\n  h: -0.001\n")
    with pytest.raises(ValidationError, match="sim.h"):
        parse_scenario(p)


def test_malformed_yaml_reports_position(tmp_path):
    p = tmp_path / "bad.yaml"
    p.write_text("sim:\n  T: [1, 2\n")
    with pytest.raises(ParseError, match="line"):
        parse_scenario(p)


def test_libyaml_and_python_loaders_agree(tmp_path, monkeypatch):
    """Scenarios load through libyaml's safe loader when PyYAML has it;
    the pure-Python safe loader reads every file to the same Scenario."""
    agents = [
        "{A: [[-10.0, 1], [-0.02, -2.0e+0]], B: [[0.0], [2.0]], "
        "C: [[1.0, 0.0]], D: [[0.1], [1.0e-1]]}",
        "{A: [[-11, 1.05], [-0.021, -1.9]], B: [[0], [1.94]], "
        "C: [[1, 0]], D: [[.2], [0.2]]}",
        "{A: [[-12.0, 1.1], [-0.022, -1.85]], B: [[0.0], [1.887]], "
        "C: [[1.0, 0.0]], D: [[3.0e-1], [0.3]]}",
    ]
    p = tmp_path / "explicit.yaml"
    p.write_text(
        "schema_version: 1\n"
        "graph:\n  edges: [[2, 1, 0.5], [3, 2, 1]]\n"
        "  sources: [[1, 1.0]]\n  normalize: true\n"
        "plant:\n  kind: explicit\n  agents:\n"
        + "".join(f"    - {a}\n" for a in agents)
        + "control: {ell_p: [0.1, 0.2, 0.3], setpoint: [[0, 1], [2.5, 2]]}\n"
        "sim: {T: 5, h: 1.0e-3, seed: 7, fault: {magnitude: 5.75}}\n")
    fast = parse_scenario(p)
    monkeypatch.setattr(cli, "_YAML_LOADER", yaml.SafeLoader)
    assert parse_scenario(p) == fast
    assert fast.m == 3 and fast.ell_p == (0.1, 0.2, 0.3)


@pytest.mark.parametrize("document, field, hint", [
    ("graph:\n  edges: [[2, 1, 0.5]]\n  sources: [[1, 1.0]]\n"
     "plant:\n  kind: explicit\n  agents:\n"
     "    - {A: [[-10.0, 1.0], [-0.02, -2.0]], B: [[0.0], [2.0]], "
     "C: [[1.0, 0.0]], D: [[0.1], [1e-1]]}\n"
     "    - {A: [[-11.0, 1.0], [-0.02, -1.9]], B: [[0.0], [1.9]], "
     "C: [[1.0, 0.0]], D: [[0.2], [0.2]]}\n",
     "plant.agents[1].D[2][1] must be a finite number, got '1e-1'",
     "write 1.0e-1"),
    ("sim: {h: 1e-3}\n", "sim.h must be a finite number, got '1e-3'",
     "write 1.0e-3"),
    ("sim: {init_bounds: [-1.0e18, 1.0e18]}\n",
     "sim.init_bounds[1] must be a finite number, got '-1.0e18'",
     "write -1.0e+18"),
    ("sim: {disturbance: [0.1, 0.2, 2e-1, 0.3]}\n",
     "sim.disturbance[3] must be a finite number, got '2e-1'",
     "write 2.0e-1"),
    ("control: {setpoint: [[0, 1.0], [1.0e1, 2.0]]}\n",
     "control.setpoint[2][1] must be a finite number, got '1.0e1'",
     "write 1.0e+1"),
    ("graph: {edges: [[2, 1, 5e-1]], sources: [[1, 1.0]]}\n",
     "graph.edges[1][3] must be a finite number, got '5e-1'",
     "write 5.0e-1"),
], ids=["matrix-entry", "number", "bounds", "per-agent", "setpoints",
        "edge-weight"])
def test_yaml_exponent_without_dot_names_the_entry(tmp_path, capsys,
                                                   document, field, hint):
    """YAML 1.1 reads 1e-1 (no dot) as a string: the error names the
    entry and says how to write the number so that it parses."""
    p = tmp_path / "exponent.yaml"
    p.write_text(document)
    code = main(["synth", "-s", str(p), "-o", str(tmp_path / "out")])
    assert code == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert field in err and hint in err
    assert not (tmp_path / "out").exists()


def test_missing_file_is_validation_exit(tmp_path):
    code = main(["synth", "-s", str(tmp_path / "nope.yaml"),
                 "-o", str(tmp_path)])
    assert code == cli.EXIT_VALIDATION


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


# --- gains file format ------------------------------------------------------

def test_matrix_file_round_trip(tmp_path):
    M = np.random.default_rng(12).normal(size=(3, 5))
    path = tmp_path / "m.txt"
    save_matrix(path, M)
    first = path.read_text().splitlines()[0]
    assert first == "3 5"
    npt.assert_array_equal(load_matrix(path), M)


def _copy_gains(source, target):
    """Copy the three gains files of ``source`` into a new ``target``."""
    target.mkdir()
    for f in (cli.OBSERVER_GAIN_FILE, cli.FEEDBACK_GAIN_FILE,
              cli.OBSERVER_STORAGE_FILE):
        (target / f).write_bytes((source / f).read_bytes())
    return target


@pytest.mark.parametrize("command", [
    ["simulate", "-o", "never-written"],
    ["verify", "--trace", "never-read.csv"],
], ids=["simulate", "verify"])
@pytest.mark.parametrize("name", [cli.OBSERVER_GAIN_FILE,
                                  cli.FEEDBACK_GAIN_FILE,
                                  cli.OBSERVER_STORAGE_FILE])
def test_nonfinite_gain_file_rejected(tmp_path, monkeypatch, capsys,
                                      short_scenario, gains_dir, name,
                                      command):
    monkeypatch.setattr(cli, "synth_observer", _no_synthesis)
    gains = _copy_gains(gains_dir, tmp_path / "gains")
    header, first, *rest = (gains / name).read_text().splitlines()
    (gains / name).write_text(
        "\n".join([header, "nan " + first.split(" ", 1)[1], *rest]) + "\n")
    argv = command[:1] + ["-s", str(short_scenario), "--gains",
                          str(gains)] + command[1:]
    assert main(argv) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert name in err and "non-finite" in err


def _zero_gain(L, P):
    # F1 A_a alone has zero eigenvalues from the fault rows
    return np.zeros_like(L), P


@pytest.mark.parametrize("command", [
    ["simulate", "-o", "out"],
    ["verify", "--trace", "never-read.csv"],
], ids=["simulate", "verify"])
@pytest.mark.parametrize("tamper", [
    _zero_gain,
    lambda L, P: (L, 1e-3 * P),
    lambda L, P: (L, -P),
], ids=["zero_L", "small_P", "negative_P"])
def test_uncertified_gains_rejected(tmp_path, monkeypatch, capsys,
                                   short_scenario, gains_dir, tamper,
                                   command):
    """Loaded gains get the verdict ``synth`` gives its own, and fail
    with exit 5 before any step is taken or any trace is read."""
    monkeypatch.setattr(cli, "synth_observer", _no_synthesis)
    monkeypatch.chdir(tmp_path)
    gains = _copy_gains(gains_dir, tmp_path / "gains")
    L, P = tamper(load_matrix(gains / cli.OBSERVER_GAIN_FILE),
                  load_matrix(gains / cli.OBSERVER_STORAGE_FILE))
    save_matrix(gains / cli.OBSERVER_GAIN_FILE, L)
    save_matrix(gains / cli.OBSERVER_STORAGE_FILE, P)
    argv = command[:1] + ["-s", str(short_scenario), "--gains",
                          str(gains)] + command[1:]
    assert main(argv) == cli.EXIT_CERTIFICATE
    err = capsys.readouterr().err
    assert err.startswith("certificate failed: observer certificate "
                          "failed re-verification")
    assert "lambda_min(P)" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", [
    ["simulate", "-o", "out"],
    ["verify", "--trace", "never-read.csv"],
], ids=["simulate", "verify"])
def test_uncertified_gains_name_their_directory(tmp_path, monkeypatch, capsys,
                                                short_scenario, gains_dir,
                                                command):
    """The failed re-verification of loaded gains, which were never
    assembled from per-agent solves, names the network matrices it ran
    on and the directory the gains came from."""
    monkeypatch.chdir(tmp_path)
    gains = _copy_gains(gains_dir, tmp_path / "gains")
    P = load_matrix(gains / cli.OBSERVER_STORAGE_FILE)
    save_matrix(gains / cli.OBSERVER_STORAGE_FILE, 1e-3 * P)
    argv = command[:1] + ["-s", str(short_scenario), "--gains",
                          str(gains)] + command[1:]
    assert main(argv) == cli.EXIT_CERTIFICATE
    err = capsys.readouterr().err
    assert err.startswith("certificate failed: observer certificate failed "
                          "re-verification on the network matrices (")
    assert err.endswith(f"; gains read from {gains}\n")


@pytest.mark.parametrize("command", [
    ["simulate", "-o", "out"],
    ["verify", "--trace", "never-read.csv"],
], ids=["simulate", "verify"])
def test_asymmetric_storage_rejected(tmp_path, monkeypatch, capsys,
                                    short_scenario, gains_dir, command):
    monkeypatch.chdir(tmp_path)
    gains = _copy_gains(gains_dir, tmp_path / "gains")
    P = load_matrix(gains / cli.OBSERVER_STORAGE_FILE)
    P[0, 1] += 5.0 * np.abs(P).max()
    save_matrix(gains / cli.OBSERVER_STORAGE_FILE, P)
    argv = command[:1] + ["-s", str(short_scenario), "--gains",
                          str(gains)] + command[1:]
    assert main(argv) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert cli.OBSERVER_STORAGE_FILE in err and "asymmetry" in err
    assert not (tmp_path / "out").exists()


# --- synth command ----------------------------------------------------------

def test_synth_writes_gains_and_certificate(gains_dir):
    K = load_matrix(gains_dir / cli.FEEDBACK_GAIN_FILE)
    L = load_matrix(gains_dir / cli.OBSERVER_GAIN_FILE)
    assert K.shape == (4, 8)
    assert L.shape == (12, 4)
    cert = (gains_dir / cli.CERTIFICATE_FILE).read_text()
    assert "synth.observer.margin=" in cert
    assert "synth.controller.gamma=" in cert
    assert "synth.observer.error_dynamics_hurwitz=true" in cert
    assert "synth.controller.closed_loop_hurwitz=true" in cert


def test_synth_decides_each_stability_fact_once(tmp_path, monkeypatch):
    """No Lyapunov solve: each loop's Hurwitz line rests on the block
    re-verified at the returned gain, whose (1,1) block is a Lyapunov
    inequality for that loop, and the certificate reuses it."""
    original = linalg.solve_lyapunov
    calls = []

    def counted(*args):
        calls.append(args)
        return original(*args)
    monkeypatch.setattr(linalg, "solve_lyapunov", counted)
    assert main(["synth", "-o", str(tmp_path)]) == 0
    assert len(calls) == 0


def test_loaded_gains_get_the_synth_verdict(tmp_path, monkeypatch,
                                           short_scenario, gains_dir):
    """``simulate --gains`` makes no Lyapunov solve either: the loaded
    observer passes the re-verification that ``synth`` applies, at the
    margin ``certificate.txt`` records, and that proves it Hurwitz."""
    calls, certified = [], []
    for module in (linalg, analysis):
        def counted(*args, original=module.solve_lyapunov):
            calls.append(args)
            return original(*args)
        monkeypatch.setattr(module, "solve_lyapunov", counted)

    def recorded(aug, net, so):
        certified.append(so)
        return build_observer(aug, net, so)
    monkeypatch.setattr(cli, "build_observer", recorded)
    assert main(["simulate", "-s", str(short_scenario), "-o", str(tmp_path),
                 "--gains", str(gains_dir)]) == 0
    assert len(calls) == 0
    [so] = certified
    cert = (gains_dir / cli.CERTIFICATE_FILE).read_text().splitlines()
    assert f"synth.observer.margin={so.margin:.12g}" in cert


def test_synth_infeasible_delta_exit_code(tmp_path, capsys):
    p = tmp_path / "tiny.yaml"
    p.write_text("synthesis:\n  delta: 1.0e-9\n")
    code = main(["synth", "-s", str(p), "-o", str(tmp_path)])
    assert code == cli.EXIT_INFEASIBLE
    assert "observer LMI infeasible" in capsys.readouterr().err


def test_synth_margin_above_the_cap_exits_at_once(tmp_path, capsys):
    """delta = 0.3 caps every margin at delta^2: asking for 0.1 fails on
    agent 1 before any iteration, not after the solver stalls."""
    p = tmp_path / "margin.yaml"
    p.write_text("synthesis: {margin: 0.1}\n")
    code = main(["synth", "-s", str(p), "-o", str(tmp_path)])
    assert code == cli.EXIT_INFEASIBLE
    err = capsys.readouterr().err
    assert "agent 1 " in err and "provably infeasible" in err
    assert err.rstrip().endswith("caps the margin at 9.000e-02")


def _ring_of_five(tmp_path):
    """Five motors on a ring at the default delta = 0.3: agent 5's
    observer LMI is infeasible."""
    ring = [[i, i % 5 + 1, 0.3] for i in range(1, 6)]
    ring += [[j, i, w] for i, j, w in ring]
    p = tmp_path / "m5.yaml"
    p.write_text(f"graph: {{edges: {ring}, "
                 f"sources: {[[i, 0.4] for i in range(1, 6)]}, "
                 "normalize: true}\nplant: {m: 5}\n")
    return p


def test_synth_reports_the_stalled_agent_of_five(tmp_path, capsys):
    """Five motors at delta = 0.3 on a ring: the dual solve certifies
    agent 5's base observer LMI infeasible in 9 Newton steps, and synth
    names the agent, the certificate's radius and the best reachable
    margin.  The projection iteration took 280 steps to find a
    certificate, and ran to the stall cutoff at step 721 without one."""
    p = _ring_of_five(tmp_path)
    code = main(["synth", "-s", str(p), "-o", str(tmp_path / "gains")])
    assert code == cli.EXIT_INFEASIBLE
    assert capsys.readouterr().err == (
        "synthesis failed: observer LMI infeasible for agent 5 at "
        "delta=0.3: certified infeasible by the dual solve (9 Newton "
        "steps): a Farkas certificate rules out every point with |y| < "
        "1.489e+07 at margin 1.000e-06; best reachable margin about "
        "-8.875e-03\n")


#: Two identical agents whose observer LMI is infeasible at delta = 0.3,
#: though the projection iteration's gap keeps improving on it: it never
#: stalls, and ran its 6,000-step budget to give up.
NEVER_STALLS_AGENT = ("{A: [[-1.377, 0.294], [-0.077, -0.698]], "
                      "B: [[0.0], [1.0]], C: [[-0.047, -1.086]], "
                      "D: [[-0.102], [0.052]]}")
NEVER_STALLS_SCENARIO = (
    "graph: {edges: [[2, 1, 0.5]], sources: [[1, 1.0], [2, 0.5]]}\n"
    f"plant: {{kind: explicit, agents: [{NEVER_STALLS_AGENT}, "
    f"{NEVER_STALLS_AGENT}]}}\n"
    "synthesis: {delta: 0.3}\n")


def test_synth_certifies_a_problem_that_never_stalls(tmp_path, capsys):
    """An infeasible problem whose projection gap keeps improving is
    certified by the dual solve, not run to the end of its budget."""
    p = tmp_path / "never_stalls.yaml"
    p.write_text(NEVER_STALLS_SCENARIO)
    code = main(["synth", "-s", str(p), "-o", str(tmp_path / "gains")])
    assert code == cli.EXIT_INFEASIBLE
    assert capsys.readouterr().err == (
        "synthesis failed: observer LMI infeasible for agent 1 at "
        "delta=0.3: certified infeasible by the dual solve (12 Newton "
        "steps): a Farkas certificate rules out every point with |y| < "
        "1.754e+06 at margin 1.000e-06; best reachable margin about "
        "-2.689e-01\n")


def test_synth_solves_each_distinct_model_once(tmp_path, monkeypatch):
    """fleet24 is motors 1-4 six times over: each stage builds, anchors
    and solves one problem per model, 4 and not 24."""
    stacked, anchored = [], []
    stack, slow_anchors = synth.LmiProblem.stack, synth._slow_anchors

    def counted_stack(cls, variables, expression, k):
        stacked.append(k)
        return stack(variables, expression, k)

    def counted_anchors(A, *args):
        anchored.append(len(A))
        return slow_anchors(A, *args)

    monkeypatch.setattr(synth.LmiProblem, "stack", classmethod(counted_stack))
    monkeypatch.setattr(synth, "_slow_anchors", counted_anchors)
    scen = tmp_path / "fleet24.yaml"
    scen.write_text(_workloads().scenario_files(0)[scen.name])
    assert main(["synth", "-s", str(scen), "-o", str(tmp_path / "g")]) == 0
    # observer, then the feedback stage's anchored and strip-boxed stacks
    assert stacked == [4, 4, 0]
    assert anchored == [4]


def test_synth_names_the_first_agent_of_a_repeated_infeasible_model(
        tmp_path, capsys):
    """Motors 1, 5, 1, 5 on a ring at delta = 0.3: motor 5's observer LMI
    is solved once, for agent 2, and synth names agent 2 as it did when
    every agent had its own solve."""
    workloads = _workloads()
    agents = ", ".join(
        "{" + ", ".join(f"{name}: {workloads._flow(value)}"
                        for name, value in
                        workloads.dc_motor_matrices(i).items()) + "}"
        for i in (1, 5, 1, 5))
    p = tmp_path / "repeated.yaml"
    p.write_text(workloads.ring_graph_yaml(4)
                 + f"plant: {{kind: explicit, agents: [{agents}]}}\n"
                 + "synthesis: {delta: 0.3}\n")
    code = main(["synth", "-s", str(p), "-o", str(tmp_path / "gains")])
    assert code == cli.EXIT_INFEASIBLE
    assert capsys.readouterr().err == (
        "synthesis failed: observer LMI infeasible for agent 2 at "
        "delta=0.3: certified infeasible by the dual solve (9 Newton "
        "steps): a Farkas certificate rules out every point with |y| < "
        "1.489e+07 at margin 1.000e-06; best reachable margin about "
        "-8.875e-03\n")


def _counted_solves(monkeypatch):
    """Patch both solve kernels to log, per call, the stacked projection
    steps (those of the longest-running problem) and the dual solve's
    records."""
    log = {"projection": [], "dual": []}
    douglas_rachford = synth._douglas_rachford
    dual_solve = synth._dual_solve

    def projection(*args):
        outcomes = douglas_rachford(*args)
        log["projection"].append(max(steps for _, steps in outcomes))
        return outcomes

    def dual(*args):
        records = dual_solve(*args)
        log["dual"].append(records)
        return records

    monkeypatch.setattr(synth, "_douglas_rachford", projection)
    monkeypatch.setattr(synth, "_dual_solve", dual)
    return log


def test_synth_projection_steps(tmp_path, monkeypatch):
    """The stacked projection steps of synth: 3 on the default scenario
    (892 before the dual solve, of which 890 went to certifying motor
    4's 0.03 rung) and 1 on the five-motor ring (280 before).  No dual
    solve takes more than ``DUAL_STEPS`` Newton steps, and no problem
    whose warm start meets the floors is solved: on the default scenario
    the anchored controller stack and motors 1-3 on the 0.03 rung make
    no Newton step."""
    log = _counted_solves(monkeypatch)
    assert main(["synth", "-o", str(tmp_path / "bench4")]) == 0
    assert log["projection"] == [1, 1, 1]  # base, 0.03 rung, controller
    base, rung, controller = log["dual"]
    assert all(record is not None for record in base)
    assert [record is None for record in rung] == [True] * 3 + [False]
    assert controller == [None] * 4
    steps = [record[0] for records in log["dual"] for record in records
             if record is not None]
    assert max(steps) <= synth.DUAL_STEPS

    log = _counted_solves(monkeypatch)
    assert main(["synth", "-s", str(_ring_of_five(tmp_path)), "-o",
                 str(tmp_path / "m5")]) == cli.EXIT_INFEASIBLE
    assert log["projection"] == [1]
    ((*_, agent_5),) = log["dual"]
    assert agent_5[1] > synth.FARKAS_RADIUS
    assert max(record[0] for record in log["dual"][0]) <= synth.DUAL_STEPS


def test_nonpositive_motor_resistance_rejected(tmp_path, capsys):
    p = tmp_path / "m51.yaml"
    p.write_text("plant: {m: 51}\n")
    assert main(["synth", "-s", str(p), "-o", str(tmp_path)]) \
        == cli.EXIT_VALIDATION
    assert "agent 51" in capsys.readouterr().err


# --- simulate command -------------------------------------------------------

def test_simulate_short_run_outputs(tmp_path, short_scenario, gains_dir):
    code = main(["simulate", "-s", str(short_scenario), "-o", str(tmp_path),
                 "--gains", str(gains_dir)])
    assert code == 0
    lines = (tmp_path / "trace.csv").read_text().splitlines()
    assert len(lines) == 2002  # header + 2001 steps
    assert lines[0].startswith("t,x[1][1]")
    summary = (tmp_path / "summary.txt").read_text()
    assert "consensus.final_offset=" in summary
    plots = sorted(q.name for q in tmp_path.glob("plot_*.dat"))
    assert plots == ["plot_estimation_errors.dat", "plot_outputs.dat"]
    assert "# curve=" in (tmp_path / "plot_outputs.dat").read_text()


def test_simulate_deterministic_bytes(tmp_path, short_scenario, gains_dir):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        out.mkdir()
        assert main(["simulate", "-s", str(short_scenario), "-o", str(out),
                     "--gains", str(gains_dir)]) == 0
    assert (a / "trace.csv").read_bytes() == (b / "trace.csv").read_bytes()


_PINNED_RUN = """
import os, sys
from coopftc.cli import main
scenario, gains, out, pin = sys.argv[1:]
if pin == "1":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
assert main(["simulate", "-s", scenario, "-o", out, "--gains", gains]) == 0
trace = os.path.join(out, "trace.csv")
assert main(["verify", "-s", scenario, "--trace", trace,
             "--gains", gains]) == 0
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                    reason="needs os.sched_setaffinity")
def test_one_cpu_run_writes_the_same_bytes(tmp_path, gains_dir):
    """``simulate`` then ``verify`` in a process pinned to one CPU write
    and print what an unpinned run does.  The 12 s horizon makes the trace
    large enough to be split where several CPUs are usable."""
    scenario = tmp_path / "s.yaml"
    scenario.write_text("sim:\n  T: 12.0\n")
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    digests = []
    for pin in ("0", "1"):
        out = tmp_path / f"pin{pin}"
        run = subprocess.run(
            [sys.executable, "-c", _PINNED_RUN, str(scenario),
             str(gains_dir), str(out), pin],
            env=env, capture_output=True, timeout=120, check=True)
        files = {p.name: hashlib.md5(p.read_bytes()).hexdigest()
                 for p in sorted(out.iterdir())}
        digests.append((files, run.stdout, run.stderr))
    assert sorted(digests[0][0]) == ["plot_estimation_errors.dat",
                                     "plot_outputs.dat", "summary.txt",
                                     "trace.csv"]
    assert digests[0] == digests[1]


def test_plot_bytes_match_savetxt(tmp_path, short_scenario, gains_dir,
                                  monkeypatch):
    written = []
    original = cli.write_series

    def recorded(files):
        written.extend(files)
        original(files)
    monkeypatch.setattr(cli, "write_series", recorded)
    assert main(["simulate", "-s", str(short_scenario), "-o", str(tmp_path),
                 "--gains", str(gains_dir)]) == 0
    # signed zeros, subnormal and huge values format as savetxt does
    edge = [("edge", np.array([0.0, -0.0, 5e-324, -1e300, 1 / 3, 2.0 ** 60]))]
    recorded([(tmp_path / "edge.dat", np.arange(6.0), edge)])
    assert len(written) == 3
    for path, t, curves in written:
        assert Path(path).read_bytes() == savetxt_series(t, curves)


def test_plot_curves_match_per_agent_reference(tmp_path, monkeypatch):
    """The curves computed for all agents at once, in two blocks of
    rows, equal the per-agent formulas bit for bit."""
    net = build_plant(Scenario())
    rng = np.random.default_rng(5)
    n = 7
    trace = SimpleNamespace(
        t=np.arange(n) * 0.1, y0=rng.normal(size=(n, 1)),
        **{name: rng.normal(size=(n, width)) for name, width in (
            ("x", net.nbar_x), ("x_hat", net.nbar_x), ("f_s", net.nbar_y),
            ("f_hat", net.nbar_y))})
    written = {}
    monkeypatch.setattr(cli, "write_series", lambda files: written.update(
        {path: (t, curves) for path, t, curves in files}))
    curves = cli._PlotCurves(net, n, tmp_path / "curves")
    for rows in (slice(0, 3), slice(3, n)):
        curves.update(SimpleNamespace(**{name: value[rows] for name, value
                                         in vars(trace).items()}))
    names = cli._emit_plots(tmp_path, "", trace.t, curves)
    (t_err, errors), (t_out, outputs) = (written[str(tmp_path / name)]
                                         for name in names)
    assert t_err is trace.t and t_out is trace.t
    for i in range(net.m):
        sl = slice(i * net.n_x, (i + 1) * net.n_x)
        fl = slice(i * net.n_y, (i + 1) * net.n_y)
        err = np.sqrt(
            np.sum((trace.x[:, sl] - trace.x_hat[:, sl]) ** 2, axis=1)
            + np.sum((trace.f_s[:, fl] - trace.f_hat[:, fl]) ** 2, axis=1))
        npt.assert_array_equal(errors[i][1], err)
        npt.assert_array_equal(outputs[i][1], (trace.x @ net.C.T)[:, i])
    assert [label for label, _ in outputs][-1] == "setpoint"


def test_simulate_sweep_three_topologies(tmp_path, short_scenario,
                                         gains_dir, monkeypatch):
    builds = []

    def counted_build_observer(*args):
        builds.append(args)
        return build_observer(*args)

    monkeypatch.setattr(cli, "build_observer", counted_build_observer)
    code = main(["simulate", "-s", str(short_scenario), "-o", str(tmp_path),
                 "--gains", str(gains_dir), "--sweep"])
    assert code == 0
    # the topologies share the gains, so the observer is built once
    assert len(builds) == 1
    for name in ("star", "cyclic", "path"):
        assert (tmp_path / f"trace_{name}.csv").exists()
    summary = (tmp_path / "summary.txt").read_text()
    assert "sweep.topologies=cyclic,path,star" in summary
    # per-topology blocks merged in sorted order
    assert summary.index("cyclic.") < summary.index("path.") \
        < summary.index("star.")


def test_sweep_normalizes_named_topologies(tmp_path, gains_dir):
    # an unnormalized explicit chain must not unbalance the named ones
    p = tmp_path / "chain.yaml"
    p.write_text("graph: {edges: [[2, 1, 1.0], [3, 2, 1.0], [4, 3, 1.0]], "
                 "sources: [[1, 1.0]], normalize: false}\nsim: {T: 0.5}\n")
    assert main(["simulate", "-s", str(p), "-o", str(tmp_path),
                 "--gains", str(gains_dir), "--sweep"]) == 0
    assert "sweep.topologies=cyclic,path,star" \
        in (tmp_path / "summary.txt").read_text()


def _no_synthesis(*args, **kwargs):
    raise AssertionError("synthesis ran before the input check")


@pytest.mark.parametrize("graph, extra", [
    ("", ["simulate"]),
    ("graph: {edges: [[2, 1, 1.0], [3, 2, 1.0]], sources: [[1, 1.0]]}\n",
     ["simulate", "--sweep"]),
    ("", ["verify", "--trace", "never-read.csv"]),
    ("", ["synth"]),
    ("graph: {edges: [[0, 1, 1.0], [3, 2, 1.0]], sources: [[1, 1.0]]}\n",
     ["synth"]),
])
def test_graph_size_checked_before_synthesis(tmp_path, monkeypatch, capsys,
                                             graph, extra):
    monkeypatch.setattr(cli, "synth_observer", _no_synthesis)
    p = tmp_path / "m3.yaml"
    p.write_text(graph + "plant: {m: 3}\n")
    argv = extra[:1] + ["-s", str(p)] + extra[1:]
    if extra[0] in ("simulate", "synth"):
        argv += ["-o", str(tmp_path / "out")]
    assert main(argv) == cli.EXIT_VALIDATION
    # "graph has 4 units ...", or "graph.edges: edge (0,1) out of range"
    assert "graph" in capsys.readouterr().err


@pytest.mark.parametrize("extra", [["synth"], ["simulate"],
                                   ["verify", "--trace", "never-read.csv"]])
def test_unreached_units_rejected_before_synthesis(tmp_path, monkeypatch,
                                                   capsys, extra):
    # units 3 and 4 hear only each other: a closed cycle the source misses
    monkeypatch.setattr(cli, "synth_observer", _no_synthesis)
    p = tmp_path / "cycle.yaml"
    p.write_text("graph: {edges: [[2, 1, 1.0], [3, 4, 1.0], [4, 3, 1.0]], "
                 "sources: [[1, 1.0]]}\n")
    argv = extra[:1] + ["-s", str(p)] + extra[1:]
    if extra[0] != "verify":
        argv += ["-o", str(tmp_path / "out")]
    assert main(argv) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "graph.sources" in err and "[3, 4]" in err


@pytest.mark.parametrize("extra", [["synth"], ["simulate"],
                                   ["verify", "--trace", "never-read.csv"]])
def test_unbalanced_graph_rejected_before_synthesis(tmp_path, monkeypatch,
                                                    capsys, extra):
    # unit 2 hears unit 1 at weight 0.5 and nothing else
    monkeypatch.setattr(cli, "synth_observer", _no_synthesis)
    p = tmp_path / "unbalanced.yaml"
    p.write_text("graph: {edges: [[2, 1, 0.5], [3, 2, 1.0], [4, 3, 1.0]], "
                 "sources: [[1, 1.0]], normalize: false}\n")
    argv = extra[:1] + ["-s", str(p)] + extra[1:]
    if extra[0] != "verify":
        argv += ["-o", str(tmp_path / "out")]
    assert main(argv) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "graph.normalize" in err and "units [2]" in err


def test_empty_edge_graph_is_the_star(tmp_path):
    p = tmp_path / "star.yaml"
    p.write_text("graph: {edges: [], sources: [[1, 1.0], [2, 1.0], "
                 "[3, 1.0], [4, 1.0]]}\n")
    sc = parse_scenario(p)
    g = build_interaction(sc, build_plant(sc))
    star = benchmark_topology("star")
    npt.assert_array_equal(g.A_m, star.A_m)
    npt.assert_array_equal(g.A_0, star.A_0)
    assert main(["synth", "-s", str(p), "-o", str(tmp_path / "out")]) \
        == cli.EXIT_OK


def test_empty_edge_graph_with_unpinned_unit_rejected(tmp_path, monkeypatch,
                                                      capsys):
    monkeypatch.setattr(cli, "synth_observer", _no_synthesis)
    p = tmp_path / "unpinned.yaml"
    p.write_text("graph: {edges: [], sources: [[1, 1.0], [2, 1.0], "
                 "[3, 1.0]]}\n")
    assert main(["synth", "-s", str(p), "-o", str(tmp_path / "out")]) \
        == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "graph.sources" in err and "[4]" in err


def test_collapsing_setpoint_steps_rejected(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "synth_observer", _no_synthesis)
    p = tmp_path / "close.yaml"
    p.write_text("control: {setpoint: [[0.0, 1.0], [0.0004, 2.0]]}\n")
    with pytest.raises(ValidationError, match="control.setpoint"):
        parse_scenario(p)
    assert main(["simulate", "-s", str(p), "-o", str(tmp_path)]) \
        == cli.EXIT_VALIDATION
    assert "control.setpoint" in capsys.readouterr().err


@pytest.mark.parametrize("extra", [["synth"], ["simulate"],
                                   ["verify", "--trace", "never-read.csv"]])
@pytest.mark.parametrize("text, key", [
    ("control: {ell_p: [0.1, 0.2]}\n", "control.ell_p"),
    ("control: {ell_i: [90.0, 90.0]}\n", "control.ell_i"),
    ("sim: {disturbance: [0.1, 0.1]}\n", "sim.disturbance"),
    ("sim: {fault: {magnitude: [5.75, 5.75]}}\n", "sim.fault.magnitude"),
], ids=["ell_p", "ell_i", "disturbance", "fault_magnitude"])
def test_per_agent_list_length_checked_before_synthesis(
        tmp_path, monkeypatch, capsys, text, key, extra):
    monkeypatch.setattr(cli, "synth_observer", _no_synthesis)
    p = tmp_path / "two_values.yaml"
    p.write_text(text)
    argv = extra[:1] + ["-s", str(p)] + extra[1:]
    if extra[0] != "verify":
        argv += ["-o", str(tmp_path / "out")]
    assert main(argv) == cli.EXIT_VALIDATION
    assert f"{key} lists 2 values for 4 agents" in capsys.readouterr().err


@pytest.mark.parametrize("extra", [["simulate"],
                                   ["verify", "--trace", "never-read.csv"]])
def test_multichannel_agents_rejected_before_synthesis(tmp_path, monkeypatch,
                                                       capsys, extra):
    monkeypatch.setattr(cli, "synth_observer", _no_synthesis)
    agent = ("{A: [[-1.0, 0.0], [0.0, -2.0]], B: [[1.0], [1.0]], "
             "C: [[1.0, 0.0], [0.0, 1.0]], D: [[1.0], [0.0]]}")
    p = tmp_path / "two_outputs.yaml"
    p.write_text("graph: {edges: [[2, 1, 1.0]], sources: [[1, 1.0]]}\n"
                 f"plant: {{kind: explicit, agents: [{agent}, {agent}]}}\n")
    argv = extra[:1] + ["-s", str(p)] + extra[1:]
    if extra[0] == "simulate":
        argv += ["-o", str(tmp_path / "out")]
    assert main(argv) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "plant.agents[1]" in err and "n_y=2" in err


@pytest.mark.parametrize("text, field", [
    ("sim: {T: .inf}\n", "sim.T"),
    ("sim: {init_bounds: [-.inf, 1.0]}\n", "sim.init_bounds"),
    ("synthesis: {delta: .inf}\n", "synthesis.delta"),
    ("sim: {disturbance: .nan}\n", "sim.disturbance"),
    ("graph: {edges: [[2, 1, .nan]], sources: [[1, 1.0]]}\n", "graph.edges"),
], ids=["T", "init_bounds", "delta", "disturbance", "edge_weight"])
def test_nonfinite_numbers_rejected(tmp_path, monkeypatch, capsys, text,
                                    field):
    monkeypatch.setattr(cli, "synth_observer", _no_synthesis)
    p = tmp_path / "nonfinite.yaml"
    p.write_text(text)
    assert main(["simulate", "-s", str(p), "-o", str(tmp_path / "out")]) \
        == cli.EXIT_VALIDATION
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("graph, field", [
    ("{edges: [[2.7, 1, 1.0], [3, 2, 1.0], [4, 3, 1.0]], "
     "sources: [[1, 1.0]]}", "graph.edges"),
    ("{edges: [[2, 1.5, 1.0], [3, 2, 1.0], [4, 3, 1.0]], "
     "sources: [[1, 1.0]]}", "graph.edges"),
    ("{edges: [[2, 1, 1.0], [3, 2, 1.0], [4, 3, 1.0]], "
     "sources: [[1.9, 1.0]]}", "graph.sources"),
], ids=["edge_head", "edge_tail", "source"])
def test_fractional_graph_indices_rejected(tmp_path, monkeypatch, capsys,
                                           graph, field):
    monkeypatch.setattr(cli, "synth_observer", _no_synthesis)
    p = tmp_path / "fractional.yaml"
    p.write_text(f"graph: {graph}\n")
    assert main(["synth", "-s", str(p), "-o", str(tmp_path)]) \
        == cli.EXIT_VALIDATION
    assert field in capsys.readouterr().err
    # an integral float is still an index
    p.write_text(f"graph: {graph}\n".replace("2.7", "2.0")
                 .replace("1.5", "1.0").replace("1.9", "1.0"))
    sc = parse_scenario(p)
    assert sc.graph_edges[0][:2] == (2, 1) and sc.graph_sources == ((1, 1.0),)


def test_explicit_agent_count_must_match_plant_m(tmp_path, monkeypatch,
                                                 capsys):
    monkeypatch.setattr(cli, "synth_observer", _no_synthesis)
    agent = "{A: [[-1.0]], B: [[1.0]], C: [[1.0]], D: [[1.0]]}"
    p = tmp_path / "explicit.yaml"
    text = f"plant: {{kind: explicit, m: M, agents: [{agent}, {agent}]}}\n"
    p.write_text(text.replace("M", "2"))
    assert parse_scenario(p).m == 2
    p.write_text(text.replace("M", "3"))
    assert main(["synth", "-s", str(p), "-o", str(tmp_path)]) \
        == cli.EXIT_VALIDATION
    assert "plant.m" in capsys.readouterr().err


@pytest.mark.parametrize("bad, message", [
    ("{A: [[0.0, 1.0]], B: [[1.0]], C: [[1.0, 0.0]], D: [[1.0]]}",
     "plant.agents[2]: A must be square, got (1, 2)"),
    ("{A: [[-1.0, 0.0], [0.0, -2.0]], B: [[1.0], [0.0]], C: [[1.0, 1.0]], "
     "D: [[1.0], [0.0]]}",
     "plant.agents[2]: (A, B) is not controllable"),
    ("{A: [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [-1.0, -3.0, -3.0]], "
     "B: [[0.0], [0.0], [1.0]], C: [[1.0, 0.0, 0.0]], "
     "D: [[0.0], [0.0], [1.0]]}",
     "plant.agents: agent 2 has n_x=3, n_u=1, n_y=1, n_v=1, but agent 1 "
     "has n_x=2, n_u=1, n_y=1, n_v=1"),
], ids=["non_square_A", "uncontrollable", "mixed_dims"])
def test_invalid_explicit_agent_named(tmp_path, monkeypatch, capsys, bad,
                                      message):
    monkeypatch.setattr(cli, "synth_observer", _no_synthesis)
    good = ("{A: [[-1.0, 0.0], [0.0, -2.0]], B: [[1.0], [1.0]], "
            "C: [[1.0, 1.0]], D: [[1.0], [0.0]]}")
    p = tmp_path / "explicit.yaml"
    p.write_text("graph: {edges: [[2, 1, 1.0]], sources: [[1, 1.0]]}\n"
                 f"plant: {{kind: explicit, agents: [{good}, {bad}]}}\n")
    assert main(["synth", "-s", str(p), "-o", str(tmp_path / "out")]) \
        == cli.EXIT_VALIDATION
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("extra, named", [
    (["synth"], "graph has 4 units but the plant has 2 agents"),
    (["simulate"], "plant.agents[1] has n_u=1, n_y=2"),
    (["verify", "--trace", "never-read.csv"],
     "plant.agents[1] has n_u=1, n_y=2"),
], ids=["synth", "simulate", "verify"])
def test_commands_share_one_check_order(tmp_path, monkeypatch, capsys,
                                        extra, named):
    # two-output agents on the default four-unit star: both the channel
    # count and the graph are wrong, and the channel check comes first
    monkeypatch.setattr(cli, "synth_observer", _no_synthesis)
    agent = ("{A: [[-1.0, 0.0], [0.0, -2.0]], B: [[1.0], [1.0]], "
             "C: [[1.0, 0.0], [0.0, 1.0]], D: [[1.0], [0.0]]}")
    p = tmp_path / "two_outputs_star.yaml"
    p.write_text(f"plant: {{kind: explicit, agents: [{agent}, {agent}]}}\n")
    argv = extra[:1] + ["-s", str(p)] + extra[1:]
    if extra[0] != "verify":
        argv += ["-o", str(tmp_path / "out")]
    assert main(argv) == cli.EXIT_VALIDATION
    assert named in capsys.readouterr().err


def test_verify_opens_the_trace_before_synthesis(tmp_path, monkeypatch,
                                                 capsys, short_scenario):
    """A trace that cannot be opened is reported before the gains are
    synthesized, with the error and exit code of reading it."""
    monkeypatch.setattr(cli, "synth_observer", _no_synthesis)
    monkeypatch.chdir(tmp_path)
    assert main(["verify", "-s", str(short_scenario), "--trace",
                 "missing.csv"]) == cli.EXIT_VALIDATION
    assert capsys.readouterr().err == (
        "error: [Errno 2] No such file or directory: 'missing.csv'\n")


def test_each_command_assembles_once(tmp_path, short_scenario, gains_dir,
                                     monkeypatch):
    calls, assemble = [], cli._assemble

    def counted(*args, **kwargs):
        calls.append(args[1:] + tuple(kwargs.values()))
        return assemble(*args, **kwargs)
    monkeypatch.setattr(cli, "_assemble", counted)
    s, out, gains = str(short_scenario), str(tmp_path), str(gains_dir)
    assert main(["synth", "-s", s, "-o", str(tmp_path / "gains")]) == 0
    assert main(["simulate", "-s", s, "-o", out, "--gains", gains,
                 "--sweep"]) == 0
    # the two-second run has not settled: the consensus check fails
    trace = f"{out}/trace_star.csv"
    assert main(["verify", "-s", s, "--trace", trace,
                 "--gains", gains]) == cli.EXIT_CERTIFICATE
    assert calls == [(), (gains, True), (gains, trace)]


@pytest.mark.parametrize("sim", ["{h: 1.0e-9}", "{T: 1.0e+300, h: 1.0e-10}"],
                         ids=["fine_step", "overflowing_step_count"])
def test_unallocatable_grid_rejected_before_synthesis(tmp_path, monkeypatch,
                                                      capsys, sim):
    monkeypatch.setattr(cli, "synth_observer", _no_synthesis)
    p = tmp_path / "fine.yaml"
    p.write_text(f"sim: {sim}\n")
    assert main(["simulate", "-s", str(p), "-o", str(tmp_path / "out")]) \
        == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "sim.T" in err and "sim.h" in err and "physical memory" in err
    assert not (tmp_path / "out").exists()


def test_grid_memory_bound_is_the_loop_states():
    # the benchmark: 40,001 rows of 4 agents x (2 + 3 + 1) states
    need = 40_001 * 24 * 8
    for memory, accepted in ((need, True), (need - 1, False)):
        sizes = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": memory}
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(os, "sysconf", sizes.__getitem__)
            if accepted:
                cli._require_grid_in_memory(Scenario())
            else:
                with pytest.raises(ValidationError, match="sim.T / sim.h"):
                    cli._require_grid_in_memory(Scenario())


@pytest.mark.parametrize("target", ["closed_loop_maps"])
def test_fast_path_mismatch_is_identity_failure(tmp_path, short_scenario,
                                                gains_dir, monkeypatch,
                                                capsys, target):
    original = getattr(sim, target)

    def perturbed(loop):
        maps = original(loop)
        return dataclasses.replace(maps, M=maps.M + 1e-3)
    monkeypatch.setattr(sim, target, perturbed)
    code = main(["simulate", "-s", str(short_scenario), "-o", str(tmp_path),
                 "--gains", str(gains_dir)])
    assert code == cli.EXIT_CERTIFICATE
    assert "disagrees with" in capsys.readouterr().err


def test_simulate_non_finite_state_exit_code(tmp_path, short_scenario,
                                             gains_dir, monkeypatch, capsys):
    def diverging(*args, **kwargs):
        raise NonFiniteStateError("state became non-finite at t=1.234",
                                  time=1.234)
    monkeypatch.setattr(cli, "rollout", diverging)
    code = main(["simulate", "-s", str(short_scenario), "-o", str(tmp_path),
                 "--gains", str(gains_dir)])
    assert code == cli.EXIT_SIMULATION
    err = capsys.readouterr().err
    assert "simulation failed" in err and "t=1.234" in err


def test_simulate_of_a_diverging_loop_names_the_integrators_time(
        tmp_path, gains_dir, monkeypatch, capsys):
    """Positive inner feedback (the feedback gain scaled by -20) makes
    the default loop overflow before T = 15 s: the stepped run hands
    over to ``integrate``, ``simulate`` exits 4 naming the time that
    ``integrate`` reports, and no trace or plot file is left."""
    gains = tmp_path / "gains"
    gains.mkdir()
    for name in os.listdir(gains_dir):
        (gains / name).write_bytes((gains_dir / name).read_bytes())
    feedback = gains / cli.FEEDBACK_GAIN_FILE
    cli.save_matrix(feedback, -20.0 * cli.load_matrix(feedback))
    scen = tmp_path / "long.yaml"
    scen.write_text("sim:\n  T: 15.0\n")
    reported, integrate = [], sim.integrate

    def recorded(*args):
        try:
            return integrate(*args)
        except NonFiniteStateError as exc:
            reported.append(exc.time)
            raise
    monkeypatch.setattr(sim, "integrate", recorded)
    out = tmp_path / "out"
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(["simulate", "-s", str(scen), "-o", str(out),
                     "--gains", str(gains)])
    assert code == cli.EXIT_SIMULATION
    [time] = reported
    assert 0.0 < time < 15.0
    err = capsys.readouterr().err
    assert "simulation failed" in err and f"t={time:.6g}" in err
    assert os.listdir(out) == []


# --- verify command ---------------------------------------------------------

def test_verify_reports_unsettled_run(tmp_path, gains_dir, capsys):
    scen = tmp_path / "late.yaml"
    scen.write_text(UNSETTLED_SCENARIO)
    assert main(["simulate", "-s", str(scen), "-o", str(tmp_path),
                 "--gains", str(gains_dir)]) == 0
    code = main(["verify", "-s", str(scen),
                 "--trace", str(tmp_path / "trace.csv"),
                 "--gains", str(gains_dir)])
    assert code == cli.EXIT_CERTIFICATE
    out = capsys.readouterr()
    assert "agreement.passed=true" in out.out
    assert "dissipation.passed=true" in out.out
    assert "iss.passed=true" in out.out
    assert "certificate failed: consensus" in out.err


def _verify_ill_conditioned(tmp_path, capsys):
    """synth, simulate and verify on ``ILL_CONDITIONED_SCENARIO``: the
    synth stdout, verify's exit code and verify's captured output."""
    scen = tmp_path / "ill.yaml"
    scen.write_text(ILL_CONDITIONED_SCENARIO)
    gains = tmp_path / "gains"
    assert main(["synth", "-s", str(scen), "-o", str(gains)]) == 0
    synth_out = capsys.readouterr().out
    assert main(["simulate", "-s", str(scen), "-o", str(tmp_path),
                 "--gains", str(gains)]) == 0
    capsys.readouterr()
    code = main(["verify", "-s", str(scen),
                 "--trace", str(tmp_path / "trace.csv"),
                 "--gains", str(gains)])
    return synth_out, code, capsys.readouterr()


def test_verify_blames_an_ill_conditioned_transform(tmp_path, capsys):
    synth_out, code, out = _verify_ill_conditioned(tmp_path, capsys)
    assert "closed_loop_hurwitz=true" in synth_out
    assert code == cli.EXIT_CERTIFICATE
    [line] = [line for line in out.out.splitlines()
              if line.startswith("iss.")]
    assert line.startswith(
        "iss.error=A + B K is Hurwitz, but the transform L (x) I is too "
        "ill-conditioned to certify (1-norm condition number of L "
        "4.000e+09); no ISS certificate (")


def test_agreement_holds_on_an_ill_conditioned_graph(tmp_path, capsys):
    """The ring pinned with weight 3e-9 is balanced and positive stable,
    so the agreement identity holds, although solving L y = A_0 1 misses
    1 by 1.2e-8; the first failed check is the ISS bound."""
    _, code, out = _verify_ill_conditioned(tmp_path, capsys)
    assert code == cli.EXIT_CERTIFICATE
    assert "agreement.passed=true" in out.out.splitlines()
    assert ("agreement.consensus_at_zero_error=1.17255026799e-08"
            in out.out.splitlines())
    assert out.err.strip() == "certificate failed: iss-bound"


def test_verify_rejects_truncated_trace(tmp_path, short_scenario,
                                        gains_dir):
    bad = tmp_path / "bad.csv"
    bad.write_text("t,x[1][1]\n0.0,1.0\n")
    code = main(["verify", "-s", str(short_scenario), "--trace", str(bad),
                 "--gains", str(gains_dir)])
    assert code == cli.EXIT_VALIDATION


def _tamper(lines, kind):
    """The trace lines with one defect of the given kind."""
    cells = lines[5].split(",")
    if kind == "non-numeric":
        cells[3] = "abc"
    elif kind == "short-row":
        cells.pop()
    elif kind == "nan":
        cells[3] = "nan"
    elif kind == "nudged-time":
        cells[0] = f"{float(cells[0]) + 1e-7:.17g}"
    elif kind == "duplicated-row":
        return lines[:5] + lines[4:]
    elif kind == "one-row":
        return lines[:2]
    else:  # header only
        return lines[:1]
    return lines[:5] + [",".join(cells)] + lines[6:]


@pytest.mark.parametrize("kind", ["non-numeric", "short-row", "nan",
                                  "header-only", "one-row", "nudged-time",
                                  "duplicated-row"])
def test_verify_rejects_malformed_trace(tmp_path, short_scenario, gains_dir,
                                        capsys, kind):
    assert main(["simulate", "-s", str(short_scenario), "-o", str(tmp_path),
                 "--gains", str(gains_dir)]) == 0
    path = tmp_path / "trace.csv"
    lines = _tamper(path.read_text().splitlines(), kind)
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy warning may leak
        code = main(["verify", "-s", str(short_scenario), "--trace",
                     str(path), "--gains", str(gains_dir)])
    assert code == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert str(path) in err and "Traceback" not in err
    if kind not in ("header-only", "one-row"):
        assert f"{path}: line 6: " in err
    if kind == "nan":
        assert "non-finite" in err
    if kind in ("nudged-time", "duplicated-row"):
        assert "not uniform" in err


def test_verify_flags_tampered_trace(tmp_path, short_scenario, gains_dir,
                                     capsys):
    assert main(["simulate", "-s", str(short_scenario), "-o", str(tmp_path),
                 "--gains", str(gains_dir)]) == 0
    path = tmp_path / "trace.csv"
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    col = header.index("x[2][1]")
    doctored = [lines[0]]
    for k, row in enumerate(lines[1:]):
        cells = row.split(",")
        cells[col] = f"{1.0 + 0.01 * k:.17g}"  # hand-edited divergence
        doctored.append(",".join(cells))
    path.write_text("\n".join(doctored) + "\n")
    code = main(["verify", "-s", str(short_scenario), "--trace", str(path),
                 "--gains", str(gains_dir)])
    assert code == cli.EXIT_CERTIFICATE
    assert "certificate failed" in capsys.readouterr().err


@pytest.mark.parametrize("cpus", [1, 2])
def test_a_fault_in_the_file_comes_before_any_verdict(tmp_path, monkeypatch,
                                                     capsys, short_scenario,
                                                     gains_dir, cpus):
    """``verify`` decides its checks only once the whole trace is read.
    A trace whose ``u[1]`` is off the law's input on file line 11 fails
    the identity check (exit 5); with a non-finite cell on its last line
    as well, the file's fault is reported instead (exit 2, naming that
    line), read by one process or by two."""
    assert main(["simulate", "-s", str(short_scenario), "-o", str(tmp_path),
                 "--gains", str(gains_dir)]) == 0
    path = tmp_path / "trace.csv"
    lines = path.read_text().splitlines()
    cells = lines[10].split(",")
    col = lines[0].split(",").index("u[1]")
    cells[col] = repr(float(cells[col]) + 1.0)
    lines[10] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(cpus)))
    argv = ["verify", "-s", str(short_scenario), "--trace", str(path),
            "--gains", str(gains_dir)]
    capsys.readouterr()
    assert main(argv) == cli.EXIT_CERTIFICATE
    assert "input decomposition mismatch" in capsys.readouterr().err
    cells = lines[-1].split(",")
    cells[3] = "nan"
    lines[-1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    assert main(argv) == cli.EXIT_VALIDATION
    assert capsys.readouterr().err == (
        f"error: {path}: line {len(lines)}: non-finite value\n")


def _workloads():
    """``perfbench/workloads.py``, loaded by path: the benchmark's
    scenario files."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look the module up
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("scenario", ["bench4", "fleet24"])
def test_split_and_serial_verify_print_the_same(tmp_path, capsys, scenario):
    """The benchmark's traces checked a block at a time print the same
    report read by this process alone (one CPU) as with one forked child
    parsing the second half (two)."""
    scen = tmp_path / f"{scenario}.yaml"
    scen.write_text(_workloads().scenario_files(0)[scen.name])
    gains, out = tmp_path / "gains", tmp_path / "out"
    assert main(["synth", "-s", str(scen), "-o", str(gains)]) == 0
    assert main(["simulate", "-s", str(scen), "-o", str(out), "--gains",
                 str(gains)]) == 0
    capsys.readouterr()
    prints, fork = [], os.fork
    for cpus in (1, 2):
        forks = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
            mp.setattr(os, "fork", lambda: forks.append(1) or fork())
            assert main(["verify", "-s", str(scen), "--trace",
                         str(out / "trace.csv"), "--gains", str(gains)]) == 0
        assert len(forks) == cpus - 1
        prints.append(capsys.readouterr())
    assert prints[0] == prints[1]


def _traced_peak(argv) -> int:
    """The peak of the memory Python allocates while ``main(argv)`` runs."""
    tracemalloc.start()
    try:
        main(argv)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _horizons(tmp_path, gains_dir):
    """Scenario and output paths of the default scenario at T = 2 and 8 s,
    simulated once each."""
    runs = {}
    for T in (2, 8):
        scen, out = tmp_path / f"T{T}.yaml", tmp_path / f"out{T}"
        scen.write_text(f"sim:\n  T: {T}.0\n")
        assert main(["simulate", "-s", str(scen), "-o", str(out),
                     "--gains", str(gains_dir)]) == 0
        runs[T] = (str(scen), str(out))
    return runs


def test_verify_memory_does_not_grow_with_the_horizon(tmp_path, gains_dir):
    """``verify`` holds one block of rows and the time column, so four
    times the horizon leaves its peak within 1.2 times."""
    peaks = [_traced_peak(["verify", "-s", scen, "--trace",
                           f"{out}/trace.csv", "--gains", str(gains_dir)])
             for scen, out in _horizons(tmp_path, gains_dir).values()]
    assert peaks[1] <= 1.2 * peaks[0]


def test_simulate_memory_does_not_grow_with_the_horizon(tmp_path, gains_dir):
    """``simulate`` steps, wires and stages one block of rows at a time
    and holds only the time grid whole, so four times the horizon leaves
    its peak within 1.2 times."""
    peaks = [_traced_peak(["simulate", "-s", scen, "-o", out, "--gains",
                           str(gains_dir)])
             for scen, out in _horizons(tmp_path, gains_dir).values()]
    assert peaks[1] <= 1.2 * peaks[0]


# --- full-horizon round trip ------------------------------------------------

def test_round_trip_on_defaults(tmp_path):
    scen = tmp_path / "default.yaml"
    scen.write_text("")
    gains = tmp_path / "gains"
    runs = tmp_path / "runs"
    gains.mkdir()
    runs.mkdir()
    assert main(["synth", "-s", str(scen), "-o", str(gains)]) == 0
    assert main(["simulate", "-s", str(scen), "-o", str(runs),
                 "--gains", str(gains)]) == 0
    rows = (runs / "trace.csv").read_text().splitlines()
    assert len(rows) == 40002  # header + 40001 grid points
    summary = (runs / "summary.txt").read_text()
    offsets = summary.split("consensus.final_offset=")[1].splitlines()[0]
    assert max(abs(float(v)) for v in offsets.strip("[]").split(",")) <= 1e-2
    assert main(["verify", "-s", str(scen),
                 "--trace", str(runs / "trace.csv"),
                 "--gains", str(gains)]) == 0
