"""End-to-end command-line behavior: parsing, exit codes, file outputs.

Commands run in-process through ``main`` so exit codes and console
output can be asserted without subprocess plumbing.  Most scenarios
shorten the horizon to keep the suite quick; one round trip runs the
full 40-second benchmark.
"""

import dataclasses

import numpy as np
import numpy.testing as npt
import pytest

from coopftc import cli, sim
from coopftc.cli import (Scenario, build_interaction, build_plant,
                         load_matrix, main, parse_scenario, save_matrix)
from coopftc.errors import ParseError, ValidationError

SHORT_SCENARIO = "sim:\n  T: 2.0\n"

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


def test_synth_infeasible_delta_exit_code(tmp_path, capsys):
    p = tmp_path / "tiny.yaml"
    p.write_text("synthesis:\n  delta: 1.0e-9\n")
    code = main(["synth", "-s", str(p), "-o", str(tmp_path)])
    assert code == cli.EXIT_INFEASIBLE
    assert "observer LMI infeasible" in capsys.readouterr().err


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


def test_simulate_sweep_three_topologies(tmp_path, short_scenario,
                                         gains_dir):
    code = main(["simulate", "-s", str(short_scenario), "-o", str(tmp_path),
                 "--gains", str(gains_dir), "--sweep"])
    assert code == 0
    for name in ("star", "cyclic", "path"):
        assert (tmp_path / f"trace_{name}.csv").exists()
    summary = (tmp_path / "summary.txt").read_text()
    assert "sweep.topologies=cyclic,path,star" in summary
    # per-topology blocks merged in sorted order
    assert summary.index("cyclic.") < summary.index("path.") \
        < summary.index("star.")


@pytest.mark.parametrize("graph, extra", [
    ("", ["simulate"]),
    ("graph: {edges: [[2, 1, 1.0], [3, 2, 1.0]], sources: [[1, 1.0]]}\n",
     ["simulate", "--sweep"]),
    ("", ["verify", "--trace", "never-read.csv"]),
])
def test_graph_size_checked_before_synthesis(tmp_path, monkeypatch, graph,
                                             extra):
    def no_synthesis(*args, **kwargs):
        raise AssertionError("synthesis ran before the graph check")

    monkeypatch.setattr(cli, "synth_observer", no_synthesis)
    p = tmp_path / "m3.yaml"
    p.write_text(graph + "plant: {m: 3}\n")
    argv = extra[:1] + ["-s", str(p)] + extra[1:]
    if extra[0] == "simulate":
        argv += ["-o", str(tmp_path / "out")]
    assert main(argv) == cli.EXIT_VALIDATION


@pytest.mark.parametrize("target", ["closed_loop_maps", "control_input"])
def test_fast_path_mismatch_is_identity_failure(tmp_path, short_scenario,
                                                gains_dir, monkeypatch,
                                                capsys, target):
    original = getattr(sim, target)
    if target == "closed_loop_maps":
        def perturbed(loop):
            maps = original(loop)
            return dataclasses.replace(maps, M=maps.M + 1e-3)
    else:
        def perturbed(*args):
            return original(*args) + 1e-3
    monkeypatch.setattr(sim, target, perturbed)
    code = main(["simulate", "-s", str(short_scenario), "-o", str(tmp_path),
                 "--gains", str(gains_dir)])
    assert code == cli.EXIT_CERTIFICATE
    assert "disagrees with" in capsys.readouterr().err


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


def test_verify_rejects_truncated_trace(tmp_path, short_scenario,
                                        gains_dir):
    bad = tmp_path / "bad.csv"
    bad.write_text("t,x[1][1]\n0.0,1.0\n")
    code = main(["verify", "-s", str(short_scenario), "--trace", str(bad),
                 "--gains", str(gains_dir)])
    assert code == cli.EXIT_VALIDATION


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
