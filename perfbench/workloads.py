"""Workload generator: the seed in, the scenario files and command lines out.

Each workload is a closed loop with one caller: the next command starts
when the previous one returns.  The seed is written into every scenario
as ``sim.seed`` (the initial-state draw); nothing else depends on it, so
synthesis results are the same for every seed.

Run ``python3 perfbench/workloads.py`` to copy the names and "why"
sentences below into ``BENCHMARK.json``; ``run.py`` refuses to run when
the two disagree.

The module is standard library only: it must not import the program it
benchmarks, so the inputs stay fixed when the program changes.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")

DEFAULT_SEED = 0


@dataclass(frozen=True)
class Op:
    """One command of a pass and the outcome the output gate expects."""

    name: str      # metric stem: synth, simulate, verify, sweep
    argv: tuple    # arguments of coopftc.cli.main, relative to the work dir
    exit_code: int = 0
    stderr_pattern: str | None = None
    # The sweep alone takes about 20 s, so only traced runs make it; see
    # the metric glossary for why it has no end-to-end metric.
    in_timed_runs: bool = True


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    ops: tuple
    # Short version of the same scenario: the warm-up pass runs it so that
    # lazy imports and first-call set-up finish before timing starts.
    warm_ops: tuple
    # Which host-speed kernel readings (hostspeed.py) scale a command's
    # time: "command", the two around it, or "run", the median of all of
    # the run's.  fleet24 uses "run": its calls last seconds and do not
    # follow the kernel from one reading to the next, so scaling each by
    # its own two readings widened their spread (IQR/median of synth_s
    # 0.05 raw, 0.23 scaled), but they do follow its drift between runs.
    host_scaling: str = "command"


def _pipeline(scenario: str, sweep: bool) -> tuple:
    ops = [
        Op("synth", ("synth", "-s", scenario, "-o", "gains")),
        Op("simulate", ("simulate", "-s", scenario, "-o", "out",
                        "--gains", "gains")),
        Op("verify", ("verify", "-s", scenario, "--trace", "out/trace.csv",
                      "--gains", "gains")),
    ]
    if sweep:
        ops.append(Op("sweep", ("simulate", "-s", scenario, "-o", "sweep",
                                "--gains", "gains", "--sweep"),
                      in_timed_runs=False))
    return tuple(ops)


def _infeasible(scenario: str) -> tuple:
    # Only the agent is matched, so a richer diagnosis still passes.
    return (Op("synth", ("synth", "-s", scenario, "-o", "gains"),
               exit_code=3, stderr_pattern=r"\bagent 5\b"),)


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "bench4",
            "The built-in 4-motor star scenario users run: 40 s at h=1e-3, "
            "so RK4 integration, 42 MB CSV and plot I/O and the trace checks "
            "dominate; the sweep is the only thread-pool path.",
            _pipeline("bench4.yaml", sweep=True),
            _pipeline("bench4_warm.yaml", sweep=True)),
        Workload(
            "fleet24",
            "24 dc-motor agents on a ring, 4 s horizon: the dense Kronecker "
            "Lyapunov solves at n=72, 24 per-agent LMI ladders and the "
            "closed_loop_maps probes are the scale wall.",
            _pipeline("fleet24.yaml", sweep=False),
            _pipeline("fleet24_warm.yaml", sweep=False),
            host_scaling="run"),
        Workload(
            "infeasible-m5",
            "5 dc-motor agents at delta=0.3: synth must exit 3 naming agent "
            "5 after the base LMI solve stalls, so failed-solve cost and any "
            "infeasibility diagnosis show only here.",
            _infeasible("infeasible_m5.yaml"),
            _infeasible("infeasible_m5.yaml")),
    )
}


# --- scenario text ---------------------------------------------------------

def dc_motor_matrices(i: int) -> dict:
    """A, B, C, D of dc-motor agent ``i`` (1-based).

    The parameter laws of ``coopftc.plant.dc_motor_agent`` at its default
    arguments, restated here so the generated fleet does not move when
    the program changes.
    """
    J, b0, m0, r0, l0, sigma0 = 0.01, 0.1, 0.01, 1.0, 0.5, 0.1
    b = b0 * (1 + 0.10 * (i - 1))
    M = m0 * (1 + 0.05 * (i - 1))
    R = r0 * (1 - 0.02 * (i - 1))
    L = l0 * (1 + 0.03 * (i - 1))
    sigma = sigma0 * i
    return {
        "A": [[-b / J, M / J], [-M / L, -R / L]],
        "B": [[0.0], [1.0 / L]],
        "C": [[1.0, 0.0]],
        "D": [[sigma], [sigma]],
    }


def _flow(value) -> str:
    """YAML flow form of nested lists of numbers, floats in full precision."""
    if isinstance(value, list):
        return "[" + ", ".join(_flow(v) for v in value) + "]"
    return repr(value)


def ring_graph_yaml(m: int, weight: float = 0.3, pin: float = 0.4) -> str:
    """Bidirectional ring with uniform pinning, normalized by the program."""
    edges = []
    for i in range(1, m + 1):
        j = i % m + 1
        edges += [[i, j, weight], [j, i, weight]]
    lines = ["graph:", "  edges:"]
    lines += [f"    - {_flow(e)}" for e in edges]
    lines += ["  sources:"]
    lines += [f"    - {_flow([i, pin])}" for i in range(1, m + 1)]
    lines += ["  normalize: true"]
    return "\n".join(lines) + "\n"


def fleet_yaml(m: int, seed: int, T: float) -> str:
    """``m`` explicit agents, motors 1..4 repeated, on a ring."""
    lines = ["schema_version: 1", ring_graph_yaml(m).rstrip("\n"),
             "plant:", "  kind: explicit", "  agents:"]
    for k in range(m):
        mats = dc_motor_matrices(k % 4 + 1)
        lines.append(f"    - A: {_flow(mats['A'])}")
        for name in ("B", "C", "D"):
            lines.append(f"      {name}: {_flow(mats[name])}")
    lines += [
        "control:",
        f"  setpoint: {_flow([[0.0, 1.0], [T / 2, 2.0]])}",
        "sim:",
        f"  T: {T!r}",
        f"  seed: {seed}",
        "  fault: {magnitude: 5.75, onset: " + repr(T / 4) + "}",
    ]
    return "\n".join(lines) + "\n"


def scenario_files(seed: int) -> dict:
    """File name -> text of every scenario the workloads read."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return {
        # Empty apart from the seed: the built-in benchmark.
        "bench4.yaml": f"sim:\n  seed: {seed}\n",
        "bench4_warm.yaml": f"sim:\n  T: 0.5\n  seed: {seed}\n",
        "fleet24.yaml": fleet_yaml(24, seed, T=4.0),
        "fleet24_warm.yaml": fleet_yaml(4, seed, T=0.5),
        # Explicit 5-unit graph, so the scenario stays valid input if the
        # program starts to check graph size against the plant early.
        "infeasible_m5.yaml": ("schema_version: 1\n" + ring_graph_yaml(5)
                               + f"plant:\n  m: 5\nsim:\n  seed: {seed}\n"),
    }


def write_scenarios(directory: str, seed: int) -> None:
    os.makedirs(directory, exist_ok=True)
    for name, text in scenario_files(seed).items():
        with open(os.path.join(directory, name), "w", encoding="utf-8") as fh:
            fh.write(text)


def record_in_benchmark_json(path: str = BENCHMARK_JSON) -> None:
    """Write the workload names and why sentences into BENCHMARK.json."""
    with open(path, encoding="utf-8") as fh:
        spec = json.load(fh)
    spec["workloads"] = [{"name": w.name, "why": w.why}
                         for w in WORKLOADS.values()]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    record_in_benchmark_json()
