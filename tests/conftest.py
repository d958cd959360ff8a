"""Shared fixtures: the four-motor benchmark, synthesized gains, and a
small set of full-length simulation traces.

Everything heavy is session-scoped.  The two synthesis runs take well
under a second; the seven 40-second simulations dominate at roughly ten
seconds total, which is cheap enough to pay once per test session and
far cheaper than re-running them inside every test that inspects a
trace.
"""

import numpy as np
import pytest
from hypothesis import settings

from coopftc.control import ClosedLoopState, ControlLaw, build_closed_loop
from coopftc.estimator import build_observer
from coopftc.graph import (BENCHMARK_TOPOLOGIES, benchmark_topology,
                           build_graph, normalize_weights)
from coopftc.plant import augment_network, dc_motor_agent, stack_network
from coopftc.sim import (SignalSchedule, run_experiment,
                         sample_initial_state, step_schedule)
from coopftc.synth import synth_controller, synth_observer

# Every property test draws the same examples on every run; a test's own
# @settings still sets its example count.
settings.register_profile("coopftc", derandomize=True)
settings.load_profile("coopftc")

# Benchmark configuration shared across the suite.
DELTA = 0.3
ALPHA = 0.2
ELL_P = 0.1
ELL_I = 90.0
H = 1e-3
T_FULL = 40.0
DISTURBANCE = 0.1
FAULT_MAG = 5.75
FAULT_ONSET = 10.0
SETPOINT_STEP = 20.0


def benchmark_schedule(m: int) -> SignalSchedule:
    """Disturbance 0.1, sensor fault 5.75 at t=10, setpoint 1 -> 2 at t=20."""
    return step_schedule(m, DISTURBANCE, FAULT_MAG, FAULT_ONSET,
                         [(0.0, 1.0), (SETPOINT_STEP, 2.0)])


def quiet_schedule(m: int, setpoint: float = 1.0) -> SignalSchedule:
    """No disturbance, no fault, a constant setpoint (1 by default)."""
    return step_schedule(m, 0.0, 0.0, 0.0, [(0.0, setpoint)])


def random_reachable_graph(rng, max_m: int = 6):
    """One random normalized graph whose every unit hears the source.

    A random unit is pinned to the source, every other unit receives an
    edge from some unit added before it (so reachability holds by
    construction), and a few extra edges and pinning weights are thrown
    in on top before normalizing.
    """
    m = int(rng.integers(2, max_m + 1))
    order = rng.permutation(m) + 1
    sources = [(int(order[0]), float(rng.uniform(0.5, 2.0)))]
    edges = {}
    for k in range(1, m):
        head = int(order[k])
        tail = int(order[int(rng.integers(0, k))])
        edges[(head, tail)] = float(rng.uniform(0.2, 1.5))
    for _ in range(int(rng.integers(0, m))):
        i, j = rng.choice(m, size=2, replace=False) + 1
        edges.setdefault((int(i), int(j)), float(rng.uniform(0.2, 1.5)))
    pinned = {sources[0][0]}
    for _ in range(int(rng.integers(0, 2))):
        i = int(rng.integers(1, m + 1))
        if i not in pinned:
            pinned.add(i)
            sources.append((i, float(rng.uniform(0.5, 2.0))))
    g = build_graph(m, [(i, j, w) for (i, j), w in edges.items()], sources)
    return normalize_weights(g)


@pytest.fixture(scope="session")
def benchmark_net():
    return stack_network([dc_motor_agent(i) for i in range(1, 5)])


@pytest.fixture(scope="session")
def benchmark_aug(benchmark_net):
    return augment_network(benchmark_net)


@pytest.fixture(scope="session")
def observer_synth(benchmark_aug, benchmark_net):
    return synth_observer(benchmark_aug, benchmark_net, DELTA)


@pytest.fixture(scope="session")
def controller_synth(benchmark_net):
    return synth_controller(benchmark_net, ALPHA, DELTA)


@pytest.fixture(scope="session")
def observer(benchmark_aug, benchmark_net, observer_synth):
    return build_observer(benchmark_aug, benchmark_net, observer_synth)


@pytest.fixture(scope="session")
def graphs():
    return {name: benchmark_topology(name) for name in BENCHMARK_TOPOLOGIES}


@pytest.fixture(scope="session")
def star_graph(graphs):
    return graphs["star"]


@pytest.fixture(scope="session")
def loops(benchmark_net, benchmark_aug, observer, controller_synth, graphs):
    built = {}
    for name, g in graphs.items():
        law = ControlLaw(graph=g, K=controller_synth.K,
                         ell_p=ELL_P, ell_i=ELL_I)
        built[name] = build_closed_loop(benchmark_net, benchmark_aug,
                                        observer, law)
    return built


@pytest.fixture(scope="session")
def s0(benchmark_net, benchmark_aug):
    return sample_initial_state(benchmark_net, benchmark_aug, seed=0)


@pytest.fixture(scope="session")
def full_traces(loops, s0):
    sched = benchmark_schedule(4)
    return {name: run_experiment(loop, sched, s0, h=H, T=T_FULL)
            for name, loop in loops.items()}


@pytest.fixture(scope="session")
def benchmark_trace(full_traces):
    return full_traces["star"]


@pytest.fixture(scope="session")
def quiet_traces(loops, s0):
    sched = quiet_schedule(4)
    return {name: run_experiment(loop, sched, s0, h=H, T=T_FULL)
            for name, loop in loops.items()}


@pytest.fixture(scope="session")
def zero_init_trace(loops, benchmark_net, benchmark_aug):
    rest = ClosedLoopState(x=np.zeros(benchmark_net.nbar_x),
                           eta=np.zeros(benchmark_aug.n_aug),
                           q=np.zeros(benchmark_net.nbar_y))
    return run_experiment(loops["star"], benchmark_schedule(4), rest,
                          h=H, T=T_FULL)


@pytest.fixture(scope="session")
def star_cert(star_graph, benchmark_net, controller_synth):
    from coopftc.analysis import iss_certificate
    return iss_certificate(star_graph, benchmark_net, controller_synth.K)


@pytest.fixture(scope="session")
def graph_sweep():
    """100 randomized normalized source-reachable graphs, m <= 6."""
    rng = np.random.default_rng(20240817)
    return [random_reachable_graph(rng) for _ in range(100)]
