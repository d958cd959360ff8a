"""Certificate computation and trace verification.

The trivial certificate cases use single-unit networks built so the
transformed error matrix comes out diagonal, which makes every constant
computable by hand.
"""

from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import benchmark_schedule, quiet_schedule, random_reachable_graph
from coopftc.analysis import (consensus_report, dissipation_check,
                              iss_certificate, verify_iss_bound)
from coopftc.control import (ClosedLoopState, ControlLaw, build_closed_loop,
                             cooperative_error)
from coopftc.errors import (IdentityCheckFailedError, NotHurwitzError,
                            NotPositiveStableError)
from coopftc.estimator import build_observer
from coopftc.graph import build_graph
from coopftc.plant import (AgentModel, augment_network, dc_motor_agent,
                           stack_network)
from coopftc.sim import run_experiment, sample_initial_state
from coopftc.synth import synth_controller, synth_observer
from oracles import l2_ratio, lift_setpoint, shifted_error_by_phi_solve


def _single_unit_net(A, B, C, D):
    agent = AgentModel(A=np.atleast_2d(A), B=np.atleast_2d(B),
                       C=np.atleast_2d(C), D=np.atleast_2d(D))
    return stack_network([agent])


def _unit_graph():
    return build_graph(1, [], [(1, 1.0)])


# --- iss_certificate --------------------------------------------------------

def test_certificate_scalar_closed_forms():
    # identity graph, A+BK = -1, Q = 1 => P_e = 1/2, alpha = 1/(2 P_e)
    net = _single_unit_net([[-1.0]], [[1.0]], [[1.0]], [[1.0]])
    cert = iss_certificate(_unit_graph(), net, np.zeros((1, 1)))
    npt.assert_allclose(cert.Phi, [[-1.0]], atol=1e-12)
    npt.assert_allclose(cert.P_e, [[0.5]], atol=1e-10)
    assert cert.c1 == pytest.approx(1.0)
    assert cert.alpha == pytest.approx(1.0)
    assert cert.c2 == pytest.approx(0.5)


def test_certificate_diagonal_closed_forms():
    net = _single_unit_net(np.diag([-1.0, -2.0]), [[1.0], [1.0]],
                           [[1.0, 1.0]], [[1.0], [0.0]])
    cert = iss_certificate(_unit_graph(), net, np.zeros((1, 2)))
    npt.assert_allclose(cert.Phi, np.diag([-1.0, -2.0]), atol=1e-12)
    npt.assert_allclose(cert.P_e, np.diag([0.5, 0.25]), atol=1e-10)
    assert cert.c1 == pytest.approx(np.sqrt(2.0))
    assert cert.alpha == pytest.approx(1.0)
    assert cert.c2 == pytest.approx(0.5)


def test_certificate_benchmark_constants(star_cert):
    c = star_cert
    for value in (c.kappa, c.alpha, c.beta, c.c1, c.c2, c.c3):
        assert np.isfinite(value) and value > 0
    assert c.lyapunov_residual <= 1e-8
    resid = np.linalg.norm(c.Phi.T @ c.P_e + c.P_e @ c.Phi + c.Q)
    assert resid <= 1e-8 * np.linalg.norm(c.Q)


def test_certificate_rejects_unstable_laplacian(benchmark_net,
                                                controller_synth):
    g = build_graph(4, [(1, 2, 1.0)], [(1, 1.0)])  # units 3,4 isolated
    with pytest.raises(NotPositiveStableError):
        iss_certificate(g, benchmark_net, controller_synth.K)


def test_certificate_rejects_unstable_closed_loop():
    net = _single_unit_net([[1.0]], [[1.0]], [[1.0]], [[1.0]])
    with pytest.raises(NotHurwitzError):
        iss_certificate(_unit_graph(), net, np.zeros((1, 1)))


def test_unstable_closed_loop_is_blamed_on_a_plus_b_k():
    # the transform is the identity here, so only A + B K can fail
    net = _single_unit_net([[1.0]], [[1.0]], [[1.0]], [[1.0]])
    with pytest.raises(NotHurwitzError,
                       match=r"^A \+ B K is not Hurwitz; no ISS certificate"):
        iss_certificate(_unit_graph(), net, np.zeros((1, 1)))


# --- verify_iss_bound -------------------------------------------------------

def test_iss_bound_zero_run(loops, star_cert):
    rest = ClosedLoopState(x=np.zeros(8), eta=np.zeros(12), q=np.zeros(4))
    tr = run_experiment(loops["star"], quiet_schedule(4, setpoint=0.0), rest,
                        h=1e-3, T=1.0)
    report = verify_iss_bound(tr, star_cert, loops["star"].law)
    assert report.passed
    assert report.windows[0].sup_error <= 1e-12
    assert report.windows[0].sup_input <= 1e-12


def test_iss_bound_disturbance_free_run(quiet_traces, star_cert, loops):
    report = verify_iss_bound(quiet_traces["star"], star_cert,
                              loops["star"].law)
    assert report.passed
    assert report.max_relative_violation <= 1e-9
    assert len(report.windows) == 1


def test_iss_bound_full_benchmark_run(benchmark_trace, star_cert, loops):
    report = verify_iss_bound(benchmark_trace, star_cert, loops["star"].law)
    assert report.passed
    assert len(report.windows) == 2  # setpoint step at t=20 splits the trace
    assert report.max_relative_violation <= 1e-9


def test_iss_bound_detects_tampered_inputs(benchmark_trace, star_cert,
                                           loops):
    forged = replace(benchmark_trace, u=np.zeros_like(benchmark_trace.u))
    with pytest.raises(IdentityCheckFailedError):
        verify_iss_bound(forged, star_cert, loops["star"].law)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n_x=st.integers(1, 3),
       rows=st.integers(1, 4), y0=st.floats(-10.0, 10.0))
def test_shifted_error_is_the_graph_product(seed, n_x, rows, y0):
    """The shifted error that ``verify_iss_bound`` once computed per
    window (a setpoint lift, then a solve of Phi e_star = Phi e(0))
    equals (L (x) I) x on random graphs, states, setpoints and
    nonsingular Phi (condition number at most 100)."""
    rng = np.random.default_rng(seed)
    g = random_reachable_graph(rng)
    n = g.m * n_x
    C1 = rng.uniform(0.5, 2.0, (1, n_x)) * rng.choice([-1.0, 1.0], (1, n_x))
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    Phi = Q * (rng.uniform(0.1, 10.0, n) * rng.choice([-1.0, 1.0], n))
    x = rng.normal(scale=10.0, size=(rows, n))
    want = cooperative_error(g, x, np.zeros(n_x))
    got = shifted_error_by_phi_solve(g, C1, Phi, x, y0)
    offset = cooperative_error(g, np.zeros(n), lift_setpoint(C1, y0))
    scale = max(np.abs(want).max(), np.abs(offset).max())
    npt.assert_allclose(got, want, rtol=0, atol=1e-12 * scale)


def test_equilibrium_error_reached_by_inner_loop(benchmark_net,
                                                 benchmark_aug, observer,
                                                 controller_synth,
                                                 star_graph, s0):
    """With the outer loop off, the plant decays to the origin, so the
    cooperative state error lands exactly on the computed equilibrium."""
    law = ControlLaw(graph=star_graph, K=controller_synth.K,
                     ell_p=0.0, ell_i=0.0)
    loop = build_closed_loop(benchmark_net, benchmark_aug, observer, law)
    tr = run_experiment(loop, quiet_schedule(4), s0, h=1e-3, T=15.0)
    x0 = np.array([1.0, 0.0])  # designated state lifting the setpoint
    e_star = -np.kron(star_graph.A_0, np.eye(2)) @ np.tile(x0, 4)
    final = cooperative_error(star_graph, tr.x[-1], x0)
    assert np.linalg.norm(final - e_star) <= 1e-6


# --- dissipation_check ------------------------------------------------------

def test_dissipation_storage_decreases_without_disturbance(
        quiet_traces, observer_synth):
    tr = quiet_traces["star"]
    eps = np.hstack([tr.x - tr.x_hat, tr.f_s - tr.f_hat])
    V = np.einsum("ij,ij->i", eps @ observer_synth.P, eps)
    early = tr.t <= 5.0
    assert V[0] > 1e-3
    assert np.all(np.diff(V[early]) < 0.0)


def test_dissipation_benchmark_run(benchmark_trace, benchmark_aug,
                                   benchmark_net, observer_synth):
    report = dissipation_check(benchmark_trace, benchmark_aug,
                               benchmark_net, observer_synth)
    assert report.passed
    assert report.max_interior_value <= 1e-9
    assert report.n_excluded >= 2


def test_dissipation_fd_deviation_order(loops, s0, benchmark_aug,
                                        benchmark_net, observer_synth):
    devs = {}
    for h in (1e-3, 5e-4):
        tr = run_experiment(loops["star"], quiet_schedule(4), s0, h=h,
                            T=2.0)
        rep = dissipation_check(tr, benchmark_aug, benchmark_net,
                                observer_synth)
        devs[h] = rep.max_fd_deviation
    assert devs[1e-3] / devs[5e-4] >= 3.0


# --- consensus_report -------------------------------------------------------

def test_consensus_quiet_run_offsets(quiet_traces, benchmark_net,
                                     star_graph):
    report = consensus_report(quiet_traces["star"], benchmark_net,
                              star_graph)
    assert report.final_offset.max() <= 1e-4
    assert report.max_pairwise_final <= 1e-4
    assert np.all(np.isfinite(report.settling_time))


def test_consensus_identical_agents_stay_identical(star_graph):
    agents = [dc_motor_agent(1) for _ in range(4)]
    net = stack_network(agents)
    aug = augment_network(net)
    obs = build_observer(aug, net, synth_observer(aug, net, 0.3))
    ctrl = synth_controller(net, 0.2, 0.3)
    law = ControlLaw(graph=star_graph, K=ctrl.K, ell_p=0.1, ell_i=90.0)
    loop = build_closed_loop(net, aug, obs, law)
    one = sample_initial_state(net, aug, seed=3).x[:2]
    same = ClosedLoopState(x=np.tile(one, 4), eta=np.zeros(12),
                           q=np.zeros(4))
    tr = run_experiment(loop, benchmark_schedule(4), same, h=1e-3, T=10.0)
    y = tr.x @ net.C.T
    spread = np.abs(y - y[:, :1])
    assert spread.max() <= 1e-9
    report = consensus_report(tr, net, star_graph)
    assert report.max_pairwise_final <= 1e-12


def test_consensus_star_settles_no_later_than_path(full_traces,
                                                   benchmark_net, graphs):
    star = consensus_report(full_traces["star"], benchmark_net,
                            graphs["star"])
    path = consensus_report(full_traces["path"], benchmark_net,
                            graphs["path"])
    assert np.all(np.isfinite(star.settling_time))
    assert np.all(np.isfinite(path.settling_time))
    assert star.settling_time.max() <= path.settling_time.max()


# --- empirical L2 gain ------------------------------------------------------

def test_l2_ratio_below_synthesized_gamma(zero_init_trace, loops,
                                          controller_synth):
    ratio, input_l2 = l2_ratio(zero_init_trace, loops["star"].law)
    assert input_l2 > 0
    assert ratio <= controller_synth.gamma * 1.05
