"""Release acceptance battery.

Ten end-to-end checks, one per release criterion, covering synthesis
feasibility, observer correctness, fault reconstruction, the two
runtime certificates, tracking behavior, the graph-level equivalences,
and the numerical kernel.  Each test prints a single PASS/FAIL line
directly to the terminal (bypassing capture) so a full run produces a
ten-line scorecard; the asserts enforce the exact tolerances.
"""

import time

import numpy as np
import pytest
import scipy.linalg

from conftest import (ALPHA, DELTA, FAULT_MAG, benchmark_schedule,
                      quiet_schedule)
from coopftc.analysis import (consensus_report, dissipation_check,
                              verify_iss_bound)
from coopftc.control import closed_loop_maps, cooperative_error
from coopftc.graph import is_positive_stable
from coopftc.linalg import (is_hurwitz, solve_linear, solve_lyapunov,
                            sym_eigvals)
from coopftc.sim import integrate, propagate, run_experiment
from coopftc.synth import synth_controller, synth_observer
from oracles import l2_ratio, virtual_observer_oracle


@pytest.fixture()
def announce(capsys):
    def _announce(label: str, ok: bool, detail: str) -> None:
        verdict = "PASS" if ok else "FAIL"
        with capsys.disabled():
            print(f"[acceptance] {label}: {verdict} ({detail})")
        assert ok, f"{label}: {detail}"
    return _announce


def _observer_block(aug, net, P, H, delta):
    F1A = aug.F1 @ aug.A_a
    F1D = aug.F1 @ net.D
    core = P @ F1A + F1A.T @ P - H @ aug.E2 - aug.E2.T @ H.T \
        + np.eye(aug.n_aug)
    return np.block([[core, P @ F1D],
                     [(P @ F1D).T, -delta ** 2 * np.eye(net.nbar_v)]])


def _feedback_block(net, R, G, alpha, delta):
    n, nu, nv = net.nbar_x, net.nbar_u, net.nbar_v
    core = net.A @ R + R @ net.A.T + net.B @ G + G.T @ net.B.T
    return np.block([
        [core, R, -net.B, net.D],
        [R, -np.eye(n), np.zeros((n, nu)), np.zeros((n, nv))],
        [-net.B.T, np.zeros((nu, n)), -alpha * np.eye(nu),
         np.zeros((nu, nv))],
        [net.D.T, np.zeros((nv, n)), np.zeros((nv, nu)),
         -delta ** 2 * np.eye(nv)],
    ])


def test_01_gain_synthesis_feasible_and_fast(benchmark_aug, benchmark_net,
                                             announce):
    aug, net = benchmark_aug, benchmark_net
    start = time.perf_counter()
    so = synth_observer(aug, net, DELTA)
    ctrl = synth_controller(net, ALPHA, DELTA)
    elapsed = time.perf_counter() - start

    pi_max = sym_eigvals(_observer_block(aug, net, so.P, so.H, DELTA))[-1]
    lam_max = sym_eigvals(_feedback_block(net, ctrl.R, ctrl.G, ALPHA,
                                          DELTA))[-1]
    err_hurwitz = is_hurwitz(aug.F1 @ aug.A_a - so.Lgain @ aug.E2)
    loop_hurwitz = is_hurwitz(net.A + net.B @ ctrl.K)

    ok = (pi_max <= -1e-6 and lam_max <= -1e-6
          and err_hurwitz and loop_hurwitz and elapsed < 5.0)
    announce("01 gain synthesis feasible", ok,
             f"obs_lmi_max={pi_max:.3e}, fb_lmi_max={lam_max:.3e}, "
             f"hurwitz={err_hurwitz and loop_hurwitz}, "
             f"runtime={elapsed:.2f}s")


def test_02_idealized_observer_equivalence(loops, s0, benchmark_net,
                                           benchmark_aug, observer_synth,
                                           announce):
    net, aug = benchmark_net, benchmark_aug
    trace = run_experiment(loops["star"], benchmark_schedule(4), s0,
                           h=1e-3, T=5.0)
    x_a = np.hstack([trace.x, trace.f_s])
    x_dot = trace.x @ net.A.T + trace.u @ net.B.T + trace.v @ net.D.T
    x_a_dot = np.hstack([x_dot, np.zeros_like(trace.f_s)])
    virt = virtual_observer_oracle(aug, net, observer_synth, trace.t,
                                   x_a, x_a_dot, trace.u)
    gap = np.abs(virt - (trace.eta + trace.y_f @ aug.F2.T)).max()

    # centered-difference derivative of the estimation error against its
    # governing dynamics: halving the step must shrink the deviation at
    # second order (ratio ~4; require >= 3)
    A_err = aug.F1 @ aug.A_a - observer_synth.Lgain @ aug.E2
    B_err = aug.F1 @ net.D
    devs = {}
    for h in (1e-3, 5e-4):
        tr = run_experiment(loops["star"], benchmark_schedule(4), s0,
                            h=h, T=2.0)
        eps = np.hstack([tr.x, tr.f_s]) - (tr.eta + tr.y_f @ aug.F2.T)
        fd = (eps[2:] - eps[:-2]) / (2.0 * h)
        model = eps @ A_err.T + tr.v @ B_err.T
        devs[h] = np.abs(fd - model[1:-1]).max()
    order_ratio = devs[1e-3] / devs[5e-4]

    ok = gap <= 1e-6 and order_ratio >= 3.0
    announce("02 idealized observer equivalence", ok,
             f"max_gap={gap:.3e}, fd_halving_ratio={order_ratio:.2f}")


def test_03_fault_magnitude_reconstruction(full_traces, announce):
    worst = 0.0
    for tr in full_traces.values():
        window = (tr.t >= 15.0) & (tr.t <= 20.0)
        rel = np.abs(tr.f_hat[window] - FAULT_MAG).max() / FAULT_MAG
        worst = max(worst, float(rel))
    ok = worst <= 0.02
    announce("03 fault magnitude reconstruction", ok,
             f"worst_relative_error={worst:.4%} across 3 topologies")


def test_04_estimator_dissipation_inequality(benchmark_trace, benchmark_aug,
                                             benchmark_net, observer_synth,
                                             announce):
    report = dissipation_check(benchmark_trace, benchmark_aug,
                               benchmark_net, observer_synth)
    ok = report.passed and report.max_interior_value <= 1e-9 \
        and report.n_excluded >= 1
    announce("04 estimator dissipation inequality", ok,
             f"max_interior={report.max_interior_value:.3e}, "
             f"checked={report.n_checked}, excluded={report.n_excluded}")


def test_05_disagreement_trajectory_bound(quiet_traces, benchmark_trace,
                                          star_cert, loops, announce):
    law = loops["star"].law
    quiet = verify_iss_bound(quiet_traces["star"], star_cert, law)
    full = verify_iss_bound(benchmark_trace, star_cert, law)
    ok = (quiet.passed and full.passed
          and quiet.max_relative_violation <= 0.0
          and full.max_relative_violation <= 0.0)
    announce("05 disagreement trajectory bound", ok,
             f"quiet_margin={quiet.max_relative_violation:.3f}, "
             f"disturbed_margin={full.max_relative_violation:.3f}, "
             f"windows={len(quiet.windows)}+{len(full.windows)}")


def test_06_consensus_tracking_and_topology_ordering(quiet_traces,
                                                     full_traces,
                                                     benchmark_net, graphs,
                                                     announce):
    net = benchmark_net
    worst_offset = worst_pairwise = 0.0
    for name, tr in quiet_traces.items():
        report = consensus_report(tr, net, graphs[name])
        worst_offset = max(worst_offset, float(report.final_offset.max()))
        worst_pairwise = max(worst_pairwise,
                             float(report.max_pairwise_final))

    settling = {}
    bounded = True
    for name, tr in full_traces.items():
        report = consensus_report(tr, net, graphs[name])
        settling[name] = float(report.settling_time.max())
        bounded &= float(report.final_offset.max()) <= 1e-2
    ordering = (np.isfinite(settling["star"])
                and np.isfinite(settling["path"])
                and settling["star"] <= settling["path"])

    ok = worst_offset <= 1e-4 and worst_pairwise <= 1e-4 \
        and bounded and ordering
    announce("06 consensus tracking", ok,
             f"quiet_offset={worst_offset:.2e}, "
             f"quiet_pairwise={worst_pairwise:.2e}, "
             f"settling star={settling['star']:.1f}s <= "
             f"path={settling['path']:.1f}s")


def test_07_zero_error_iff_consensus_on_random_graphs(graph_sweep,
                                                      announce):
    rng = np.random.default_rng(7)
    worst_forward = worst_converse = 0.0
    for g in graph_sweep:
        y0 = float(rng.uniform(0.5, 2.0))
        ones = np.ones(g.m)
        e = cooperative_error(g, y0 * ones, np.array([y0]))
        worst_forward = max(worst_forward, float(np.abs(e).max()))
        y_sol = solve_linear(g.L, g.A_0 @ (y0 * ones))
        worst_converse = max(worst_converse,
                             float(np.abs(y_sol - y0).max()))
    ok = worst_forward <= 1e-8 and worst_converse <= 1e-8
    announce("07 zero error iff consensus", ok,
             f"forward={worst_forward:.2e}, converse={worst_converse:.2e} "
             f"over {len(graph_sweep)} graphs")


def test_08_attenuation_level_bounds_measured_gain(zero_init_trace, loops,
                                                   controller_synth,
                                                   announce):
    ratio, input_l2 = l2_ratio(zero_init_trace, loops["star"].law)
    gamma = controller_synth.gamma
    ok = ratio <= gamma * 1.05 and input_l2 > 0.0
    announce("08 attenuation level bounds measured gain", ok,
             f"measured={ratio:.4f} <= gamma={gamma:.4f} (+5%)")


def test_09_graph_balance_and_positive_stability(graphs, graph_sweep,
                                                 announce):
    worst_balance = 0.0
    for g in graphs.values():
        dev = np.abs(g.A_m.sum(axis=1) + np.diag(g.A_0) - 1.0).max()
        worst_balance = max(worst_balance, float(dev))
    all_stable = all(is_positive_stable(g.L) for g in graph_sweep)
    ok = worst_balance <= 1e-12 and all_stable
    announce("09 graph balance and positive stability", ok,
             f"balance_dev={worst_balance:.2e}, "
             f"positive_stable={len(graph_sweep)}/{len(graph_sweep)}"
             if all_stable else "positive stability violated")


def test_10_numerical_kernel_accuracy(loops, star_cert, announce):
    # integrator order on two smooth linear benchmarks and on the
    # simulation propagator
    ratios = []
    errs = {h: np.abs(integrate(lambda t, z: -z, np.ones(1), h, 2.0)[1][-1]
                      - np.exp(-2.0)).max()
            for h in (2e-3, 1e-3)}
    ratios.append(errs[2e-3] / errs[1e-3])
    maps = closed_loop_maps(loops["star"])
    M = maps.M
    z0 = np.random.default_rng(10).uniform(-1.0, 1.0, size=M.shape[0])
    ref = scipy.linalg.expm(2.0 * M) @ z0
    errs = {h: np.abs(integrate(lambda t, z: M @ z, z0, h, 2.0)[1][-1]
                      - ref).max()
            for h in (2e-3, 1e-3)}
    ratios.append(errs[2e-3] / errs[1e-3])
    # the step-map propagator simulate runs, on the star loop under a
    # constant setpoint: exact via the exponential of the loop augmented
    # by its constant forcing
    quiet = quiet_schedule(4)
    forcing = maps.B_r @ quiet.y0[0]
    aug = np.zeros((M.shape[0] + 1,) * 2)
    aug[:-1, :-1], aug[:-1, -1] = M, forcing
    ref = (scipy.linalg.expm(2.0 * aug) @ np.append(z0, 1.0))[:-1]
    errs = {h: np.abs(propagate(maps, quiet, z0, h, 2.0)[1][-1] - ref).max()
            for h in (2e-3, 1e-3)}
    ratios.append(errs[2e-3] / errs[1e-3])

    # Lyapunov solver residuals on the certificate matrices and a
    # random Hurwitz instance
    resid = np.abs(star_cert.Phi.T @ star_cert.P_e
                   + star_cert.P_e @ star_cert.Phi + star_cert.Q).max()
    rng = np.random.default_rng(11)
    A = rng.normal(size=(7, 7))
    A -= (sym_eigvals(A + A.T)[-1] / 2 + 0.5) * np.eye(7)
    P = solve_lyapunov(A, np.eye(7))
    resid = max(resid, float(np.abs(A.T @ P + P @ A + np.eye(7)).max()))

    # symmetric eigenvalues of Q diag(w) Q' against w, Q orthogonal
    Q = np.linalg.qr(rng.normal(size=(12, 12)))[0]
    w = np.sort(rng.normal(size=12))
    rel = (np.linalg.norm(sym_eigvals(Q @ np.diag(w) @ Q.T) - w)
           / np.linalg.norm(w))

    ok = min(ratios) >= 8.0 and resid <= 1e-8 and rel <= 1e-9
    announce("10 numerical kernel accuracy", ok,
             f"halving_gain={min(ratios):.1f}x, lyap_resid={resid:.2e}, "
             f"eig_spectrum={rel:.2e}")
