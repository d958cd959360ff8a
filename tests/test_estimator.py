"""Observer realization, estimate extraction, and the idealized-observer
equivalence oracle."""

import numpy as np
import numpy.testing as npt
import pytest

from coopftc.errors import DimensionMismatchError
from coopftc.estimator import extract_estimates, observer_derivative
from coopftc.linalg import is_hurwitz
from coopftc.sim import run_experiment, step_schedule
from oracles import virtual_observer_oracle


def disturbed_faultfree_schedule(m):
    return step_schedule(m, 0.1, 0.0, 0.0, [(0.0, 1.0)])


def test_realization_shapes(observer, benchmark_aug):
    assert observer.A_obs.shape == (12, 12)
    assert observer.B_u.shape == (12, 4)
    assert observer.B_y.shape == (12, 4)
    assert is_hurwitz(observer.A_obs)


def test_output_injection_assembly(observer, observer_synth, benchmark_aug):
    expected = observer.A_obs @ benchmark_aug.F2 + observer_synth.Lgain
    npt.assert_allclose(observer.B_y, expected, atol=0)


def test_derivative_zero_fixed_point(observer):
    out = observer_derivative(observer, np.zeros(12), np.zeros(4),
                              np.zeros(4))
    npt.assert_allclose(out, 0.0)


def test_derivative_superposition(observer):
    rng = np.random.default_rng(5)
    e1, e2 = rng.normal(size=(2, 12))
    y1, y2 = rng.normal(size=(2, 4))
    u1, u2 = rng.normal(size=(2, 4))
    lhs = observer_derivative(observer, e1 + e2, y1 + y2, u1 + u2)
    rhs = observer_derivative(observer, e1, y1, u1) \
        + observer_derivative(observer, e2, y2, u2)
    npt.assert_allclose(lhs, rhs, atol=1e-12)


def test_derivative_matches_matrix_arithmetic(observer):
    rng = np.random.default_rng(6)
    eta = rng.normal(size=12)
    y_f = rng.normal(size=4)
    u = rng.normal(size=4)
    out = observer_derivative(observer, eta, y_f, u)
    ref = observer.A_obs @ eta + observer.B_u @ u + observer.B_y @ y_f
    npt.assert_allclose(out, ref, atol=0)


def test_derivative_rows_match_vectors(observer):
    """An (N, .) stack gives what N row-by-row calls give, to the few
    ulps by which BLAS gemm and gemv may round apart."""
    rng = np.random.default_rng(7)
    eta = rng.normal(size=(6, 12))
    y_f = rng.normal(size=(6, 4))
    u = rng.normal(size=(6, 4))
    out = observer_derivative(observer, eta, y_f, u)
    assert out.shape == (6, 12)
    rows = [observer_derivative(observer, eta[k], y_f[k], u[k])
            for k in range(6)]
    npt.assert_allclose(out, rows, rtol=0,
                        atol=16 * np.finfo(float).eps * np.abs(out).max())


def test_derivative_dimension_checks(observer):
    with pytest.raises(DimensionMismatchError):
        observer_derivative(observer, np.zeros(11), np.zeros(4), np.zeros(4))
    with pytest.raises(DimensionMismatchError):
        observer_derivative(observer, np.zeros(12), np.zeros(3), np.zeros(4))
    with pytest.raises(DimensionMismatchError, match="eta, y_f and u"):
        observer_derivative(observer, np.zeros((3, 12)), np.zeros((3, 4)),
                            np.zeros((2, 4)))


def test_extract_zero(observer):
    split = extract_estimates(observer, np.zeros(12), np.zeros(4))
    npt.assert_allclose(split.x_hat, 0.0)
    npt.assert_allclose(split.f_hat, 0.0)


def test_extract_round_trip(observer, benchmark_aug):
    rng = np.random.default_rng(8)
    eta = rng.normal(size=12)
    y_f = rng.normal(size=4)
    split = extract_estimates(observer, eta, y_f)
    x_o = eta + benchmark_aug.F2 @ y_f
    npt.assert_allclose(np.concatenate([split.x_hat, split.f_hat]), x_o)
    with pytest.raises(DimensionMismatchError, match="eta"):
        extract_estimates(observer, np.zeros(11), y_f)
    with pytest.raises(DimensionMismatchError, match="eta and y_f"):
        extract_estimates(observer, np.zeros((3, 12)), np.zeros((2, 4)))


def test_fault_estimate_converges_to_injected_magnitude(benchmark_trace):
    """Post-fault steady estimate within 2% of the 5.75 step."""
    tr = benchmark_trace
    window = (tr.t >= 15.0) & (tr.t <= 20.0)
    err = np.abs(tr.f_hat[window] - 5.75)
    assert err.max() <= 0.02 * 5.75
    before = tr.t <= 9.0
    assert np.abs(tr.f_hat[before][-1]).max() <= 0.05


def _augmented_traces(trace, net):
    """True augmented state, its exact derivative, and the input trace."""
    x_a = np.hstack([trace.x, trace.f_s])
    x_dot = trace.x @ net.A.T + trace.u @ net.B.T + trace.v @ net.D.T
    x_a_dot = np.hstack([x_dot, np.zeros_like(trace.f_s)])
    return x_a, x_a_dot, trace.u


def test_virtual_observer_matches_realizable(loops, s0, benchmark_net,
                                             benchmark_aug, observer_synth):
    loop = loops["star"]
    trace = run_experiment(loop, disturbed_faultfree_schedule(4), s0,
                           h=1e-3, T=5.0)
    x_a, x_a_dot, u = _augmented_traces(trace, benchmark_net)
    virt = virtual_observer_oracle(benchmark_aug, benchmark_net,
                                   observer_synth, trace.t, x_a, x_a_dot, u)
    real = trace.eta + trace.y_f @ benchmark_aug.F2.T
    assert np.abs(virt - real).max() <= 1e-6


def test_error_dynamics_finite_difference_order(loops, s0, benchmark_net,
                                                benchmark_aug,
                                                observer_synth):
    """Centered-difference d(eps)/dt vs the error dynamics: O(h^2)."""
    loop = loops["star"]
    A_err = benchmark_aug.F1 @ benchmark_aug.A_a \
        - observer_synth.Lgain @ benchmark_aug.E2
    B_err = benchmark_aug.F1 @ benchmark_net.D
    devs = {}
    for h in (1e-3, 5e-4):
        tr = run_experiment(loop, disturbed_faultfree_schedule(4), s0,
                            h=h, T=2.0)
        x_a = np.hstack([tr.x, tr.f_s])
        x_o = tr.eta + tr.y_f @ benchmark_aug.F2.T
        eps = x_a - x_o
        fd = (eps[2:] - eps[:-2]) / (2.0 * h)
        model = eps @ A_err.T + tr.v @ B_err.T
        devs[h] = np.abs(fd - model[1:-1]).max()
    assert devs[1e-3] / devs[5e-4] >= 3.0  # ~4 for a second-order scheme


def test_quiet_run_error_decays(quiet_traces):
    tr = quiet_traces["star"]
    eps = np.hstack([tr.x - tr.x_hat, tr.f_s - tr.f_hat])
    norms = np.linalg.norm(eps, axis=1)
    tail = norms[tr.t >= 35.0]
    assert tail.max() <= 1e-6
