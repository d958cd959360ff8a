"""Gain synthesis: generic solver, both design stages, re-verification.

Every accepted certificate is re-checked here with independent
arithmetic (rebuild the block inequality, eigendecompose) so the tests
do not trust the solver's own bookkeeping.
"""

import numpy as np
import numpy.testing as npt
import pytest

from coopftc import synth
from coopftc.errors import (AlphaNonPositiveError, DeltaNonPositiveError,
                            InfeasibleError)
from coopftc.linalg import is_hurwitz, is_negative_definite, sym_eigendecomp
from coopftc.plant import AgentModel, augment_network, stack_network
from coopftc.synth import (LmiProblem, VariableSpec, gamma_bound, solve_lmi,
                           synth_controller, synth_observer)

MARGIN = 1e-6


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


# --- generic LMI solver -----------------------------------------------------

def test_scalar_lmi_hand_checkable():
    # find p > 0 and h with 2(p - h) + 1 < 0; p=1, h=2 gives -1
    prob = LmiProblem(
        variables=[VariableSpec("p", 1, 1, symmetric=True,
                                positive_definite=True),
                   VariableSpec("h", 1, 1)],
        expression=lambda v: 2.0 * (v["p"] - v["h"]) + np.ones((1, 1)),
    )
    sol = solve_lmi(prob)
    value = 2.0 * (sol["p"] - sol["h"]) + np.ones((1, 1))
    assert sym_eigendecomp(value).eigenvalues[-1] <= -MARGIN
    assert sol["p"][0, 0] > 0


def test_constant_lmi_provably_infeasible():
    prob = LmiProblem(variables=[], expression=lambda v: np.ones((1, 1)))
    with pytest.raises(InfeasibleError, match="provably infeasible"):
        solve_lmi(prob)


# --- observer stage ---------------------------------------------------------

def test_observer_benchmark_feasible(benchmark_aug, benchmark_net,
                                     observer_synth):
    s = observer_synth
    assert s.margin >= MARGIN
    pi = _observer_block(benchmark_aug, benchmark_net, s.P, s.H, s.delta)
    assert sym_eigendecomp(pi).eigenvalues[-1] <= -MARGIN
    assert sym_eigendecomp(s.P).eigenvalues[0] > 0
    # gain definition P Lgain = H
    resid = np.abs(s.P @ s.Lgain - s.H).max()
    assert resid <= 1e-9 * max(1.0, np.abs(s.H).max())
    A_err = benchmark_aug.F1 @ benchmark_aug.A_a - s.Lgain @ benchmark_aug.E2
    assert is_hurwitz(A_err)


def test_observer_rejects_nonpositive_delta(benchmark_aug, benchmark_net):
    with pytest.raises(DeltaNonPositiveError):
        synth_observer(benchmark_aug, benchmark_net, 0.0)
    with pytest.raises(DeltaNonPositiveError):
        synth_observer(benchmark_aug, benchmark_net, -0.3)


def test_observer_tiny_delta_infeasible(benchmark_aug, benchmark_net):
    with pytest.raises(InfeasibleError, match="^observer LMI infeasible"):
        synth_observer(benchmark_aug, benchmark_net, 1e-9,
                       max_iterations=800)


# --- feedback stage ---------------------------------------------------------

def test_controller_benchmark_feasible(benchmark_net, controller_synth):
    s = controller_synth
    assert s.margin >= MARGIN
    lam = _feedback_block(benchmark_net, s.R, s.G, s.alpha, s.delta)
    assert sym_eigendecomp(lam).eigenvalues[-1] <= -MARGIN
    assert sym_eigendecomp(s.R).eigenvalues[0] > 0
    resid = np.abs(s.K @ s.R - s.G).max()
    assert resid <= 1e-9 * max(1.0, np.abs(s.G).max())
    assert is_hurwitz(benchmark_net.A + benchmark_net.B @ s.K)


def test_controller_gamma_consistent(controller_synth):
    s = controller_synth
    lam_max = sym_eigendecomp(s.K.T @ s.K).eigenvalues[-1]
    assert s.gamma ** 2 >= (s.alpha * lam_max + 1.0) * s.delta ** 2 - 1e-12
    assert s.gamma >= s.delta


def test_controller_schur_equivalence(benchmark_net, controller_synth):
    """Pre-elimination 3x3 form and the 4x4 form agree at the solution."""
    s = controller_synth
    net = benchmark_net
    core = net.A @ s.R + s.R @ net.A.T + net.B @ s.G + s.G.T @ net.B.T
    nu, nv = net.nbar_u, net.nbar_v
    pre = np.block([
        [core + s.R @ s.R, -net.B, net.D],
        [-net.B.T, -s.alpha * np.eye(nu), np.zeros((nu, nv))],
        [net.D.T, np.zeros((nv, nu)), -s.delta ** 2 * np.eye(nv)],
    ])
    lam = _feedback_block(net, s.R, s.G, s.alpha, s.delta)
    assert is_negative_definite(pre)
    assert is_negative_definite(lam)


def test_controller_scalar_unstable_plant():
    agent = AgentModel(A=np.array([[1.0]]), B=np.array([[1.0]]),
                       C=np.array([[1.0]]), D=np.array([[1.0]]),
                       F=np.eye(1))
    net = stack_network([agent])
    s = synth_controller(net, 0.2, 0.3)
    assert s.K[0, 0] < -1.0
    assert is_hurwitz(net.A + net.B @ s.K)


def test_controller_rejects_nonpositive_alpha(benchmark_net):
    with pytest.raises(AlphaNonPositiveError):
        synth_controller(benchmark_net, 0.0, 0.3)
    with pytest.raises(DeltaNonPositiveError):
        synth_controller(benchmark_net, 0.2, -1.0)


def test_controller_fast_pole_policy(benchmark_net, monkeypatch):
    """With no pole anchor every agent falls back to the cold-started
    search, boxed by the eigenvalue strip (-8, -2)."""
    monkeypatch.setattr(synth, "_slow_pole_targets", lambda *a: None)
    s = synth_controller(benchmark_net, 0.2, 0.3)
    lam = _feedback_block(benchmark_net, s.R, s.G, s.alpha, s.delta)
    assert sym_eigendecomp(lam).eigenvalues[-1] <= -MARGIN
    rates = np.linalg.eigvals(benchmark_net.A + benchmark_net.B @ s.K).real
    assert np.all((rates > -8.0) & (rates < -2.0))


def test_controller_tiny_delta_infeasible(benchmark_net):
    with pytest.raises(InfeasibleError, match="^feedback LMI infeasible"):
        synth_controller(benchmark_net, 0.2, 1e-9, max_iterations=30)


# --- gamma bound ------------------------------------------------------------

def test_gamma_zero_gain_is_delta():
    assert gamma_bound(np.zeros((2, 2)), 0.2, 0.3) == pytest.approx(0.3)


def test_gamma_arithmetic_case():
    K = np.array([[np.sqrt(3.0)]])
    assert gamma_bound(K, 1.0, 0.5) == pytest.approx(1.0)


def test_gamma_rejects_bad_parameters():
    with pytest.raises(DeltaNonPositiveError):
        gamma_bound(np.zeros((1, 1)), 1.0, 0.0)
    with pytest.raises(AlphaNonPositiveError):
        gamma_bound(np.zeros((1, 1)), -1.0, 0.5)
