"""Agent models, network stacking, augmented representation."""

import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from coopftc.errors import DimensionMismatchError, ModelValidationError
from coopftc.linalg import block_diag
from coopftc.plant import (AgentModel, NetworkModel, augment_network,
                           dc_motor_agent, stack_network)


def test_motor_one_exact_entries():
    a = dc_motor_agent(1)
    npt.assert_allclose(a.A, [[-10.0, 1.0], [-0.02, -2.0]], atol=1e-15)
    npt.assert_allclose(a.B, [[0.0], [2.0]], atol=1e-15)
    npt.assert_allclose(a.C, [[1.0, 0.0]])
    npt.assert_allclose(a.D, 0.1 * np.array([[1.0], [1.0]]))


def test_motor_two_parameter_laws():
    # b=0.11, M=0.0105, R=0.98, L=0.515
    a = dc_motor_agent(2)
    npt.assert_allclose(a.A[0], [-11.0, 1.05], rtol=1e-12)
    npt.assert_allclose(a.A[1, 0], -0.0105 / 0.515, rtol=1e-12)
    npt.assert_allclose(a.A[1, 1], -0.98 / 0.515, rtol=1e-12)
    npt.assert_allclose(a.B[1, 0], 1.0 / 0.515, rtol=1e-12)
    npt.assert_allclose(a.D, 0.2 * np.ones((2, 1)))


def test_motor_rejects_degenerate_inertia():
    with pytest.raises(ModelValidationError):
        dc_motor_agent(0)


def test_motor_rejects_nonpositive_resistance():
    assert dc_motor_agent(50).A[1, 1] < 0.0  # R_50 = 0.02 > 0
    with pytest.raises(ModelValidationError, match="agent 51"):
        dc_motor_agent(51)


def test_motor_fleet_is_controllable_observable():
    # construction itself runs the rank checks
    for i in range(1, 5):
        dc_motor_agent(i)


def test_agent_rejects_unobservable_pair():
    with pytest.raises(ModelValidationError):
        AgentModel(A=np.diag([-1.0, -2.0]), B=np.array([[1.0], [1.0]]),
                   C=np.array([[0.0, 0.0]]), D=np.zeros((2, 1)))


@pytest.mark.parametrize("A, B, C, D", [
    (5.0, [[1.0]], [[1.0]], [[1.0]]),
    (np.zeros((0, 0)), np.zeros((0, 1)), np.zeros((1, 0)), np.zeros((0, 1))),
], ids=["scalar_A", "empty_A"])
def test_agent_rejects_malformed_A(A, B, C, D):
    with pytest.raises(ModelValidationError, match="A must be a non-empty"):
        AgentModel(A=A, B=B, C=C, D=D)


def test_stack_single_agent_is_the_agent():
    a = dc_motor_agent(1)
    net = stack_network([a])
    npt.assert_allclose(net.A, a.A)
    npt.assert_allclose(net.B, a.B)
    npt.assert_allclose(net.C, a.C)
    assert (net.m, net.n_x, net.n_u, net.n_y) == (1, 2, 1, 1)


def test_stack_four_motors_block_diagonal():
    agents = [dc_motor_agent(i) for i in range(1, 5)]
    net = stack_network(agents)
    assert net.A.shape == (8, 8)
    assert net.B.shape == (8, 4)
    assert net.C.shape == (4, 8)
    for i in range(4):
        sl = slice(2 * i, 2 * i + 2)
        npt.assert_allclose(net.A[sl, sl], agents[i].A)
        off = net.A.copy()
        off[sl, sl] = 0.0
        npt.assert_allclose(off[sl], 0.0)


def test_stack_rejects_mixed_dimensions():
    small = dc_motor_agent(1)
    big = AgentModel(A=np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0],
                                 [-1.0, -3.0, -3.0]]),
                     B=np.array([[0.0], [0.0], [1.0]]),
                     C=np.array([[1.0, 0.0, 0.0]]), D=np.zeros((3, 1)))
    with pytest.raises(DimensionMismatchError,
                       match="agent 2 has n_x=3, n_u=1, n_y=1, n_v=1, but "
                             "agent 1 has n_x=2, n_u=1, n_y=1, n_v=1"):
        stack_network([small, big])


def _assert_selector_identities(aug):
    """``F1 E1 + F2 E2 = I`` and ``[E1; E2] [F1 F2] = I`` in both orders,
    bit for bit."""
    eye = np.eye(aug.n_aug)
    stacked = np.vstack([aug.E1, aug.E2])
    wide = np.hstack([aug.F1, aug.F2])
    npt.assert_array_equal(aug.F1 @ aug.E1 + aug.F2 @ aug.E2, eye)
    npt.assert_array_equal(stacked @ wide, eye)
    npt.assert_array_equal(wide @ stacked, eye)


def test_augmented_shapes_and_identities(benchmark_net, benchmark_aug):
    aug = benchmark_aug
    assert aug.n_aug == 12
    assert aug.E1.shape == (8, 12)
    assert aug.E2.shape == (4, 12)
    assert aug.A_a.shape == (8, 12)
    _assert_selector_identities(aug)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(1, 3), st.integers(1, 30),
       st.integers(-8, 8), st.data())
def test_augmented_identities_random_output_maps(n_x, n_y, m, exponent,
                                                 data):
    # the identities need no controllability or observability, so the
    # network is stacked directly, with the output maps drawn freely
    Cs = 10.0 ** exponent * data.draw(
        arrays(float, (m, n_y, n_x), elements=st.floats(-1.0, 1.0)))
    nx = m * n_x
    net = NetworkModel(m=m, n_x=n_x, n_u=1, n_y=n_y, n_v=1,
                       A=-np.eye(nx), B=np.ones((nx, m)),
                       C=block_diag(*Cs), D=np.ones((nx, m)))
    _assert_selector_identities(augment_network(net))


def test_stacked_flow_matches_independent_agents():
    agents = [dc_motor_agent(i) for i in range(1, 5)]
    net = stack_network(agents)
    rng = np.random.default_rng(11)
    x0 = rng.normal(size=8)
    t = 0.7
    whole = scipy.linalg.expm(net.A * t) @ x0
    for i, a in enumerate(agents):
        part = scipy.linalg.expm(a.A * t) @ x0[2 * i:2 * i + 2]
        npt.assert_allclose(whole[2 * i:2 * i + 2], part, rtol=1e-12)
