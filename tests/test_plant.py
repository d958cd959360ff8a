"""Agent models, network stacking, augmented representation."""

import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg

from coopftc.errors import DimensionMismatchError, ModelValidationError
from coopftc.plant import (AgentModel, augment_network, dc_motor_agent,
                           stack_network)


def test_motor_one_exact_entries():
    a = dc_motor_agent(1)
    npt.assert_allclose(a.A, [[-10.0, 1.0], [-0.02, -2.0]], atol=1e-15)
    npt.assert_allclose(a.B, [[0.0], [2.0]], atol=1e-15)
    npt.assert_allclose(a.C, [[1.0, 0.0]])
    npt.assert_allclose(a.D, 0.1 * np.array([[1.0], [1.0]]))
    npt.assert_allclose(a.F, [[1.0]])


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
        dc_motor_agent(1, J=0.0)
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
                   C=np.array([[0.0, 0.0]]), D=np.zeros((2, 1)),
                   F=np.eye(1))


def test_agent_rejects_fault_matrix_other_than_identity():
    motor = dc_motor_agent(1)
    with pytest.raises(ModelValidationError):
        AgentModel(A=motor.A, B=motor.B, C=motor.C, D=motor.D,
                   F=2.0 * np.eye(1))


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
    npt.assert_allclose(net.F, np.eye(4))


def test_stack_rejects_mixed_dimensions():
    small = dc_motor_agent(1)
    big = AgentModel(A=np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0],
                                 [-1.0, -3.0, -3.0]]),
                     B=np.array([[0.0], [0.0], [1.0]]),
                     C=np.array([[1.0, 0.0, 0.0]]), D=np.zeros((3, 1)),
                     F=np.eye(1))
    with pytest.raises(DimensionMismatchError):
        stack_network([small, big])


def test_augmented_shapes_and_identities(benchmark_net, benchmark_aug):
    aug = benchmark_aug
    assert aug.n_aug == 12
    assert aug.E1.shape == (8, 12)
    assert aug.E2.shape == (4, 12)
    assert aug.A_a.shape == (8, 12)
    npt.assert_allclose(aug.F1 @ aug.E1 + aug.F2 @ aug.E2, np.eye(12),
                        atol=0)
    stacked = np.vstack([aug.E1, aug.E2])
    wide = np.hstack([aug.F1, aug.F2])
    npt.assert_allclose(stacked @ wide, np.eye(12), atol=1e-12)
    npt.assert_allclose(wide @ stacked, np.eye(12), atol=1e-12)


def test_augmented_identities_random_output_maps():
    rng = np.random.default_rng(7)
    for _ in range(5):
        A = rng.normal(size=(3, 3)) - 3 * np.eye(3)
        B = rng.normal(size=(3, 2))
        C = rng.normal(size=(2, 3))
        agent = AgentModel(A=A, B=B, C=C, D=rng.normal(size=(3, 1)),
                           F=np.eye(2))
        aug = augment_network(stack_network([agent, agent]))
        n = aug.n_aug
        npt.assert_allclose(aug.F1 @ aug.E1 + aug.F2 @ aug.E2, np.eye(n),
                            atol=1e-12)
        stacked = np.vstack([aug.E1, aug.E2])
        wide = np.hstack([aug.F1, aug.F2])
        npt.assert_allclose(wide @ stacked, np.eye(n), atol=1e-12)


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
