"""Agent models, network stacking, and the fault-augmented plant.

Each agent is a controllable & observable LTI system

    x' = A x + B u + D v,      y_f = C x + F f_s,

where ``v`` is an energy-bounded disturbance and ``f_s`` an additive
sensor fault with full-rank (identity) distribution ``F``.  A network
stacks the per-agent matrices block-diagonally.  The augmented plant
adjoins the fault to the state, ``x_a = [x; f_s]``, keeping all plant
states first and all faults last, and carries the selector/embedding
matrices

    A_a = [A  0],   E1 = [I  0],   E2 = [C  F],
    F1 = [I; -C],   F2 = [0; I],

which satisfy ``F1 E1 + F2 E2 = I`` and ``[E1; E2] [F1 F2] = I`` (both
orders).  Those identities are what make a realizable observer for the
augmented state possible, so they are verified at construction time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import (
    DimensionMismatchError,
    IdentityCheckFailedError,
    ModelValidationError,
)

__all__ = [
    "AgentModel",
    "NetworkModel",
    "AugmentedModel",
    "dc_motor_agent",
    "stack_network",
    "augment_network",
    "aug_indices",
]

#: Singular values below this (relative to the largest) do not count
#: toward the rank in the controllability/observability checks.
RANK_TOL = 1e-8


def _rank(M: np.ndarray) -> int:
    return int(np.linalg.matrix_rank(M, tol=RANK_TOL * max(1.0, np.abs(M).max())))


def _ctrb(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    n = A.shape[0]
    blocks, Ak = [B], B
    for _ in range(n - 1):
        Ak = A @ Ak
        blocks.append(Ak)
    return np.hstack(blocks)


@dataclass(frozen=True)
class AgentModel:
    """One agent's matrices; validated on construction."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    F: np.ndarray

    def __post_init__(self):
        A, B, C, D, F = (np.asarray(M, dtype=float)
                         for M in (self.A, self.B, self.C, self.D, self.F))
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "D", D)
        object.__setattr__(self, "F", F)
        n_x = A.shape[0]
        if A.shape != (n_x, n_x):
            raise ModelValidationError(f"A must be square, got {A.shape}")
        for name, M, rows in (("B", B, n_x), ("D", D, n_x)):
            if M.ndim != 2 or M.shape[0] != rows:
                raise ModelValidationError(f"{name} must have {rows} rows")
        if C.ndim != 2 or C.shape[1] != n_x:
            raise ModelValidationError(f"C must have {n_x} columns")
        n_y = C.shape[0]
        if F.shape != (n_y, n_y) or not np.array_equal(F, np.eye(n_y)):
            raise ModelValidationError(
                "fault distribution F must be the identity on the output space"
            )
        if not all(np.isfinite(M).all() for M in (A, B, C, D)):
            raise ModelValidationError("agent matrices contain non-finite entries")
        if _rank(_ctrb(A, B)) < n_x:
            raise ModelValidationError("(A, B) is not controllable")
        if _rank(_ctrb(A.T, C.T)) < n_x:
            raise ModelValidationError("(A, C) is not observable")

    @property
    def n_x(self) -> int:
        return self.A.shape[0]

    @property
    def n_u(self) -> int:
        return self.B.shape[1]

    @property
    def n_y(self) -> int:
        return self.C.shape[0]

    @property
    def n_v(self) -> int:
        return self.D.shape[1]


def dc_motor_agent(i: int, J: float = 0.01, b0: float = 0.1, m0: float = 0.01,
                   r0: float = 1.0, l0: float = 0.5,
                   sigma0: float = 0.1) -> AgentModel:
    """Heterogeneous DC-motor agent ``i`` (1-based).

    Parameter laws spread the fleet around the base values::

        b_i = b0 (1 + 0.10 (i-1))      friction
        M_i = m0 (1 + 0.05 (i-1))      torque constant
        R_i = r0 (1 - 0.02 (i-1))      armature resistance
        L_i = l0 (1 + 0.03 (i-1))      armature inductance
        sigma_i = sigma0 * i           disturbance scale

    State is (shaft speed, armature current); input the armature
    voltage; measured output the speed.  With ``r0 > 0`` the resistance
    law reaches zero at ``i = 51``; agents from there on raise
    :class:`ModelValidationError`.
    """
    if i < 1:
        raise ModelValidationError(f"agent index must be >= 1, got {i}")
    b = b0 * (1 + 0.10 * (i - 1))
    M = m0 * (1 + 0.05 * (i - 1))
    R = r0 * (1 - 0.02 * (i - 1))
    L = l0 * (1 + 0.03 * (i - 1))
    if J <= 0 or L <= 0 or not np.isfinite(J) or not np.isfinite(L):
        raise ModelValidationError(
            f"degenerate motor parameters: J={J}, L={L} (must be finite, > 0)"
        )
    if not R > 0:
        raise ModelValidationError(
            f"agent {i}: armature resistance R={R:g} must be > 0")
    sigma = sigma0 * i
    A = np.array([[-b / J, M / J], [-M / L, -R / L]])
    B = np.array([[0.0], [1.0 / L]])
    C = np.array([[1.0, 0.0]])
    D = sigma * np.array([[1.0], [1.0]])
    return AgentModel(A=A, B=B, C=C, D=D, F=np.eye(1))


@dataclass(frozen=True)
class NetworkModel:
    """Block-diagonal stack of ``m`` same-dimension agents."""

    m: int
    n_x: int
    n_u: int
    n_y: int
    n_v: int
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    F: np.ndarray

    @property
    def nbar_x(self) -> int:
        return self.m * self.n_x

    @property
    def nbar_u(self) -> int:
        return self.m * self.n_u

    @property
    def nbar_y(self) -> int:
        return self.m * self.n_y

    @property
    def nbar_v(self) -> int:
        return self.m * self.n_v


def stack_network(agents) -> NetworkModel:
    """Stack a list of agents into one block-diagonal network model.

    All agents must share the same state/input/output/disturbance
    dimensions (heterogeneous values, homogeneous shapes).
    """
    agents = list(agents)
    if not agents:
        raise DimensionMismatchError("need at least one agent")
    a0 = agents[0]
    dims = (a0.n_x, a0.n_u, a0.n_y, a0.n_v)
    for k, a in enumerate(agents[1:], start=2):
        if (a.n_x, a.n_u, a.n_y, a.n_v) != dims:
            raise DimensionMismatchError(
                f"agent {k} has dims {(a.n_x, a.n_u, a.n_y, a.n_v)}, "
                f"expected {dims}"
            )
    m = len(agents)
    return NetworkModel(
        m=m, n_x=a0.n_x, n_u=a0.n_u, n_y=a0.n_y, n_v=a0.n_v,
        A=scipy.linalg.block_diag(*(a.A for a in agents)),
        B=scipy.linalg.block_diag(*(a.B for a in agents)),
        C=scipy.linalg.block_diag(*(a.C for a in agents)),
        D=scipy.linalg.block_diag(*(a.D for a in agents)),
        F=np.eye(m * a0.n_y),
    )


@dataclass(frozen=True)
class AugmentedModel:
    """Fault-augmented network plant and its selector/embedding maps."""

    n_aug: int
    nbar_x: int
    nbar_y: int
    A_a: np.ndarray
    E1: np.ndarray
    E2: np.ndarray
    F1: np.ndarray
    F2: np.ndarray


#: Absolute tolerance for the exact selector identities.
IDENTITY_ATOL = 1e-12


def augment_network(net: NetworkModel) -> AugmentedModel:
    """Build the augmented plant ``x_a = [x; f_s]`` for a network.

    Verifies the reconstruction identities ``F1 E1 + F2 E2 = I`` and
    ``[E1; E2] [F1 F2] = I`` (in both multiplication orders) to
    ``IDENTITY_ATOL``.
    """
    nx, ny = net.nbar_x, net.nbar_y
    n_aug = nx + ny
    A_a = np.hstack([net.A, np.zeros((nx, ny))])
    E1 = np.hstack([np.eye(nx), np.zeros((nx, ny))])
    E2 = np.hstack([net.C, net.F])
    F1 = np.vstack([np.eye(nx), -net.C])
    F2 = np.vstack([np.zeros((nx, ny)), np.eye(ny)])

    eye = np.eye(n_aug)
    stack_E = np.vstack([E1, E2])
    stack_F = np.hstack([F1, F2])
    for name, prod in (
        ("F1 E1 + F2 E2", F1 @ E1 + F2 @ E2),
        ("[E1; E2] [F1 F2]", stack_E @ stack_F),
        ("[F1 F2] [E1; E2]", stack_F @ stack_E),
    ):
        if np.abs(prod - eye).max() > IDENTITY_ATOL:
            raise IdentityCheckFailedError(
                f"{name} deviates from identity by "
                f"{np.abs(prod - eye).max():.3e}"
            )
    return AugmentedModel(n_aug=n_aug, nbar_x=nx, nbar_y=ny,
                          A_a=A_a, E1=E1, E2=E2, F1=F1, F2=F2)


def aug_indices(net: NetworkModel, agent: int) -> np.ndarray:
    """Augmented-state indices owned by ``agent`` (0-based).

    The canonical layout keeps all plant states first and all fault
    states last, so one agent's augmented coordinates are not
    contiguous; synthesis uses this map to scatter per-agent solutions
    into network-level matrices.
    """
    x_part = np.arange(agent * net.n_x, (agent + 1) * net.n_x)
    f_part = net.nbar_x + np.arange(agent * net.n_y, (agent + 1) * net.n_y)
    return np.concatenate([x_part, f_part])
