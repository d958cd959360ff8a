"""Cooperative tracking signals and the observer-based control law.

Each unit drives its plant with two nested loops.  The inner loop is
robust state feedback on the unit's own state estimate,
``u* = K E1 x_o``.  The outer loop acts on the cooperative tracking
error ``e`` -- the weighted disagreement between a unit's shared output
estimate, its in-neighbors' estimates, and the source setpoint -- with
a per-agent proportional-integral pair ``(ell_p, ell_i)``:

    u = K E1 x_o - (ell_p . e + ell_i . q),     q' = e.

The integral path is what removes steady-state offsets across the
network; of a two-element outer gain, the large element belongs on the
integral channel.  Setting ``ell_p = 0`` gives pure distributed
integral action.

A control law takes the paper's normalized weights only: a balanced
graph, on which every unit's in-weights sum to one
(:func:`~coopftc.graph.check_balance`).  That is decided once, when the
law is built, not on every evaluation.

:func:`cooperative_error` and :func:`control_input` take one stacked
vector or a 2-D array with one row per sample (the stacked dimension
last).

The wiring of plant, observer, and outer loop into one derivative over
the canonical stacked state ``[x; eta; q]`` is written once, for one
state or one state per row.  :func:`closed_loop_rhs` evaluates it for
one state under the signals of a :class:`SignalSchedule` table;
:func:`closed_loop_maps` evaluates it once on a stacked probe to extract
the affine realization used for fast simulation and for
eigenvalue/Lyapunov analysis; the simulator evaluates it once on a
whole trace to reconstruct the trace's other columns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, IdentityCheckFailedError
from .estimator import ObserverRealization, extract_estimates, observer_derivative
from .graph import NetworkGraph, check_balance
from .linalg import _as_rows
from .plant import AugmentedModel, NetworkModel

__all__ = [
    "ControlLaw",
    "ClosedLoopState",
    "ClosedLoop",
    "ClosedLoopMaps",
    "SignalSchedule",
    "cooperative_error",
    "control_input",
    "build_closed_loop",
    "closed_loop_rhs",
    "closed_loop_maps",
]


@dataclass(frozen=True)
class ControlLaw:
    """Inner gain plus per-agent outer PI pairs, tied to a graph.

    ``ell_p`` and ``ell_i`` may be given as scalars (shared by all
    agents) or per-agent arrays of length ``graph.m``.

    Raises
    ------
    IdentityCheckFailedError
        When the graph is not balanced (run ``normalize_weights`` first).
    """

    graph: NetworkGraph
    K: np.ndarray
    ell_p: np.ndarray
    ell_i: np.ndarray

    def __post_init__(self):
        dev, units = check_balance(self.graph)
        if units:
            raise IdentityCheckFailedError(
                f"graph is not balanced: the in-weights of units {units} "
                f"do not sum to 1 (largest deviation {dev:.3e}); run "
                "normalize_weights first")
        K = np.asarray(self.K, dtype=float)
        if K.ndim != 2 or not np.all(np.isfinite(K)):
            raise DimensionMismatchError("K must be a finite 2-D matrix")
        object.__setattr__(self, "K", K)
        for name in ("ell_p", "ell_i"):
            g = np.broadcast_to(
                np.asarray(getattr(self, name), dtype=float),
                (self.graph.m,)).copy()
            if not np.all(np.isfinite(g)):
                raise DimensionMismatchError(f"{name} must be finite")
            object.__setattr__(self, name, g)


@dataclass(frozen=True)
class ClosedLoopState:
    """Canonical stacked state ``[x; eta; q]`` of one rollout: one vector
    per part, or one row per sample in each part."""

    x: np.ndarray
    eta: np.ndarray
    q: np.ndarray

    def packed(self) -> np.ndarray:
        return np.concatenate([self.x, self.eta, self.q], axis=-1)

    @staticmethod
    def unpack(vec: np.ndarray, nbar_x: int, n_aug: int) -> "ClosedLoopState":
        vec = np.asarray(vec, dtype=float)
        return ClosedLoopState(x=vec[..., :nbar_x],
                               eta=vec[..., nbar_x:nbar_x + n_aug],
                               q=vec[..., nbar_x + n_aug:])


@dataclass(frozen=True)
class SignalSchedule:
    """Piecewise-constant exogenous signals, as one breakpoint table.

    Row ``k`` holds the stacked disturbance ``v``, the stacked sensor
    fault ``f_s`` and the source output ``y0`` on ``[times[k],
    times[k+1])``; the last row holds from ``times[-1]`` on.  ``times``
    starts at 0 and strictly increases, so every signal is
    right-continuous: at a breakpoint it already has the new row's value.
    The columns are stored as read-only copies.
    """

    times: np.ndarray
    v: np.ndarray
    f_s: np.ndarray
    y0: np.ndarray

    def __post_init__(self):
        for name in ("times", "v", "f_s", "y0"):
            col = np.array(getattr(self, name), dtype=float)
            col.setflags(write=False)
            object.__setattr__(self, name, col)
        times = self.times
        if (times.ndim != 1 or times.size == 0 or times[0] != 0.0
                or np.any(np.diff(times) <= 0)):
            raise ValueError("schedule breakpoints must start at 0 and "
                             f"strictly increase, got {times}")
        for name in ("v", "f_s", "y0"):
            shape = getattr(self, name).shape
            if len(shape) != 2 or shape[0] != times.size:
                raise DimensionMismatchError(
                    f"schedule column {name} has shape {shape}, "
                    f"expected ({times.size}, ...)")

    def sample(self, t):
        """``(v, f_s, y0)`` in force at ``t``: one row each for a scalar
        ``t``, one row per time for an array."""
        k = np.searchsorted(self.times[1:], t, side="right")
        return self.v[k], self.f_s[k], self.y0[k]


@dataclass(frozen=True)
class ClosedLoop:
    """Everything needed to evaluate the closed-loop derivative."""

    net: NetworkModel
    aug: AugmentedModel
    obs: ObserverRealization
    law: ControlLaw

    @property
    def dim(self) -> int:
        return self.net.nbar_x + self.aug.n_aug + self.net.nbar_y


def cooperative_error(g: NetworkGraph, y_hat: np.ndarray,
                      y0: np.ndarray) -> np.ndarray:
    """Cooperative tracking error ``e = (L kron I) y_hat - (A_0 kron I)
    (1 kron y0)``, for ``y_hat`` of ``m`` blocks of the width of ``y0``:
    one vector, or one row per sample with ``y0`` one vector or one row
    per row.

    The block size is the width of ``y0``, so a per-agent state in
    place of ``y0`` gives the state-level error of stacked states.
    """
    y0 = np.atleast_1d(np.asarray(y0, dtype=float))
    n_y = y0.shape[-1]
    if y0.ndim == 1:
        [y_hat] = _as_rows(("y_hat", y_hat, g.m * n_y))
    else:
        y_hat, y0 = _as_rows(("y_hat", y_hat, g.m * n_y), ("y0", y0, n_y))
    Lk = np.kron(g.L, np.eye(n_y))
    A0 = np.kron(g.A_0, np.eye(n_y))
    return y_hat @ Lk.T - np.tile(y0, g.m) @ A0.T


def control_input(law: ControlLaw, x_hat: np.ndarray, e_bar: np.ndarray,
                  q: np.ndarray) -> np.ndarray:
    """Full control ``u = K x_hat - (ell_p . e + ell_i . q)``, with
    ``x_hat = E1 x_o`` the plant-state part of the observer estimate.

    The outer terms act per agent; this requires one input channel per
    output channel, which is checked against the shapes.
    """
    m = law.graph.m
    n_u, rem = divmod(law.K.shape[0], m)
    if rem:
        raise DimensionMismatchError(
            f"K has {law.K.shape[0]} rows, not divisible by m={m}")
    x_hat, e_bar, q = _as_rows(("x_hat", x_hat, law.K.shape[1]),
                               ("e_bar", e_bar, m * n_u), ("q", q, m * n_u))
    return (x_hat @ law.K.T
            - np.repeat(law.ell_p, n_u) * e_bar
            - np.repeat(law.ell_i, n_u) * q)


def build_closed_loop(net: NetworkModel, aug: AugmentedModel,
                      obs: ObserverRealization, law: ControlLaw) -> ClosedLoop:
    """Validate cross-module dimensions once and freeze the wiring."""
    if law.graph.m != net.m:
        raise DimensionMismatchError(
            f"graph has m={law.graph.m}, network has m={net.m}")
    if law.K.shape != (net.nbar_u, net.nbar_x):
        raise DimensionMismatchError(
            f"K shape {law.K.shape}, expected {(net.nbar_u, net.nbar_x)}")
    if net.n_u != net.n_y:
        raise DimensionMismatchError(
            "outer PI action needs one input channel per output channel "
            f"(n_u={net.n_u}, n_y={net.n_y})")
    if obs.n_aug != aug.n_aug or obs.nbar_x != net.nbar_x:
        raise DimensionMismatchError("observer dims do not match models")
    return ClosedLoop(net=net, aug=aug, obs=obs, law=law)


def _wire(loop: ClosedLoop, state: ClosedLoopState, v, f_s, y0):
    """The networked loop's wiring, for one state or one state per row
    (the signals then one row per row of the state).

    The order mirrors the information flow: measure, estimate, compare,
    actuate.  Returns ``(y_f, estimates, e_bar, u, derivative)``, the last
    a function that forms the state derivative, so a caller that needs
    only the signals (a whole trace's worth of rows) does not pay for it.
    """
    net, obs, law = loop.net, loop.obs, loop.law
    v, f_s = _as_rows(("disturbance", v, net.nbar_v),
                      ("fault", f_s, net.nbar_y))
    y_f = state.x @ net.C.T + f_s
    est = extract_estimates(obs, state.eta, y_f)
    e_bar = cooperative_error(law.graph, est.x_hat @ net.C.T, y0)
    u = control_input(law, est.x_hat, e_bar, state.q)

    def derivative() -> ClosedLoopState:
        dx = state.x @ net.A.T + u @ net.B.T + v @ net.D.T
        deta = observer_derivative(obs, state.eta, y_f, u)
        return ClosedLoopState(x=dx, eta=deta, q=e_bar)

    return y_f, est, e_bar, u, derivative


def closed_loop_rhs(t: float, state: ClosedLoopState, loop: ClosedLoop,
                    signals) -> ClosedLoopState:
    """One evaluation of the complete networked loop.

    ``signals.sample(t)`` must return the stacked disturbance, the
    stacked sensor-fault vector and the shared source output at ``t``,
    as a :class:`SignalSchedule` does.
    """
    return _wire(loop, state, *signals.sample(t))[-1]()


@dataclass(frozen=True)
class ClosedLoopMaps:
    """Affine realization ``z' = M z + B_v v + B_f f_s + B_r y0`` of the
    closed loop, obtained by probing its wiring."""

    M: np.ndarray
    B_v: np.ndarray
    B_f: np.ndarray
    B_r: np.ndarray


def closed_loop_maps(loop: ClosedLoop) -> ClosedLoopMaps:
    """Extract the linear realization by unit-vector probing.

    One evaluation of the wiring on a stacked probe, one unit vector of
    ``[z | v | f_s | y0]`` per row.  The wiring is linear: with finite
    matrices the origin maps to exact zeros.  Probing the actual wiring
    (rather than re-deriving the block formulas) guarantees the fast
    path and the readable path cannot drift apart.
    """
    net = loop.net
    cuts = np.cumsum([loop.dim, net.nbar_v, net.nbar_y])
    z, v, f_s, y0 = np.split(np.eye(cuts[-1] + net.n_y), cuts, axis=1)
    state = ClosedLoopState.unpack(z, net.nbar_x, loop.aug.n_aug)
    out = _wire(loop, state, v, f_s, y0)[-1]().packed()
    M, B_v, B_f, B_r = np.split(out.T, cuts, axis=1)
    return ClosedLoopMaps(M=M, B_v=B_v, B_f=B_f, B_r=B_r)
