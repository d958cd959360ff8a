"""Directed weighted interaction graphs with a pinned source.

A network of ``m`` units exchanges output information over weighted
directed edges; a subset of units additionally receives the source
(leader) signal through diagonal pinning weights.  The matrices kept on
:class:`NetworkGraph` follow the usual conventions:

* ``A_m[i, j]`` -- weight of the information unit ``i+1`` receives from
  unit ``j+1`` (zero diagonal),
* ``A_0`` -- diagonal source pinning weights,
* ``W = diag(A_m @ 1) + A_0`` -- total in-weight,
* ``L = W - A_m`` -- pinned Laplacian used by the cooperative layer.

A graph is balanced when every unit's in-weights sum to one (``W = I``);
:func:`normalize_weights` makes it so, and :func:`check_balance` is the
one test of it, made where a graph enters a control law.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import BadEdgeError, IsolatedUnitError
from .linalg import is_hurwitz

__all__ = [
    "NetworkGraph",
    "build_graph",
    "normalize_weights",
    "check_balance",
    "BALANCE_TOL",
    "check_source_reachability",
    "is_positive_stable",
    "benchmark_topology",
    "BENCHMARK_TOPOLOGIES",
]

#: Largest ``|W[i, i] - 1|`` a balanced graph may have.
BALANCE_TOL = 1e-12


@dataclass(frozen=True)
class NetworkGraph:
    """Immutable container for one interaction topology."""

    m: int
    A_m: np.ndarray
    A_0: np.ndarray
    W: np.ndarray = field(repr=False)
    L: np.ndarray = field(repr=False)


def build_graph(m, unit_edges, source_weights) -> NetworkGraph:
    """Assemble a :class:`NetworkGraph` from edge lists.

    Parameters
    ----------
    m : int
        Number of units (>= 1).
    unit_edges : iterable of (i, j, w)
        Unit ``i`` receives from unit ``j`` with weight ``w >= 0``;
        indices are 1-based, self-loops and duplicate pairs rejected.
    source_weights : iterable of (i, w)
        Source pinning weight for unit ``i`` (1-based), ``w >= 0``,
        duplicates rejected.

    Raises
    ------
    BadEdgeError
        On any index/weight/duplication violation; the message names the
        scenario field, ``graph.edges`` or ``graph.sources``.
    """
    if m < 1:
        raise BadEdgeError(f"graph needs at least one unit, got m={m}")
    A_m = np.zeros((m, m))
    seen = set()
    for i, j, w in unit_edges:
        if not (1 <= i <= m and 1 <= j <= m):
            raise BadEdgeError(
                f"graph.edges: edge ({i},{j}) out of range 1..{m}")
        if i == j:
            raise BadEdgeError(f"graph.edges: self-loop ({i},{i}) not allowed")
        if (i, j) in seen:
            raise BadEdgeError(f"graph.edges: duplicate edge ({i},{j})")
        if not np.isfinite(w) or w < 0:
            raise BadEdgeError(
                f"graph.edges: edge ({i},{j}) has invalid weight {w}")
        seen.add((i, j))
        A_m[i - 1, j - 1] = w

    a0 = np.zeros(m)
    seen_src = set()
    for i, w in source_weights:
        if not (1 <= i <= m):
            raise BadEdgeError(f"graph.sources: unit {i} out of range 1..{m}")
        if i in seen_src:
            raise BadEdgeError(f"graph.sources: duplicate weight for unit {i}")
        if not np.isfinite(w) or w < 0:
            raise BadEdgeError(
                f"graph.sources: weight for unit {i} invalid: {w}")
        seen_src.add(i)
        a0[i - 1] = w

    return _finalize(m, A_m, np.diag(a0))


def _finalize(m: int, A_m: np.ndarray, A_0: np.ndarray) -> NetworkGraph:
    D_m = np.diag(A_m.sum(axis=1))
    return NetworkGraph(m=m, A_m=A_m, A_0=A_0, W=D_m + A_0, L=D_m - A_m + A_0)


def normalize_weights(g: NetworkGraph) -> NetworkGraph:
    """Rescale each unit's in-weights so they sum to one.

    Row ``i`` of ``A_m`` and the pinning weight of unit ``i`` are
    divided by the total in-weight ``W[i, i]``.  Idempotent; a unit with
    zero total in-weight cannot be normalized.

    Raises
    ------
    IsolatedUnitError
        If some ``W[i, i] <= 0``.
    """
    w = np.diag(g.W)
    if (w <= 0).any():
        bad = [int(i) + 1 for i in np.flatnonzero(w <= 0)]
        raise IsolatedUnitError(f"units {bad} have zero total in-weight")
    return _finalize(g.m, g.A_m / w[:, None], g.A_0 / w[:, None])


def check_balance(g: NetworkGraph) -> tuple[float, list[int]]:
    """The largest ``|W[i, i] - 1|`` over the units, and the units
    (1-based) whose in-weights, neighbors and source together, miss one
    by more than ``BALANCE_TOL``; the list is empty on a balanced graph.
    """
    dev = np.abs(np.diag(g.W) - 1.0)
    units = [int(i) + 1 for i in np.flatnonzero(dev > BALANCE_TOL)]
    return float(dev.max()), units


def check_source_reachability(g: NetworkGraph) -> list[int]:
    """Units (1-based) the source does not reach; empty when all are.

    Information propagates along an edge from its tail ``j`` to its head
    ``i`` whenever ``A_m[i, j] > 0``; the search starts at every unit
    with a positive pinning weight.
    """
    reached = np.diag(g.A_0) > 0
    frontier = list(np.flatnonzero(reached))
    while frontier:
        j = frontier.pop()
        for i in np.flatnonzero(g.A_m[:, j] > 0):
            if not reached[i]:
                reached[i] = True
                frontier.append(i)
    return [int(i) + 1 for i in np.flatnonzero(~reached)]


def is_positive_stable(L) -> bool:
    """True iff every eigenvalue of ``L`` has positive real part."""
    return is_hurwitz(-np.asarray(L, dtype=float))


# --- benchmark topologies ---------------------------------------------------

#: Named four-unit topologies used throughout the benchmark: a star
#: (source pinned to every unit, no inter-unit edges), a bidirectional
#: ring with uniform pinning, and a chain pinned only at its head.  The
#: chain's raw in-weights exceed one, so builders normalize it.
BENCHMARK_TOPOLOGIES = ("star", "cyclic", "path")


def benchmark_topology(name: str, normalize: bool = True) -> NetworkGraph:
    """Build one of the named four-unit benchmark topologies."""
    m = 4
    if name == "star":
        g = build_graph(m, [], [(i, 1.0) for i in range(1, 5)])
    elif name == "cyclic":
        ring = []
        for i in range(1, 5):
            j = i % 4 + 1  # ring neighbor
            ring += [(i, j, 0.3), (j, i, 0.3)]
        g = build_graph(m, ring, [(i, 0.4) for i in range(1, 5)])
    elif name == "path":
        chain = []
        for i in range(1, 4):
            chain += [(i, i + 1, 1.0), (i + 1, i, 1.0)]
        g = build_graph(m, chain, [(1, 1.0)])
    else:
        raise ValueError(f"unknown topology {name!r}; expected one of "
                         f"{BENCHMARK_TOPOLOGIES}")
    return normalize_weights(g) if normalize else g
