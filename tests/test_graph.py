"""Topology construction, balance normalization, reachability."""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_reachable_graph
from coopftc.errors import BadEdgeError, IsolatedUnitError
from coopftc.graph import (BENCHMARK_TOPOLOGIES, benchmark_topology,
                           build_graph, check_balance,
                           check_source_reachability, is_positive_stable,
                           normalize_weights)


def test_star_is_identity_laplacian():
    g = build_graph(4, [], [(i, 1.0) for i in range(1, 5)])
    npt.assert_allclose(g.A_m, np.zeros((4, 4)))
    npt.assert_allclose(g.A_0, np.eye(4))
    npt.assert_allclose(g.L, np.eye(4))


def test_cyclic_rows_balance():
    ring = []
    for i in range(1, 5):
        j = i % 4 + 1
        ring += [(i, j, 0.3), (j, i, 0.3)]
    g = build_graph(4, ring, [(i, 0.4) for i in range(1, 5)])
    npt.assert_allclose((g.A_m + g.A_0).sum(axis=1), np.ones(4), atol=1e-12)
    npt.assert_allclose(g.L, g.W - g.A_m, atol=1e-15)


def test_single_unit():
    g = build_graph(1, [], [(1, 1.0)])
    npt.assert_allclose(g.L, [[1.0]])


@pytest.mark.parametrize("edges,sources", [
    ([(1, 1, 0.5)], [(1, 1.0)]),            # self-loop
    ([(1, 2, 0.5), (1, 2, 0.5)], [(1, 1.0)]),  # duplicate
    ([(1, 5, 0.5)], [(1, 1.0)]),            # out of range
    ([(1, 2, -0.1)], [(1, 1.0)]),           # negative weight
    ([], [(3, 1.0)]),                       # source index out of range
])
def test_bad_edges_rejected(edges, sources):
    with pytest.raises(BadEdgeError, match=r"^graph\.(edges|sources): "):
        build_graph(2, edges, sources)


def test_path_normalization_splits_inner_weights():
    raw = benchmark_topology("path", normalize=False)
    # unit 2 hears unit 1 and unit 3 with raw weight 1.0 each
    assert raw.W[1, 1] == 2.0
    assert check_balance(raw) == (1.0, [1, 2, 3])
    g = normalize_weights(raw)
    npt.assert_allclose(g.A_m[1, 0], 0.5)
    npt.assert_allclose(g.A_m[1, 2], 0.5)
    npt.assert_allclose(np.diag(g.W), np.ones(4), atol=1e-15)
    assert check_balance(g)[1] == []


def test_normalize_leaves_balanced_star_unchanged():
    star = benchmark_topology("star", normalize=False)
    g = normalize_weights(star)
    npt.assert_allclose(g.A_m, star.A_m)
    npt.assert_allclose(g.A_0, star.A_0)


def test_normalize_rejects_isolated_unit():
    g = build_graph(2, [], [(1, 1.0)])  # unit 2 hears nothing
    with pytest.raises(IsolatedUnitError):
        normalize_weights(g)


def test_reachability_benchmark_topologies():
    for name in ("star", "path", "cyclic"):
        assert check_source_reachability(benchmark_topology(name)) == []


def test_reachability_false_when_unit_cut_off():
    g = build_graph(2, [], [(1, 1.0), (2, 0.0)])
    assert check_source_reachability(g) == [2]


def test_reachability_follows_edge_direction():
    # edge 1<-2 does not carry information from unit 1 to unit 2
    g = build_graph(2, [(1, 2, 1.0)], [(1, 1.0)])
    assert check_source_reachability(g) == [2]
    g2 = build_graph(2, [(2, 1, 1.0)], [(1, 1.0)])
    assert check_source_reachability(g2) == []


def test_reachability_names_every_unit_a_closed_cycle_hides():
    # units 3 and 4 hear only each other, so the source reaches 1 and 2
    g = build_graph(4, [(2, 1, 1.0), (3, 4, 1.0), (4, 3, 1.0)], [(1, 1.0)])
    assert check_source_reachability(g) == [3, 4]


def test_positive_stable_identity():
    assert is_positive_stable(np.eye(3))


def test_positive_stable_fails_on_zero_row():
    g = build_graph(2, [(1, 2, 1.0)], [(1, 1.0)])
    # unit 2 has no in-weight at all: second row of L is zero
    npt.assert_allclose(g.L[1], 0.0)
    assert not is_positive_stable(g.L)


def test_positive_stable_normalized_path():
    assert is_positive_stable(benchmark_topology("path").L)


def test_benchmark_topology_names():
    assert BENCHMARK_TOPOLOGIES == ("star", "cyclic", "path")
    with pytest.raises(ValueError):
        benchmark_topology("moebius")


def test_normalization_is_idempotent():
    g1 = normalize_weights(benchmark_topology("cyclic", normalize=False))
    g2 = normalize_weights(g1)
    npt.assert_allclose(g1.A_m, g2.A_m, atol=1e-15)
    npt.assert_allclose(g1.A_0, g2.A_0, atol=1e-15)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_reachable_normalized_graphs_are_positive_stable(seed):
    g = random_reachable_graph(np.random.default_rng(seed))
    assert check_source_reachability(g) == []
    npt.assert_allclose((g.L - g.A_0) @ np.ones(g.m), 0.0, atol=1e-12)
    assert is_positive_stable(g.L)
