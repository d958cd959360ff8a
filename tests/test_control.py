"""Cooperative signals, the PI outer loop, and closed-loop assembly.

The outer gain pair is applied as (proportional 0.1, integral 90); the
two-element benchmark gain list is ordered [integral, proportional].
See the README note on the outer-loop interpretation.
"""

import numpy as np
import numpy.testing as npt
import pytest

from conftest import quiet_schedule, random_reachable_graph
from coopftc.control import (ClosedLoopState, ControlLaw, SignalSchedule,
                             build_closed_loop, closed_loop_maps,
                             closed_loop_rhs, control_input,
                             cooperative_error)
from coopftc.errors import DimensionMismatchError, IdentityCheckFailedError
from coopftc.estimator import ObserverRealization, extract_estimates
from coopftc.graph import build_graph, normalize_weights
from coopftc.linalg import is_hurwitz, solve_linear
from coopftc.plant import AgentModel, augment_network, stack_network


def test_cooperative_error_zero_at_consensus():
    g = random_reachable_graph(np.random.default_rng(43))
    e = cooperative_error(g, 1.3 * np.ones(g.m), np.array([1.3]))
    npt.assert_allclose(e, 0.0, atol=1e-12)


def test_cooperative_error_star_is_direct_offset(star_graph):
    y_hat = np.array([1.0, 2.0, 3.0, 4.0])
    e = cooperative_error(star_graph, y_hat, np.array([1.0]))
    npt.assert_allclose(e, y_hat - 1.0)


def test_cooperative_error_identity_paths():
    rng = np.random.default_rng(44)
    g = random_reachable_graph(rng)
    y_hat = rng.normal(size=g.m)
    y0 = rng.normal(size=1)
    e = cooperative_error(g, y_hat, y0)
    direct = np.kron(g.L, np.eye(1)) @ y_hat \
        - np.kron(g.A_0, np.eye(1)) @ np.repeat(y0, g.m)
    npt.assert_allclose(e, direct, atol=1e-12)


def _unbalanced_chain():
    """A chain pinned at unit 1 whose unit 2 has in-weight 0.5."""
    return build_graph(4, [(2, 1, 0.5), (3, 2, 1.0), (4, 3, 1.0)], [(1, 1.0)])


def test_control_law_refuses_unbalanced_graph():
    with pytest.raises(IdentityCheckFailedError, match=r"units \[2\]"):
        ControlLaw(graph=_unbalanced_chain(), K=np.zeros((4, 8)),
                   ell_p=0.1, ell_i=90.0)


def test_cooperative_error_on_unbalanced_graph_is_the_formula():
    """Balance is the control law's concern: the error itself is the
    paper's formula on any weights, and zero at consensus on any pinned
    graph, since L 1 = A_0 1."""
    g = _unbalanced_chain()
    rng = np.random.default_rng(45)
    y_hat, y0 = rng.normal(size=4), rng.normal(size=1)
    direct = g.L @ y_hat - g.A_0 @ np.repeat(y0, 4)
    npt.assert_allclose(cooperative_error(g, y_hat, y0), direct, atol=1e-12)
    npt.assert_allclose(cooperative_error(g, np.repeat(y0, 4), y0), 0.0,
                        atol=1e-12)


def test_cooperative_error_dimension_check(star_graph):
    with pytest.raises(DimensionMismatchError, match="y_hat"):
        cooperative_error(star_graph, np.zeros(3), np.zeros(1))
    with pytest.raises(DimensionMismatchError, match="y_hat"):
        cooperative_error(star_graph, np.zeros((2, 2, 4)), np.zeros(1))
    with pytest.raises(DimensionMismatchError, match="y0"):
        cooperative_error(star_graph, np.zeros((5, 4)), np.zeros((3, 1)))


# --- the state-level error: the per-agent block is the width of x0 ----------

def test_cooperative_error_zero_at_state_consensus(star_graph):
    x0 = np.array([0.3, -0.7])
    err = cooperative_error(star_graph, np.tile(x0, 4), x0)
    npt.assert_allclose(err, 0.0, atol=1e-12)


def test_cooperative_error_star_per_agent_offsets(star_graph):
    rng = np.random.default_rng(9)
    x = rng.normal(size=8)
    x0 = rng.normal(size=2)
    err = cooperative_error(star_graph, x, x0)
    npt.assert_allclose(err, x - np.tile(x0, 4), atol=1e-12)


def test_cooperative_error_linear_in_state(graphs):
    g = graphs["cyclic"]
    rng = np.random.default_rng(10)
    xa, xb = rng.normal(size=(2, 8))
    x0 = np.zeros(2)
    lhs = cooperative_error(g, xa + xb, x0)
    rhs = cooperative_error(g, xa, x0) + cooperative_error(g, xb, x0)
    npt.assert_allclose(lhs, rhs, atol=1e-12)


def test_batch_rows_match_vectors(graphs, loops, observer):
    """One row per sample gives, row by row, what one vector gives: the
    form the trace reconstruction relies on."""
    g = graphs["path"]
    rng = np.random.default_rng(11)
    X = rng.normal(size=(5, 8))
    x0 = rng.normal(size=2)
    batch = cooperative_error(g, X, x0)
    X0 = rng.normal(size=(5, 2))
    per_sample = cooperative_error(g, X, X0)
    for k in range(5):
        npt.assert_allclose(batch[k], cooperative_error(g, X[k], x0),
                            atol=1e-12)
        npt.assert_allclose(per_sample[k], cooperative_error(g, X[k], X0[k]),
                            atol=1e-12)

    law = loops["star"].law
    E, Q = rng.normal(size=(2, 5, 4))
    U = control_input(law, X, E, Q)
    eta = rng.normal(size=(5, 12))
    y_f = rng.normal(size=(5, 4))
    est = extract_estimates(observer, eta, y_f)
    for k in range(5):
        npt.assert_allclose(U[k], control_input(law, X[k], E[k], Q[k]),
                            atol=1e-12)
        split = extract_estimates(observer, eta[k], y_f[k])
        npt.assert_allclose(est.x_hat[k], split.x_hat, atol=1e-12)
        npt.assert_allclose(est.f_hat[k], split.f_hat, atol=1e-12)


def test_control_input_zero(loops):
    law = loops["star"].law
    u = control_input(law, np.zeros(8), np.zeros(4), np.zeros(4))
    npt.assert_allclose(u, 0.0)


def test_control_input_outer_gain_mapping(loops):
    """Proportional 0.1 acts on e, integral 90 on the accumulated q."""
    law = loops["star"].law
    e1 = np.array([1.0, 0.0, 0.0, 0.0])
    u_p = control_input(law, np.zeros(8), e1, np.zeros(4))
    npt.assert_allclose(u_p, [-0.1, 0.0, 0.0, 0.0], atol=1e-15)
    u_i = control_input(law, np.zeros(8), np.zeros(4), e1)
    npt.assert_allclose(u_i, [-90.0, 0.0, 0.0, 0.0], atol=1e-15)


def test_control_input_inner_gain_and_superposition(loops, benchmark_aug):
    law = loops["star"].law
    rng = np.random.default_rng(45)
    x_hat = benchmark_aug.E1 @ rng.normal(size=12)
    e = rng.normal(size=4)
    q = rng.normal(size=4)
    u = control_input(law, x_hat, e, q)
    ref = law.K @ x_hat - (law.ell_p * e + law.ell_i * q)
    npt.assert_allclose(u, ref, atol=1e-12)
    u_split = control_input(law, x_hat, np.zeros(4), np.zeros(4)) \
        + control_input(law, np.zeros(8), e, q)
    npt.assert_allclose(u, u_split, atol=1e-12)
    with pytest.raises(DimensionMismatchError, match="x_hat"):
        control_input(law, np.zeros(12), e, q)
    with pytest.raises(DimensionMismatchError, match="x_hat, e_bar and q"):
        control_input(law, np.zeros((3, 8)), e, q)


def test_closed_loop_dimension(loops):
    assert loops["star"].dim == 24  # 4*2 states + 4*3 observer + 4*1 integral


def test_zero_equilibrium(loops):
    rest = ClosedLoopState(x=np.zeros(8), eta=np.zeros(12), q=np.zeros(4))
    ds = closed_loop_rhs(1.0, rest, loops["star"],
                         quiet_schedule(4, setpoint=0.0))
    npt.assert_allclose(ds.packed(), 0.0, atol=0)


@pytest.mark.parametrize("name", ["star", "cyclic", "path"])
def test_homogeneous_closed_loop_hurwitz(loops, name):
    maps = closed_loop_maps(loops[name])
    assert maps.M.shape == (24, 24)
    assert is_hurwitz(maps.M)


def test_affine_maps_match_reference_rhs(loops):
    loop = loops["star"]
    maps = closed_loop_maps(loop)
    sched = quiet_schedule(4)
    rng = np.random.default_rng(46)
    z = rng.normal(size=24)
    state = ClosedLoopState.unpack(z, 8, 12)
    ref = closed_loop_rhs(0.0, state, loop, sched).packed()
    v, f_s, y0 = sched.sample(0.0)
    fast = maps.M @ z + maps.B_v @ v + maps.B_f @ f_s + maps.B_r @ y0
    npt.assert_allclose(fast, ref, atol=1e-12)


def _unit_probe_maps(loop):
    """The reference for :func:`closed_loop_maps`: one
    :func:`closed_loop_rhs` call per unit vector of ``[z | v | f_s | y0]``,
    each with its own one-row schedule, as ``[M, B_v, B_f, B_r]``."""
    net = loop.net
    cuts = np.cumsum([loop.dim, net.nbar_v, net.nbar_y])
    cols = []
    for e in np.eye(cuts[-1] + net.n_y):
        z, v, f_s, y0 = np.split(e, cuts)
        signals = SignalSchedule(times=(0.0,), v=v[None], f_s=f_s[None],
                                 y0=y0[None])
        state = ClosedLoopState.unpack(z, net.nbar_x, loop.aug.n_aug)
        cols.append(closed_loop_rhs(0.0, state, loop, signals).packed())
    return np.split(np.array(cols).T, cuts, axis=1)


def _random_explicit_loop(rng, m=3, n_x=3):
    """Random single-channel agents, a dense random observer and random
    gains: no block structure for the probe to lean on."""
    agents = [AgentModel(A=rng.normal(size=(n_x, n_x)),
                         B=rng.normal(size=(n_x, 1)),
                         C=rng.normal(size=(1, n_x)),
                         D=rng.normal(size=(n_x, 1)))
              for _ in range(m)]
    net = stack_network(agents)
    aug = augment_network(net)
    obs = ObserverRealization(
        A_obs=rng.normal(size=(aug.n_aug, aug.n_aug)),
        B_u=rng.normal(size=(aug.n_aug, m)),
        B_y=rng.normal(size=(aug.n_aug, m)),
        F2=rng.normal(size=(aug.n_aug, m)),
        n_aug=aug.n_aug, nbar_x=net.nbar_x, nbar_y=net.nbar_y)
    g = normalize_weights(build_graph(
        m, [(2, 1, 0.7), (3, 2, 1.2), (1, 3, 0.4)], [(1, 1.5)]))
    law = ControlLaw(graph=g, K=rng.normal(size=(m, net.nbar_x)),
                     ell_p=rng.uniform(0.1, 1.0, m),
                     ell_i=rng.uniform(1.0, 10.0, m))
    return build_closed_loop(net, aug, obs, law)


def _at_origin(loop):
    """One ``closed_loop_rhs`` call at zero state under zero signals."""
    net = loop.net
    signals = SignalSchedule(times=(0.0,), v=np.zeros((1, net.nbar_v)),
                             f_s=np.zeros((1, net.nbar_y)),
                             y0=np.zeros((1, net.n_y)))
    state = ClosedLoopState.unpack(np.zeros(loop.dim), net.nbar_x,
                                   loop.aug.n_aug)
    return closed_loop_rhs(0.0, state, loop, signals).packed()


def test_maps_equal_unit_vector_probes(loops):
    """The one stacked evaluation of ``closed_loop_maps`` gives, bit for
    bit, the columns of one ``closed_loop_rhs`` call per unit vector on
    the benchmark loop.  On a dense random loop the stacked products
    (BLAS gemm) and the one-state products (gemv) may round differently,
    so there the columns agree to a few ulps of the block's scale: 200
    seeds deviate by at most 2.8 eps.  On both loops the origin maps to
    exact zeros, so the probe needs no affine offset."""
    maps = closed_loop_maps(loops["star"])
    for got, want in zip((maps.M, maps.B_v, maps.B_f, maps.B_r),
                         _unit_probe_maps(loops["star"])):
        npt.assert_array_equal(got, want)
    npt.assert_array_equal(_at_origin(loops["star"]), 0.0)
    loop = _random_explicit_loop(np.random.default_rng(48))
    npt.assert_array_equal(_at_origin(loop), 0.0)
    maps = closed_loop_maps(loop)
    eps = np.finfo(float).eps
    for got, want in zip((maps.M, maps.B_v, maps.B_f, maps.B_r),
                         _unit_probe_maps(loop)):
        npt.assert_allclose(got, want, rtol=0,
                            atol=16 * eps * np.abs(want).max())


def test_zero_error_equivalent_to_consensus():
    rng = np.random.default_rng(47)
    for _ in range(5):
        g = random_reachable_graph(rng)
        y0 = rng.normal(size=1)
        # consensus => zero error
        e = cooperative_error(g, np.repeat(y0, g.m), y0)
        npt.assert_allclose(e, 0.0, atol=1e-12)
        # zero error => consensus
        rhs = np.kron(g.A_0, np.eye(1)) @ np.repeat(y0, g.m)
        y_hat = solve_linear(np.kron(g.L, np.eye(1)), rhs)
        npt.assert_allclose(y_hat, np.repeat(y0, g.m), atol=1e-8)


def test_integral_action_removes_steady_offset(quiet_traces, benchmark_net):
    y = quiet_traces["star"].x @ benchmark_net.C.T
    assert np.abs(y[-1] - 1.0).max() <= 1e-4
