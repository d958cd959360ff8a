"""Gain synthesis: generic solver, both design stages, re-verification.

Every accepted certificate is re-checked here with independent
arithmetic (rebuild the block inequality, eigendecompose) so the tests
do not trust the solver's own bookkeeping.
"""

import hashlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import (anchor_from_poles, anchor_riccati, dissipation_block,
                     farkas_check, is_negative_definite,
                     lmi_problem_reference, place_poles_gain, slow_anchor,
                     solve_lmi_reference)

from coopftc import synth
from coopftc.cli import save_matrix
from coopftc.errors import (AlphaNonPositiveError, DeltaNonPositiveError,
                            DimensionMismatchError, InfeasibleError,
                            NotSymmetricError)
from coopftc.linalg import block_diag, is_hurwitz, sym_eigvals
from coopftc.plant import AgentModel, dc_motor_agent, stack_network
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
    assert sym_eigvals(value)[-1] <= -MARGIN
    assert sol["p"][0, 0] > 0


def test_constant_lmi_provably_infeasible():
    prob = LmiProblem(variables=[], expression=lambda v: np.ones((1, 1)))
    with pytest.raises(InfeasibleError, match="provably infeasible"):
        solve_lmi(prob)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 6))
def test_asymmetric_expression_raises_not_symmetric(seed, n):
    # symmetric at zero, asymmetric in the response of h; or asymmetric
    # at zero already
    rng = np.random.default_rng(seed)
    S = rng.normal(size=(n, n))
    S = S + S.T
    U = np.triu(rng.normal(size=(n, n)), 1)
    h = [VariableSpec("h", 1, 1)]
    with pytest.raises(NotSymmetricError, match="^expression response"):
        LmiProblem(h, lambda v: S + v["h"] * U)
    with pytest.raises(NotSymmetricError, match="^expression at zero"):
        LmiProblem(h, lambda v: S + U + v["h"] * np.eye(n))


def test_nonsquare_expression_raises_dimension_mismatch():
    with pytest.raises(DimensionMismatchError, match="must be square"):
        LmiProblem([VariableSpec("h", 1, 1)],
                   lambda v: np.concatenate([v["h"], -np.ones_like(v["h"])],
                                            axis=-1))


def _capped_problem():
    """p > 0 with diag(1 - p, -0.5, -2) < 0: the constant entries cap the
    margin at 0.5, which p >= 1.5 attains."""
    return LmiProblem(
        [VariableSpec("p", 1, 1, symmetric=True, positive_definite=True)],
        lambda v: block_diag(1.0 - v["p"], -0.5, -2.0))


def test_margin_cap_is_the_largest_constant_diagonal_entry():
    # the -V block of p is 0 at zero but moves with p: it does not count
    assert _capped_problem().margin_cap == 0.5
    free = LmiProblem([VariableSpec("p", 1, 1, symmetric=True)],
                      lambda v: -v["p"])
    assert free.margin_cap == np.inf


def test_margin_at_the_cap_is_attempted():
    sol = solve_lmi(_capped_problem(), 0.5)
    assert 1.0 - sol["p"][0, 0] <= -0.5


def test_margin_above_the_cap_raises_before_iterating(monkeypatch):
    def no_eigendecomposition(*args, **kwargs):
        raise AssertionError("solve_lmi iterated")

    monkeypatch.setattr(synth.np.linalg, "eigh", no_eigendecomposition)
    monkeypatch.setattr(synth.np.linalg, "eigvalsh", no_eigendecomposition)
    with pytest.raises(InfeasibleError,
                       match="provably infeasible.*cap.* 5.000e-01$"):
        solve_lmi(_capped_problem(), 0.5 + 1e-12)


# --- stacked probe against the per-coordinate reference --------------------

def _same_problem(ours, ref):
    """Every field the probe sets equals the reference's."""
    assert ours.coords == ref.coords and ours.block_sizes == ref.block_sizes
    assert np.array_equal(ours.offsets, ref.offsets)
    assert np.array_equal(ours.base, ref.base)
    assert np.array_equal(ours.A, ref.A)
    assert (ours.pinv is None) == (ref.pinv is None)
    assert ref.pinv is None or np.array_equal(ours.pinv, ref.pinv)
    assert ours.margin_cap == ref.margin_cap


def _probe_outcome(build):
    """The problems ``build()`` returns, or the type and message of the
    error it raises."""
    try:
        return build()
    except (NotSymmetricError, DimensionMismatchError) as exc:
        return type(exc), str(exc)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 4), st.integers(1, 2),
       st.integers(1, 2), st.integers(1, 4), st.booleans())
def test_stacked_probe_matches_the_per_coordinate_reference(seed, n, n_y, n_u,
                                                            k, decay):
    """Both stages' problems, built as one stack per layout (anchored and
    strip agents mixed), equal the per-coordinate reference field for
    field; a fault in agent ``bad``'s expression raises the reference's
    first error, naming the same probe."""
    rng = np.random.default_rng(seed)
    delta, alpha = rng.uniform(0.05, 2.0, size=2)
    F1A, A = rng.normal(size=(2, k, n, n))
    E2, B, D = (rng.normal(size=(k,) + shape)
                for shape in ((n_y, n), (n, n_u), (n, 1)))
    strip = rng.random(k) < 0.5
    observer = [VariableSpec("P", n, n, symmetric=True,
                             positive_definite=True), VariableSpec("H", n, n_y)]
    feedback = [VariableSpec("R", n, n, symmetric=True,
                             positive_definite=True), VariableSpec("G", n_u, n)]

    def pi(v, at):
        return synth.observer_inequality(v["P"], v["H"], F1A[at], E2[at],
                                         D[at], delta, decay=decay)

    def lam(v, at):
        return synth.feedback_inequality(v["R"], v["G"], A[at], B[at], D[at],
                                         alpha, delta, strip=strip[at].all())

    # one more constant diagonal entry, of each agent its own
    corner = -rng.uniform(0.001, 0.5, size=(k, 1, 1))

    def capped(v, at):
        return block_diag(pi(v, at), corner[at])

    for variables, expression, rows in (
            (observer, pi, np.arange(k)),
            (observer, capped, np.arange(k)),
            (feedback, lam, np.flatnonzero(strip)),
            (feedback, lam, np.flatnonzero(~strip))):
        stacked = LmiProblem.stack(
            variables, lambda v: expression(v, (rows, None)), len(rows))
        for problem, row in zip(stacked, rows):
            _same_problem(problem, lmi_problem_reference(
                variables, lambda v: expression(v, row)))

    # an asymmetric term in one agent's block: in the response of one
    # coordinate, everywhere, or in the response of every H coordinate;
    # or a non-square block
    bad = rng.integers(k)
    H = (rng.integers(n), rng.integers(n_y))
    U = np.zeros((k,) + pi({"P": np.eye(n), "H": np.ones((n, n_y))},
                           0).shape)
    U[bad, 0, -1] = 1.0

    def skewed(v, at):
        kind = seed % 3
        scale = (v["H"][..., H[0], H[1], None, None] if kind == 0
                 else 1.0 if kind == 1
                 else v["H"].sum(axis=(-2, -1))[..., None, None])
        return pi(v, at) + scale * U[at]

    def wide(v, at):
        block = pi(v, at)
        return np.concatenate([block, block[..., :1]], axis=-1)

    for fault in (skewed, wide):
        ours = _probe_outcome(lambda: LmiProblem.stack(
            observer, lambda v: fault(v, (slice(None), None)), k))
        ref = None
        for row in range(k):
            ref = _probe_outcome(lambda: lmi_problem_reference(
                observer, lambda v: fault(v, row)))
            if isinstance(ref, tuple):
                break
        assert isinstance(ref, tuple) and ours == ref


@pytest.mark.parametrize("variables, expression", [
    ([], lambda v: -np.eye(2)),
    ([VariableSpec("p", 2, 2, symmetric=True, positive_definite=True)],
     lambda v: np.diag([-1.0, 0.5])),
])
def test_constant_problems_match_the_per_coordinate_reference(variables,
                                                              expression):
    """No variables, or variables the expression ignores."""
    _same_problem(LmiProblem(variables, expression),
                  lmi_problem_reference(variables, expression))


# --- lockstep kernel against the single-problem reference ------------------

def _random_observer_problem(rng, n, delta, shift=2.0):
    """An agent-sized observer LMI (decay block appended) on a random
    plant ``0.5 N - shift I``: feasible for large ``delta`` and
    ``shift``, infeasible or capped for small."""
    A = 0.5 * rng.normal(size=(n, n)) - shift * np.eye(n)
    E = rng.normal(size=(1, n))
    D = rng.normal(size=(n, 1))
    return LmiProblem(
        [VariableSpec("P", n, n, symmetric=True, positive_definite=True),
         VariableSpec("H", n, 1)],
        lambda v: synth.observer_inequality(v["P"], v["H"], A, E, D, delta,
                                            decay=True))


def _reference_outcome(*args):
    """The reference's assignment, or the InfeasibleError it raises."""
    try:
        return solve_lmi_reference(*args)
    except InfeasibleError as exc:
        return exc


def _outcome_kind(result):
    if not isinstance(result, InfeasibleError):
        return "feasible"
    for kind in ("certified", "cap", "stagnated", "budget"):
        if kind in str(result):
            return kind
    return "other"


ALL_OUTCOMES = {"feasible", "cap", "certified", "stagnated", "budget"}

#: (seed, margin, max_iterations, warm start, outcomes reached): each
#: stack mixes agents of two sizes with deltas 0.02, 0.1, 0.3 and 1.0,
#: plus one constant problem.
KERNEL_CASES = [
    (0, 0.01, 1500, False, ALL_OUTCOMES),
    (1, 1e-6, 40, False, {"feasible", "certified", "budget"}),
    # a rung above the base solutions
    (2, 0.01, 800, True, ALL_OUTCOMES),
    (11, 0.01, 1500, False, ALL_OUTCOMES),
]


def _kernel_stack(seed, warm):
    """The problems and warm starts of a ``KERNEL_CASES`` stack."""
    rng = np.random.default_rng(seed)
    problems = [_random_observer_problem(rng, n, delta)
                for n in (2, 3) for _ in range(3)
                for delta in (0.02, 0.1, 0.3, 1.0)]
    problems.append(LmiProblem([], lambda v: -np.eye(2)))
    initials = [None] * len(problems)
    if warm:
        initials = [_reference_outcome(problem, MARGIN, 400)
                    for problem in problems]
        initials = [None if isinstance(initial, InfeasibleError)
                    else initial for initial in initials]
    return problems, initials


@pytest.mark.parametrize("seed, margin, max_iterations, warm, kinds",
                         KERNEL_CASES)
def test_lockstep_kernel_matches_the_reference(seed, margin, max_iterations,
                                               warm, kinds, monkeypatch):
    """Every problem of a stack that the dual solve does not certify ends
    exactly as it does alone in the reference loop: at the same step,
    with the same assignment bit for bit or the same InfeasibleError
    message.  The projection iteration makes no Farkas test: the
    reference makes one ``eigh`` and one ``eigvalsh`` per block and step,
    as the kernel does.  A certified problem takes no projection step,
    and the reference does not solve it."""
    problems, initials = _kernel_stack(seed, warm)

    def no_farkas_test(*args):
        raise AssertionError("the projection iteration tested a certificate")

    douglas_rachford = synth._douglas_rachford

    def primal_only(*args):
        with mock.patch.object(synth, "_farkas_radius", no_farkas_test):
            return douglas_rachford(*args)

    monkeypatch.setattr(synth, "_douglas_rachford", primal_only)
    outcomes = synth._solve_batch(problems, margin, max_iterations, initials)
    calls = {}

    def counted(name):
        function = getattr(np.linalg, name)

        def call(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)
        return call

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, counted(name))
    for problem, initial, (result, steps) in zip(problems, initials,
                                                 outcomes):
        calls.update(eigh=0, eigvalsh=0)
        expected = _reference_outcome(problem, margin, max_iterations,
                                      initial)
        if _outcome_kind(result) == "certified":
            assert steps == 0
            assert isinstance(expected, InfeasibleError)
            continue
        blocks = len(problem.block_sizes)
        assert calls["eigvalsh"] == steps * blocks
        if steps:  # a constant problem takes one eigh and no step
            assert calls["eigh"] == steps * blocks
        if isinstance(expected, InfeasibleError):
            assert isinstance(result, InfeasibleError)
            assert str(result) == str(expected)
        else:
            assert result.keys() == expected.keys()
            for name in expected:
                assert np.array_equal(result[name], expected[name])
    assert {_outcome_kind(result) for result, _ in outcomes} == kinds


def _dual_records(problems, margin, initials):
    """``synth._dual_solve`` on the problems that ``synth._solve_batch``
    hands it, grouped by layout: one record per problem, None for the
    problems decided before it."""
    records = [None] * len(problems)
    layouts = {}
    for j, problem in enumerate(problems):
        if problem.coords and margin <= problem.margin_cap:
            layouts.setdefault(len(problem.coords), []).append(j)
    for members in layouts.values():
        for j, record in zip(members, synth._dual_solve(
                [problems[j] for j in members], margin,
                [initials[j] for j in members])):
            records[j] = record
    return records


def _same_record(a, b):
    if a is None or b is None:
        return a is b
    return (a[0] == b[0]
            and all(np.array_equal(x, y, equal_nan=True)
                    for x, y in zip(a[1:], b[1:])))


@pytest.mark.parametrize("seed, margin, max_iterations, warm, kinds",
                         KERNEL_CASES)
def test_stacked_dual_solve_matches_solves_alone(seed, margin,
                                                 max_iterations, warm, kinds):
    """Each problem of a stack gets from the stacked dual solve, bit for
    bit, the record a dual solve of that problem alone gives: its Newton
    steps, radius, dual objective and dual matrix.  Every stack holds
    problems that are certified and problems found feasible; at margin
    0.01 those with delta 0.1 (cap 0.01) sit on the boundary, and their
    iterates break down: LAPACK rejects a matrix, the step is redone one
    problem at a time, and they retire with non-finite iterates.  With
    warm starts, the problems whose start already meets the floors are
    not solved."""
    problems, initials = _kernel_stack(seed, warm)
    stacked = _dual_records(problems, margin, initials)
    for j, record in enumerate(stacked):
        (alone,) = _dual_records([problems[j]], margin, [initials[j]])
        assert _same_record(record, alone)
    solved = [record for record in stacked if record is not None]
    assert all(1 <= record[0] <= synth.DUAL_STEPS for record in solved)
    certified = [record[1] > synth.FARKAS_RADIUS for record in solved]
    assert any(certified) and not all(certified)
    if warm:  # the ladder's warm starts skip the solve
        assert len(solved) < len(problems) - 1 - 6  # six are capped


def test_dual_solve_survives_a_lapack_failure(monkeypatch):
    """When LAPACK rejects a matrix of a stacked Newton step, the step is
    redone one problem at a time: the rejected problem retires with a
    non-finite iterate, and every other one keeps the record of its
    solve alone.  Nothing raises."""
    rng = np.random.default_rng(5)
    problems = [_random_observer_problem(rng, 2, delta)
                for delta in (0.1, 0.3, 1.0)]
    alone = [synth._dual_solve([problem], 0.01, [None])[0]
             for problem in problems]
    newton_step = synth._newton_step

    def rejecting(X, w, A, *args):
        if any(np.array_equal(a, problems[1].A) for a in A):
            raise np.linalg.LinAlgError("rejected")
        return newton_step(X, w, A, *args)

    monkeypatch.setattr(synth, "_newton_step", rejecting)
    records = synth._dual_solve(problems, 0.01, [None] * 3)
    assert records[1][0] == 1 and np.isnan(records[1][3]).all()
    for j in (0, 2):
        assert _same_record(records[j], alone[j])


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 3),
       st.sampled_from([0.0, 0.5, 1.0, 2.0]), st.sampled_from([0.1, 0.3]),
       st.sampled_from([MARGIN, 0.01]))
def test_farkas_certificates_verify_and_spare_solvable_problems(
        seed, n, shift, delta, margin):
    """A problem the reference solves is never certified, and keeps its
    assignment bit for bit.  A certified problem takes no projection
    step, and the dual matrix behind its certificate re-verifies from
    scratch (``farkas_check``): its blocks are PSD and its radius clears
    ``FARKAS_RADIUS``, equal to the reported one."""
    problem = _random_observer_problem(np.random.default_rng(seed), n,
                                       delta, shift)
    plain = _reference_outcome(problem, margin, 800, None)
    recorded = []
    dual_solve = synth._dual_solve

    def recording(*args):
        records = dual_solve(*args)
        recorded.extend(records)
        return records

    with mock.patch.object(synth, "_dual_solve", recording):
        ((result, steps),) = synth._solve_batch([problem], margin, 800,
                                                [None])
    if not isinstance(plain, InfeasibleError):
        assert result.keys() == plain.keys()
        for name in plain:
            assert np.array_equal(result[name], plain[name])
    if _outcome_kind(result) == "certified":
        ((newton_steps, radius, _, x),) = recorded
        assert steps == 0
        assert f"({newton_steps} Newton steps): " in str(result)
        assert f"|y| < {radius:.3e} " in str(result)
        check, psd = farkas_check(problem, margin, x)
        assert psd >= -1e-13
        assert check > synth.FARKAS_RADIUS
        assert check == pytest.approx(radius, rel=1e-6)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 3), st.floats(0.0, 2.0),
       st.sampled_from([0.1, 0.3]), st.sampled_from([MARGIN, 0.01]))
def test_dual_solve_certifies_only_unsolvable_problems(seed, n, shift, delta,
                                                       margin):
    """Over random observer problems, the dual solve never certifies a
    problem that the reference projection iteration solves, and every
    certificate it returns passes ``farkas_check`` above
    ``FARKAS_RADIUS``.  No solve takes more than ``DUAL_STEPS`` Newton
    steps."""
    problem = _random_observer_problem(np.random.default_rng(seed), n,
                                       delta, shift)
    assume(margin <= problem.margin_cap)
    ((steps, radius, _, x),) = synth._dual_solve([problem], margin, [None])
    assert 1 <= steps <= synth.DUAL_STEPS
    if radius > synth.FARKAS_RADIUS:
        assert isinstance(_reference_outcome(problem, margin, 800, None),
                          InfeasibleError)
        check, psd = farkas_check(problem, margin, x)
        assert psd >= -1e-13
        assert check > synth.FARKAS_RADIUS


def test_ladder_reports_the_first_failing_agent(monkeypatch):
    """Agents 2 and 4 fail their base solve (agent 4 at once, above its
    cap; agent 2 only after its iteration stalls): the error names agent
    2, and no rung runs for the others."""
    rng = np.random.default_rng(3)
    deltas = (1.0, 0.1, 0.3, 0.05)
    problems = [_random_observer_problem(rng, 2, delta) for delta in deltas]
    expected = f"agent 2 of 4: {_reference_outcome(problems[1], 0.01, 1500)}"
    assert "stagnated" in expected
    with pytest.raises(InfeasibleError, match="provably infeasible"):
        solve_lmi_reference(problems[3], 0.01, 1500)

    log = _logged_solves(monkeypatch)
    with pytest.raises(InfeasibleError) as excinfo:
        synth._solve_block(problems, 0.01, 1500, "agent {} of 4",
                           [None] * 4)
    assert str(excinfo.value) == expected
    assert [entry[1] for entry in log] == [0.01] * 4  # the base solve only


def _reference_batch(problems, margin, max_iterations, initials):
    """``synth._solve_batch`` with every problem solved alone by the
    reference loop."""
    return [(_reference_outcome(problem, margin, max_iterations, initial),
             None) for problem, initial in zip(problems, initials)]


def test_mixed_layout_controller_matches_per_agent_solves(benchmark_net,
                                                          monkeypatch):
    """Agents 2 and 4 get no anchor, so the controller's solve holds two
    block layouts (anchored, and strip-boxed with two more blocks): the
    gains equal those of solving every agent alone, bit for bit."""
    slow_anchors = synth._slow_anchors

    def every_other_anchor(*args):
        return [anchor if i % 2 == 0 else None
                for i, anchor in enumerate(slow_anchors(*args))]

    monkeypatch.setattr(synth, "_slow_anchors", every_other_anchor)
    log = _logged_solves(monkeypatch)
    batched = synth_controller(benchmark_net, 0.2, 0.3)
    base = [problem for problem, margin, *_ in log if margin == MARGIN]
    # the strip's two diagonal blocks grow Lambda from 6 to 10 rows
    assert [problem.block_sizes for problem in base] == [[6, 2], [10, 2]] * 2
    monkeypatch.setattr(synth, "_solve_batch", _reference_batch)
    alone = synth_controller(benchmark_net, 0.2, 0.3)
    for name in ("R", "G", "K"):
        assert np.array_equal(getattr(batched, name), getattr(alone, name))


# --- observer stage ---------------------------------------------------------

def test_observer_benchmark_feasible(benchmark_aug, benchmark_net,
                                     observer_synth):
    s = observer_synth
    assert s.margin >= MARGIN
    pi = _observer_block(benchmark_aug, benchmark_net, s.P, s.H, s.delta)
    assert sym_eigvals(pi)[-1] <= -MARGIN
    assert sym_eigvals(s.P)[0] > 0
    # gain definition P Lgain = H
    resid = np.abs(s.P @ s.Lgain - s.H).max()
    assert resid <= 1e-9 * max(1.0, np.abs(s.H).max())
    A_err = benchmark_aug.F1 @ benchmark_aug.A_a - s.Lgain @ benchmark_aug.E2
    assert is_hurwitz(A_err)
    # the margin is the one of the block at the returned gain
    at_gain = _observer_block(benchmark_aug, benchmark_net, s.P,
                              s.P @ s.Lgain, s.delta)
    assert s.margin == -sym_eigvals(at_gain)[-1]


def test_observer_probes_each_agent_block_once(benchmark_aug, benchmark_net,
                                              monkeypatch):
    """Every agent's affine family is probed by one stacked call of the
    inequality: one (agent, probe) matrix each at zero and at each scalar
    coordinate of P and H, however many ladder rungs the agents climb."""
    probes = []
    inequality = synth.observer_inequality

    def counted_inequality(*args, decay=False):
        out = inequality(*args, decay=decay)
        if decay:  # the per-agent expression; re-verification has none
            probes.append((args[0].shape, out.shape[:-2]))
        return out

    monkeypatch.setattr(synth, "observer_inequality", counted_inequality)
    log = _logged_solves(monkeypatch)
    synth_observer(benchmark_aug, benchmark_net, 0.3)

    net = benchmark_net
    n = benchmark_aug.n_aug // net.m
    coordinates = n * (n + 1) // 2 + n * net.n_y
    assert probes == [((1 + coordinates, n, n), (net.m, 1 + coordinates))]
    assert len(log) > net.m  # rungs were climbed beyond the base solves


def _logged_solves(monkeypatch):
    """Patch the batched solve to log ``(problem, margin, cap, iterations,
    ok)`` per problem and call, from the kernel's own outcome."""
    log = []
    solve_batch = synth._solve_batch

    def logged(problems, margin, *args):
        outcomes = solve_batch(problems, margin, *args)
        log.extend((problem, margin, problem.margin_cap, iterations,
                    not isinstance(result, InfeasibleError))
                   for problem, (result, iterations) in zip(problems,
                                                            outcomes))
        return outcomes

    monkeypatch.setattr(synth, "_solve_batch", logged)
    return log


def _per_agent(log):
    """``(margin, cap, iterations, ok)`` per solve, grouped by agent (in
    the order the agents were first solved) and rung."""
    agents = {}
    for problem, *entry in log:
        agents.setdefault(problem, []).append(tuple(entry))
    return [entry for entries in agents.values() for entry in entries]


def test_observer_skips_rungs_above_the_cap(benchmark_aug, benchmark_net,
                                            monkeypatch, tmp_path):
    """The constant -delta^2 I block caps every agent's margin at
    delta^2 = 0.09: the 0.1 rung fails without iterating, the rungs
    below it run as before, and each agent's ladder stops where it always
    did, so the gain files keep their bytes.  Motor 4's 0.03 rung fails
    without iterating too: the dual solve certifies it infeasible."""
    logged = _logged_solves(monkeypatch)
    s = synth_observer(benchmark_aug, benchmark_net, 0.3)
    log = _per_agent(logged)

    assert {cap for _, cap, _, _ in log} == {0.3 ** 2}
    assert [(margin, ok) for margin, _, _, ok in log] == \
        [(MARGIN, True), (0.03, True), (0.1, False)] * 3 \
        + [(MARGIN, True), (0.03, False)]
    for margin, cap, iterations, ok in log:
        if margin > cap:
            assert iterations == 0
        elif ok:
            assert iterations == 1
        else:  # the dual solve certifies motor 4's 0.03 rung
            assert iterations == 0

    digests = []
    for name, M in (("gain", s.Lgain), ("storage", s.P)):
        save_matrix(tmp_path / name, M)
        digests.append(hashlib.md5((tmp_path / name).read_bytes()).hexdigest())
    assert digests == ["79b7a6dd0458f97d7eaa147e82d8ab6b",
                       "74c54572d7fb4bf6cca789a6aa33f911"]


def test_observer_rungs_iterate_in_lockstep(monkeypatch):
    """On a stack that iterates for long, the nine n = 2 problems of a
    ``KERNEL_CASES`` stack below their caps at margin 0.01 (five run for
    500 steps or more, three of them to the 1,500-step budget; the dual
    solve certifies one of those three), ``_douglas_rachford`` makes one
    stacked ``eigh`` per block and step of its longest-running problem,
    not one per problem and step: the batching shows as an operation
    count, which wall time on a shared host cannot pin."""
    problems, _ = _kernel_stack(0, False)
    problems = [problem for problem in problems
                if problem.coords and len(problem.coords) == 5
                and 0.01 <= problem.margin_cap]
    stacked = [0]
    eigh = np.linalg.eigh

    def counted_eigh(a, *args, **kwargs):
        stacked[0] += np.ndim(a) == 3
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(synth.np.linalg, "eigh", counted_eigh)
    outcomes = synth._douglas_rachford(problems, 0.01, 1500,
                                       [None] * len(problems))
    steps = [iterations for _, iterations in outcomes]

    blocks = 2  # the expression and the -P block
    assert stacked[0] == blocks * max(steps)
    assert sum(step >= 500 for step in steps) == 5
    assert steps.count(1500) == 3
    assert stacked[0] < blocks * sum(steps) / 1.5


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
    assert sym_eigvals(lam)[-1] <= -MARGIN
    assert sym_eigvals(s.R)[0] > 0
    resid = np.abs(s.K @ s.R - s.G).max()
    assert resid <= 1e-9 * max(1.0, np.abs(s.G).max())
    assert is_hurwitz(benchmark_net.A + benchmark_net.B @ s.K)
    # the margin is the one of the block at the returned gain
    at_gain = _feedback_block(benchmark_net, s.R, s.K @ s.R, s.alpha,
                              s.delta)
    assert s.margin == -sym_eigvals(at_gain)[-1]


def test_controller_gamma_consistent(controller_synth):
    s = controller_synth
    lam_max = sym_eigvals(s.K.T @ s.K)[-1]
    assert s.gamma ** 2 >= (s.alpha * lam_max + 1.0) * s.delta ** 2 - 1e-12
    assert s.gamma >= s.delta


def test_controller_schur_equivalence(benchmark_net, controller_synth):
    """Pre-elimination 3x3 form and the 4x4 form agree at the solution,
    and so do the dissipation inequality at (R^{-1}, K) and the 4x4 form
    at the returned gain, which the synthesis re-verifies."""
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
    Q = np.linalg.inv(s.R)
    diss = dissipation_block(0.5 * (Q + Q.T), s.K, net.A, net.B, net.D,
                             s.alpha, s.delta)
    assert is_negative_definite(diss)
    assert is_negative_definite(
        _feedback_block(net, s.R, s.K @ s.R, s.alpha, s.delta))


def test_controller_scalar_unstable_plant():
    agent = AgentModel(A=np.array([[1.0]]), B=np.array([[1.0]]),
                       C=np.array([[1.0]]), D=np.array([[1.0]]))
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
    monkeypatch.setattr(synth, "_slow_anchors",
                        lambda A, *args: [None] * len(A))
    s = synth_controller(benchmark_net, 0.2, 0.3)
    lam = _feedback_block(benchmark_net, s.R, s.G, s.alpha, s.delta)
    assert sym_eigvals(lam)[-1] <= -MARGIN
    rates = np.linalg.eigvals(benchmark_net.A + benchmark_net.B @ s.K).real
    assert np.all((rates > -8.0) & (rates < -2.0))


@pytest.mark.parametrize("alpha, cap", [(0.2, 0.09), (0.05, 0.05)])
def test_controller_margin_cap(benchmark_net, monkeypatch, alpha, cap):
    """The constant -I, -alpha I and -delta^2 I blocks of Lambda cap the
    margin at min(1, alpha, delta^2)."""
    log = _logged_solves(monkeypatch)
    synth_controller(benchmark_net, alpha, 0.3)
    assert {entry[2] for entry in log} == {cap}


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 4))
def test_placing_gain_matches_place_poles(seed, n):
    """Single input: the placing gain is unique, so the stacked column
    solves and ``scipy.signal.place_poles`` agree.  Checked by hand on
    every seed: the gains differ by at most 1.1e-10 relative and the
    placed eigenvalues by 3.5e-8 relative, on 35,514 drawn pairs."""
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n, n))
    B = rng.normal(size=(n, 1))
    poles = -np.cumsum(rng.uniform(0.5, 3.0, size=n))
    ctrb = np.hstack([np.linalg.matrix_power(A, k) @ B for k in range(n)])
    assume(np.linalg.cond(ctrb) < 100.0)
    assume(np.abs(np.linalg.eigvals(A)[:, None] - poles).min() > 0.1)

    ok, (K0,) = synth._placing_gains(A[None], B[None], poles[None])
    assert ok.tolist() == [True]
    placed = np.sort_complex(np.linalg.eigvals(A + B @ K0))
    scale = np.abs(poles).max()
    assert np.abs(placed - np.sort(poles)).max() <= 1e-6 * scale
    expected = place_poles_gain(A, B, poles)
    assert np.abs(K0 - expected).max() <= 1e-9 * np.abs(expected).max()


@st.composite
def _agent_stacks(draw):
    """A stack of 1-4 random controllable agents of one shape (n_x 1-4,
    n_u 1-2, one disturbance channel of drawn scale), with alpha and
    delta; about a third of such agents get no anchor."""
    n, n_u, k = (draw(st.integers(1, 4)), draw(st.integers(1, 2)),
                 draw(st.integers(1, 4)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    A = rng.normal(size=(k, n, n))
    B = rng.normal(size=(k, n, n_u))
    D = rng.normal(size=(k, n, 1)) * rng.choice([0.0, 0.1, 1.0, 10.0],
                                                size=(k, 1, 1))
    for Ai, Bi in zip(A, B):
        ctrb = np.hstack([np.linalg.matrix_power(Ai, j) @ Bi
                          for j in range(n)])
        assume(np.linalg.cond(ctrb) < 1e8)
    return (A, B, D, draw(st.sampled_from([0.05, 0.2, 1.0])),
            draw(st.sampled_from([0.1, 0.3, 1.0])))


@settings(max_examples=30, deadline=None)
@given(_agent_stacks())
def test_anchor_bisection_matches_the_reference(stack):
    """Every agent of a stack gets the anchor of its own per-agent
    bisection in ``tests/oracles.py``: no anchor for the same agents, and
    R and G within 1e-12 relative.  (They agree bit for bit here: the
    stacked LAPACK calls compute each agent as the single calls do.)"""
    A, B, D, alpha, delta = stack
    anchors = synth._slow_anchors(A, B, D, alpha, delta)
    expected = [slow_anchor(*agent, alpha, delta) for agent in zip(A, B, D)]
    assert [a is None for a in anchors] == [e is None for e in expected]
    for anchor, reference in zip(anchors, expected):
        if reference is not None:
            for name in ("R", "G"):
                error = np.abs(anchor[name] - reference[name]).max()
                assert error <= 1e-12 * np.abs(reference[name]).max()


def test_anchor_probe_rejects_a_pole_on_the_spectrum():
    """A pole exactly on an eigenvalue of agent 2's A makes its placement
    singular: agent 2 fails the probe, without an error for the stack,
    and agents 1 and 3 get the results of probing them alone.  Moved
    off that eigenvalue, agent 2 passes."""
    A = np.array([[[0.0, 1.0], [-6.0, -1.0]],
                  [[-2.0, 1.0], [0.0, -1.0]],  # eigenvalue -2
                  [[1.0, 0.5], [0.0, -1.0]]])
    B = np.array([[[0.0], [1.0]], [[1.0], [1.0]], [[0.2], [1.0]]])
    D = np.full((3, 2, 1), 0.1)
    alpha, delta = 0.2, 0.3
    NNt = B @ B.mT / alpha + D @ D.mT / delta ** 2
    poles = np.array([[-2.0, -3.4]] * 3)

    ok, K0, Q = synth._anchor_probe(A, B, NNt, poles)
    assert ok.tolist() == [True, False, True]
    assert anchor_from_poles(A[1], B[1], D[1], alpha, delta, poles[1]) is None
    for row, i in enumerate((0, 2)):
        solo = synth._anchor_probe(A[i:i + 1], B[i:i + 1], NNt[i:i + 1],
                                   poles[i:i + 1])
        assert solo[0].tolist() == [True]
        assert np.array_equal(K0[row], solo[1][0])
        assert np.array_equal(Q[row], solo[2][0])
    A[1, 0, 0] = -2.0001
    assert synth._anchor_probe(A, B, NNt, poles)[0].tolist() == [True] * 3


def test_riccati_test_of_an_agent_does_not_depend_on_its_stack():
    """The Hamiltonian of agent 1 has a real spectrum, that of agent 2 a
    complex one, so their stacked ``eig`` returns complex vectors for
    both.  Each agent's Riccati solution is still the one it gets alone
    (agent 1's in real arithmetic), bit for bit."""
    Acl = np.array([[[-3.3, 0.1], [-0.4, -3.1]],
                    [[-4.1, -0.4], [2.3, -3.1]]])
    NNt = np.array([[[0.29, -0.69], [-0.69, 1.7]],
                    [[0.85, 0.03], [0.03, 0.1]]])
    ok, Q = synth._anchor_riccati(Acl, NNt)
    assert ok.tolist() == [True, True]
    for i in range(2):
        alone = synth._anchor_riccati(Acl[i:i + 1], NNt[i:i + 1])[1][0]
        assert np.array_equal(Q[i], alone)
        assert np.array_equal(Q[i], anchor_riccati(Acl[i], NNt[i]))


def test_anchor_bisection_runs_in_lockstep(monkeypatch):
    """On an 8-agent fleet (motors 1-4 twice) the bisection makes one
    stacked Hamiltonian ``eig`` per probe round: as many as the slowest
    agent's probes, not one per agent and probe.  The stacks hold every
    probe the per-agent reference makes, each once."""
    net = stack_network([dc_motor_agent(i % 4 + 1) for i in range(8)])
    A, B, D = (synth._agent_blocks(M, 8) for M in (net.A, net.B, net.D))
    eig, shapes = np.linalg.eig, []

    def counted_eig(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eig(a, *args, **kwargs)

    monkeypatch.setattr(synth.np.linalg, "eig", counted_eig)
    per_agent = []
    for agent in zip(A, B, D):
        shapes.clear()
        slow_anchor(*agent, 0.2, 0.3)
        per_agent.append(len(shapes))
    shapes.clear()
    synth_controller(net, 0.2, 0.3)

    stacks = [shape[0] for shape in shapes if len(shape) == 3]
    assert sum(per_agent) == 356
    assert sum(stacks) == sum(per_agent)
    assert len(stacks) == max(per_agent) == 45


def test_two_input_agent_gain_from_the_anchor(monkeypatch):
    """A 2-input agent is placed by the anchor, not the strip fallback,
    and its gain passes re-verification.  The anchored solve keeps the
    anchor's R and Lambda but not its G: G -> sym(B G) has a kernel when
    n_u > 1, and the least-squares step drops that component."""
    A = np.array([[0.0, 1.0, 0.0], [0.0, -1.0, 1.0], [0.5, 0.0, -2.0]])
    B = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    D = np.array([[0.0], [0.1], [0.1]])
    net = stack_network([AgentModel(A=A, B=B, C=np.array([[1.0, 0.0, 0.0]]),
                                    D=D)])
    anchors = []
    slow_anchors = synth._slow_anchors

    def recorded(*args):
        anchors.extend(slow_anchors(*args))
        return anchors

    monkeypatch.setattr(synth, "_slow_anchors", recorded)
    s = synth_controller(net, 0.2, 0.3)

    (anchor,) = anchors
    assert anchor is not None
    np.testing.assert_allclose(s.R, anchor["R"], rtol=1e-12)
    lam = synth.feedback_inequality(s.R, s.K @ s.R, A, B, D, 0.2, 0.3)
    assert synth._reverify("feedback", lam, MARGIN, "R",
                           s.R) == pytest.approx(s.margin)
    assert is_hurwitz(A + B @ s.K)


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
