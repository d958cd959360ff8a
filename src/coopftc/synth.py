"""Gain synthesis by linear matrix inequalities.

Two feasibility problems are solved, one per loop:

* observer: find ``P > 0`` and ``H`` with

      Pi(P, H) = [[Delta, P F1 D], [*, -delta^2 I]] < 0,
      Delta = P F1 A_a + (F1 A_a)' P - H E2 - E2' H' + I,

  then the injection gain is ``L = P^{-1} H``.  This certifies that the
  augmented estimation error decays with disturbance attenuation
  ``delta`` in the L2 sense.

* state feedback: find ``R > 0`` and ``G`` with

      Lambda(R, G) = [[AR + RA' + BG + G'B',  R,   -B,      D     ],
                      [*,                    -I,    0,      0     ],
                      [*,                     *,  -alpha I, 0     ],
                      [*,                     *,    *,   -delta^2 I]] < 0,

  then ``K = G R^{-1}`` and the surrogate attenuation level follows
  from :func:`gamma_bound`.

The solver is a projection method: candidate block matrices are driven
into the negative-semidefinite cone (projection by eigenvalue clipping)
while staying on the affine family spanned by the decision variables
(projection by least squares), combined through a reflected
Douglas-Rachford iteration, which converges far faster here than plain
alternating projections.  Strictness is enforced by embedding margins
into the target, and a short ladder of increasing margins pushes the
accepted point into the interior of the feasible set.  Each agent's
problem reads only its own blocks, so agents whose blocks have the same
bytes are one model, and each stage builds, anchors and solves one
problem per distinct model (the first agent of each, in agent order);
every agent of a model gets its solution.  The models' affine families
are probed once, as their problems are built, by one call of the
inequality per block layout on a stack over models and probes
(:meth:`LmiProblem.stack`); the margin is an argument of the solve, so
every ladder rung solves the same problem.  The problems are
independent and share one shape, so the base solve and each rung run
in lockstep across models: one stacked iteration over every model
still climbing, in which each keeps its own warm start, stall counter
and margin cap and leaves the stack when it converges or gives up.
Every step is elementwise over the stack, so each model ends exactly
where a solve of its own would.  When base solves fail, the first
failing agent is reported: the first agent of the first failing
model.
The probe also yields the margin cap: a diagonal entry no variable
touches bounds ``lambda_max`` from below, so the constant
``-delta^2 I`` block of ``Pi`` caps its margin at ``delta^2``, and the
``-I``, ``-alpha I``, ``-delta^2 I`` blocks of ``Lambda`` cap its
margin at ``min(1, alpha, delta^2)``.  A rung above the cap fails at
once instead of running to the stall cutoff.  Every accepted solution
is re-verified from scratch, independent of the iteration that
produced it: the network-level block is rebuilt at the returned gain,
``Pi(P, P L)`` or ``Lambda(R, K R)``, and its largest eigenvalue and the
storage's smallest are tested.  The (1,1) block of each is a Lyapunov
inequality for the loop the gain closes, ``P A_o + A_o' P + I`` (with
``A_o = F1 A_a - L E2``) and ``(A + B K) R + R (A + B K)'``, so with a
positive definite storage this one test also proves ``A_o`` and
``A + B K`` Hurwitz.

A failed solve ends in one of three verdicts (:func:`solve_lmi`):
*provably infeasible*, *certified infeasible* by a Farkas certificate
of the dual solve (:func:`_dual_solve`) before any projection step, or
*gave up*.  Every problem the dual solve does not certify goes to the
projection iteration as before, so every accepted assignment is the
one found without it.

Feasible sets here are large, and different feasible gains behave very
differently in closed loop: an over-fast inner loop starves the
cooperative outer loop of DC gain, which slows source tracking on
weakly pinned graphs.  The feedback synthesis therefore anchors the
iteration at the slowest gain the inequality can certify: a small
bisection over pole-placement speed, with feasibility decided by an
algebraic Riccati equation equivalent to the inequality at fixed gain,
yields a strictly feasible starting point that the projection step
accepts essentially unchanged.  The bisection runs in lockstep over the
models (:func:`_slow_anchors`).  When no anchor can be
built for an agent, its solve falls back to a cold-started search boxed
by affine eigenvalue-strip blocks (closed-loop decay rates between
``CONTROLLER_DECAY`` and ``CONTROLLER_MAX_RATE``); either way the
returned certificate passes the same independent re-verification.

Each inequality has one builder, :func:`observer_inequality` and
:func:`feedback_inequality`; it serves the per-agent LMI expression and
the re-verification of the assembled network matrices alike.  Both
broadcast over the leading axes of stacked arguments.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    AlphaNonPositiveError,
    DeltaNonPositiveError,
    InfeasibleError,
)
from .linalg import (as_symmetric, block, block_diag, solve_linear,
                     sym_eigvals)
from .plant import AugmentedModel, NetworkModel, agent_permutation

__all__ = [
    "VariableSpec",
    "LmiProblem",
    "solve_lmi",
    "ObserverSynthesis",
    "ControllerSynthesis",
    "synth_observer",
    "certify_observer",
    "synth_controller",
    "observer_inequality",
    "feedback_inequality",
    "gamma_bound",
]

#: Default strictness margin: the block expression must satisfy
#: ``lambda_max <= -MARGIN``.
MARGIN = 1e-6
#: Positive-definiteness floor for PD-constrained variables.
PD_MARGIN = 1e-8
#: Minimum decay rate imposed on the synthesized observer.
OBSERVER_DECAY = 1.0
#: Minimum decay rate imposed on the cold-started state feedback search.
CONTROLLER_DECAY = 2.0
#: Maximum decay rate for the cold-started state feedback search
#: (eigenvalue strip); see the module docstring on why over-fast inner
#: loops are undesirable.
CONTROLLER_MAX_RATE = 8.0
#: Newton-step cap of the dual solve that looks for a Farkas certificate
#: before the projection iteration (see :func:`_dual_solve`).
DUAL_STEPS = 40
#: A Farkas certificate retires its problem when it rules out every
#: assignment with ``|y|`` below this radius.
FARKAS_RADIUS = 1e6
#: Relative rounding allowance of the certificate's radius: a hundred
#: times the rounding of the inner products of the problems here (58
#: stacked entries, blocks of at most 7 rows).
FARKAS_ROUNDING = 1e-12
#: Margin ladder used to push solutions off the feasibility boundary.
MARGIN_LADDER = (0.03, 0.1, 0.3, 1.0)
#: Pole spacing of the anchored gain family: targets -s, -s*ratio, ...
CONTROLLER_POLE_RATIO = 1.7
#: Speed multiplier applied above the slowest certifiable anchor speed,
#: keeping the accepted gain safely inside the feasible set.
CONTROLLER_POLE_SLACK = 1.06
#: Inflation of the identity forcing in the anchor Riccati equation;
#: turns equation solutions into strictly feasible inequality points.
ANCHOR_INFLATION = 0.05


@dataclass(frozen=True)
class VariableSpec:
    """One decision-variable block of an LMI problem."""

    name: str
    rows: int
    cols: int
    symmetric: bool = False
    positive_definite: bool = False

    def __post_init__(self):
        if self.positive_definite and not self.symmetric:
            raise ValueError(f"PD variable {self.name!r} must be symmetric")
        if self.symmetric and self.rows != self.cols:
            raise ValueError(f"symmetric variable {self.name!r} must be square")


# --- generic solver ---------------------------------------------------------

class LmiProblem:
    """Feasibility problem: symmetric affine expression strictly < 0.

    ``expression`` maps a dict of variable values to symmetric matrices;
    it must be affine in the variables.  Feasibility at margin ``t``
    means ``lambda_max(expression) <= -t`` with every PD-flagged variable
    satisfying ``lambda_min >= PD_MARGIN``.

    The family is probed once, here, by one call of ``expression`` with
    each variable's value a (1 + coordinates, rows, cols) stack: zero,
    then each unit coordinate.  The expression broadcasts over leading
    axes; :meth:`stack` builds ``k`` problems from one call whose data
    carry leading axes (k, 1).  Each probe's matrix must pass
    :func:`coopftc.linalg.as_symmetric`.  The probes give the stacked
    affine map ``y -> [expression(y), -V, ...]`` (one ``-V`` block per
    PD variable) as ``base + A y``, with the pseudo-inverse of ``A``;
    every solve reuses them, whatever its margin.

    ``margin_cap`` is minus the largest diagonal entry of the expression
    that no variable touches (``inf`` if none): ``lambda_max`` is at
    least every diagonal entry, so no larger margin is attainable.
    """

    def __init__(self, variables: list[VariableSpec],
                 expression: Callable[[dict[str, np.ndarray]], np.ndarray]):
        vars(self).update(vars(self.stack(variables, expression, 1)[0]))

    @classmethod
    def stack(cls, variables, expression, k) -> list[LmiProblem]:
        """The ``k`` problems of one stacked call of ``expression``.  Each
        probe product has at most one nonzero term per entry, so each
        problem is the one a probe of its own builds, bit for bit."""
        variables, coords, index = list(variables), [], {}
        for v in variables:
            i, j = (np.triu_indices(v.rows) if v.symmetric
                    else np.indices((v.rows, v.cols)).reshape(2, -1))
            index[v.name] = len(coords) + np.arange(i.size), i, j
            coords += [(v.name, a, b) for a, b in zip(i.tolist(), j.tolist())]
        shell, n_vars = cls.__new__(cls), len(coords)
        shell.variables, shell.coords, shell.index = variables, coords, index
        # probe 0 is zero, probe q + 1 the unit coordinate q
        values = shell.assignment(np.eye(1 + n_vars, n_vars, -1))
        M = np.asarray(expression(values), dtype=float)
        if M.ndim >= 2:
            M = np.broadcast_to(M, (k, 1 + n_vars) + M.shape[-2:])
        M = as_symmetric(M, lambda first: (
            "expression at zero" if first % (1 + n_vars) == 0 else
            f"expression response of {coords[first % (1 + n_vars) - 1]}"))
        N = M.shape[-1]
        pd_vars = [v for v in variables if v.positive_definite]
        shell.block_sizes = [N] + [v.rows for v in pd_vars]
        shell.offsets = offsets = np.concatenate(
            [[0], np.cumsum([s * s for s in shell.block_sizes])])
        base = np.zeros((k, offsets[-1]))
        base[:, :N * N] = M[:, 0].reshape(k, N * N)
        # basis responses, one column per scalar coordinate
        A = np.zeros((k, offsets[-1], n_vars))
        A[:, :N * N] = (M[:, 1:] - M[:, :1]).reshape(k, n_vars, N * N).mT
        for off, v in zip(offsets[1:], pd_vars):  # the -V blocks
            A[:, off:off + v.rows ** 2] -= values[v.name][1:].reshape(
                n_vars, -1).T
        pinv = np.linalg.pinv(A) if n_vars else [None] * k
        fixed = ~A[:, np.arange(N) * (N + 1)].any(axis=2)
        caps = -np.where(fixed, M[:, 0].diagonal(axis1=1, axis2=2), -np.inf)
        problems = [copy.copy(shell) for _ in range(k)]
        for r, problem in enumerate(problems):
            problem.base, problem.A, problem.pinv = base[r], A[r], pinv[r]
            problem.margin_cap = float(caps[r].min())
        return problems

    def assignment(self, y: np.ndarray) -> dict[str, np.ndarray]:
        """Variable values at coordinates ``y`` (..., coordinates)."""
        vals = {}
        for v in self.variables:
            at, i, j = self.index[v.name]
            vals[v.name] = x = np.zeros(y.shape[:-1] + (v.rows, v.cols))
            x[..., i, j] = y[..., at]
            if v.symmetric:
                x[..., j, i] = y[..., at]
        return vals

    def blocks(self, gvec: np.ndarray) -> list[np.ndarray]:
        """Square views of the stacked blocks of ``gvec``."""
        return [gvec[self.offsets[b]:self.offsets[b + 1]].reshape(nb, nb)
                for b, nb in enumerate(self.block_sizes)]


def solve_lmi(problem: LmiProblem, margin: float = MARGIN,
              max_iterations: int = 6000,
              initial: dict[str, np.ndarray] | None = None) -> dict[str, np.ndarray]:
    """Find a strictly feasible assignment for ``problem``.

    A batch of one for the lockstep kernel that synthesis runs over all
    agents at once (:func:`_solve_batch`).

    Parameters
    ----------
    problem : LmiProblem
        The affine family, probed once when the problem was built.
    margin : float
        Strictness required of the expression, ``>= 0``.
    max_iterations : int
        Projection-iteration budget before declaring infeasibility.
    initial : dict, optional
        Warm-start assignment (same block shapes as the variables).

    Returns
    -------
    dict mapping variable names to value arrays, guaranteed to satisfy
    ``lambda_max(expression) <= -margin`` and the ``PD_MARGIN`` floors.

    Raises
    ------
    InfeasibleError
        If no feasible point is found, with one of three verdicts.
        *Provably infeasible*, before any iteration: a constant
        expression whose ``lambda_max`` exceeds ``-margin``, or a margin
        above ``problem.margin_cap`` (the message gives the cap).
        *Certified infeasible*, before any iteration: the dual solve
        found a Farkas certificate; the message gives its Newton steps,
        the radius ``Y`` below which no assignment meets the
        inequality, and the dual solve's estimate of the best reachable
        margin.  *Gave up*: the stagnation cutoff or the iteration
        budget was hit; the message says which.
    """
    ((result, _),) = _solve_batch([problem], margin, max_iterations,
                                  [initial])
    if isinstance(result, InfeasibleError):
        raise result
    return result


def _solve_batch(problems, margin, max_iterations, initials):
    """Solve each of ``problems`` at ``margin``, warm-started at the
    matching entry of ``initials`` (an assignment or None).

    Returns one ``(result, iterations)`` pair per problem, in order:
    ``result`` is the accepted assignment or the :class:`InfeasibleError`
    that :func:`solve_lmi` raises for it, and ``iterations`` counts the
    projection steps the problem took (0 when it was decided without
    iterating).  Problems of one block layout are solved together, in
    lockstep: first one :func:`_dual_solve` stack, which retires the
    problems it certifies infeasible, then one :func:`_douglas_rachford`
    stack of the others.
    """
    t = float(margin)
    if t < 0:
        raise ValueError(f"margin must be non-negative, got {margin}")
    outcomes = [None] * len(problems)
    layouts = {}
    for j, problem in enumerate(problems):
        if not problem.coords:
            w = sym_eigvals(problem.blocks(problem.base)[0])
            outcomes[j] = ({} if w[-1] <= -t else InfeasibleError(
                f"constant expression has lambda_max = {w[-1]:.3e} > "
                f"{-t:.3e}: provably infeasible"), 0)
        elif t > problem.margin_cap:
            outcomes[j] = (InfeasibleError(
                f"margin {t:.3e} is provably infeasible: a constant diagonal "
                f"entry of the expression caps the margin at "
                f"{problem.margin_cap:.3e}"), 0)
        else:
            layout = (tuple(problem.block_sizes), len(problem.coords))
            layouts.setdefault(layout, []).append(j)
    for members in layouts.values():
        records = _dual_solve([problems[j] for j in members], t,
                              [initials[j] for j in members])
        undecided = []
        for j, record in zip(members, records):
            if record is None or not record[1] > FARKAS_RADIUS:
                undecided.append(j)
                continue
            steps, radius, dual, _ = record
            outcomes[j] = (InfeasibleError(
                f"certified infeasible by the dual solve ({steps} Newton "
                "steps): a Farkas certificate rules out every point with "
                f"|y| < {radius:.3e} at margin {t:.3e}; best reachable margin "
                f"about {t - dual:.3e}"), 0)
        if not undecided:
            continue
        stacked = _douglas_rachford([problems[j] for j in undecided], t,
                                    max_iterations,
                                    [initials[j] for j in undecided])
        for j, outcome in zip(undecided, stacked):
            outcomes[j] = outcome
    return outcomes


def _douglas_rachford(problems, t, max_iterations, initials):
    """Run the projection iteration on a stack of same-layout problems
    at margin ``t``; outcomes as in :func:`_solve_batch`.

    Every step is elementwise over the stack: one stacked ``eigh`` per
    block for the cone projection, one stacked product each with
    ``pinv`` and ``A``, one stacked ``eigvalsh`` per block for the stop
    test.  Stacked ``eigh``, ``eigvalsh`` and ``matmul`` compute each
    matrix as the single-matrix calls do, so each problem follows the
    iterates it would follow alone.  The iteration is purely primal: a
    problem keeps its own stall counter and leaves the stack when it
    converges or stalls (500 steps without its gap improving), and the
    stack is compacted only then.  What is left when the budget runs out
    gave up too.  Infeasibility is decided before, by :func:`_dual_solve`.
    """
    spans = _spans(problems[0])
    # Internal targets sit slightly beyond the required floors so the
    # exact requirement is met strictly before full convergence.
    n_pd = len(spans) - 1
    floors = [t] + [PD_MARGIN] * n_pd
    targets = [1.05 * t + 1e-9] + [2.0 * PD_MARGIN + 1e-12] * n_pd
    slacks = [target - floor for target, floor in zip(targets, floors)]

    # every vector is stacked as a (k, length, 1) column, so the products
    # with ``pinv`` and ``A`` are stacked matrix-vector products
    A = np.stack([p.A for p in problems])
    pinv = np.stack([p.pinv for p in problems])
    g0 = _shifted_bases(problems, spans, targets)
    y = _warm_starts(problems, initials)

    # Douglas-Rachford splitting between the affine family and the
    # negative-semidefinite cone; plain alternating projections crawl on
    # the feedback inequality, the reflected iteration does not.  z, u
    # and v are updated in place through their block views.
    z = g0 + A @ y
    u, v = np.empty_like(z), np.empty_like(z)
    views = _blocks(z, spans), _blocks(u, spans), _blocks(v, spans)
    live = np.arange(len(problems))
    # a step improves when its gap is below the best gap so far times
    # (1 - 1e-9); that product is kept, not recomputed each step
    threshold = np.full(len(problems), np.inf)
    improved_at = np.zeros(len(problems), dtype=int)
    deadline = 500
    worst = np.full(len(problems), np.nan)
    outcomes = [None] * len(problems)
    for iteration in range(1, max_iterations + 1):
        z_blocks, u_blocks, v_blocks = views
        for Zb, Ub in zip(z_blocks, u_blocks):
            w, V = np.linalg.eigh(0.5 * (Zb + Zb.mT))
            np.matmul(V * np.minimum(w, 0.0)[:, None, :], V.mT, out=Ub)
        # least-squares projection of the reflection onto the family
        y_v = pinv @ (2.0 * u - z - g0)
        np.matmul(A, y_v, out=v)
        v += g0
        # one eigenvalue pass per block serves the stop test and the
        # excess reported when the budget runs out
        for b, (Vb, s) in enumerate(zip(v_blocks, slacks)):
            excess = np.linalg.eigvalsh(0.5 * (Vb + Vb.mT))[:, -1] - s
            worst = excess if b == 0 else np.maximum(worst, excess)
        r = v[:, :, 0] - u[:, :, 0]
        z += v
        z -= u

        # np.vecdot runs the dot routine that np.linalg.norm runs on one
        # vector, so each problem's gap is its own norm, bit for bit
        gap = np.sqrt(np.vecdot(r, r))
        improved = gap < threshold
        np.multiply(gap, 1.0 - 1e-9, out=threshold, where=improved)
        improved_at[improved] = iteration
        # a problem stalls after 500 steps without improvement; the
        # deadline is a lower bound, refreshed only once it is reached
        if iteration >= deadline:
            deadline = improved_at.min() + 500
        if np.minimum.reduce(worst) > 0.0 and iteration < deadline:
            continue
        converged = worst <= 0.0
        retired = converged | (improved_at <= iteration - 500)
        if not retired.any():  # a NaN excess
            continue
        for row in np.flatnonzero(retired):
            j = live[row]
            if converged[row]:
                outcomes[j] = (problems[j].assignment(y_v[row, :, 0]),
                               iteration)
            else:
                outcomes[j] = (InfeasibleError(
                    "projection iteration stagnated (residual gap "
                    f"{gap[row]:.3e}); no strictly feasible point found"),
                    iteration)
        keep = ~retired
        if not keep.any():
            return outcomes
        live, A, pinv, g0, z, threshold, improved_at, worst = (
            x[keep] for x in (live, A, pinv, g0, z, threshold, improved_at,
                              worst))
        u, v = np.empty_like(z), np.empty_like(z)
        views = _blocks(z, spans), _blocks(u, spans), _blocks(v, spans)
    for j, excess in zip(live, worst):
        outcomes[j] = (InfeasibleError(
            f"iteration budget ({max_iterations}) exhausted with "
            f"lambda_max excess {excess:.3e}; no strictly feasible point "
            "found"), max_iterations)
    return outcomes


def _spans(problem):
    """``(lo, hi, rows)`` of each stacked block of ``problem``."""
    return [(problem.offsets[b], problem.offsets[b + 1], nb)
            for b, nb in enumerate(problem.block_sizes)]


def _blocks(x, spans):
    """Square views, one (k, rows, rows) stack per block, of the stacked
    vectors ``x`` (k, length, 1)."""
    return [x[:, lo:hi].reshape(-1, nb, nb) for lo, hi, nb in spans]


def _shifted_bases(problems, spans, shifts):
    """The problems' constant terms as (k, length, 1) columns, with
    ``shifts[b]`` times the identity added to block ``b``."""
    g = np.stack([p.base for p in problems])[:, :, None]
    for Gb, shift in zip(_blocks(g, spans), shifts):
        Gb += shift * np.eye(Gb.shape[-1])
    return g


def _warm_starts(problems, initials):
    """Coordinates of each warm start (zeros where it is None), stacked
    as (k, coordinates, 1) columns."""
    y = np.zeros((len(problems), len(problems[0].coords), 1))
    for row, (problem, initial) in enumerate(zip(problems, initials)):
        if initial is not None:
            y[row, :, 0] = [initial[name][i, j]
                            for name, i, j in problem.coords]
    return y


def _dual_solve(problems, t, initials):
    """Look for a Farkas certificate of each of a stack of same-layout
    problems at margin ``t`` by a primal-dual interior-point solve, in
    lockstep over the stack; warm starts as in :func:`_solve_batch`.

    With ``floor0`` the family's constant term at the required floors
    (``t`` on the expression, ``PD_MARGIN`` on each ``-V`` block), each
    problem is the pair of semidefinite programs

        min  lambda      s.t.  floor0 + A y <= lambda I  (each block),
        max  <floor0, X>  s.t.  A'X = 0,  tr X = 1,  X >= 0  (each block),

    whose common optimum ``lambda*`` is negative exactly when some ``y``
    meets the floors strictly.  A dual ``X`` with ``<floor0, X> > 0`` is
    a Farkas certificate, and :func:`_farkas_radius` gives the radius
    below which it rules out every assignment.  Each Newton step
    (:func:`_newton_step`) is elementwise over the stack, so every
    problem takes the steps a solve of its own would.  A problem retires
    at the first step whose radius exceeds ``FARKAS_RADIUS``, whose
    ``lambda`` is negative (a strictly feasible point: there is nothing
    to certify), whose iterate is not finite, or at ``DUAL_STEPS``.  When
    LAPACK rejects a matrix of the stack, that step is redone one
    problem at a time, and a problem it rejects alone retires with a
    non-finite iterate; nothing raises.

    A feasible problem cannot be certified beyond the norm of its
    feasible points; every accepted assignment on the default scenario
    and the 24-motor fleet has ``|y| <= 156``, 6,400 times below
    ``FARKAS_RADIUS``.  A problem whose warm start already meets the
    floors is feasible and is not solved.  Returns one entry per
    problem: None for those, else ``(steps, radius, dual, x)``: the
    Newton steps taken, the radius of the last iterate's certificate
    (nan when ``<floor0, X> <= 0``), the dual objective ``<floor0, X>``
    (an estimate of ``lambda*``) and ``X`` as a stacked vector.
    """
    spans = _spans(problems[0])
    floor0 = _shifted_bases(problems, spans,
                            [t] + [PD_MARGIN] * (len(spans) - 1))
    A = np.stack([p.A for p in problems])
    records = [None] * len(problems)
    live = np.array([initial is None for initial in initials])
    warm = np.flatnonzero(~live)
    if warm.size:
        at = floor0[warm] + A[warm] @ _warm_starts(
            [problems[j] for j in warm], [initials[j] for j in warm])
        finite = np.isfinite(at).all(axis=(1, 2))
        live[warm[~finite]] = True
        live[warm[finite]] = _top_eigenvalue(at[finite], spans) > 0.0
    live = np.flatnonzero(live)
    if not live.size:
        return records

    # the constraint map of the min-lambda problem, (y, lambda) ->
    # A y - lambda I, as one (length, coordinates + 1) matrix per problem
    eye = np.zeros((1,) + floor0.shape[1:])
    for Eb in _blocks(eye, spans):
        Eb[...] = np.eye(Eb.shape[-1])
    A, floor0 = A[live], floor0[live]
    pinv = np.stack([problems[j].pinv for j in live])
    lifted = np.concatenate([A, np.broadcast_to(-eye, A[:, :, :1].shape)],
                            axis=2)
    # start at y = 0, lambda one above the top eigenvalue of floor0, and
    # X = I / tr I
    w = np.zeros((len(live), lifted.shape[2], 1))
    w[:, -1, 0] = _top_eigenvalue(floor0, spans) + 1.0
    X = np.broadcast_to(eye / eye.sum(), floor0.shape).copy()
    for step in range(1, DUAL_STEPS + 1):
        stacks = X, w, A, lifted, pinv, floor0
        with np.errstate(all="ignore"):
            try:
                X, w, dual, radius = _newton_step(*stacks, spans)
            except np.linalg.LinAlgError:
                X, w = np.full_like(X, np.nan), np.full_like(w, np.nan)
                dual, radius = np.full((2, len(X)), np.nan)
                for row in range(len(X)):
                    try:
                        one = _newton_step(*(x[row:row + 1] for x in stacks),
                                           spans)
                    except np.linalg.LinAlgError:
                        continue
                    for out, value in zip((X, w, dual, radius), one):
                        out[row] = value[0]
        finite = (np.isfinite(X).all(axis=(1, 2))
                  & np.isfinite(w).all(axis=(1, 2)))
        done = (radius > FARKAS_RADIUS) | (w[:, -1, 0] < 0.0) | ~finite
        if step == DUAL_STEPS:
            done[:] = True
        for row in np.flatnonzero(done):
            records[live[row]] = (step, radius[row], dual[row], X[row, :, 0])
        keep = ~done
        if not keep.any():
            break
        live, X, w, A, lifted, pinv, floor0 = (
            x[keep] for x in (live, X, w, A, lifted, pinv, floor0))
    return records


def _top_eigenvalue(x, spans):
    """Largest eigenvalue over the blocks of each stacked vector of
    ``x``."""
    return np.max([np.linalg.eigvalsh(Xb)[:, -1] for Xb in _blocks(x, spans)],
                  axis=0)


def _newton_step(X, w, A, lifted, pinv, floor0, spans):
    """One predictor-corrector Newton step of :func:`_dual_solve` on a
    stack, from the dual matrices ``X`` (k, length, 1) and the primal
    points ``w = (y, lambda)`` (k, coordinates + 1, 1); returns the new
    ``X`` and ``w``, the dual objective ``<floor0, X>`` and the radius of
    its certificate (nan where that objective is not positive).

    The slack ``S = lambda I - floor0 - A y`` is formed from ``w``, so
    the primal side stays feasible.  The direction is the HKM direction
    (Helmberg, Rendl, Vanderbei & Wolkowicz, SIAM J. Optim. 6 (1996)):
    ``dS = -lifted dw``, ``dX = sym((R - X dS) S^-1)``, where ``dw``
    solves the Schur complement system ``M dw = b - lifted'(X + R S^-1)``
    (so that ``X + dX`` meets ``A'X = 0`` and ``tr X = 1``), with ``M_ij
    = tr(a_i X a_j S^-1)`` over the columns ``a_i`` of ``lifted`` and all
    blocks.  Mehrotra's predictor-corrector (SIAM J. Optim. 2 (1992))
    takes an affine step (``R = -X S``) to choose the centring ``sigma``,
    then the corrected step (``R = sigma mu I - X S - dX_a dS_a``), cut
    to ``0.9 + 0.09 min(affine step lengths)`` of the distance to the
    boundary of the cone and to at most a full step.
    """
    k, n = len(X), sum(nb for _, _, nb in spans)
    b = np.zeros(w.shape[1:])
    b[-1] = -1.0  # the objective: maximize -lambda
    S = -(floor0 + lifted @ w)
    S_inv = np.empty_like(S)
    M = np.zeros((k, w.shape[1], w.shape[1]))
    X_eig, S_eig = [], []
    for (lo, hi, nb), Xb, Sb, Ib in zip(spans, _blocks(X, spans),
                                       _blocks(S, spans),
                                       _blocks(S_inv, spans)):
        X_eig.append(np.linalg.eigh(Xb))
        S_eig.append(np.linalg.eigh(Sb))
        ws, Vs = S_eig[-1]
        np.matmul(Vs / ws[:, None, :], Vs.mT, out=Ib)
        # tr(a_i X a_j S^-1) = vec(a_i)' (X kron S^-1) vec(a_j)
        kron = (Xb[:, :, None, :, None] * Ib[:, None, :, None, :]).reshape(
            k, nb * nb, nb * nb)
        M += lifted[:, lo:hi].mT @ kron @ lifted[:, lo:hi]
    M = 0.5 * (M + M.mT)
    mu = np.vecdot(X[:, :, 0], S[:, :, 0])[:, None, None] / n

    def product(P, Q, R):  # blockwise P Q R
        out = np.empty_like(P)
        for Ob, Pb, Qb, Rb in zip(*(_blocks(F, spans)
                                    for F in (out, P, Q, R))):
            np.matmul(Pb @ Qb, Rb, out=Ob)
        return out

    def reach(eig, D):  # largest step along D that stays in the cone
        low = np.zeros(k)
        for (wb, Vb), Db in zip(eig, _blocks(D, spans)):
            scale = 1.0 / np.sqrt(wb)
            T = scale[:, :, None] * (Vb.mT @ Db @ Vb) * scale[:, None, :]
            low = np.minimum(low, np.linalg.eigvalsh(0.5 * (T + T.mT))[:, 0])
        out = np.full(k, np.inf)
        np.divide(-1.0, low, out=out, where=low < 0.0)
        return out[:, None, None]

    def direction(R_S_inv):  # the step to X + dX with A'dX = b - A'X
        dw = np.linalg.solve(M, b - lifted.mT @ (X + R_S_inv))
        dS = -(lifted @ dw)
        dX = R_S_inv - product(X, dS, S_inv)
        for Db in _blocks(dX, spans):
            Db[...] = 0.5 * (Db + Db.mT)
        return dw, dS, dX

    # predictor: the affine-scaling step
    dw, dS, dX = direction(-X)
    to_x = np.minimum(1.0, reach(X_eig, dX))
    to_s = np.minimum(1.0, reach(S_eig, dS))
    mu_affine = np.vecdot((X + to_x * dX)[:, :, 0],
                          (S + to_s * dS)[:, :, 0])[:, None, None] / n
    sigma = np.minimum(1.0, mu_affine / mu) ** 3
    # corrector: centred, with the second-order term of the predictor
    second = product(dX, dS, S_inv)
    dw, dS, dX = direction(sigma * mu * S_inv - X - second)
    fraction = 0.9 + 0.09 * np.minimum(to_x, to_s)
    X = X + np.minimum(1.0, fraction * reach(X_eig, dX)) * dX
    w = w + np.minimum(1.0, fraction * reach(S_eig, dS)) * dw

    dual = np.vecdot(floor0[:, :, 0], X[:, :, 0])
    radius = np.full(k, np.nan)
    rows = np.flatnonzero(dual > 0.0)
    if rows.size:
        radius[rows] = _farkas_radius(A[rows], pinv[rows], floor0[rows],
                                      X[rows], spans)
    return X, w, dual, radius


def _farkas_radius(A, pinv, floor0, r, spans):
    """Radius ``Y`` of the Farkas certificate built from each vector of
    the stack ``r`` (k, length, 1), a dual matrix of :func:`_dual_solve`:
    no assignment with ``|y| < Y`` meets the floors (``nan`` or
    ``Y <= 0`` certifies nothing).

    ``r`` is projected onto ``null(A')`` with ``pinv``, and each block
    is replaced by its PSD part, giving ``D``.  Every ``X = floor0 + A y``
    that meets the floors is NSD blockwise, so ``<X, D> <= 0``, while
    ``<X, D> = <floor0, D> + <y, A'D>``; hence
    ``|y| >= <floor0, D> / |A'D|``.  ``FARKAS_ROUNDING`` times
    ``|floor0| |D|`` comes off the numerator and times ``|A| |D|`` goes
    on the denominator.  That covers the rounding of both products and
    the few ulps of ``|D|`` by which a reconstructed block may miss PSD
    (which move ``<X, D>`` by at most as much times ``|X|``), so a
    radius never rests on rounding.
    """
    d = r - A @ (pinv @ r)
    for lo, hi, nb in spans:
        Db = d[:, lo:hi].reshape(-1, nb, nb)
        w, V = np.linalg.eigh(0.5 * (Db + Db.mT))
        np.matmul(V * np.maximum(w, 0.0)[:, None, :], V.mT, out=Db)
    def norm(x):
        return np.sqrt(np.vecdot(x, x))

    leak = (A.mT @ d)[:, :, 0]  # A'D, zero for an exact certificate
    d, floor0 = d[:, :, 0], floor0[:, :, 0]
    size = norm(d)
    with np.errstate(divide="ignore", invalid="ignore"):
        return ((np.vecdot(floor0, d)
                 - FARKAS_ROUNDING * norm(floor0) * size)
                / (norm(leak)
                   + FARKAS_ROUNDING * norm(A.reshape(len(A), -1)) * size))


def _solve_block(problems, margin, max_iterations, prefix, anchors, agents):
    """Solve every agent's block at ``margin``, then climb the margin
    ladder while the warm-started solves keep succeeding; return each
    agent's deepest point.

    Rungs run in lockstep across agents: the base solve is one batch
    over all agents, and each rung one batch over the agents still
    climbing.  An agent stops at its first failed rung and keeps the
    point of the rung below.  An anchored agent (its entry of
    ``anchors`` is not None) starts at its anchor and does not climb:
    the ladder would walk away from the anchor, whose strictness is
    already built in.  If any base solve fails, the first failing
    problem is reported, with ``prefix.format(agent)`` before the
    solver's message: ``agent`` is its entry of ``agents`` (0-based,
    ascending) plus one.  No ladder runs then.
    """
    outcomes = _solve_batch(problems, margin, max_iterations, anchors)
    for agent, (result, _) in zip(agents, outcomes):
        if isinstance(result, InfeasibleError):
            raise InfeasibleError(
                f"{prefix.format(agent + 1)}: {result}") from result
    solutions = [result for result, _ in outcomes]
    climbing = [i for i, anchor in enumerate(anchors) if anchor is None]
    for t in MARGIN_LADDER:
        if t <= margin or not climbing:
            continue
        outcomes = _solve_batch([problems[i] for i in climbing], t,
                                max_iterations // 3,
                                [solutions[i] for i in climbing])
        still = []
        for i, (result, _) in zip(climbing, outcomes):
            if not isinstance(result, InfeasibleError):
                solutions[i] = result
                still.append(i)
        climbing = still
    return solutions


def _reverify(stage, block, margin, storage_name, storage) -> float:
    """Re-check a certificate from scratch: ``block``, built on the
    network matrices at the gain to be returned or loaded, has margin at
    least ``margin`` and the storage matrix clears ``PD_MARGIN``.
    Returns the margin achieved."""
    achieved = -sym_eigvals(block)[-1]
    s_min = sym_eigvals(storage)[0]
    if achieved < margin or s_min < PD_MARGIN:
        raise InfeasibleError(
            f"{stage} certificate failed re-verification on the network "
            f"matrices (margin {achieved:.3e}, lambda_min({storage_name}) "
            f"{s_min:.3e})"
        )
    return achieved


# --- the two inequalities ---------------------------------------------------

def observer_inequality(P, H, F1A, E2, F1D, delta, decay=False):
    """Observer block ``Pi(P, H)`` (module docstring) for the given
    ``F1 A_a``, ``E2`` and ``F1 D``, per agent or for the network.

    With ``decay`` the block ``Delta - I + 2 OBSERVER_DECAY P`` is
    appended on the diagonal, imposing the minimum decay rate.
    """
    core = P @ F1A + F1A.mT @ P - H @ E2 - E2.mT @ H.mT
    PD = P @ F1D
    pi = block([[core + np.eye(F1A.shape[-1]), PD],
                [PD.mT, -delta ** 2 * np.eye(F1D.shape[-1])]])
    if decay:
        return block_diag(pi, core + 2.0 * OBSERVER_DECAY * P)
    return pi


def feedback_inequality(R, G, A, B, D, alpha, delta, strip=False):
    """Feedback block ``Lambda(R, G)`` (module docstring), per agent or
    for the network.

    With ``strip`` two blocks are appended on the diagonal that confine
    the closed-loop decay rate to ``[CONTROLLER_DECAY,
    CONTROLLER_MAX_RATE]``.
    """
    n, nu, nv = A.shape[-1], B.shape[-1], D.shape[-1]
    core = A @ R + R @ A.mT + B @ G + G.mT @ B.mT
    lam = block([
        [core, R, -B, D],
        [R, -np.eye(n), np.zeros((n, nu)), np.zeros((n, nv))],
        [-B.mT, np.zeros((nu, n)), -alpha * np.eye(nu), np.zeros((nu, nv))],
        [D.mT, np.zeros((nv, n)), np.zeros((nv, nu)),
         -delta ** 2 * np.eye(nv)],
    ])
    if strip:
        return block_diag(
            lam, core + 2.0 * CONTROLLER_DECAY * R,
            -core - 2.0 * CONTROLLER_MAX_RATE * R)
    return lam


# --- observer synthesis -----------------------------------------------------

@dataclass(frozen=True)
class ObserverSynthesis:
    """Accepted observer certificate and gain."""

    delta: float
    P: np.ndarray
    H: np.ndarray
    Lgain: np.ndarray
    margin: float


def synth_observer(aug: AugmentedModel, net: NetworkModel, delta: float,
                   margin: float = MARGIN,
                   max_iterations: int = 6000) -> ObserverSynthesis:
    """Synthesize the augmented-state observer gain for a network.

    One small problem is solved per distinct agent model (agents whose
    ``F1 A_a``, ``E2`` and ``F1 D`` blocks have the same bytes share
    one), and each agent's model solution is assembled into
    network-level ``(P, H)``; block-diagonality of the plant makes the
    assembly exact.  The gain ``Lgain = P^{-1} H`` is
    returned through :func:`certify_observer`.

    Raises
    ------
    DeltaNonPositiveError
        If ``delta <= 0``.
    InfeasibleError
        If any sub-problem has no strictly feasible point at the
        requested ``delta``, or :func:`certify_observer` rejects the
        assembled certificate; the message starts with "observer".
    """
    if delta <= 0:
        raise DeltaNonPositiveError(f"delta must be > 0, got {delta}")

    F1A = aug.F1 @ aug.A_a
    F1D = aug.F1 @ net.D
    # grouped per agent, the augmented matrices are block-diagonal
    perm = agent_permutation(net)
    F1Ai, E2i, F1Di = (_agent_blocks(M, net.m) for M in (
        F1A[np.ix_(perm, perm)], aug.E2[:, perm], F1D[perm]))
    first, model = _distinct_models(F1Ai, E2i, F1Di)
    F1Ai, E2i, F1Di = (M[first, None] for M in (F1Ai, E2i, F1Di))
    n = aug.n_aug // net.m
    problems = LmiProblem.stack(
        [VariableSpec("P", n, n, symmetric=True, positive_definite=True),
         VariableSpec("H", n, net.n_y)],
        lambda v: observer_inequality(v["P"], v["H"], F1Ai, E2i, F1Di, delta,
                                      decay=True), len(first))
    solutions = _solve_block(
        problems, margin, max_iterations,
        f"observer LMI infeasible for agent {{}} at delta={delta:g}",
        [None] * len(first), first)
    P, H = (block_diag(*(solutions[j][name] for j in model))
            for name in ("P", "H"))
    back = np.argsort(perm)
    P, H = P[np.ix_(back, back)], H[back]
    return certify_observer(aug, net, delta, P, H, solve_linear(P, H), margin)


def certify_observer(aug: AugmentedModel, net: NetworkModel, delta: float,
                     P, H, Lgain, margin: float) -> ObserverSynthesis:
    """The one observer verdict, for synthesized and loaded gains alike:
    ``Pi(P, P Lgain)`` re-verified from scratch on the network matrices
    (module docstring), which proves ``F1 A_a - L E2`` Hurwitz.  Returns
    the certificate with ``margin = -lambda_max(Pi(P, P Lgain))``, or
    raises ``InfeasibleError`` naming "observer" and ``lambda_min(P)``."""
    pi = observer_inequality(P, P @ Lgain, aug.F1 @ aug.A_a, aug.E2,
                             aug.F1 @ net.D, delta)
    achieved = _reverify("observer", pi, margin, "P", P)
    return ObserverSynthesis(delta=delta, P=P, H=H, Lgain=Lgain,
                             margin=achieved)


# --- state-feedback synthesis -----------------------------------------------

def _placing_gains(A, B, poles):
    """Gains ``K0`` with ``A + B K0 = X diag(poles) X^{-1}``, one per
    agent of the stacks ``A`` (k, n, n) and ``B`` (k, n, n_u), for
    distinct real ``poles`` (k, n) off each agent's spectrum.

    Returns ``(ok, K0)``: ``ok`` (k,) is False where ``X`` is singular,
    not finite or has condition number above 1e12, and ``K0`` holds the
    gains of the ``ok`` agents only.  Column ``j`` of ``X`` solves
    ``(A - p_j I) x_j = -B w_j``, so ``X`` is one stacked solve over
    agents and poles, and ``K0 = W X^{-1}``.  Column ``j`` of ``W`` is
    the unit vector ``e_(j mod n_u)``: pole ``j`` is steered through
    input ``j mod n_u``.  With one input ``W`` is all ones and ``K0`` is
    the unique placing gain; with more inputs this ``W`` may fail to
    place a controllable pair, and an agent no speed can place falls
    back to the strip search.
    """
    n, n_u = B.shape[1:]
    W = np.eye(n_u)[:, np.arange(n) % n_u]
    shifted = A[:, None] - poles[:, :, None, None] * np.eye(n)
    rhs = -(B @ W).mT[..., None]
    try:
        X = np.linalg.solve(shifted, rhs)
    except np.linalg.LinAlgError:  # a pole on some agent's spectrum
        X = np.full(rhs.shape, np.nan)
        for row in range(len(X)):
            try:
                X[row] = np.linalg.solve(shifted[row], rhs[row])
            except np.linalg.LinAlgError:
                pass
    X = X[..., 0].mT
    ok = np.isfinite(X).all(axis=(1, 2))
    ok[ok] = np.linalg.cond(X[ok]) <= 1e12
    return ok, np.linalg.solve(X[ok].mT, W.T).mT


def _anchor_riccati(Acl, NNt):
    """Stabilizing ``Q > 0`` solving the fixed-gain Riccati equation

        Q Acl + Acl' Q + Q NNt Q + (1 + ANCHOR_INFLATION) I = 0

    for each agent of the stacks ``Acl`` and ``NNt`` (k, n, n), by the
    stable eigenvectors of its Hamiltonian (Laub's method).  Returns
    ``(ok, Q)``: ``ok`` (k,) is False where no such solution exists, and
    ``Q`` holds the solutions of the ``ok`` agents only.  Existence is
    exactly strict feasibility of the fixed-gain feedback inequality
    (Schur), so this doubles as a cheap feasibility oracle over
    candidate gains.
    """
    k, n = Acl.shape[:2]
    ham = np.empty((k, 2 * n, 2 * n))
    ham[:, :n, :n], ham[:, :n, n:] = Acl, NNt
    ham[:, n:, :n] = -(1.0 + ANCHOR_INFLATION) * np.eye(n)
    ham[:, n:, n:] = -Acl.mT
    ev, V = np.linalg.eig(ham)
    scale = np.maximum(1.0, np.abs(ev).max(axis=1))
    stable = ev.real < 0
    # an eigenvalue on the imaginary axis is a boundary case
    ok = ~(np.abs(ev.real).min(axis=1) < 1e-8 * scale)
    ok &= stable.sum(axis=1) == n
    rows = np.flatnonzero(ok)
    # the stable eigenvectors, in the order eig returns them
    order = np.argsort(~stable[rows], axis=1, kind="stable")[:, :n]
    Vs = np.take_along_axis(V[rows], order[:, None, :], axis=2)
    # eig of one matrix returns real vectors when its spectrum is real;
    # such an agent keeps real arithmetic here, as it would alone
    real = (ev[rows].imag == 0).all(axis=1)
    Q = np.empty((len(rows), n, n))
    well = np.zeros(len(rows), dtype=bool)
    for group, X in ((real, Vs.real), (~real, Vs)):
        at = np.flatnonzero(group)
        X = X[at]
        fine = np.linalg.cond(X[:, :n]) <= 1e12
        at, X = at[fine], X[fine]
        well[at] = True
        Q[at] = np.real(X[:, n:] @ np.linalg.inv(X[:, :n]))
    rows, Q = rows[well], Q[well]
    Q = 0.5 * (Q + Q.mT)
    positive = np.linalg.eigvalsh(Q)[:, 0] > 0.0
    rows, Q = rows[positive], Q[positive]
    Acl, NNt = Acl[rows], NNt[rows]
    resid = Q @ Acl + Acl.mT @ Q + Q @ NNt @ Q + np.eye(n)
    negative = np.linalg.eigvalsh(0.5 * (resid + resid.mT))[:, -1] < 0.0
    ok[:] = False
    ok[rows[negative]] = True
    return ok, Q[negative]


def _anchor_probe(A, B, NNt, poles):
    """One probe of each agent of a stack: place its poles, then test
    the placing gain with the Riccati oracle.  Returns ``(ok, K0, Q)``:
    ``ok`` (k,) marks the agents that pass both, and ``K0`` and ``Q``
    hold their gains and Riccati solutions."""
    ok, K0 = _placing_gains(A, B, poles)
    riccati, Q = _anchor_riccati(A[ok] + B[ok] @ K0, NNt[ok])
    ok[ok] = riccati
    return ok, K0[riccati], Q


def _slow_anchors(A, B, D, alpha, delta):
    """Anchor ``(R, G)`` of the slowest certifiable pole family
    ``-s * CONTROLLER_POLE_RATIO**j`` for each agent of the stacks
    ``A``, ``B`` and ``D``: a bisection over the speed ``s``, then
    ``CONTROLLER_POLE_SLACK`` faster; None for an agent even fast
    anchors fail.

    The bisection runs in lockstep over the agents.  Each agent keeps
    its own bracket, but every probe round is one stacked placement
    (:func:`_placing_gains`) and one stacked Riccati test
    (:func:`_anchor_riccati`) over the agents still probing.  Each
    agent makes the probes a bisection of its own would make.
    """
    n = A.shape[1]
    pattern = -(CONTROLLER_POLE_RATIO ** np.arange(n))
    NNt = B @ B.mT / alpha + D @ D.mT / delta ** 2

    def probe(rows, speeds):
        return _anchor_probe(A[rows], B[rows], NNt[rows],
                             speeds[:, None] * pattern)

    # bracket from above: raise each speed until its probe passes, at
    # most 24 times; then lower it while probes keep passing
    hi = 1.0 + np.abs(np.linalg.eigvals(A)).max(axis=1)
    found = probe(np.arange(len(A)), hi)[0]
    for _ in range(24):
        rows = np.flatnonzero(~found)
        if not rows.size:
            break
        hi[rows] *= 1.5
        found[rows] = probe(rows, hi[rows])[0]
    lo = hi / 1.5
    rows = np.flatnonzero(found & (lo > 1e-3))
    while rows.size:
        rows = rows[probe(rows, lo[rows])[0]]
        hi[rows] = lo[rows]
        lo[rows] /= 1.5
        rows = rows[lo[rows] > 1e-3]

    rows = np.flatnonzero(found)
    for _ in range(40):
        mid = 0.5 * (lo[rows] + hi[rows])
        ok = probe(rows, mid)[0]
        hi[rows[ok]] = mid[ok]
        lo[rows[~ok]] = mid[~ok]

    anchors = [None] * len(A)
    for factor in (CONTROLLER_POLE_SLACK, 1.0, 1.5):
        if not rows.size:
            break
        ok, K0, Q = probe(rows, factor * hi[rows])
        R0 = np.linalg.inv(Q)
        R0 = 0.5 * (R0 + R0.mT)
        for i, R, G in zip(rows[ok], R0, K0 @ R0):
            anchors[i] = {"R": R, "G": G}
        rows = rows[~ok]
    return anchors


def _agent_blocks(M, m):
    """The ``m`` diagonal blocks of a block-diagonal network matrix, as
    one (m, rows, cols) stack."""
    rows, cols = M.shape[0] // m, M.shape[1] // m
    return M.reshape(m, rows, m, cols)[np.arange(m), :, np.arange(m)]


def _distinct_models(*stacks):
    """``(first, model)`` of the agents of the (m, ...) ``stacks``: two
    agents are one model when their blocks have the same bytes (no
    tolerance: ``-0.0`` differs from ``0.0``).  ``first`` lists the
    first agent of each model, ascending, and agent ``i`` is of model
    ``model[i]``, so ``first[model[i]]`` is the first agent like it."""
    seen, first, model = {}, [], []
    for i, blocks in enumerate(zip(*stacks)):
        key = b"".join(b.tobytes() for b in blocks)
        if key not in seen:
            seen[key] = len(first)
            first.append(i)
        model.append(seen[key])
    return first, model


@dataclass(frozen=True)
class ControllerSynthesis:
    """Accepted state-feedback certificate and gain."""

    alpha: float
    delta: float
    R: np.ndarray
    G: np.ndarray
    K: np.ndarray
    gamma: float
    margin: float


def synth_controller(net: NetworkModel, alpha: float, delta: float,
                     margin: float = MARGIN,
                     max_iterations: int = 6000) -> ControllerSynthesis:
    """Synthesize the inner state-feedback gain ``K = G R^{-1}``.

    Per-model decomposition mirrors :func:`synth_observer`: one problem
    and one anchor per distinct model, agents whose ``A``, ``B`` and
    ``D`` blocks have the same bytes sharing one.  Each model's search
    starts at the slowest certifiable pole family (see module
    docstring), which keeps the DC gain that the cooperative outer loop
    needs.  When no anchor can be built for an agent, its solve falls
    back to the cold-started search boxed by the
    ``[CONTROLLER_DECAY, CONTROLLER_MAX_RATE]`` eigenvalue strip.

    The accepted gain is re-verified on ``Lambda(R, K R)``, built at
    the returned gain.  Its (1,1) block is ``(A + B K) R + R (A + B K)'``,
    so with ``R > 0`` it proves ``A + B K`` Hurwitz.  A congruence with
    ``diag(R^{-1}, I, I, I)`` and a Schur complement (Boyd, El Ghaoui,
    Feron & Balakrishnan, *Linear Matrix Inequalities in System and
    Control Theory*, SIAM 1994, Sec. 2.1) turn it into the dissipation
    inequality

        [[Q Acl + Acl' Q + I,  -Q B,      Q D],
         [*,                 -alpha I,     0 ],
         [*,                    *,   -delta^2 I]]  < 0,   Q = R^{-1},

    whose quadratic storage function certifies the L2 gain used by
    :func:`gamma_bound`.  Every :class:`InfeasibleError` raised here
    starts with "feedback".
    """
    if delta <= 0:
        raise DeltaNonPositiveError(f"delta must be > 0, got {delta}")
    if alpha <= 0:
        raise AlphaNonPositiveError(f"alpha must be > 0, got {alpha}")

    A, B, D = (_agent_blocks(M, net.m) for M in (net.A, net.B, net.D))
    first, model = _distinct_models(A, B, D)
    A, B, D = A[first], B[first], D[first]
    anchors = _slow_anchors(A, B, D, alpha, delta)
    variables = [VariableSpec("R", net.n_x, net.n_x, symmetric=True,
                              positive_definite=True),
                 VariableSpec("G", net.n_u, net.n_x)]
    # anchored and strip-boxed agents differ in block layout, so they are
    # probed, and iterate, as two stacks
    problems = [None] * len(first)
    for strip in (False, True):
        rows = [i for i, anchor in enumerate(anchors)
                if (anchor is None) == strip]
        stacked = LmiProblem.stack(variables, lambda v: feedback_inequality(
            v["R"], v["G"], A[rows, None], B[rows, None], D[rows, None],
            alpha, delta, strip=strip), len(rows))
        for i, problem in zip(rows, stacked):
            problems[i] = problem
    solutions = _solve_block(
        problems, margin, max_iterations,
        f"feedback LMI infeasible for agent {{}} at alpha={alpha:g}, "
        f"delta={delta:g}", anchors, first)
    R, G = (block_diag(*(solutions[j][name] for j in model))
            for name in ("R", "G"))
    K = solve_linear(R, G.T).T  # K R = G with R symmetric

    lam = feedback_inequality(R, K @ R, net.A, net.B, net.D, alpha, delta)
    achieved = _reverify("feedback", lam, margin, "R", R)
    return ControllerSynthesis(alpha=alpha, delta=delta, R=R, G=G, K=K,
                               gamma=gamma_bound(K, alpha, delta),
                               margin=achieved)


def gamma_bound(K, alpha: float, delta: float) -> float:
    """Combined attenuation level ``sqrt(alpha * ||K||_2^2 + 1) * delta``.

    Upper-bounds the realized L2 gain from the total disturbance input
    (external disturbance plus feedback-side estimation spillover) to
    the network state, given observer attenuation ``delta`` and input
    weight ``alpha``.
    """
    if delta <= 0:
        raise DeltaNonPositiveError(f"delta must be > 0, got {delta}")
    if alpha <= 0:
        raise AlphaNonPositiveError(f"alpha must be > 0, got {alpha}")
    norm = np.linalg.norm(np.asarray(K, dtype=float), 2)
    return float(np.sqrt(alpha * norm ** 2 + 1.0) * delta)
