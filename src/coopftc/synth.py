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
accepted point into the interior of the feasible set.  Every accepted
solution is re-verified from scratch through plain eigendecompositions,
independent of the iteration that produced it.

Feasible sets here are large, and different feasible gains behave very
differently in closed loop: an over-fast inner loop starves the
cooperative outer loop of DC gain, which slows source tracking on
weakly pinned graphs.  The feedback synthesis therefore anchors the
iteration at the slowest gain the inequality can certify: a small
bisection over pole-placement speed, with feasibility decided by an
algebraic Riccati equation equivalent to the inequality at fixed gain,
yields a strictly feasible starting point that the projection step
accepts essentially unchanged.  When no anchor can be built for an
agent, its solve falls back to a cold-started search boxed by affine
eigenvalue-strip blocks (closed-loop decay rates between
``CONTROLLER_DECAY`` and ``CONTROLLER_MAX_RATE``); either way the
returned certificate passes the same independent re-verification.

Each inequality has one builder, :func:`observer_inequality` and
:func:`feedback_inequality`; it serves the per-agent LMI expression and
the re-verification of the assembled network matrices alike.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np
import scipy.linalg
import scipy.signal

from .errors import (
    AlphaNonPositiveError,
    DeltaNonPositiveError,
    DimensionMismatchError,
    InfeasibleError,
)
from .linalg import is_hurwitz, solve_linear, sym_eigendecomp
from .plant import AugmentedModel, NetworkModel, aug_indices

__all__ = [
    "VariableSpec",
    "LmiProblem",
    "solve_lmi",
    "ObserverSynthesis",
    "ControllerSynthesis",
    "synth_observer",
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


@dataclass
class LmiProblem:
    """Feasibility problem: symmetric affine expression strictly < 0.

    ``expression`` maps a dict of variable values to one symmetric
    matrix; it must be affine in the variables (checked by probing) and
    symmetric for every assignment.  Feasibility means
    ``lambda_max(expression) <= -margin`` with every PD-flagged variable
    satisfying ``lambda_min >= pd_margin``.
    """

    variables: list[VariableSpec]
    expression: Callable[[dict[str, np.ndarray]], np.ndarray]
    margin: float = MARGIN
    pd_margin: float = PD_MARGIN


# --- generic solver ---------------------------------------------------------

def _coordinates(variables):
    coords = []
    for v in variables:
        if v.symmetric:
            coords += [(v.name, i, j) for i in range(v.rows)
                       for j in range(i, v.cols)]
        else:
            coords += [(v.name, i, j) for i in range(v.rows)
                       for j in range(v.cols)]
    return coords


def _assignment(variables, coords, y):
    vals = {v.name: np.zeros((v.rows, v.cols)) for v in variables}
    sym = {v.name: v.symmetric for v in variables}
    for yk, (name, i, j) in zip(y, coords):
        vals[name][i, j] = yk
        if sym[name] and i != j:
            vals[name][j, i] = yk
    return vals


def _check_symmetric(M, what):
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionMismatchError(f"{what} must be square, got {M.shape}")
    if np.abs(M - M.T).max() > 1e-10 * max(1.0, np.abs(M).max()):
        raise ValueError(f"{what} is not symmetric; the expression must be "
                         "symmetric for every assignment")


class _AffineStack:
    """Vectorized affine map y -> [expression + t*I, pd_floor - V, ...].

    Precomputes the basis responses of all blocks so each iteration is a
    couple of small matrix products plus per-block eigendecompositions.
    """

    def __init__(self, problem: LmiProblem):
        self.coords = _coordinates(problem.variables)
        self.n_vars = len(self.coords)
        zero = _assignment(problem.variables, self.coords, np.zeros(self.n_vars))
        M0 = np.asarray(problem.expression(zero), dtype=float)
        _check_symmetric(M0, "expression at zero")
        self.pd_vars = [v for v in problem.variables if v.positive_definite]
        self.block_sizes = [M0.shape[0]] + [v.rows for v in self.pd_vars]
        self.offsets = np.concatenate([[0], np.cumsum([s * s for s in self.block_sizes])])
        total = self.offsets[-1]

        # constant part, margin-free (margins are added in `constant`)
        self.base = np.zeros(total)
        self.base[:M0.size] = M0.ravel()

        # basis responses, one column per scalar coordinate
        A = np.zeros((total, self.n_vars))
        for k in range(self.n_vars):
            e = np.zeros(self.n_vars)
            e[k] = 1.0
            vals = _assignment(problem.variables, self.coords, e)
            Mk = np.asarray(problem.expression(vals), dtype=float) - M0
            _check_symmetric(Mk + M0, f"expression response of {self.coords[k]}")
            col = np.zeros(total)
            col[:Mk.size] = Mk.ravel()
            for b, v in enumerate(self.pd_vars, start=1):
                name, i, j = self.coords[k]
                if name == v.name:
                    E = np.zeros((v.rows, v.cols))
                    E[i, j] = -1.0
                    if i != j:
                        E[j, i] = -1.0
                    col[self.offsets[b]:self.offsets[b + 1]] = E.ravel()
            A[:, k] = col
        self.A = A
        self.pinv = np.linalg.pinv(A) if self.n_vars else None

    def constant(self, t: float, pd_floor: float) -> np.ndarray:
        g0 = self.base.copy()
        n0 = self.block_sizes[0]
        g0[:n0 * n0] += (t * np.eye(n0)).ravel()
        for b in range(1, len(self.block_sizes)):
            nb = self.block_sizes[b]
            g0[self.offsets[b]:self.offsets[b + 1]] += (pd_floor * np.eye(nb)).ravel()
        return g0

    def blocks(self, gvec: np.ndarray):
        out = []
        for b, nb in enumerate(self.block_sizes):
            out.append(gvec[self.offsets[b]:self.offsets[b + 1]].reshape(nb, nb))
        return out


def solve_lmi(problem: LmiProblem, max_iterations: int = 6000,
              initial: dict[str, np.ndarray] | None = None) -> dict[str, np.ndarray]:
    """Find a strictly feasible assignment for ``problem``.

    Parameters
    ----------
    problem : LmiProblem
    max_iterations : int
        Projection-iteration budget before declaring infeasibility.
    initial : dict, optional
        Warm-start assignment (same block shapes as the variables).

    Returns
    -------
    dict mapping variable names to value arrays, guaranteed to satisfy
    ``lambda_max(expression) <= -margin`` and all PD floors.

    Raises
    ------
    InfeasibleError
        If no feasible point is found; the message says whether the
        problem is constant (provably infeasible) or the iteration
        budget/stagnation cutoff was hit.
    """
    stack = _AffineStack(problem)
    t, pd = float(problem.margin), float(problem.pd_margin)
    if t < 0 or pd < 0:
        raise ValueError("margins must be non-negative")

    if stack.n_vars == 0:
        w = sym_eigendecomp(stack.blocks(stack.constant(0.0, pd))[0]).eigenvalues
        if w[-1] <= -t:
            return {}
        raise InfeasibleError(
            f"constant expression has lambda_max = {w[-1]:.3e} > {-t:.3e}: "
            "provably infeasible"
        )

    # Internal targets sit slightly beyond the requested margins so the
    # exact requirement is met strictly before full convergence.
    t_int = 1.05 * t + 1e-9
    pd_int = 2.0 * pd + 1e-12
    g0 = stack.constant(t_int, pd_int)
    slacks = [t_int - t] + [pd_int - pd] * len(stack.pd_vars)

    if initial is not None:
        y = np.array([initial[name][i, j] for name, i, j in stack.coords])
    else:
        y = np.zeros(stack.n_vars)

    def project_cone(vec):
        clipped = []
        for Gb in stack.blocks(vec):
            w, V = np.linalg.eigh(0.5 * (Gb + Gb.T))
            clipped.append((V * np.minimum(w, 0.0)) @ V.T)
        return np.concatenate([Z.ravel() for Z in clipped])

    def family_point(vec):
        """Project onto the affine family; return (y, stacked value)."""
        yk = stack.pinv @ (vec - g0)
        return yk, g0 + stack.A @ yk

    def margins_met(vec):
        return all(
            np.linalg.eigvalsh(0.5 * (Gb + Gb.T))[-1] <= s
            for Gb, s in zip(stack.blocks(vec), slacks)
        )

    # Douglas-Rachford splitting between the affine family and the
    # negative-semidefinite cone; plain alternating projections crawl on
    # the feedback inequality, the reflected iteration does not.
    z = g0 + stack.A @ y
    best_gap = np.inf
    stall = 0
    worst = np.nan
    for _ in range(max_iterations):
        u = project_cone(z)
        y_v, v = family_point(2.0 * u - z)
        if margins_met(v):
            return _assignment(problem.variables, stack.coords, y_v)
        z = z + v - u

        gap = np.linalg.norm(v - u)
        worst = max(
            np.linalg.eigvalsh(0.5 * (Gb + Gb.T))[-1] - s
            for Gb, s in zip(stack.blocks(v), slacks)
        )
        if gap < best_gap * (1.0 - 1e-9):
            best_gap, stall = gap, 0
        else:
            stall += 1
            if stall >= 500:
                raise InfeasibleError(
                    "projection iteration stagnated (residual gap "
                    f"{gap:.3e}); no strictly feasible point found"
                )
    raise InfeasibleError(
        f"iteration budget ({max_iterations}) exhausted with "
        f"lambda_max excess {worst:.3e}; no strictly feasible point found"
    )


def _solve_with_ladder(problem: LmiProblem, max_iterations: int):
    """Solve at the base margin, then climb a margin ladder while the
    warm-started solves keep succeeding; return the deepest point."""
    sol = solve_lmi(problem, max_iterations=max_iterations)
    for t in MARGIN_LADDER:
        if t <= problem.margin:
            continue
        try:
            sol = solve_lmi(replace(problem, margin=t),
                            max_iterations=max_iterations // 3,
                            initial=sol)
        except InfeasibleError:
            break
    return sol


# --- the two inequalities ---------------------------------------------------

def observer_inequality(P, H, F1A, E2, F1D, delta, decay=False):
    """Observer block ``Pi(P, H)`` (module docstring) for the given
    ``F1 A_a``, ``E2`` and ``F1 D``, per agent or for the network.

    With ``decay`` the block ``Delta - I + 2 OBSERVER_DECAY P`` is
    appended on the diagonal, imposing the minimum decay rate.
    """
    core = P @ F1A + F1A.T @ P - H @ E2 - E2.T @ H.T
    PD = P @ F1D
    pi = np.block([[core + np.eye(F1A.shape[0]), PD],
                   [PD.T, -delta ** 2 * np.eye(F1D.shape[1])]])
    if decay:
        return scipy.linalg.block_diag(pi, core + 2.0 * OBSERVER_DECAY * P)
    return pi


def feedback_inequality(R, G, A, B, D, alpha, delta, strip=False):
    """Feedback block ``Lambda(R, G)`` (module docstring), per agent or
    for the network.

    With ``strip`` two blocks are appended on the diagonal that confine
    the closed-loop decay rate to ``[CONTROLLER_DECAY,
    CONTROLLER_MAX_RATE]``.
    """
    n, nu, nv = A.shape[0], B.shape[1], D.shape[1]
    core = A @ R + R @ A.T + B @ G + G.T @ B.T
    lam = np.block([
        [core, R, -B, D],
        [R, -np.eye(n), np.zeros((n, nu)), np.zeros((n, nv))],
        [-B.T, np.zeros((nu, n)), -alpha * np.eye(nu), np.zeros((nu, nv))],
        [D.T, np.zeros((nv, n)), np.zeros((nv, nu)), -delta ** 2 * np.eye(nv)],
    ])
    if strip:
        return scipy.linalg.block_diag(
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

    One small problem is solved per agent and the solutions are
    scattered into network-level ``(P, H)``; block-diagonality of the
    plant makes the assembly exact, and the full network inequality is
    re-verified on the assembled matrices regardless.

    Returns
    -------
    ObserverSynthesis
        With ``Lgain = P^{-1} H`` and ``margin = -lambda_max(Pi)``
        measured on the assembled network matrices.

    Raises
    ------
    DeltaNonPositiveError
        If ``delta <= 0``.
    InfeasibleError
        If any sub-problem has no strictly feasible point at the
        requested ``delta``, or the assembled certificate fails its
        re-verification; the message starts with "observer".
    """
    if delta <= 0:
        raise DeltaNonPositiveError(f"delta must be > 0, got {delta}")

    F1A = aug.F1 @ aug.A_a
    F1D = aug.F1 @ net.D
    P = np.zeros((aug.n_aug, aug.n_aug))
    H = np.zeros((aug.n_aug, net.nbar_y))
    for i in range(net.m):
        ai = aug_indices(net, i)
        yi = np.arange(i * net.n_y, (i + 1) * net.n_y)
        vi = np.arange(i * net.n_v, (i + 1) * net.n_v)
        sol = _solve_observer_block(
            F1A[np.ix_(ai, ai)], aug.E2[np.ix_(yi, ai)], F1D[np.ix_(ai, vi)],
            delta, margin, max_iterations, label=f"agent {i + 1}")
        P[np.ix_(ai, ai)] = sol["P"]
        H[np.ix_(ai, yi)] = sol["H"]

    Lgain = solve_linear(P, H)

    # Re-verify the accepted certificate from scratch on the assembled
    # network matrices; nothing below depends on the solver internals.
    pi = observer_inequality(P, H, F1A, aug.E2, F1D, delta)
    achieved = -sym_eigendecomp(pi).eigenvalues[-1]
    p_min = sym_eigendecomp(P).eigenvalues[0]
    if achieved < margin or p_min < PD_MARGIN:
        raise InfeasibleError(
            f"observer certificate failed re-verification on the assembled "
            f"network (margin {achieved:.3e}, lambda_min(P) {p_min:.3e})"
        )
    residual = np.abs(P @ Lgain - H).max()
    if residual > 1e-9 * max(1.0, np.abs(H).max()):
        raise InfeasibleError(
            f"observer gain residual |P L - H| = {residual:.3e} too large")
    if not is_hurwitz(F1A - Lgain @ aug.E2):
        raise InfeasibleError(
            "observer error dynamics not Hurwitz after assembly")
    return ObserverSynthesis(delta=delta, P=P, H=H, Lgain=Lgain,
                             margin=achieved)


def _solve_observer_block(F1A, E2, F1D, delta, margin, max_iterations,
                          label):
    n = F1A.shape[0]
    problem = LmiProblem(
        variables=[
            VariableSpec("P", n, n, symmetric=True, positive_definite=True),
            VariableSpec("H", n, E2.shape[0]),
        ],
        expression=lambda v: observer_inequality(v["P"], v["H"], F1A, E2,
                                                 F1D, delta, decay=True),
        margin=margin,
    )
    try:
        return _solve_with_ladder(problem, max_iterations)
    except InfeasibleError as exc:
        raise InfeasibleError(
            f"observer LMI infeasible for {label} at delta={delta:g}: {exc}"
        ) from exc


# --- state-feedback synthesis -----------------------------------------------

def _anchor_riccati(Acl, NNt, inflation=ANCHOR_INFLATION):
    """Stabilizing ``Q > 0`` solving the fixed-gain Riccati equation

        Q Acl + Acl' Q + Q NNt Q + (1 + inflation) I = 0,

    or None when no such solution exists.  Existence is exactly strict
    feasibility of the fixed-gain feedback inequality (Schur), so this
    doubles as a cheap feasibility oracle over candidate gains.
    """
    n = Acl.shape[0]
    ham = np.block([[Acl, NNt], [-(1.0 + inflation) * np.eye(n), -Acl.T]])
    ev, V = np.linalg.eig(ham)
    scale = max(1.0, np.abs(ev).max())
    if np.min(np.abs(ev.real)) < 1e-8 * scale:
        return None  # eigenvalue on the imaginary axis: boundary case
    stable = ev.real < 0
    if int(stable.sum()) != n:
        return None
    Vs = V[:, stable]
    X1, X2 = Vs[:n, :], Vs[n:, :]
    if np.linalg.cond(X1) > 1e12:
        return None
    Q = np.real(X2 @ np.linalg.inv(X1))
    Q = 0.5 * (Q + Q.T)
    if np.linalg.eigvalsh(Q)[0] <= 0.0:
        return None
    resid = Q @ Acl + Acl.T @ Q + Q @ NNt @ Q + np.eye(n)
    if np.linalg.eigvalsh(0.5 * (resid + resid.T))[-1] >= 0.0:
        return None
    return Q


def _anchor_from_poles(A, B, D, alpha, delta, poles):
    """Feasible ``(R, G)`` whose recovered gain places ``A+BK`` at
    ``poles``, or None when placement fails or the Riccati oracle
    rejects the speed."""
    try:
        placed = scipy.signal.place_poles(np.asarray(A, dtype=float),
                                          np.asarray(B, dtype=float),
                                          np.sort(np.asarray(poles)))
    except ValueError:
        return None
    K0 = -placed.gain_matrix
    NNt = B @ B.T / alpha + D @ D.T / delta ** 2
    Q = _anchor_riccati(A + B @ K0, NNt)
    if Q is None:
        return None
    R0 = np.linalg.inv(Q)
    R0 = 0.5 * (R0 + R0.T)
    return {"R": R0, "G": K0 @ R0}


def _slow_pole_targets(A, B, D, alpha, delta,
                       ratio=CONTROLLER_POLE_RATIO,
                       slack=CONTROLLER_POLE_SLACK):
    """Slowest certifiable pole family ``-s * ratio**j``, slowed-down
    bisection over the speed ``s``; None when even fast anchors fail."""
    n = A.shape[0]
    pattern = -(ratio ** np.arange(n))

    def feasible(speed):
        return _anchor_from_poles(A, B, D, alpha, delta, speed * pattern)

    hi = 1.0 + float(np.abs(np.linalg.eigvals(A)).max())
    tries = 0
    while feasible(hi) is None:
        hi *= 1.5
        tries += 1
        if tries > 24:
            return None
    lo = hi / 1.5
    while lo > 1e-3 and feasible(lo) is not None:
        hi = lo
        lo /= 1.5
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if feasible(mid) is not None:
            hi = mid
        else:
            lo = mid
    for speed in (slack * hi, hi, 1.5 * hi):
        if feasible(speed) is not None:
            return speed * pattern
    return None


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

    Per-agent decomposition mirrors :func:`synth_observer`.  Each agent's
    search starts at the slowest certifiable pole family (see module
    docstring), which keeps the DC gain that the cooperative outer loop
    needs.  When no anchor can be built for an agent, its solve falls
    back to the cold-started search boxed by the
    ``[CONTROLLER_DECAY, CONTROLLER_MAX_RATE]`` eigenvalue strip.

    Besides the block inequality itself, the accepted gain is checked to
    make ``A + B K`` Hurwitz and to satisfy the equivalent
    pre-elimination dissipation inequality

        [[Q Acl + Acl' Q + I,  -Q B,      Q D],
         [*,                 -alpha I,     0 ],
         [*,                    *,   -delta^2 I]]  < 0,   Q = R^{-1},

    which is the form whose quadratic storage function certifies the L2
    gain used by :func:`gamma_bound`.  Every :class:`InfeasibleError`
    raised here starts with "feedback".
    """
    if delta <= 0:
        raise DeltaNonPositiveError(f"delta must be > 0, got {delta}")
    if alpha <= 0:
        raise AlphaNonPositiveError(f"alpha must be > 0, got {alpha}")

    nbx = net.nbar_x
    R = np.zeros((nbx, nbx))
    G = np.zeros((net.nbar_u, nbx))
    for i in range(net.m):
        xi = np.arange(i * net.n_x, (i + 1) * net.n_x)
        ui = np.arange(i * net.n_u, (i + 1) * net.n_u)
        vi = np.arange(i * net.n_v, (i + 1) * net.n_v)
        Ai = net.A[np.ix_(xi, xi)]
        Bi = net.B[np.ix_(xi, ui)]
        Di = net.D[np.ix_(xi, vi)]
        poles = _slow_pole_targets(Ai, Bi, Di, alpha, delta)
        anchor = (None if poles is None
                  else _anchor_from_poles(Ai, Bi, Di, alpha, delta, poles))
        sol = _solve_controller_block(Ai, Bi, Di, alpha, delta, margin,
                                      max_iterations, label=f"agent {i + 1}",
                                      initial=anchor)
        R[np.ix_(xi, xi)] = sol["R"]
        G[np.ix_(ui, xi)] = sol["G"]

    K = solve_linear(R, G.T).T  # K R = G with R symmetric

    lam = feedback_inequality(R, G, net.A, net.B, net.D, alpha, delta)
    achieved = -sym_eigendecomp(lam).eigenvalues[-1]
    r_min = sym_eigendecomp(R).eigenvalues[0]
    if achieved < margin or r_min < PD_MARGIN:
        raise InfeasibleError(
            f"feedback certificate failed re-verification on the assembled "
            f"network (margin {achieved:.3e}, lambda_min(R) {r_min:.3e})"
        )
    residual = np.abs(K @ R - G).max()
    if residual > 1e-9 * max(1.0, np.abs(G).max()):
        raise InfeasibleError(
            f"feedback gain residual |K R - G| = {residual:.3e} too large")
    Acl = net.A + net.B @ K
    if not is_hurwitz(Acl):
        raise InfeasibleError(
            "feedback closed loop A + B K not Hurwitz after assembly")

    # Equivalent pre-elimination inequality at Q = R^{-1}.
    Q = solve_linear(R, np.eye(nbx))
    Q = 0.5 * (Q + Q.T)
    diss = np.block([
        [Q @ Acl + Acl.T @ Q + np.eye(nbx), -Q @ net.B, Q @ net.D],
        [-(Q @ net.B).T, -alpha * np.eye(net.nbar_u),
         np.zeros((net.nbar_u, net.nbar_v))],
        [(Q @ net.D).T, np.zeros((net.nbar_v, net.nbar_u)),
         -delta ** 2 * np.eye(net.nbar_v)],
    ])
    if sym_eigendecomp(diss).eigenvalues[-1] >= 0.0:
        raise InfeasibleError(
            "feedback gain (Q, K) fails the dissipation inequality"
        )

    return ControllerSynthesis(alpha=alpha, delta=delta, R=R, G=G, K=K,
                               gamma=gamma_bound(K, alpha, delta),
                               margin=achieved)


def _solve_controller_block(A, B, D, alpha, delta, margin, max_iterations,
                            label, initial=None):
    n = A.shape[0]
    problem = LmiProblem(
        variables=[
            VariableSpec("R", n, n, symmetric=True, positive_definite=True),
            VariableSpec("G", B.shape[1], n),
        ],
        expression=lambda v: feedback_inequality(
            v["R"], v["G"], A, B, D, alpha, delta, strip=initial is None),
        margin=margin,
    )
    try:
        if initial is not None:
            # Anchored: the margin ladder would walk away from the
            # anchor; its strictness is already built into the anchor.
            return solve_lmi(problem, max_iterations=max_iterations,
                             initial=initial)
        return _solve_with_ladder(problem, max_iterations)
    except InfeasibleError as exc:
        raise InfeasibleError(
            f"feedback LMI infeasible for {label} at alpha={alpha:g}, "
            f"delta={delta:g}: {exc}"
        ) from exc


def gamma_bound(K, alpha: float, delta: float) -> float:
    """Combined attenuation level ``sqrt(alpha * lambda_max(K'K) + 1) * delta``.

    Upper-bounds the realized L2 gain from the total disturbance input
    (external disturbance plus feedback-side estimation spillover) to
    the network state, given observer attenuation ``delta`` and input
    weight ``alpha``.
    """
    if delta <= 0:
        raise DeltaNonPositiveError(f"delta must be > 0, got {delta}")
    if alpha <= 0:
        raise AlphaNonPositiveError(f"alpha must be > 0, got {alpha}")
    K = np.asarray(K, dtype=float)
    lam_max = sym_eigendecomp(K.T @ K).eigenvalues[-1]
    return float(np.sqrt(alpha * lam_max + 1.0) * delta)
