"""Test-only reference models that the package itself never runs."""

import io
from types import SimpleNamespace

import numpy as np
import scipy.signal
from scipy.interpolate import CubicHermiteSpline, CubicSpline

from coopftc.analysis import _theta_star
from coopftc.control import cooperative_error
from coopftc.errors import (DimensionMismatchError, InfeasibleError,
                            NotSymmetricError)
from coopftc.linalg import SYMMETRY_RTOL, as_symmetric
from coopftc.sim import integrate
from coopftc.synth import (ANCHOR_INFLATION, CONTROLLER_POLE_RATIO,
                           CONTROLLER_POLE_SLACK, FARKAS_ROUNDING, PD_MARGIN)


def virtual_observer_oracle(aug, net, synth, times, x_a, x_a_dot, u,
                            x_o0=None):
    """Integrate the idealized observer that sees the true derivative.

    This observer is not implementable (it consumes the exact
    augmented-state derivative through the filtered-output slope), so
    it serves purely as a test oracle: fed the recorded
    ``x_a``/``x_a_dot``/``u`` traces of a run, its ``x_o`` trajectory
    must match ``eta + F2 y_f`` from the realizable observer to
    integration accuracy.  Signals between grid points are
    reconstructed by cubic Hermite interpolation (the derivative trace
    pins the slope), keeping the classical Runge-Kutta steps of
    :func:`coopftc.sim.integrate` at full order.  The equivalence itself
    holds because the difference of the two observers obeys the
    homogeneous estimation-error dynamics.

    Parameters
    ----------
    times : (N,) strictly increasing, uniformly spaced sample times.
    x_a : (N, n_aug) true augmented-state trace.
    x_a_dot : (N, n_aug) its exact derivative trace.
    u : (N, nbar_u) input trace.
    x_o0 : optional initial estimate; defaults to ``F2 E2 x_a(0)``,
        which matches starting the realizable observer at
        ``eta(0) = 0``.

    Returns
    -------
    (N, n_aug) array of virtual-observer estimates.
    """
    times = np.asarray(times, dtype=float)
    x_a = np.asarray(x_a, dtype=float)
    x_a_dot = np.asarray(x_a_dot, dtype=float)
    u = np.asarray(u, dtype=float)
    n = times.size
    if x_a.shape != (n, aug.n_aug) or x_a_dot.shape != x_a.shape:
        raise DimensionMismatchError(
            f"state traces must be ({n}, {aug.n_aug}), got "
            f"{x_a.shape} and {x_a_dot.shape}")
    if u.shape != (n, net.nbar_u):
        raise DimensionMismatchError(
            f"input trace must be ({n}, {net.nbar_u}), got {u.shape}")

    Lgain = synth.Lgain
    F1A = aug.F1 @ aug.A_a
    F1B = aug.F1 @ net.B
    E2, F2 = aug.E2, aug.F2

    xa_spline = CubicHermiteSpline(times, x_a, x_a_dot, axis=0)
    dxa_spline = xa_spline.derivative()
    u_spline = CubicSpline(times, u, axis=0)

    if x_o0 is None:
        x_o0 = F2 @ (E2 @ x_a[0])

    def rhs(t, x_o):
        t = times[0] + t  # integrate's grid starts at 0
        y_f = E2 @ xa_spline(t)
        dy_f = E2 @ dxa_spline(t)
        return (F1A @ x_o + F1B @ u_spline(t) + F2 @ dy_f
                + Lgain @ (y_f - E2 @ x_o))

    h = times[1] - times[0]
    return integrate(rhs, x_o0, h, times[-1] - times[0])[1]


def kronecker_lyapunov(Phi, Q):
    """Solve ``Phi.T @ P + P @ Phi = -Q`` as one n^2 x n^2 linear system.

    With column-major ``vec``, ``vec(Phi.T P) = (I (x) Phi.T) vec(P)`` and
    ``vec(P Phi) = (Phi.T (x) I) vec(P)``, so ``vec(P)`` solves the
    Kronecker-sum system ``(I (x) Phi.T + Phi.T (x) I) vec(P) = -vec(Q)``.
    O(n^6) time and O(n^4) memory: the reference for
    :func:`coopftc.linalg.solve_lyapunov`, not a path for large n.
    """
    Phi = np.asarray(Phi, dtype=float)
    Q = np.asarray(Q, dtype=float)
    eye = np.eye(Phi.shape[0])
    K = np.kron(eye, Phi.T) + np.kron(Phi.T, eye)
    vec_p = np.linalg.solve(K, -Q.reshape(-1, order="F"))
    return vec_p.reshape(Phi.shape, order="F")


def place_poles_gain(A, B, poles):
    """Gain ``K`` placing the eigenvalues of ``A + B K`` at ``poles``, by
    ``scipy.signal.place_poles``: the reference for
    :func:`coopftc.synth._placing_gains`.  ``scipy.signal`` is imported
    here, never by the package, whose import it would slow."""
    return -scipy.signal.place_poles(A, B, np.sort(poles)).gain_matrix


def sym_eigenvalues(S):
    """Ascending eigenvalues of ``(S + S.T) / 2`` by ``np.linalg.eigh``:
    the reference for :func:`coopftc.linalg.sym_eigvals`.  Its symmetry
    test reads the largest entry, not the Frobenius norm, and raises
    :class:`NotSymmetricError` beyond ``SYMMETRY_RTOL``."""
    S = np.asarray(S, dtype=float)
    if np.abs(S - S.T).max() > SYMMETRY_RTOL * max(1.0, np.abs(S).max()):
        raise NotSymmetricError("matrix is not symmetric")
    return np.linalg.eigh(0.5 * (S + S.T))[0]


def is_negative_definite(S, margin: float = 0.0) -> bool:
    """True iff ``lambda_max(S) < -margin`` (strict, so the zero matrix
    fails even at ``margin=0``): the independent re-check of an accepted
    LMI certificate."""
    return bool(sym_eigenvalues(S)[-1] < -margin)


def lmi_problem_reference(variables, expression):
    """One LMI problem probed coordinate by coordinate: ``expression`` at
    zero and at each unit coordinate, one call each with one matrix per
    variable, each result through :func:`coopftc.linalg.as_symmetric`.
    The reference for the stacked probe of
    :meth:`coopftc.synth.LmiProblem.stack`; returns the fields that
    ``LmiProblem`` keeps, as a namespace."""
    coords = [(v.name, i, j) for v in variables for i in range(v.rows)
              for j in range(i if v.symmetric else 0, v.cols)]

    def assignment(y):
        vals = {v.name: np.zeros((v.rows, v.cols)) for v in variables}
        sym = {v.name: v.symmetric for v in variables}
        for yk, (name, i, j) in zip(y, coords):
            vals[name][i, j] = yk
            if sym[name]:
                vals[name][j, i] = yk
        return vals

    n_vars = len(coords)
    M0 = as_symmetric(expression(assignment(np.zeros(n_vars))),
                      "expression at zero")
    pd_vars = [v for v in variables if v.positive_definite]
    block_sizes = [M0.shape[0]] + [v.rows for v in pd_vars]
    offsets = np.concatenate([[0], np.cumsum([s * s for s in block_sizes])])
    base = np.zeros(offsets[-1])
    base[:M0.size] = M0.ravel()
    A = np.zeros((offsets[-1], n_vars))
    for k in range(n_vars):
        e = np.zeros(n_vars)
        e[k] = 1.0
        Mk = as_symmetric(expression(assignment(e)),
                          f"expression response of {coords[k]}") - M0
        A[:Mk.size, k] = Mk.ravel()
        name, i, j = coords[k]
        for b, v in enumerate(pd_vars, start=1):
            if name == v.name:  # -V block: entries (i, j) and (j, i)
                off = offsets[b]
                A[[off + i * v.cols + j, off + j * v.cols + i], k] = -1.0
    diagonal = np.arange(M0.shape[0]) * (M0.shape[0] + 1)
    fixed = ~A[diagonal].any(axis=1)
    return SimpleNamespace(
        coords=coords, block_sizes=block_sizes, offsets=offsets, base=base,
        A=A, pinv=np.linalg.pinv(A) if n_vars else None,
        margin_cap=(-float(M0.diagonal()[fixed].max()) if fixed.any()
                    else np.inf))


def solve_lmi_reference(problem, margin, max_iterations=6000, initial=None):
    """One problem's Douglas-Rachford iteration, block by block: the
    reference for the lockstep kernel :func:`coopftc.synth._douglas_rachford`
    and for the verdicts :func:`coopftc.synth._solve_batch` reaches
    without iterating, apart from the dual solve's certificates.

    Returns the accepted assignment or raises :class:`InfeasibleError`
    with the message ``solve_lmi`` gives for every problem that the dual
    solve does not certify.  Every step is the per-problem form of the
    kernel's stacked step, so the two agree bit for bit.  The iteration
    is purely primal: an infeasible problem runs to the stall cutoff or
    the budget.
    """
    t = float(margin)
    if t < 0:
        raise ValueError(f"margin must be non-negative, got {margin}")

    if not problem.coords:
        w = sym_eigenvalues(problem.blocks(problem.base)[0])
        if w[-1] <= -t:
            return {}
        raise InfeasibleError(
            f"constant expression has lambda_max = {w[-1]:.3e} > {-t:.3e}: "
            "provably infeasible"
        )
    if t > problem.margin_cap:
        raise InfeasibleError(
            f"margin {t:.3e} is provably infeasible: a constant diagonal "
            f"entry of the expression caps the margin at "
            f"{problem.margin_cap:.3e}"
        )

    n_pd = len(problem.block_sizes) - 1
    floors = [t] + [PD_MARGIN] * n_pd
    targets = [1.05 * t + 1e-9] + [2.0 * PD_MARGIN + 1e-12] * n_pd
    slacks = [target - floor for target, floor in zip(targets, floors)]
    g0 = problem.base.copy()
    for Gb, target in zip(problem.blocks(g0), targets):
        Gb += target * np.eye(len(Gb))

    if initial is not None:
        y = np.array([initial[name][i, j] for name, i, j in problem.coords])
    else:
        y = np.zeros(len(problem.coords))

    def project_cone(vec):
        clipped = []
        for Gb in problem.blocks(vec):
            w, V = np.linalg.eigh(0.5 * (Gb + Gb.T))
            clipped.append((V * np.minimum(w, 0.0)) @ V.T)
        return np.concatenate([Z.ravel() for Z in clipped])

    z = g0 + problem.A @ y
    best_gap = np.inf
    stall = 0
    worst = np.nan
    for step in range(1, max_iterations + 1):
        u = project_cone(z)
        y_v = problem.pinv @ (2.0 * u - z - g0)
        v = g0 + problem.A @ y_v
        excess = [np.linalg.eigvalsh(0.5 * (Gb + Gb.T))[-1] - s
                  for Gb, s in zip(problem.blocks(v), slacks)]
        if all(e <= 0.0 for e in excess):
            return problem.assignment(y_v)
        z = z + v - u

        gap = np.linalg.norm(v - u)
        worst = max(excess)
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


def farkas_check(problem, margin, r):
    """Re-verify from scratch the Farkas certificate built from ``r``, a
    dual matrix of :func:`coopftc.synth._dual_solve` at ``margin`` as a
    stacked vector: the reference for :func:`coopftc.synth._farkas_radius`,
    with other arithmetic.

    Returns ``(radius, psd)``.  ``radius`` is ``Y``: every assignment
    ``y`` whose expression meets the floors (``lambda_max <= -margin``,
    each PD variable ``>= PD_MARGIN``) has ``|y| >= Y``.  ``psd`` is the
    smallest eigenvalue of a certificate block relative to its norm.
    """
    floors = [margin] + [PD_MARGIN] * (len(problem.block_sizes) - 1)
    floor0 = np.concatenate([
        (block + floor * np.eye(len(block))).ravel()
        for block, floor in zip(problem.blocks(problem.base), floors)])

    # what is left of r after its least-squares fit by the columns of A
    # is orthogonal to every direction of the family
    fit = np.linalg.lstsq(problem.A, r, rcond=None)[0]
    residual = r - problem.A @ fit
    blocks = []
    for block in problem.blocks(residual):
        w, V = np.linalg.eigh(0.5 * (block + block.T))
        blocks.append(V @ np.diag(np.clip(w, 0.0, None)) @ V.T)
    psd = min(np.linalg.eigvalsh(0.5 * (D + D.T))[0] / np.linalg.norm(D)
              for D in blocks if np.linalg.norm(D) > 0.0)
    D = np.concatenate([block.ravel() for block in blocks])

    # for X = floor0 + A y meeting the floors, 0 >= <X, D> =
    # <floor0, D> + <A'D, y> >= <floor0, D> - |A'D| |y|
    size = np.linalg.norm(D)
    lower = float(floor0 @ D) - FARKAS_ROUNDING * np.linalg.norm(floor0) * size
    upper = (np.linalg.norm(problem.A.T @ D)
             + FARKAS_ROUNDING * np.linalg.norm(problem.A) * size)
    return lower / upper, psd


def anchor_riccati(Acl, NNt):
    """Stabilizing ``Q > 0`` solving the fixed-gain Riccati equation

        Q Acl + Acl' Q + Q NNt Q + (1 + ANCHOR_INFLATION) I = 0,

    or None when no such solution exists: one agent's form of
    :func:`coopftc.synth._anchor_riccati`.
    """
    n = Acl.shape[0]
    ham = np.block([[Acl, NNt],
                    [-(1.0 + ANCHOR_INFLATION) * np.eye(n), -Acl.T]])
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


def placing_gain(A, B, poles):
    """Gain ``K0`` with ``A + B K0 = X diag(poles) X^{-1}``, or None when
    ``X`` is singular, not finite or has condition number above 1e12:
    one agent's form of :func:`coopftc.synth._placing_gains`, one pole
    at a time.

    Column ``j`` of ``X`` solves ``(A - p_j I) x_j = -B w_j``, the
    ``j``-th column of the Sylvester equation ``A X - X diag(poles) =
    -B W``.  ``scipy.linalg.solve_sylvester`` solves the same equation
    with other rounding, and the anchor bisection amplifies rounding:
    where its bound is set by Hamiltonian eigenvalues meeting the
    imaginary axis, rounding decides the probes near the bound, and even
    a one-ulp change of ``A`` moves the anchor far more than 1e-12.  So
    the reference makes the same column solves, agent by agent.
    """
    n, n_u = B.shape
    W = np.eye(n_u)[:, np.arange(n) % n_u]
    X = np.empty((n, n))
    for j, pole in enumerate(poles):
        try:
            X[:, j] = np.linalg.solve(A - pole * np.eye(n), -B @ W[:, j])
        except np.linalg.LinAlgError:  # the pole is on the spectrum of A
            return None
    if not np.isfinite(X).all() or np.linalg.cond(X) > 1e12:
        return None
    return np.linalg.solve(X.T, W.T).T


def anchor_from_poles(A, B, D, alpha, delta, poles):
    """Feasible ``(R, G)`` whose recovered gain places ``A+BK`` at
    ``poles``, or None when placement fails or the Riccati oracle
    rejects the speed."""
    K0 = placing_gain(A, B, poles)
    if K0 is None:
        return None
    NNt = B @ B.T / alpha + D @ D.T / delta ** 2
    Q = anchor_riccati(A + B @ K0, NNt)
    if Q is None:
        return None
    R0 = np.linalg.inv(Q)
    R0 = 0.5 * (R0 + R0.T)
    return {"R": R0, "G": K0 @ R0}


def slow_anchor(A, B, D, alpha, delta):
    """One agent's anchor bisection, probe by probe: the reference for
    the lockstep :func:`coopftc.synth._slow_anchors`.

    Anchor ``(R, G)`` of the slowest certifiable pole family
    ``-s * CONTROLLER_POLE_RATIO**j``: a bisection over the speed ``s``,
    then ``CONTROLLER_POLE_SLACK`` faster; None when even fast anchors
    fail.
    """
    n = A.shape[0]
    pattern = -(CONTROLLER_POLE_RATIO ** np.arange(n))

    def feasible(speed):
        return anchor_from_poles(A, B, D, alpha, delta, speed * pattern)

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
    for speed in (CONTROLLER_POLE_SLACK * hi, hi, 1.5 * hi):
        anchor = feasible(speed)
        if anchor is not None:
            return anchor
    return None


def l2_ratio(trace, law):
    """Measured energy amplification from ``theta = [v; vartheta]`` to the
    stacked state, with the input energy: ``(ratio, input_l2)``.

    Uses left-endpoint rectangle sums ``sqrt(h * sum ||row||^2)`` over
    all but the last sample.  On a run started from zero state the ratio
    must stay below the synthesized attenuation level.
    """
    theta = _theta_star(trace, law)
    state_l2 = float(np.sqrt(trace.h * np.sum(trace.x[:-1] ** 2)))
    input_l2 = float(np.sqrt(trace.h * np.sum(theta[:-1] ** 2)))
    return (state_l2 / input_l2 if input_l2 > 0.0 else np.inf), input_l2


def dissipation_block(Q, K, A, B, D, alpha, delta):
    """Pre-elimination dissipation inequality of the feedback loop at
    storage ``Q`` and gain ``K``::

        [[Q Acl + Acl' Q + I,  -Q B,      Q D],
         [*,                 -alpha I,     0 ],
         [*,                    *,   -delta^2 I]],   Acl = A + B K.

    At ``Q = R^{-1}`` it is ``Lambda(R, K R)`` after a congruence with
    ``diag(R^{-1}, I, I, I)`` and a Schur complement: the reference for
    the feedback re-verification of
    :func:`coopftc.synth.synth_controller`."""
    Acl = A + B @ K
    n, nu, nv = A.shape[0], B.shape[1], D.shape[1]
    QB, QD = Q @ B, Q @ D
    return np.block([
        [Q @ Acl + Acl.T @ Q + np.eye(n), -QB, QD],
        [-QB.T, -alpha * np.eye(nu), np.zeros((nu, nv))],
        [QD.T, np.zeros((nv, nu)), -delta ** 2 * np.eye(nv)],
    ])


def lift_setpoint(C1, y0):
    """Minimum-norm per-agent state with output ``y0`` through ``C1``."""
    return np.linalg.pinv(C1) @ np.atleast_1d(float(y0))


def shifted_error_by_phi_solve(g, C1, Phi, x, y0):
    """Shifted cooperative error of the stacked states ``x`` (one row per
    sample) in a window with setpoint ``y0``, computed the long way: the
    designated state is :func:`lift_setpoint` of ``y0``, and the
    equilibrium offset ``e_star`` solves ``Phi e_star = Phi e(0)``, with
    ``e(0)`` the cooperative error at ``x = 0``.  The reference for the
    ``(L (x) I) x`` of :func:`coopftc.analysis.verify_iss_bound`."""
    x0 = lift_setpoint(C1, y0)
    at_zero = cooperative_error(g, np.zeros(np.shape(x)[-1]), x0)
    e_star = np.linalg.solve(Phi, Phi @ at_zero)
    return cooperative_error(g, x, x0) - e_star


def savetxt_series(t, curves) -> bytes:
    """A plot file as ``np.savetxt`` writes it, one block per
    ``(label, values)`` of ``curves``, each ``[t, values]``."""
    fh = io.StringIO()
    fh.write("# two-column series; blank lines separate curves\n")
    for label, values in curves:
        fh.write(f"# curve={label}\n")
        np.savetxt(fh, np.column_stack([t, values]), fmt="%.17g",
                   delimiter=" ")
        fh.write("\n")
    return fh.getvalue().encode()
