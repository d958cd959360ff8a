"""Certificates and after-the-fact checks on simulated trajectories.

The synthesis layer promises three things: the estimation error
dissipates disturbance energy at level ``delta``, the inner loop
attenuates the combined disturbance at level ``gamma``, and the
disagreement between agents is input-to-state stable against the
estimation spillover and the outer-loop correction.  This module turns
each promise into a number that a trajectory either satisfies or does
not.

The ISS certificate works in disagreement coordinates.  With ``L`` the
(normalized) graph matrix and ``Acl = A + B K`` the inner closed loop,
the cooperative state error obeys an exact linear equation driven by
the stacked input ``theta = [v; vartheta]``, where ``vartheta`` is the
part of the actual input that deviates from pure state feedback
``K x``.  A Lyapunov solve on the similarity-transformed matrix
``Phi = (L (x) I) Acl (L (x) I)^-1`` yields constants ``(c1, c2, c3)``
for which

    ||e_tilde(t)|| <= c1 exp(-c2 (t - t0)) ||e_tilde(t0)||
                      + c3 sup_{[t0, t]} ||theta||

holds along every trajectory, where ``e_tilde`` is the cooperative
error shifted by its equilibrium offset.  ``verify_iss_bound`` checks
this pointwise on a recorded trace, restarting the exponential at each
setpoint change (the derivation assumes the designated state is
constant over the window).

The shifted error needs no solve.  The equilibrium offset solves
``Phi e_star = -phi_0`` with ``phi_0 = Phi (A_0 (x) I) x_bar_0``, so
``e_star = -(A_0 (x) I) x_bar_0`` for every nonsingular ``Phi``, and the
shifted error is exactly ``(L (x) I) x_bar``, the graph matrix applied
to the stacked state, whichever designated state the caller picks.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .control import ControlLaw, control_input, cooperative_error
from .errors import (
    DimensionMismatchError,
    IdentityCheckFailedError,
    NotHurwitzError,
    NotPositiveStableError,
)
from .graph import NetworkGraph, is_positive_stable
from .linalg import is_hurwitz, solve_linear, solve_lyapunov, sym_eigvals
from .plant import AugmentedModel, NetworkModel
from .sim import SimTrace
from .synth import ObserverSynthesis

__all__ = [
    "IssCertificate",
    "IssBoundReport",
    "IssWindow",
    "DissipationReport",
    "ConsensusReport",
    "iss_certificate",
    "verify_iss_bound",
    "dissipation_check",
    "consensus_report",
]

#: Relative slack allowed when checking the ISS bound pointwise.
ISS_RTOL = 1e-9

#: Acceptable residual of the certificate's Lyapunov identity.
LYAPUNOV_RESIDUAL_TOL = 1e-8

#: Pointwise ceiling for the estimator's dissipation expression.
DISSIPATION_TOL = 1e-9

#: Band fraction used for settling-time measurements (2 percent).
SETTLING_FRACTION = 0.02


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.12g}"
    if isinstance(value, np.ndarray):
        return "[" + ",".join(f"{float(v):.12g}" for v in value.ravel()) + "]"
    return str(value)


def _lines(prefix: str, report) -> list[str]:
    """``prefix.field=value`` for every field of a report, in order."""
    return [f"{prefix}.{f.name}={_fmt(getattr(report, f.name))}"
            for f in fields(report)]


# ---------------------------------------------------------------------------
# certificate construction


@dataclass(frozen=True)
class IssCertificate:
    """Lyapunov-based disagreement certificate for a fixed inner gain.

    ``alpha`` and ``beta`` are the decay rate and input amplification of
    the underlying comparison argument; ``(c1, c2, c3)`` are the
    constants of the trajectory bound quoted in the module docstring.
    ``Q`` is the Lyapunov weight, the identity.
    """

    graph: NetworkGraph
    n_x: int
    Phi: np.ndarray
    B_phi: np.ndarray
    Q: np.ndarray
    P_e: np.ndarray
    kappa: float
    alpha: float
    beta: float
    c1: float
    c2: float
    c3: float
    lyapunov_residual: float = field(repr=False, default=0.0)


def iss_certificate(g: NetworkGraph, net: NetworkModel,
                    K: np.ndarray) -> IssCertificate:
    """Build the disagreement ISS certificate for inner gain ``K``.

    Parameters
    ----------
    g : NetworkGraph
        Interaction topology; its ``L`` must be positive stable (all
        eigenvalues in the open right half-plane), otherwise the
        similarity transform does not exist.
    net : NetworkModel
        Stacked plant supplying ``A``, ``B`` and the disturbance map.
    K : ndarray
        Inner state-feedback gain; ``A + B K`` must be Hurwitz.

    The Lyapunov weight ``Q`` is the identity.

    Raises
    ------
    NotPositiveStableError
        If ``g.L`` has an eigenvalue with non-positive real part.
    NotHurwitzError
        If the Lyapunov solve on ``Phi`` fails: the message says whether
        ``A + B K`` is not Hurwitz or ``L (x) I`` is too ill-conditioned
        to carry its certificate.
    """
    if g.m != net.m:
        raise DimensionMismatchError(
            f"graph has {g.m} agents, plant has {net.m}")
    K = np.asarray(K, dtype=float)
    if K.shape != (net.nbar_u, net.nbar_x):
        raise DimensionMismatchError(
            f"K has shape {K.shape}, expected {(net.nbar_u, net.nbar_x)}")
    if not is_positive_stable(g.L):
        raise NotPositiveStableError(
            "graph matrix is not positive stable; the disagreement "
            "transform is singular (check source reachability)")
    Acl = net.A + net.B @ K

    Lk = np.kron(g.L, np.eye(net.n_x))
    # Phi = Lk @ Acl @ inv(Lk), formed by solving on the right.
    Phi = solve_linear(Lk.T, (Lk @ Acl).T).T
    B_theta = np.hstack([net.D, -net.B])
    B_phi = Lk @ B_theta

    Q = np.eye(net.nbar_x)
    # Phi is similar to Acl, so this solve also decides whether Acl is
    # Hurwitz, unless the similarity is too ill-conditioned to carry it.
    try:
        P_e = solve_lyapunov(Phi, Q)
    except NotHurwitzError as exc:
        if is_hurwitz(Acl):
            raise NotHurwitzError(
                "A + B K is Hurwitz, but the transform L (x) I is too "
                "ill-conditioned to certify (1-norm condition number of L "
                f"{np.linalg.cond(g.L, 1):.3e}); no ISS certificate ({exc})"
            ) from exc
        raise NotHurwitzError(
            f"A + B K is not Hurwitz; no ISS certificate ({exc})") from exc
    residual = float(np.abs(Phi.T @ P_e + P_e @ Phi + Q).max())
    if residual > LYAPUNOV_RESIDUAL_TOL:
        raise NotHurwitzError(
            f"Lyapunov residual {residual:.3e} exceeds tolerance; "
            "certificate rejected")

    p_eigs = sym_eigvals(P_e)
    p_min, p_max = float(p_eigs[0]), float(p_eigs[-1])

    kappa = float(np.linalg.norm(P_e @ B_phi, 2))

    # lambda_min(Q) = 1 drops out of alpha and beta.
    alpha = 1.0 / (2.0 * p_max)
    beta = 2.0 * kappa ** 2
    c1 = float(np.sqrt(p_max / p_min))
    c2 = alpha / 2.0
    c3 = float(np.sqrt(beta / (alpha * p_min)))
    return IssCertificate(
        graph=g, n_x=net.n_x, Phi=Phi, B_phi=B_phi, Q=Q, P_e=P_e,
        kappa=kappa, alpha=float(alpha), beta=float(beta),
        c1=c1, c2=c2, c3=c3, lyapunov_residual=residual,
    )


# ---------------------------------------------------------------------------
# combined-input reconstruction shared by several checks


def _theta_star(trace: SimTrace, law: ControlLaw) -> np.ndarray:
    """Row-wise stacked input ``[v; vartheta]`` reconstructed from a trace.

    ``vartheta = K x - u*`` is the deviation of the law's input ``u*``
    from pure state feedback: the estimation spillover ``K (x - x_hat)``
    plus the outer PI correction.  ``u*`` is recomputed from the trace's
    estimates, error and integral, and ``vartheta`` is cross-checked
    against ``K x - u`` of the recorded input, which must agree to
    roundoff for a trace produced by this package's closed loop.
    """
    Kx = trace.x @ law.K.T
    vartheta = Kx - control_input(law, trace.x_hat, trace.e_bar, trace.q)
    direct = Kx - trace.u
    scale = max(1.0, float(np.abs(direct).max()))
    dev = float(np.abs(vartheta - direct).max())
    if dev > 1e-9 * scale:
        raise IdentityCheckFailedError(
            f"input decomposition mismatch ({dev:.3e}); the trace was "
            "not produced by the gain and outer pairs in this law")
    return np.hstack([trace.v, vartheta])


def _window_starts(y0: np.ndarray) -> np.ndarray:
    """Indices where the recorded setpoint column changes value."""
    flat = y0.ravel()
    changes = np.flatnonzero(np.diff(flat) != 0.0) + 1
    return np.concatenate([[0], changes])


# ---------------------------------------------------------------------------
# ISS bound verification


@dataclass(frozen=True)
class IssWindow:
    """Per-setpoint-window statistics from ``verify_iss_bound``."""

    t_start: float
    t_stop: float
    sup_error: float
    sup_input: float
    max_relative_violation: float


@dataclass(frozen=True)
class IssBoundReport:
    """Outcome of the pointwise ISS bound check on one trace."""

    passed: bool
    max_relative_violation: float
    windows: tuple[IssWindow, ...]
    c1: float
    c2: float
    c3: float

    def as_lines(self) -> list[str]:
        lines = [
            f"iss.passed={_fmt(self.passed)}",
            f"iss.max_relative_violation={_fmt(self.max_relative_violation)}",
            f"iss.windows={len(self.windows)}",
            f"iss.c1={_fmt(self.c1)}",
            f"iss.c2={_fmt(self.c2)}",
            f"iss.c3={_fmt(self.c3)}",
        ]
        for k, w in enumerate(self.windows):
            lines.append(
                f"iss.window[{k}]=start:{_fmt(w.t_start)},stop:{_fmt(w.t_stop)},"
                f"sup_error:{_fmt(w.sup_error)},sup_input:{_fmt(w.sup_input)},"
                f"violation:{_fmt(w.max_relative_violation)}")
        return lines


def verify_iss_bound(trace: SimTrace, cert: IssCertificate,
                     law: ControlLaw) -> IssBoundReport:
    """Check the certificate's trajectory bound pointwise on a trace.

    The trace is split at setpoint changes (read off the recorded
    setpoint column); within each window the designated state is
    constant, the shifted error is ``(L (x) I) x_bar`` (module
    docstring), and the bound

        ||e_tilde(t)|| <= c1 exp(-c2 (t - t_k)) ||e_tilde(t_k)||
                          + c3 max_{[t_k, t]} ||theta||

    is evaluated at every sample with a running maximum on the right.
    A sample violates when the left side exceeds the right by more than
    ``ISS_RTOL`` relative to the right side.
    """
    if cert.graph.m * cert.n_x != trace.x.shape[1]:
        raise DimensionMismatchError(
            "certificate dimensions do not match the trace")
    theta = _theta_star(trace, law)
    theta_norm = np.linalg.norm(theta, axis=1)

    # the cooperative error at designated state zero is (L (x) I) x_bar
    error_norm = np.linalg.norm(
        cooperative_error(cert.graph, trace.x, np.zeros(cert.n_x)), axis=1)

    starts = _window_starts(trace.y0)
    bounds = np.concatenate([starts, [trace.t.size]])
    windows = []
    worst = -np.inf
    for k0, k1 in zip(bounds[:-1], bounds[1:]):
        t_w = trace.t[k0:k1]
        lhs = error_norm[k0:k1]
        sup_theta = np.maximum.accumulate(theta_norm[k0:k1])
        rhs = (cert.c1 * np.exp(-cert.c2 * (t_w - t_w[0])) * lhs[0]
               + cert.c3 * sup_theta)
        rel = (lhs - rhs) / np.maximum(rhs, 1e-12)
        w_max = float(rel.max())
        worst = max(worst, w_max)
        windows.append(IssWindow(
            t_start=float(t_w[0]), t_stop=float(t_w[-1]),
            sup_error=float(lhs.max()), sup_input=float(sup_theta[-1]),
            max_relative_violation=w_max,
        ))
    return IssBoundReport(
        passed=bool(worst <= ISS_RTOL), max_relative_violation=worst,
        windows=tuple(windows), c1=cert.c1, c2=cert.c2, c3=cert.c3,
    )


# ---------------------------------------------------------------------------
# estimator dissipation audit


@dataclass(frozen=True)
class DissipationReport:
    """Pointwise audit of the estimator's supply-rate inequality."""

    passed: bool
    max_interior_value: float
    max_fd_deviation: float
    n_checked: int
    n_excluded: int
    tol: float

    def as_lines(self) -> list[str]:
        return _lines("dissipation", self)


def dissipation_check(trace: SimTrace, aug: AugmentedModel,
                      net: NetworkModel,
                      synth_obs: ObserverSynthesis) -> DissipationReport:
    """Audit ``Vdot + ||eps||^2 - delta^2 ||v||^2 <= DISSIPATION_TOL``
    along a trace.

    ``V = eps' P eps`` with ``P`` from the observer certificate and
    ``eps`` the augmented estimation error read off the trace.  The
    derivative is evaluated analytically from the error dynamics (the
    expression is quadratic in ``(eps, v)``, so no differencing noise
    enters the pass/fail decision) and cross-checked against a centered
    finite difference of ``V`` at interior samples.

    Samples within one step of a fault jump are excluded from both the
    decision and the cross-check: a stepped fault violates, for one
    grid interval, the constant-fault assumption behind the augmented
    dynamics.
    """
    eps = np.hstack([trace.x - trace.x_hat, trace.f_s - trace.f_hat])
    if eps.shape[1] != aug.n_aug:
        raise DimensionMismatchError(
            f"estimation error has {eps.shape[1]} columns, "
            f"expected {aug.n_aug}")
    P = synth_obs.P
    delta = synth_obs.delta
    A_err = aug.F1 @ aug.A_a - synth_obs.Lgain @ aug.E2
    Bv = aug.F1 @ net.D

    eps_dot = eps @ A_err.T
    eps_dot += trace.v @ Bv.T
    eps_P = eps @ P  # serves both V_dot and V
    v_dot = 2.0 * np.einsum("ij,ij->i", eps_P, eps_dot)
    del eps_dot
    supply = (v_dot + np.einsum("ij,ij->i", eps, eps)
              - delta ** 2 * np.einsum("ij,ij->i", trace.v, trace.v))

    n = trace.t.size
    jumps = np.flatnonzero(np.any(np.diff(trace.f_s, axis=0) != 0.0, axis=1)) + 1
    excluded = np.zeros(n, dtype=bool)
    excluded[0] = excluded[-1] = True
    for j in jumps:
        excluded[max(j - 1, 0): min(j + 2, n)] = True

    keep = ~excluded
    max_val = float(supply[keep].max()) if keep.any() else -np.inf

    h = trace.h
    V = np.einsum("ij,ij->i", eps_P, eps)
    fd = (V[2:] - V[:-2]) / (2.0 * h)
    fd_dev = np.abs(fd - v_dot[1:-1])
    keep_int = keep[1:-1]
    max_fd = float(fd_dev[keep_int].max()) if keep_int.any() else 0.0

    return DissipationReport(
        passed=bool(max_val <= DISSIPATION_TOL), max_interior_value=max_val,
        max_fd_deviation=max_fd, n_checked=int(keep.sum()),
        n_excluded=int(excluded.sum()), tol=DISSIPATION_TOL,
    )


# ---------------------------------------------------------------------------
# consensus metrics


@dataclass(frozen=True)
class ConsensusReport:
    """Tracking and agreement metrics for one trace."""

    settling_time: np.ndarray
    final_offset: np.ndarray
    max_pairwise_final: float
    ebar_y_final: float
    band: float
    t_last_setpoint: float

    def as_lines(self) -> list[str]:
        return _lines("consensus", self)


def consensus_report(trace: SimTrace, net: NetworkModel,
                     g: NetworkGraph) -> ConsensusReport:
    """Per-agent settling and agreement metrics on the true outputs.

    Settling is measured from the last setpoint change: the settling
    time of agent ``i`` is the earliest time after which its true
    output stays within ``SETTLING_FRACTION`` of the final setpoint value
    (relative band; an absolute band of the same size is used when the
    setpoint is zero).  ``inf`` means the agent never settles within
    the trace.  Pairwise spread and the output-level cooperative error
    are reported at the final sample.
    """
    if net.n_y != 1:
        raise DimensionMismatchError(
            "consensus metrics assume one output channel per agent")
    y = trace.x @ net.C.T
    y0 = trace.y0.ravel()
    starts = _window_starts(trace.y0)
    k_last = int(starts[-1])
    y0_final = float(y0[-1])
    band = SETTLING_FRACTION * (abs(y0_final) if y0_final != 0.0 else 1.0)

    dev = np.abs(y - y0[:, None])
    m = net.m
    settle = np.empty(m)
    for i in range(m):
        outside = dev[k_last:, i] > band
        if outside[-1]:
            settle[i] = np.inf
        else:
            idx = np.flatnonzero(outside)
            settle[i] = trace.t[k_last + (idx[-1] + 1 if idx.size else 0)]

    y_fin = y[-1]
    max_pair = float(np.abs(y_fin[:, None] - y_fin[None, :]).max())
    e_y = cooperative_error(g, y_fin, y0_final)
    return ConsensusReport(
        settling_time=settle, final_offset=dev[-1].copy(),
        max_pairwise_final=max_pair, ebar_y_final=float(np.linalg.norm(e_y)),
        band=float(band), t_last_setpoint=float(trace.t[k_last]),
    )
