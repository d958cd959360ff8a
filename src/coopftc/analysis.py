"""Certificates and after-the-fact checks on simulated trajectories.

The synthesis layer promises three things: the estimation error
dissipates disturbance energy at level ``delta``, the inner loop
attenuates the combined disturbance at level ``gamma``, and the
disagreement between agents is input-to-state stable against the
estimation spillover and the outer-loop correction.  This module turns
each promise into a number that a trajectory either satisfies or does
not.

Each check on a trajectory reads it as blocks of consecutive rows:
:class:`DissipationCheck`, :class:`IssBoundCheck` and
:class:`ConsensusCheck` are fed the rows one block at a time
(``update``), carry from block to block only what the next rows need,
and decide on every row given (``report``): the dissipation audit keeps
a one-row overlap for its centred difference and fault-jump exclusion,
the ISS check each setpoint window's first error and running sup of
``||theta||``, the consensus metrics each agent's last row out of the
band, and the input reconstruction its two global maxima.  The
whole-trace functions (:func:`dissipation_check`,
:func:`verify_iss_bound`, :func:`consensus_report`) feed the trace as
one block and are the tests' oracle; ``verify`` feeds each block it
reads, so no check holds a whole column.

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
    "IssBoundCheck",
    "DissipationCheck",
    "ConsensusCheck",
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


class _ThetaStar:
    """Row-wise stacked input ``[v; vartheta]`` reconstructed from the
    rows of a trace, a block at a time.

    ``vartheta = K x - u*`` is the deviation of the law's input ``u*``
    from pure state feedback: the estimation spillover ``K (x - x_hat)``
    plus the outer PI correction.  ``u*`` is recomputed from the trace's
    estimates, error and integral, and ``vartheta`` is cross-checked
    against ``K x - u`` of the recorded input, which must agree to
    roundoff for a trace produced by this package's closed loop.  The
    cross-check's two maxima run over every row given; :meth:`check`
    decides it.
    """

    def __init__(self, law: ControlLaw):
        self.law = law
        self.scale = 1.0
        self.dev = 0.0

    def __call__(self, block) -> np.ndarray:
        law = self.law
        Kx = block.x @ law.K.T
        vartheta = Kx - control_input(law, block.x_hat, block.e_bar, block.q)
        direct = Kx - block.u
        self.scale = max(self.scale, float(np.abs(direct).max()))
        self.dev = max(self.dev, float(np.abs(vartheta - direct).max()))
        return np.hstack([block.v, vartheta])

    def check(self) -> None:
        if self.dev > 1e-9 * self.scale:
            raise IdentityCheckFailedError(
                f"input decomposition mismatch ({self.dev:.3e}); the trace "
                "was not produced by the gain and outer pairs in this law")


def _theta_star(trace: SimTrace, law: ControlLaw) -> np.ndarray:
    """:class:`_ThetaStar` of a whole trace, cross-checked."""
    theta = _ThetaStar(law)
    rows = theta(trace)
    theta.check()
    return rows


def _segments(y0: np.ndarray, last):
    """``(lo, hi, new)`` for each run of rows of one setpoint in a block
    whose setpoint column is ``y0``; ``new`` where the run starts a
    window, that is at the trace's first row (``last`` None) or where the
    setpoint differs from the row before (``last``, the previous block's
    last row, for the block's first)."""
    change = np.any(y0[1:] != y0[:-1], axis=1)
    starts = np.flatnonzero(change) + 1
    first = last is None or bool(np.any(y0[0] != last))
    bounds = [0, *starts.tolist(), len(y0)]
    return [(lo, hi, first or k > 0)
            for k, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:]))]


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


class IssBoundCheck:
    """The pointwise ISS bound of :func:`verify_iss_bound`, fed a trace's
    rows a block at a time (:meth:`update`) and decided on every row
    given (:meth:`report`).  Each open window carries its first time and
    error, its running maximum of ``||theta||`` and its statistics."""

    def __init__(self, cert: IssCertificate, law: ControlLaw):
        self.cert = cert
        self.theta = _ThetaStar(law)
        self.windows: list[IssWindow] = []
        self.open = None  # [t0, error0, sup_theta, sup_error, worst, t_stop]
        self.last_y0 = None

    def update(self, block) -> None:
        cert = self.cert
        if cert.graph.m * cert.n_x != block.x.shape[1]:
            raise DimensionMismatchError(
                "certificate dimensions do not match the trace")
        theta_norm = np.linalg.norm(self.theta(block), axis=1)
        # the cooperative error at designated state zero is (L (x) I) x_bar
        error_norm = np.linalg.norm(
            cooperative_error(cert.graph, block.x, np.zeros(cert.n_x)), axis=1)
        for lo, hi, new in _segments(block.y0, self.last_y0):
            t_w, lhs = block.t[lo:hi], error_norm[lo:hi]
            if new:
                self._close()
                self.open = [t_w[0], lhs[0], -np.inf, -np.inf, -np.inf, None]
            t0, error0, sup, sup_error, worst, _ = self.open
            sup_theta = np.maximum(np.maximum.accumulate(theta_norm[lo:hi]),
                                   sup)
            rhs = (cert.c1 * np.exp(-cert.c2 * (t_w - t0)) * error0
                   + cert.c3 * sup_theta)
            rel = (lhs - rhs) / np.maximum(rhs, 1e-12)
            self.open[2:] = [sup_theta[-1], max(sup_error, float(lhs.max())),
                             max(worst, float(rel.max())), t_w[-1]]
        self.last_y0 = block.y0[-1].copy()  # not a view: frees the block

    def _close(self) -> None:
        if self.open is not None:
            t0, _, sup, sup_error, worst, t_stop = self.open
            self.windows.append(IssWindow(
                t_start=float(t0), t_stop=float(t_stop), sup_error=sup_error,
                sup_input=float(sup), max_relative_violation=worst))
            self.open = None

    def report(self) -> IssBoundReport:
        """The report on every row given; raises
        :class:`IdentityCheckFailedError` if the rows' inputs are not the
        law's."""
        self.theta.check()
        self._close()
        cert = self.cert
        worst = max((w.max_relative_violation for w in self.windows),
                    default=-np.inf)
        return IssBoundReport(
            passed=bool(worst <= ISS_RTOL), max_relative_violation=worst,
            windows=tuple(self.windows), c1=cert.c1, c2=cert.c2, c3=cert.c3,
        )


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
    ``ISS_RTOL`` relative to the right side.  This is
    :class:`IssBoundCheck` fed the whole trace as one block.
    """
    check = IssBoundCheck(cert, law)
    check.update(trace)
    return check.report()


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


class DissipationCheck:
    """The audit of :func:`dissipation_check`, fed a trace's rows a block
    at a time (:meth:`update`) and decided on every row given
    (:meth:`report`).  A row is decided once the row after it is known,
    so the last two rows' values and fault carry from block to block:
    the centred difference needs both neighbours, the fault-jump
    exclusion the next row's fault."""

    def __init__(self, aug: AugmentedModel, net: NetworkModel,
                 synth_obs: ObserverSynthesis):
        self.n_aug = aug.n_aug
        self.P = synth_obs.P
        self.delta = synth_obs.delta
        self.A_err = aug.F1 @ aug.A_a - synth_obs.Lgain @ aug.E2
        self.Bv = aug.F1 @ net.D
        self.rows = 0          # rows given
        self.t01 = []          # the first two times, for the step h
        self.carry = None      # the last two rows' values, oldest first
        self.last_f_s = None
        self.max_val, self.max_fd, self.n_checked = -np.inf, 0.0, 0

    def update(self, block) -> None:
        eps = np.hstack([block.x - block.x_hat, block.f_s - block.f_hat])
        if eps.shape[1] != self.n_aug:
            raise DimensionMismatchError(
                f"estimation error has {eps.shape[1]} columns, "
                f"expected {self.n_aug}")
        eps_dot = eps @ self.A_err.T
        eps_dot += block.v @ self.Bv.T
        eps_P = eps @ self.P  # serves both V_dot and V
        v_dot = 2.0 * np.einsum("ij,ij->i", eps_P, eps_dot)
        del eps_dot
        supply = (v_dot + np.einsum("ij,ij->i", eps, eps)
                  - self.delta ** 2 * np.einsum("ij,ij->i", block.v, block.v))
        V = np.einsum("ij,ij->i", eps_P, eps)
        # jump[k]: the fault differs from the row before (none before row 0)
        f_s = block.f_s
        before = f_s[:1] if self.last_f_s is None else self.last_f_s[None]
        jump = np.any(np.diff(f_s, axis=0, prepend=before) != 0.0, axis=1)
        self.last_f_s = f_s[-1].copy()  # not a view: frees the block
        self.t01 = [*self.t01, *block.t[:2 - len(self.t01)]]

        new = np.stack([V, v_dot, supply, jump])
        rows = new if self.carry is None else np.hstack([self.carry, new])
        first = self.rows - (rows.shape[1] - new.shape[1])  # row of column 0
        self.rows += new.shape[1]
        # decide every row but the last, whose next row is not known yet
        pos = np.arange(max(self.rows - new.shape[1] - 1, 0) - first,
                        rows.shape[1] - 1)
        self.carry = rows[:, -2:]
        if not pos.size:
            return
        V, v_dot, supply, jump = rows[0], rows[1], rows[2], rows[3] != 0.0
        near = jump[pos] | jump[pos + 1] | jump[np.maximum(pos - 1, 0)]
        keep = pos[~near & (pos + first > 0)]
        if not keep.size:
            return
        self.n_checked += keep.size
        self.max_val = max(self.max_val, float(supply[keep].max()))
        h = float(self.t01[1] - self.t01[0])
        fd = (V[keep + 1] - V[keep - 1]) / (2.0 * h)
        self.max_fd = max(self.max_fd, float(np.abs(fd - v_dot[keep]).max()))

    def report(self) -> DissipationReport:
        """The audit of every row given: the first and the last row, and
        the rows within one step of a fault jump, are excluded."""
        return DissipationReport(
            passed=bool(self.max_val <= DISSIPATION_TOL),
            max_interior_value=self.max_val, max_fd_deviation=self.max_fd,
            n_checked=self.n_checked, n_excluded=self.rows - self.n_checked,
            tol=DISSIPATION_TOL,
        )


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
    dynamics.  This is :class:`DissipationCheck` fed the whole trace as
    one block.
    """
    check = DissipationCheck(aug, net, synth_obs)
    check.update(trace)
    return check.report()


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


class ConsensusCheck:
    """The metrics of :func:`consensus_report`, fed a trace's rows a block
    at a time (:meth:`update`) and reported on every row given
    (:meth:`report`).  Each agent carries, for the setpoint window open
    so far, the time after its last row out of the band and whether the
    last row given was out; a setpoint change resets both.  The band is
    the open window's: the last window is the last setpoint's."""

    def __init__(self, net: NetworkModel, g: NetworkGraph):
        if net.n_y != 1:
            raise DimensionMismatchError(
                "consensus metrics assume one output channel per agent")
        self.C = net.C
        self.graph = g
        self.settle = np.zeros(net.m)
        self.out = np.zeros(net.m, dtype=bool)
        self.t_window = self.y0 = self.band = None
        self.y_last = self.dev_last = None

    def update(self, block) -> None:
        y = block.x @ self.C.T
        y0 = block.y0.ravel()
        dev = np.abs(y - y0[:, None])
        t = block.t
        last = None if self.y0 is None else np.array([self.y0])
        for lo, hi, new in _segments(block.y0, last):
            if new:
                self.y0 = float(y0[lo])
                self.band = SETTLING_FRACTION * (abs(self.y0)
                                                 if self.y0 != 0.0 else 1.0)
                self.t_window = t[lo]
                self.settle[:] = t[lo]
                self.out[:] = False
            outside = dev[lo:hi] > self.band
            # the row after each agent's last row out of the band
            after = hi - lo - np.argmax(outside[::-1], axis=0)
            ever = outside.any(axis=0)
            self.settle[self.out & ~ever] = t[lo]
            inside = ever & (after < hi - lo)
            self.settle[inside] = t[lo:hi][after[inside]]
            self.out = ever & ~inside
        self.y_last, self.dev_last = y[-1], dev[-1]

    def report(self) -> ConsensusReport:
        y_fin = self.y_last
        e_y = cooperative_error(self.graph, y_fin, self.y0)
        return ConsensusReport(
            settling_time=np.where(self.out, np.inf, self.settle),
            final_offset=self.dev_last.copy(),
            max_pairwise_final=float(
                np.abs(y_fin[:, None] - y_fin[None, :]).max()),
            ebar_y_final=float(np.linalg.norm(e_y)), band=float(self.band),
            t_last_setpoint=float(self.t_window),
        )


def consensus_report(trace: SimTrace, net: NetworkModel,
                     g: NetworkGraph) -> ConsensusReport:
    """Per-agent settling and agreement metrics on the true outputs.

    Settling is measured from the last setpoint change: the settling
    time of agent ``i`` is the earliest time after which its true
    output stays within ``SETTLING_FRACTION`` of the final setpoint value
    (relative band; an absolute band of the same size is used when the
    setpoint is zero).  ``inf`` means the agent never settles within
    the trace.  Pairwise spread and the output-level cooperative error
    are reported at the final sample.  This is :class:`ConsensusCheck`
    fed the whole trace as one block.
    """
    check = ConsensusCheck(net, g)
    check.update(trace)
    return check.report()
