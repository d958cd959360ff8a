"""Fixed-step simulation of the closed loop with dense trace logging.

The integrator is the classical 4th-order Runge-Kutta scheme with a
uniform step.  Signal schedules (disturbance, sensor fault, source
setpoint) are plain callables of time; step-type signals are
right-continuous, and schedule builders (see the command-line layer)
snap onsets to the time grid, so a discontinuity contaminates only the
final stage of the single step that lands on it -- the induced offset
decays with the loop and the certificate checks exclude that step.

For speed, :func:`run_experiment` integrates the affine realization
from :func:`~coopftc.control.closed_loop_maps` (one small matrix-vector
product per stage) and spot-checks it against the readable
:func:`~coopftc.control.closed_loop_rhs` wiring at a random state, so
the fast path cannot silently diverge from the reference path.  All
remaining trace columns (estimates, control, cooperative error) are
reconstructed vectorized after integration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .control import (ClosedLoop, ClosedLoopState, closed_loop_maps,
                      closed_loop_rhs, control_input, cooperative_error)
from .errors import (DimensionMismatchError, IdentityCheckFailedError,
                     NonFiniteStateError, SchemaError)
from .plant import AugmentedModel, NetworkModel, aug_indices

__all__ = [
    "SignalSchedule",
    "SimTrace",
    "constant_disturbance",
    "step_fault",
    "piecewise_setpoint",
    "integrate",
    "sample_initial_state",
    "run_experiment",
    "trace_to_csv",
    "trace_from_csv",
]


@dataclass(frozen=True)
class SignalSchedule:
    """Deterministic exogenous signals of one experiment.

    ``setpoint_times`` and ``fault_times`` expose the breakpoints so
    analysis code can window a trace into smooth segments without
    re-parsing the callables.
    """

    disturbance: Callable[[float], np.ndarray]
    fault: Callable[[float], np.ndarray]
    setpoint: Callable[[float], np.ndarray]
    setpoint_times: tuple = (0.0,)
    fault_times: tuple = ()


def constant_disturbance(value, m: int) -> Callable[[float], np.ndarray]:
    """Constant per-agent disturbance; scalar values are broadcast."""
    vec = np.broadcast_to(np.asarray(value, dtype=float).ravel(), (m,)) \
        if np.ndim(value) == 0 else np.asarray(value, dtype=float)
    if vec.shape != (m,):
        raise DimensionMismatchError(
            f"disturbance value shape {np.shape(value)} incompatible "
            f"with m={m}")
    frozen = vec.copy()

    def signal(t: float) -> np.ndarray:
        return frozen

    return signal


def step_fault(magnitude, onset: float, m: int) -> Callable[[float], np.ndarray]:
    """Sensor-fault step: zero before ``onset``, ``magnitude`` from
    ``onset`` on (right-continuous).  Scalar magnitudes are broadcast."""
    if onset < 0:
        raise ValueError(f"fault onset must be >= 0, got {onset}")
    mag = np.broadcast_to(np.asarray(magnitude, dtype=float).ravel(), (m,)) \
        if np.ndim(magnitude) == 0 else np.asarray(magnitude, dtype=float)
    if mag.shape != (m,):
        raise DimensionMismatchError(
            f"fault magnitude shape {np.shape(magnitude)} incompatible "
            f"with m={m}")
    post = mag.copy()
    pre = np.zeros(m)

    def signal(t: float) -> np.ndarray:
        return post if t >= onset else pre

    return signal


def piecewise_setpoint(times, values) -> Callable[[float], np.ndarray]:
    """Piecewise-constant source output: ``values[k]`` on
    ``[times[k], times[k+1])``; ``times[0]`` must be 0."""
    times = np.asarray(times, dtype=float)
    vals = [np.atleast_1d(np.asarray(v, dtype=float)) for v in values]
    if times.ndim != 1 or times.size != len(vals) or times.size == 0:
        raise DimensionMismatchError("need one value per breakpoint")
    if times[0] != 0.0 or np.any(np.diff(times) <= 0):
        raise ValueError("breakpoints must start at 0 and increase")
    if any(v.shape != vals[0].shape for v in vals):
        raise DimensionMismatchError("setpoint values must share a shape")
    stacked = np.stack(vals)

    def signal(t: float) -> np.ndarray:
        k = int(np.searchsorted(times, t, side="right")) - 1
        return stacked[max(k, 0)]

    return signal


def integrate(rhs: Callable[[float, np.ndarray], np.ndarray],
              z0: np.ndarray, h: float, T: float):
    """Classical 4th-order fixed-step integration.

    Returns ``(times, states)`` with one row per grid point including
    the initial state; the horizon is rounded to a whole number of
    steps.  Aborts with the first offending time when the state stops
    being finite.
    """
    if h <= 0:
        raise ValueError(f"step size must be > 0, got {h}")
    if T < h:
        raise ValueError(f"horizon {T} shorter than one step {h}")
    n_steps = int(round(T / h))
    times = np.arange(n_steps + 1) * h
    z = np.array(z0, dtype=float)
    out = np.empty((n_steps + 1, z.size))
    out[0] = z
    for k in range(n_steps):
        t = times[k]
        k1 = rhs(t, z)
        k2 = rhs(t + 0.5 * h, z + (0.5 * h) * k1)
        k3 = rhs(t + 0.5 * h, z + (0.5 * h) * k2)
        k4 = rhs(t + h, z + h * k3)
        z = z + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(z)):
            raise NonFiniteStateError(
                f"state became non-finite at t={times[k + 1]:.6g}",
                time=float(times[k + 1]))
        out[k + 1] = z
    return times, out


def sample_initial_state(net: NetworkModel, aug: AugmentedModel, seed,
                         bounds=(-1.0, 1.0)) -> ClosedLoopState:
    """Uniform random plant states, observer and integrator at zero.

    The generator is seeded explicitly so identical configurations
    reproduce bitwise-identical runs.
    """
    lo, hi = float(bounds[0]), float(bounds[1])
    if not (np.isfinite(lo) and np.isfinite(hi) and lo <= hi):
        raise ValueError(f"bad initial-state bounds {bounds!r}")
    rng = np.random.default_rng(seed)
    x0 = rng.uniform(lo, hi, size=net.nbar_x)
    return ClosedLoopState(x=x0, eta=np.zeros(aug.n_aug),
                           q=np.zeros(net.nbar_y))


@dataclass(frozen=True)
class SimTrace:
    """Dense log of one experiment, one row per time step."""

    t: np.ndarray
    x: np.ndarray
    eta: np.ndarray
    q: np.ndarray
    x_hat: np.ndarray
    f_hat: np.ndarray
    u: np.ndarray
    y_f: np.ndarray
    e_bar: np.ndarray
    v: np.ndarray
    f_s: np.ndarray
    y0: np.ndarray

    _FIELDS = ("x", "eta", "q", "x_hat", "f_hat", "u", "y_f", "e_bar",
               "v", "f_s", "y0")

    def __post_init__(self):
        n = self.t.size
        for name in self._FIELDS:
            arr = getattr(self, name)
            if arr.ndim != 2 or arr.shape[0] != n:
                raise DimensionMismatchError(
                    f"trace column {name} has shape {arr.shape}, "
                    f"expected ({n}, ...)")
            if not np.all(np.isfinite(arr)):
                raise NonFiniteStateError(f"trace column {name} contains "
                                          "non-finite values")
        steps = np.diff(self.t)
        if steps.size and (steps.min() <= 0 or
                           steps.max() - steps.min() > 1e-9 * steps.max()):
            raise ValueError("trace time grid is not uniform")

    @property
    def h(self) -> float:
        return float(self.t[1] - self.t[0])


def _affine_rhs(loop: ClosedLoop, schedule: SignalSchedule):
    maps = closed_loop_maps(loop)
    M, B_v, B_f, B_r = maps.M, maps.B_v, maps.B_f, maps.B_r
    dist, fault, setp = schedule.disturbance, schedule.fault, schedule.setpoint

    def rhs(t, z):
        return (M @ z + B_v @ dist(t) + B_f @ fault(t)
                + B_r @ np.atleast_1d(setp(t)))

    return rhs


def run_experiment(loop: ClosedLoop, schedule: SignalSchedule,
                   s0: ClosedLoopState, h: float = 1e-3,
                   T: float = 40.0) -> SimTrace:
    """Integrate a closed loop and log the full trace.

    The affine fast path is verified against the reference wiring at
    one random state before integration starts, and the vectorized
    control reconstruction against :func:`control_input` at one step;
    a disagreement raises :class:`IdentityCheckFailedError`.
    """
    net, aug, obs, law = loop.net, loop.aug, loop.obs, loop.law
    rhs = _affine_rhs(loop, schedule)

    check_rng = np.random.default_rng(0)
    z_chk = check_rng.normal(size=loop.dim)
    t_chk = 0.37 * T
    ref = closed_loop_rhs(t_chk, ClosedLoopState.unpack(
        z_chk, net.nbar_x, aug.n_aug), loop, schedule).packed()
    fast = rhs(t_chk, z_chk)
    if np.abs(ref - fast).max() > 1e-9 * max(1.0, np.abs(ref).max()):
        raise IdentityCheckFailedError(
            "affine fast path disagrees with reference right-hand side")

    times, Z = integrate(rhs, s0.packed(), h, T)
    n = times.size
    nbx, na = net.nbar_x, aug.n_aug
    x = Z[:, :nbx]
    eta = Z[:, nbx:nbx + na]
    q = Z[:, nbx + na:]

    v = np.stack([schedule.disturbance(t) for t in times])
    f_s = np.stack([schedule.fault(t) for t in times])
    y0 = np.stack([np.atleast_1d(schedule.setpoint(t)) for t in times])

    y_f = x @ net.C.T + f_s @ net.F.T
    x_o = eta + y_f @ aug.F2.T
    x_hat = x_o[:, :nbx]
    f_hat = x_o[:, nbx:]
    y_hat = x_hat @ net.C.T
    Lk = np.kron(law.graph.L, np.eye(net.n_y))
    A0k = np.kron(law.graph.A_0, np.eye(net.n_y))
    e_bar = y_hat @ Lk.T - np.tile(y0, (1, net.m)) @ A0k.T
    u = (x_hat @ law.K.T
         - np.repeat(law.ell_p, net.n_u) * e_bar
         - np.repeat(law.ell_i, net.n_u) * q)

    # one defensive cross-check of the vectorized reconstruction
    mid = n // 2
    u_ref = control_input(law, aug.E1, x_o[mid], cooperative_error(
        law.graph, y_hat[mid], y0[mid]), q[mid])
    if np.abs(u_ref - u[mid]).max() > 1e-9 * max(1.0, np.abs(u_ref).max()):
        raise IdentityCheckFailedError("vectorized control reconstruction "
                                       "disagrees with control_input")

    return SimTrace(t=times, x=x, eta=eta, q=q, x_hat=x_hat, f_hat=f_hat,
                    u=u, y_f=y_f, e_bar=e_bar, v=v, f_s=f_s, y0=y0)


# --- CSV export/import ------------------------------------------------------

def _require_scalar_channels(net: NetworkModel) -> None:
    """The CSV schema names one column per agent for u/y/v signals."""
    if net.n_u != 1 or net.n_y != 1 or net.n_v != 1:
        raise SchemaError(
            "trace CSV schema supports single-channel agents only "
            f"(n_u={net.n_u}, n_y={net.n_y}, n_v={net.n_v})")


def _column_names(net: NetworkModel) -> list[str]:
    m, n_x, n_y = net.m, net.n_x, net.n_y
    n_aug_agent = n_x + n_y
    names = ["t"]
    names += [f"x[{i}][{k}]" for i in range(1, m + 1)
              for k in range(1, n_x + 1)]
    names += [f"eta[{i}][{k}]" for i in range(1, m + 1)
              for k in range(1, n_aug_agent + 1)]
    names += [f"q[{i}]" for i in range(1, m + 1)]
    names += [f"xhat[{i}][{k}]" for i in range(1, m + 1)
              for k in range(1, n_x + 1)]
    names += [f"fhat[{i}]" for i in range(1, m + 1)]
    names += [f"u[{i}]" for i in range(1, m + 1)]
    names += [f"yf[{i}]" for i in range(1, m + 1)]
    names += [f"ebar[{i}]" for i in range(1, m + 1)]
    names += [f"v[{i}]" for i in range(1, m + 1)]
    names += [f"fs[{i}]" for i in range(1, m + 1)]
    names += ["y0"]
    return names


def _agent_permutation(net: NetworkModel) -> np.ndarray:
    """Canonical augmented layout -> per-agent grouping, as indices."""
    return np.concatenate([aug_indices(net, i) for i in range(net.m)])


def trace_to_csv(trace: SimTrace, net: NetworkModel, path) -> None:
    """Write one row per step; header names every column.  The observer
    state is stored per agent (states then fault component) even though
    it lives in the canonical stacked layout in memory."""
    _require_scalar_channels(net)
    perm = _agent_permutation(net)
    table = np.hstack([
        trace.t[:, None], trace.x, trace.eta[:, perm], trace.q,
        trace.x_hat, trace.f_hat, trace.u, trace.y_f, trace.e_bar,
        trace.v, trace.f_s, trace.y0,
    ])
    names = _column_names(net)
    if table.shape[1] != len(names):
        raise SchemaError(f"trace has {table.shape[1]} columns, header "
                          f"names {len(names)}")
    np.savetxt(path, table, fmt="%.17g", delimiter=",",
               header=",".join(names), comments="")


def trace_from_csv(path, net: NetworkModel) -> SimTrace:
    """Read a trace written by :func:`trace_to_csv`, undoing the
    per-agent observer-state grouping."""
    _require_scalar_channels(net)
    with open(path) as fh:
        header = fh.readline().strip()
    expected = _column_names(net)
    if header.split(",") != expected:
        raise SchemaError(f"{path}: header does not match the trace "
                          "schema for this network")
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if table.shape[1] != len(expected):
        raise SchemaError(f"{path}: {table.shape[1]} columns, expected "
                          f"{len(expected)}")
    m, n_x, n_y = net.m, net.n_x, net.n_y
    na = m * (n_x + n_y)
    cuts = np.cumsum([1, m * n_x, na, m * n_y, m * n_x, m * n_y, m * n_y,
                      m * n_y, m * n_y, net.nbar_v, m * n_y])
    t = table[:, 0]
    x, eta_grp, q, x_hat, f_hat, u, y_f, e_bar, v, f_s = [
        table[:, a:b] for a, b in zip(cuts[:-1], cuts[1:])]
    y0 = table[:, cuts[-1]:]
    perm = _agent_permutation(net)
    eta = np.empty_like(eta_grp)
    eta[:, perm] = eta_grp
    return SimTrace(t=t, x=x, eta=eta, q=q, x_hat=x_hat, f_hat=f_hat,
                    u=u, y_f=y_f, e_bar=e_bar, v=v, f_s=f_s, y0=y0)
