"""Fixed-step simulation of the closed loop with dense trace logging.

The integrator is the classical 4th-order Runge-Kutta scheme with a
uniform step.  The exogenous signals (disturbance, sensor fault, source
setpoint) are piecewise constant and held as data: one
:class:`~coopftc.control.SignalSchedule` table of breakpoints and
values, built by :func:`step_schedule` and sampled right-continuously
at a scalar time or a whole time grid.  The command-line layer snaps
every breakpoint to the time grid, so a discontinuity contaminates only
the final stage of the single step that lands on it -- the induced
offset decays with the loop and the certificate checks exclude that
step.

The closed loop is linear and its inputs are piecewise constant, so one
RK4 step is exactly one affine map
``z+ = Phi z + G0 w(t) + Gh w(t + h/2) + G1 w(t + h)`` of the stacked
state and signals.  :func:`rollout` takes the affine realization
from :func:`~coopftc.control.closed_loop_maps` (one evaluation of the
loop's wiring on a stacked probe), spot-checks it against the readable
:func:`~coopftc.control.closed_loop_rhs` at a random state (so the
probe's affinity assumption and the fast path are verified), builds the
step map by applying the RK4 formula to identity columns
(:func:`rk4_step_maps`) and advances the grid with one small
matrix-vector product per step, a block of rows at a time
(:class:`_Stepper`); :func:`propagate` advances the whole grid at once
and is the stepper's oracle.  :func:`integrate` is the generic RK4
integrator the step map is checked against.

A :class:`Rollout` holds the loop, its signals, its time grid and a
stepper of its states (:class:`_Stepper`), which steps the loop one
block of rows at a time and carries only the last state into the next.
The trace columns (measured outputs, estimates, cooperative error,
control) come from the same wiring, evaluated on the rows asked for:
:func:`run_experiment` takes every state of :func:`propagate` and wires
every row at once, returning a whole :class:`SimTrace`, the tests'
oracle; ``simulate`` steps and wires one block at a time.  A trace's
blocks lie on one grid of rows (:func:`_grid_rows`, :func:`_spans`),
fixed by the table's width, on which :func:`trace_to_csv` steps, wires,
reorders and formats a trace and hands each block to the plot curves
and checks, and :func:`read_trace` gives back the rows of a trace file.
Each block's forcing is formed for its rows alone, and
:func:`propagate` forms it on the same grid, so on that grid the
blocks' rows are the whole-trace call's, bit for bit.

Every numeric text file is written by :func:`write_rows`, or for the
plots by :func:`write_series`, and read by :func:`read_rows`.  A cell is
written as ``'%.17g' % x`` writes it, by a numpy kernel
(:class:`~coopftc.cell_text.CellText`) that finds the 17 correctly
rounded digits of a block of float64 cells at once and lays out their
text with one gather, each cell in a slot of its own.  A cell whose
digits it cannot prove (an exact or near tie, a nonzero magnitude
outside [1e-280, 1e17), a value that is not a finite double) is
formatted by Python's own ``'%.17g' %`` and written into its slot, so
the bytes are always Python's.

A table of more than ``_SPLIT_CELLS`` cells, on a process that may use
more than one CPU (``os.sched_getaffinity``), is formatted or parsed in
two halves at once, and a pair of plot files of more formatted cells is
written one file each: this process keeps the first half or file, and
one child it forks (``os.fork``, in :func:`_forked`) formats or parses
the second into one part file next to its file, unlinked as soon as it
is made, which this process then copies in or reads back.  A trace's
blocks are wired before the fork and its text formatted from their
rows, staged in a part file; a table read is parsed into part files and
used after the child is done.  The child touches no BLAS and no Python
stdio, turns warnings into errors, and leaves by ``os._exit``.  The
parent reaps it in a ``finally``.  If either side fails, the parent
reruns the serial path, so the bytes, the table and every error text
are the serial path's.  On one CPU, without
``os.fork``, or while any other Python thread runs, nothing forks.
Python >= 3.12 warns when a process with threads forks.  That warning
is silenced around the fork call only, by its message: no other Python
thread runs then (checked before each split), the only native threads
are OpenBLAS's pool, which OpenBLAS's own fork handler stops before the
fork, and the child calls no BLAS.  Nor does this process while the
child runs: a BLAS product would then wait for a thread of OpenBLAS's
that the child keeps off the CPU.
"""

from __future__ import annotations

import contextlib
import io
import os
import signal
import threading
import warnings
import weakref
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .cell_text import _LAYOUT_WIDTH, CellText
from .control import (ClosedLoop, ClosedLoopMaps, ClosedLoopState,
                      SignalSchedule, _wire, closed_loop_maps,
                      closed_loop_rhs)
from .errors import (DimensionMismatchError, IdentityCheckFailedError,
                     NonFiniteStateError, SchemaError)
from .plant import AugmentedModel, NetworkModel, agent_permutation

__all__ = [
    "SignalSchedule",
    "TraceRows",
    "SimTrace",
    "Rollout",
    "step_schedule",
    "integrate",
    "rk4_step_maps",
    "propagate",
    "sample_initial_state",
    "rollout",
    "run_experiment",
    "write_rows",
    "write_series",
    "read_rows",
    "StagedColumns",
    "PartColumn",
    "trace_to_csv",
    "read_trace",
    "trace_from_csv",
]


def _per_agent(name: str, value, m: int) -> np.ndarray:
    vec = np.asarray(value, dtype=float)
    if vec.ndim == 0:
        vec = np.full(m, vec)
    if vec.shape != (m,):
        raise DimensionMismatchError(
            f"{name} shape {np.shape(value)} incompatible with m={m}")
    return vec


def step_schedule(m: int, disturbance, fault_magnitude, fault_onset: float,
                  setpoint_pairs) -> SignalSchedule:
    """The experiment's signals as one table.

    A constant per-agent ``disturbance``; a sensor-fault step, zero
    before ``fault_onset`` and ``fault_magnitude`` from it on; and a
    source output that takes ``value`` from each ``(time, value)`` of
    ``setpoint_pairs`` on, the first time being 0.  Scalar disturbance
    and fault values are broadcast to the ``m`` agents.
    """
    if fault_onset < 0:
        raise ValueError(f"fault onset must be >= 0, got {fault_onset}")
    set_times = np.array([t for t, _ in setpoint_pairs], dtype=float)
    if (set_times.size == 0 or set_times[0] != 0.0
            or np.any(np.diff(set_times) <= 0)):
        raise ValueError("setpoint times must start at 0 and strictly "
                         f"increase, got {set_times}")
    set_values = np.stack([np.atleast_1d(np.asarray(y, dtype=float))
                           for _, y in setpoint_pairs])
    times = np.union1d(set_times, [fault_onset])
    magnitude = _per_agent("fault magnitude", fault_magnitude, m)
    return SignalSchedule(
        times=times,
        v=np.tile(_per_agent("disturbance", disturbance, m), (times.size, 1)),
        f_s=np.where((times >= fault_onset)[:, None], magnitude, 0.0),
        y0=set_values[np.searchsorted(set_times, times, side="right") - 1],
    )


def _grid(h: float, T: float) -> np.ndarray:
    """The uniform time grid: the horizon rounded to whole steps."""
    if h <= 0:
        raise ValueError(f"step size must be > 0, got {h}")
    if T < h:
        raise ValueError(f"horizon {T} shorter than one step {h}")
    return np.arange(int(round(T / h)) + 1) * h


def _rk4_step(rhs, t, z, h):
    """One classical Runge-Kutta step from ``(t, z)``."""
    k1 = rhs(t, z)
    k2 = rhs(t + 0.5 * h, z + (0.5 * h) * k1)
    k3 = rhs(t + 0.5 * h, z + (0.5 * h) * k2)
    k4 = rhs(t + h, z + h * k3)
    return z + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def integrate(rhs: Callable[[float, np.ndarray], np.ndarray],
              z0: np.ndarray, h: float, T: float):
    """Classical 4th-order fixed-step integration.

    Returns ``(times, states)`` with one row per grid point including
    the initial state; the horizon is rounded to a whole number of
    steps.  Aborts with the first offending time when the state stops
    being finite.

    This is the generic, readable integrator: :func:`propagate` is the
    same scheme for the affine closed loop, and tests compare the two.
    """
    times = _grid(h, T)
    z = np.array(z0, dtype=float)
    out = np.empty((times.size, z.size))
    out[0] = z
    for k in range(times.size - 1):
        z = _rk4_step(rhs, times[k], z, h)
        if not np.all(np.isfinite(z)):
            raise NonFiniteStateError(
                f"state became non-finite at t={times[k + 1]:.6g}",
                time=float(times[k + 1]))
        out[k + 1] = z
    return times, out


def _affine_rhs(maps: ClosedLoopMaps, schedule: SignalSchedule):
    """``z' = M z + B_v v + B_f f_s + B_r y0`` with the schedule's signals."""
    M, B_v, B_f, B_r = maps.M, maps.B_v, maps.B_f, maps.B_r
    sample = schedule.sample

    def rhs(t, z):
        v, f_s, y0 = sample(t)
        return M @ z + B_v @ v + B_f @ f_s + B_r @ y0

    return rhs


def rk4_step_maps(maps: ClosedLoopMaps, h: float) -> np.ndarray:
    """One RK4 step of the affine loop as ``[Phi | G0 | Gh | G1]``.

    With ``w = (v, f_s, y0)`` stacked, the step from ``t`` is exactly
    ``z+ = Phi z + G0 w(t) + Gh w(t + h/2) + G1 w(t + h)``.  The columns
    are one :func:`_rk4_step` applied to the identity columns ``[I | 0]``
    of the state, each stage time selecting its own block of input
    columns, so the maps carry the integrator's own arithmetic and no
    series.  The stages and their sum ``k1 + 2 k2 + 2 k3 + k4`` are
    formed in place, by ``_rk4_step``'s IEEE operations in its order (an
    addition's operands may swap: that keeps its bits), each stage freed
    once added; so the call holds three maps and one block of input
    columns at once, not the four stages and the square identity.
    """
    B = np.hstack([maps.B_v, maps.B_f, maps.B_r])
    n, p = B.shape
    cols = n + 3 * p
    diag = np.arange(n)

    def stage(z, at: int):
        """``M z + B`` times the input columns of stage time ``at``
        (0, 1 or 2 half steps); ``z``'s cells are reused."""
        k = maps.M @ z
        np.matmul(B, np.eye(p, cols, n + at * p), out=z)
        k += z
        return k

    def shifted(k, c: float, out):
        """``[I | 0] + c k``, into ``out``."""
        np.multiply(k, c, out=out)
        out += 0.0  # the zeros of [I | 0], as 0 + (-0) gives +0
        out[diag, diag] += 1.0
        return out

    z = np.eye(n, cols)
    acc = stage(z, 0)                       # k1
    k = stage(shifted(acc, 0.5 * h, z), 1)  # k2
    for c, at in ((0.5 * h, 1), (h, 2)):    # k3, then k4
        shifted(k, c, z)
        k *= 2.0
        acc += k
        del k  # before the next stage is formed
        k = stage(z, at)
    acc += k
    del k, z
    return shifted(acc, h / 6.0, acc)


#: Below this magnitude an RK4 stage overflows only if the loop's gains
#: exceed it too, so the step map and the stage arithmetic of
#: :func:`integrate` agree that every state is finite.  Nearer overflow
#: they can disagree by many steps on where the state first overflows.
_SAFE_MAGNITUDE = np.sqrt(np.finfo(float).max)


def _safe(states: np.ndarray) -> bool:
    return -_SAFE_MAGNITUDE < states.min() <= states.max() < _SAFE_MAGNITUDE


def _forcing(step: np.ndarray, schedule: SignalSchedule, t: np.ndarray,
             h: float, out: np.ndarray) -> None:
    """The forcing ``G0 w(t) + Gh w(t + h/2) + G1 w(t + h)`` of the steps
    from the times ``t`` into ``out``, one row each, the signals sampled
    for those rows only."""
    w = np.hstack([col for s in (t, t + 0.5 * h, t + h)
                   for col in schedule.sample(s)])
    np.matmul(w, step[:, out.shape[1]:].T, out=out)


def _recur(phi_t: np.ndarray, prev: np.ndarray, rows: np.ndarray) -> None:
    """Add ``prev @ phi_t`` to each of ``rows`` in turn, ``prev`` being
    the state before it: each row then holds its state."""
    with np.errstate(over="ignore", invalid="ignore"):
        for row in rows:
            row += prev @ phi_t
            prev = row


def propagate(maps: ClosedLoopMaps, schedule: SignalSchedule,
              z0: np.ndarray, h: float, T: float, rows: int = 4096):
    """RK4 on the affine loop of ``maps`` driven by ``schedule``.

    Returns what :func:`integrate` returns for :func:`_affine_rhs`, to
    rounding: ``(times, states)`` on the same grid.  The schedule is
    sampled at the stage times ``integrate`` uses, the forcing of every
    step is written into the output array, for the rows of one block of
    the grid of ``rows`` rows (:func:`_spans`) at a time, and each step
    then adds one small matrix-vector product.  This is the whole-array
    oracle of :class:`_Stepper`, which gives the same bits on that grid.

    A trajectory that leaves the safe magnitude range is handed to
    :func:`integrate`, so a state that stops being finite is reported
    at the time the reference integrator reports.
    """
    times = _grid(h, T)
    step = rk4_step_maps(maps, h)
    n = maps.M.shape[0]
    out = np.empty((times.size, n))
    out[0] = z0
    for lo, hi in _spans(times.size, rows):
        lo = max(lo, 1)  # row 0 is z0
        _forcing(step, schedule, times[lo - 1:hi - 1], h, out[lo:hi])
    _recur(np.ascontiguousarray(step[:, :n].T), out[0], out[1:])
    if not _safe(out):
        return integrate(_affine_rhs(maps, schedule), z0, h, T)
    return times, out


class _Stepper:
    """The states :func:`propagate` gives, stepped one block of rows at a
    time as they are asked for (``stepper(lo, hi)``), in grid order:
    ``lo`` is the last row given or the one after it, so asking for row
    0 again does not advance it.  Only the last state is carried into
    the next block, and each block's forcing is formed for its rows
    alone; on the blocks of :func:`_spans` of ``propagate``'s ``rows``,
    every state is ``propagate``'s, bit for bit.

    A block that leaves the safe magnitude range hands the run to
    :func:`integrate` from t = 0: that either raises
    :class:`NonFiniteStateError` at the time it reports, or gives states
    (all of them, held whole) from which the rows continue."""

    def __init__(self, maps: ClosedLoopMaps, schedule: SignalSchedule,
                 z0: np.ndarray, h: float, T: float):
        self.t = _grid(h, T)
        self._maps, self._schedule, self._h, self._T = maps, schedule, h, T
        self._z0 = np.array(z0, dtype=float)
        self._step = rk4_step_maps(maps, h)
        self._phi_t = np.ascontiguousarray(self._step[:, :self._z0.size].T)
        self._last, self._at = self._z0, 0
        self._exact = None

    def __call__(self, lo: int, hi: int) -> np.ndarray:
        if self._exact is not None:
            return self._exact[lo:hi]
        if not (self._at <= lo <= self._at + 1 and lo < hi <= self.t.size):
            raise ValueError(f"rows {lo}:{hi} asked for after row "
                             f"{self._at}: rows are stepped in grid order")
        out = np.empty((hi - lo, self._z0.size))
        new = out[self._at + 1 - lo:]  # the rows after the last one given
        if lo == self._at:
            out[0] = self._last
        if len(new):
            _forcing(self._step, self._schedule, self.t[self._at:hi - 1],
                     self._h, new)
            _recur(self._phi_t, self._last, new)
            if not _safe(out):
                self._exact = integrate(
                    _affine_rhs(self._maps, self._schedule), self._z0,
                    self._h, self._T)[1]
                return self._exact[lo:hi]
            self._last, self._at = new[-1].copy(), hi - 1
        return out


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


def _uneven_step(t: np.ndarray):
    """Index of the first step of the time grid ``t`` (two or more
    points) that is not positive or differs from the median step by
    more than ``1e-9`` of it; ``None`` on a uniform grid."""
    steps = np.diff(t)
    h = np.median(steps)
    bad = np.flatnonzero((steps <= 0) | (np.abs(steps - h) > 1e-9 * h))
    return int(bad[0]) if bad.size else None


_TRACE_FIELDS = ("t", "x", "eta", "q", "x_hat", "f_hat", "u", "y_f",
                 "e_bar", "v", "f_s", "y0")


@dataclass(frozen=True)
class TraceRows:
    """Consecutive rows of a trace, unchecked: ``t`` one time per row,
    every other column one row per time.  A block of a trace's rows is
    one, and so is a whole :class:`SimTrace`."""

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

    def __post_init__(self):
        """Rows are taken as they are; :class:`SimTrace` checks them."""

    def rows(self, lo: int, hi: int) -> "TraceRows":
        """Rows ``lo:hi``, as views."""
        return TraceRows(**{name: getattr(self, name)[lo:hi]
                            for name in _TRACE_FIELDS})


class SimTrace(TraceRows):
    """Dense log of one experiment, one row per time step: every column
    finite and as long as ``t``, a uniform grid of two or more points.
    The fields and methods are those of :class:`TraceRows`, whose
    ``__init__`` calls this check."""

    def __post_init__(self):
        n = self.t.size
        for name in _TRACE_FIELDS[1:]:
            arr = getattr(self, name)
            if arr.ndim != 2 or arr.shape[0] != n:
                raise DimensionMismatchError(
                    f"trace column {name} has shape {arr.shape}, "
                    f"expected ({n}, ...)")
            if not np.all(np.isfinite(arr)):
                raise NonFiniteStateError(f"trace column {name} contains "
                                          "non-finite values")
        if n < 2 or _uneven_step(self.t) is not None:
            raise ValueError("trace time grid is not uniform with at "
                             "least two points")

    @property
    def h(self) -> float:
        return float(self.t[1] - self.t[0])


def _wired(loop: ClosedLoop, schedule: SignalSchedule, t: np.ndarray,
           states: np.ndarray) -> TraceRows:
    """The trace rows at the times ``t`` of the loop states ``states``:
    the states, the signals in force at those times, and what the loop's
    wiring makes of both."""
    state = ClosedLoopState.unpack(states, loop.net.nbar_x, loop.aug.n_aug)
    v, f_s, y0 = schedule.sample(t)
    y_f, est, e_bar, u, _ = _wire(loop, state, v, f_s, y0)
    return TraceRows(t=t, x=state.x, eta=state.eta, q=state.q,
                     x_hat=est.x_hat, f_hat=est.f_hat, u=u, y_f=y_f,
                     e_bar=e_bar, v=v, f_s=f_s, y0=y0)


@dataclass(frozen=True)
class Rollout:
    """One experiment, stepped as its rows are asked for: the loop, its
    signals, its time grid and the stepper of its states, which carries
    only the last state (:class:`_Stepper`).  No column is held:
    :meth:`rows` steps and wires the rows asked for, in grid order."""

    loop: ClosedLoop
    schedule: SignalSchedule
    t: np.ndarray
    states: _Stepper

    def rows(self, lo: int, hi: int) -> TraceRows:
        """Rows ``lo:hi`` of the trace; ``lo`` is the last row given or
        the one after it, or 0 while no row past 0 has been given."""
        return _wired(self.loop, self.schedule, self.t[lo:hi],
                      self.states(lo, hi))


def _fast_maps(loop: ClosedLoop, schedule: SignalSchedule,
               T: float) -> ClosedLoopMaps:
    """The loop's affine realization, probed once and verified against
    :func:`~coopftc.control.closed_loop_rhs` at one random state; a
    disagreement raises :class:`IdentityCheckFailedError`."""
    net, aug = loop.net, loop.aug
    maps = closed_loop_maps(loop)
    z_chk = np.random.default_rng(0).normal(size=loop.dim)
    t_chk = 0.37 * T
    ref = closed_loop_rhs(t_chk, ClosedLoopState.unpack(
        z_chk, net.nbar_x, aug.n_aug), loop, schedule).packed()
    fast = _affine_rhs(maps, schedule)(t_chk, z_chk)
    if np.abs(ref - fast).max() > 1e-9 * max(1.0, np.abs(ref).max()):
        raise IdentityCheckFailedError(
            "affine fast path disagrees with reference right-hand side")
    return maps


def rollout(loop: ClosedLoop, schedule: SignalSchedule, s0: ClosedLoopState,
            h: float = 1e-3, T: float = 40.0) -> Rollout:
    """A closed loop's run, to be stepped a block of rows at a time.

    The loop's affine realization is verified first (a disagreement
    raises :class:`IdentityCheckFailedError`) and its RK4 step map
    formed; no step is taken until rows are asked for."""
    stepper = _Stepper(_fast_maps(loop, schedule, T), schedule, s0.packed(),
                       h, T)
    return Rollout(loop=loop, schedule=schedule, t=stepper.t, states=stepper)


def run_experiment(loop: ClosedLoop, schedule: SignalSchedule,
                   s0: ClosedLoopState, h: float = 1e-3,
                   T: float = 40.0) -> SimTrace:
    """Integrate a closed loop and log the full trace: every state of
    :func:`propagate`, its forcing formed on the trace's grid, then one
    evaluation of the loop's wiring on every row.  ``simulate`` steps and
    wires the same rows a block at a time (:func:`rollout`,
    :func:`trace_to_csv`)."""
    maps = _fast_maps(loop, schedule, T)
    z0 = s0.packed()
    probe = _wired(loop, schedule, np.zeros(1), z0[None])
    times, states = propagate(maps, schedule, z0, h, T,
                              _grid_rows(_width(vars(probe).values())))
    return SimTrace(**vars(_wired(loop, schedule, times, states)))


# --- text tables ------------------------------------------------------------

#: Cells formatted per kernel call.  The kernel holds about 330 bytes a
#: cell (157 in work arrays reused from block to block, the rest in
#: temporaries and the block's text), 1.3 MB at 4096.  On a 2-CPU host
#: (one process per size, 5 runs each) ``simulate`` of the default
#: scenario peaked at 91.6, 91.4, 93.3 and 97.6 MB with blocks of 2048,
#: 4096, 8192 and 16384 cells, and the 24-agent fleet at 87.2, 86.7 and
#: 88.6 MB for the first three; 4096 was 6-13% faster than 2048, and
#: 8192 at most 6% faster than 4096.
_WRITE_BLOCK_CELLS = 4096

#: Tables of more cells than this are formatted and parsed by two
#: processes, and a pair of plot files of more formatted cells is written
#: by two.  On a 2-CPU host, in a process holding 60 MB more than the
#: CLI's imports, split over serial time (medians of 15 alternating pairs,
#: quartiles in brackets): a 58-column trace written and read back took
#: 1.08x (0.91-1.35) at 29k cells, 0.90x (0.82-0.97) at 58k, 0.72x at 87k,
#: 0.79x at 116k and 0.66-0.72x from 174k to 400k; a 2-column table 0.79x
#: (0.70-0.98, 11 pairs) at 100k and 0.65x at 200k; the 24-agent fleet's
#: plot pair (204k cells) 0.69x (0.65-0.76).  Every benchmark trace and
#: plot pair is above it, every gains file and 500-row trace below.
_SPLIT_CELLS = 100_000

#: Bytes of whole lines parsed per call, and of rows read back from a
#: child's part file per call: with 256 kB or 1 MB the default scenario's
#: trace parsed in the same time (2-CPU host), and the smaller chunk
#: keeps less text beside the block being filled.
_READ_BLOCK_BYTES = 1 << 18


#: Cells in one block of a trace's rows: the unit in which ``simulate``
#: wires, reorders and formats a trace and ``verify`` checks it.
_GRID_CELLS = 1 << 17


def _grid_rows(width: int) -> int:
    """Rows per block of a trace ``width`` columns wide: the power of two
    at or below ``_GRID_CELLS / width``, kept within [256, 4096].  It
    depends on nothing else, so every process cuts a trace on the same
    rows.  The block products of the loop's wiring and of the checks
    (OpenBLAS, two threads) gave the rows of one whole-trace call, bit for
    bit, at 256 to 4096 rows a block on the default scenario and the
    24-agent fleet, and other cells at 64, 70 or 1000 rows."""
    return 1 << min(12, max(8, (_GRID_CELLS // width).bit_length() - 1))


def _spans(n: int, rows: int):
    """``(lo, hi)`` of each block of ``n`` rows cut every ``rows`` rows,
    except that a last block of one row joins the block before it: a
    product of one row takes numpy's vector path, whose last bits differ
    from the same row's in a product of more (seen on the traces of the
    default scenario and the 24-agent fleet; remainders of 2 to ``rows``
    rows gave the whole-trace bits)."""
    lo = 0
    while lo < n:
        hi = n if n - lo <= rows + 1 else lo + rows
        yield lo, hi
        lo = hi


def _splits(cells: int) -> bool:
    """Whether a table, or a pair of plot files, of ``cells`` cells is
    split over this process and one forked child: more than
    ``_SPLIT_CELLS`` cells, more than one CPU this process may run on, a
    platform that can fork, and no other Python thread running, since a
    lock it held at the fork would stay held in the child, which could
    then wait for it for ever.  One child
    is as wide as the split goes: the widest host it has been measured
    on has two CPUs, and a fork copies the page tables of the whole
    process."""
    return (cells > _SPLIT_CELLS and hasattr(os, "fork")
            and hasattr(os, "sched_getaffinity")
            and threading.active_count() == 1
            and len(os.sched_getaffinity(0)) > 1)


def _fork() -> int:
    with warnings.catch_warnings():
        # Python >= 3.12 warns when a process with threads forks.  No
        # other Python thread runs here (``_splits`` checks), the only
        # native threads are OpenBLAS's pool, which OpenBLAS's own fork
        # handler stops before the fork, and the child calls no BLAS; so
        # the warning is silenced for this call only.
        warnings.filterwarnings("ignore", r"This process .*multi-threaded",
                                DeprecationWarning)
        return os.fork()


def _strict(job, *args) -> None:
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        job(*args)


def _part_file(name: str) -> int:
    """A new file next to ``name``, open for reading and writing and
    already unlinked, so that nothing is left behind."""
    part = f"{name}.{os.getpid()}.part"
    fd = os.open(part, os.O_RDWR | os.O_CREAT | os.O_EXCL, 0o600)
    try:
        os.unlink(part)
    except OSError:
        os.close(fd)
        raise
    return fd


@contextlib.contextmanager
def _forked(name: str, theirs):
    """Run ``theirs(fd)`` in one forked child, ``fd`` being a new part
    file next to ``name``, open and already unlinked, so that only the
    descriptor (which the child inherits) reaches it and nothing is left
    behind.  Yields ``wait``, which reaps the child and returns ``fd``
    when ``theirs`` returned, None otherwise.  A child not yet reaped on
    leaving is killed and reaped; ``fd`` is closed on leaving unless
    ``wait`` returned it, and then the caller closes it.  A part that
    cannot be made, or a fork that fails, raises ``OSError``.

    ``theirs`` runs with warnings turned into errors, so a warning fails
    it rather than being printed.  The child leaves by ``os._exit``: it
    runs no exit handler and flushes no buffer it inherited, so its only
    effects are what ``theirs`` writes to files.  ``theirs`` must touch
    no BLAS and no Python stdio."""
    fd = _part_file(name)
    pid, handed = 0, False
    try:
        pid = _fork()
        if pid == 0:
            code = 1
            try:
                _strict(theirs, fd)
                code = 0
            finally:
                os._exit(code)

        def wait() -> int | None:
            nonlocal pid, handed
            status = os.waitpid(pid, 0)[1]
            pid, handed = 0, status == 0
            return fd if handed else None
        yield wait
    finally:
        if pid:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        if not handed:
            os.close(fd)


def _fork_half(name: str, mine, theirs) -> int | None:
    """Run ``mine()`` here and ``theirs(fd)`` in one forked child at once
    (:func:`_forked`).  Returns ``fd`` when both halves returned; None,
    with the part closed, when it cannot be made or either half failed.
    ``mine`` also runs with warnings turned into errors.  The child is
    reaped before this returns, and killed first if this process's half
    failed.  On None the caller reruns its serial path, so the result,
    or the error, is the serial path's."""
    try:
        with _forked(name, theirs) as wait:
            _strict(mine)
            return wait()
    except Exception:
        return None


def _width(columns) -> int:
    return sum(np.shape(c)[1] if np.ndim(c) == 2 else 1 for c in columns)


def _row_text(columns, sep: str, lo: int, hi: int):
    """The text of rows ``lo:hi`` of ``columns``, a block at a time, each
    block converted to float64 and formatted by the kernel."""
    width = _width(columns)
    rows = max(1, min(_WRITE_BLOCK_CELLS // width, hi - lo))
    kernel = CellText(rows * width, sep * (width - 1) + "\n")
    for start in range(lo, hi, rows):
        block = np.column_stack([c[start:min(start + rows, hi)]
                                 for c in columns])
        yield kernel(block.astype(np.float64, copy=False))


def _write_all(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


def _write_part(text, lo: int, hi: int, fd: int) -> None:
    for chunk in text(lo, hi):
        _write_all(fd, chunk.encode())


def _copy_in(part: int, fd: int) -> bool:
    """Append the whole part file ``part`` at the offset of ``fd``, copied
    in the kernel; False if the copy fails."""
    try:
        pos = 0
        while sent := os.copy_file_range(part, fd, 1 << 30, pos):
            pos += sent
    except OSError:
        return False
    return True


def _write_split(fh, text, n: int, half: int) -> bool:
    """Write ``text(0, half)`` here and ``text(half, n)`` in one forked
    child at once, if ``fh`` is a named, seekable UTF-8 file and the
    platform can copy between files in the kernel; False, with ``fh`` as
    it was, otherwise or when either half or the copy fails."""
    name = getattr(fh, "name", None)
    if (not isinstance(name, str) or getattr(fh, "encoding", None) != "utf-8"
            or not fh.seekable() or not hasattr(os, "copy_file_range")):
        return False
    start = fh.tell()
    part = _fork_half(name, lambda: fh.writelines(text(0, half)),
                      partial(_write_part, text, half, n))
    if part is not None:
        try:
            fh.flush()
            if _copy_in(part, fh.fileno()):
                fh.seek(0, os.SEEK_END)  # past what the handle did not write
                return True
        finally:
            os.close(part)
    fh.seek(start)
    fh.truncate()
    return False


def _write_text(fh, text, n: int, half: int, cells: int) -> None:
    """Write the ``n`` rows whose text ``text(lo, hi)`` yields, rows
    ``0:half`` here and the rest in one forked child where a table of
    ``cells`` cells is split (:func:`_splits`, :func:`_write_split`)."""
    if 0 < half < n and _splits(cells) and _write_split(fh, text, n, half):
        return
    fh.writelines(text(0, n))


def write_rows(fh, columns, sep: str) -> None:
    """Write the arrays ``columns`` side by side (1-D: one column) to the
    text handle ``fh``, a few rows at a time, so the whole table is never
    copied.  The bytes equal ``np.savetxt``'s: 17 significant digits
    per cell, exact on reading back, cells joined by ``sep``, LF endings.
    Each block of cells is converted to float64 and formatted by
    :class:`~coopftc.cell_text.CellText`, and the cells it cannot prove
    by Python's ``'%.17g' %``.  A separator the kernel cannot write, one
    that is not a single ASCII character other than NUL, raises
    ``ValueError``.

    A table of more than ``_SPLIT_CELLS`` cells going to a named,
    seekable UTF-8 file is cut into two row halves (:func:`_splits`,
    :func:`_fork_half`).  This process formats the first half into
    ``fh``.  One forked child formats the second into one part file next
    to the output, unlinked once created; this process then appends the
    part, copied in the kernel (``os.copy_file_range``).  If either half
    fails, what was written is truncated and the serial path below runs,
    so the bytes and any error are the serial path's.  On one CPU,
    without ``os.fork``, or while another Python thread runs, nothing
    forks."""
    if not CellText.fits(sep):
        raise ValueError(f"separator {sep!r} is not one ASCII character "
                         "other than NUL")
    n = len(columns[0])
    _write_text(fh, partial(_row_text, columns, sep), n, n // 2,
                n * _width(columns))


class StagedColumns:
    """Columns of ``rows`` float64 values each, staged a block
    of rows at a time (:meth:`append`) in one part file next to ``near``
    (:func:`_part_file`, unlinked once made), each column in a run of
    bytes of its own, and read back a column at a time (:meth:`column`).
    The part is closed once neither this nor a column read from it is
    referred to."""

    def __init__(self, near: str, rows: int):
        self.rows, self.filled = rows, 0
        self.fd = _part_file(near)
        weakref.finalize(self, os.close, self.fd)

    def append(self, columns) -> None:
        """Stage the next rows: ``columns`` holds one 1-D run of values
        per column, all of one length."""
        for c, values in enumerate(columns):
            data = memoryview(np.asarray(values, dtype=np.float64).tobytes())
            pos = 8 * (c * self.rows + self.filled)
            while data:
                done = os.pwrite(self.fd, data, pos)
                data, pos = data[done:], pos + done
        self.filled += len(values)

    def column(self, c: int) -> "PartColumn":
        return PartColumn(self, 8 * c * self.rows, self.rows)


class PartColumn:
    """``size`` float64 values from byte ``start`` of the part file of
    ``staged``, read with ``os.pread`` a slice at a time: a curve's
    values that :func:`write_series` reads back a block at a time, in
    this process or in a forked child, without holding them whole."""

    def __init__(self, staged: StagedColumns, start: int, size: int):
        self.staged, self.start, self.size = staged, start, size

    def __len__(self) -> int:
        return self.size

    def __getitem__(self, rows: slice) -> np.ndarray:
        lo, hi, stride = rows.indices(self.size)
        if stride != 1:
            raise ValueError("a part column is read in runs of rows")
        want = 8 * max(0, hi - lo)
        data = os.pread(self.staged.fd, want, self.start + 8 * lo)
        if len(data) != want:
            raise ValueError("the part file is short")
        return np.frombuffer(data)

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return np.asarray(self[:], dtype=dtype)


def _series_text(t, curves):
    """The bytes of one plot file, a block of lines at a time.  ``t`` is
    formatted once, into one NUL-padded slot per row; each block of a
    curve's values is laid beside the slots of its rows, and the NULs of
    the block's lines are dropped."""
    n = len(t)
    rows = max(1, min(_WRITE_BLOCK_CELLS, n))
    kernel = CellText(rows, " ")
    times = np.empty((n, _LAYOUT_WIDTH), dtype=np.uint8)
    for lo in range(0, n, rows):
        block = np.asarray(t[lo:lo + rows], dtype=np.float64)
        times[lo:lo + block.size] = kernel.padded(block)
    kernel = CellText(rows, "\n")
    lines = np.empty((rows, 2, _LAYOUT_WIDTH), dtype=np.uint8)
    yield b"# two-column series; blank lines separate curves\n"
    for label, values in curves:
        yield f"# curve={label}\n".encode()
        for lo in range(0, n, rows):
            block = np.asarray(values[lo:lo + rows], dtype=np.float64)
            k = block.size
            lines[:k, 0] = times[lo:lo + k]
            lines[:k, 1] = kernel.padded(block)
            yield lines[:k].tobytes().translate(None, b"\0")
        yield b"\n"


def _write_series_file(path, t, curves) -> None:
    with open(path, "wb") as fh:
        fh.writelines(_series_text(t, curves))


def _write_series_part(t, curves, fd: int) -> None:
    for data in _series_text(t, curves):
        _write_all(fd, data)


def _write_series_pair(mine, theirs) -> bool:
    """Write the plot file ``mine`` here and ``theirs`` in one forked
    child at once, its bytes copied in from the child's part file; False
    when either side or the copy fails."""
    path = theirs[0]
    part = _fork_half(path, partial(_write_series_file, *mine),
                      partial(_write_series_part, *theirs[1:]))
    if part is None:
        return False
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
        try:
            return _copy_in(part, fd)
        finally:
            os.close(fd)
    except OSError:
        return False
    finally:
        os.close(part)


def write_series(files) -> None:
    """Write plot files of gnuplot-style two-column blocks.  Each
    ``(path, t, curves)`` of ``files`` is a header line, then for each
    ``(label, values)`` of ``curves`` a ``# curve=label`` line, the rows
    ``t value`` and a blank line.  The rows' bytes equal ``np.savetxt``'s
    of ``[t, values]`` with :func:`write_rows`'s format; ``t`` is
    formatted once per file, and no file's whole text is held in memory.
    A curve's values are an array or anything sliced like one, such as a
    :class:`PartColumn`, which is read a block of rows at a time.

    Two files of more than ``_SPLIT_CELLS`` formatted cells together
    (:func:`_splits`) are written at once: this process writes the
    first, and one forked child (:func:`_fork_half`) writes the bytes of
    the second into one part file next to it, unlinked once made, which
    this process then copies into the second file in the kernel.  If
    either side or the copy fails, both files are written by the serial
    path, so the bytes and any error are the serial path's."""
    for path, t, curves in files:
        for label, values in curves:
            if len(values) != len(t):
                raise DimensionMismatchError(
                    f"{path}: curve {label} has {len(values)} values for "
                    f"{len(t)} times")
    cells = sum(len(t) * (1 + len(curves)) for _, t, curves in files)
    if (len(files) == 2 and hasattr(os, "copy_file_range")
            and _splits(cells) and _write_series_pair(*files)):
        return
    for file in files:
        _write_series_file(*file)


def _line_chunk(fd: int, lo: int, hi: int) -> bytes:
    """The whole lines of about ``_READ_BLOCK_BYTES`` from byte ``lo`` of
    ``fd``, within bytes ``lo:hi``, which end at a line end."""
    data = os.pread(fd, min(_READ_BLOCK_BYTES, hi - lo), lo)
    cut = data.rfind(b"\n") + 1
    while not cut:  # a line longer than a chunk
        more = os.pread(fd, min(_READ_BLOCK_BYTES, hi - lo - len(data)),
                        lo + len(data))
        if not more:
            raise ValueError("the last line has no end")
        data += more
        cut = data.rfind(b"\n") + 1
    return data[:cut]


def _lines_parsed(fd: int, lo: int, hi: int, sep: str, width: int):
    """The rows of bytes ``lo:hi`` of ``fd``, parsed a chunk at a time; no
    chunk's text is held while its rows are used."""
    while lo < hi:
        data = _line_chunk(fd, lo, hi)
        lo += len(data)
        rows = _parse_lines(data, sep, width)
        del data
        yield rows


def _line_start(fd: int, lo: int, pos: int) -> int:
    """The start of the line holding byte ``pos`` of lines from ``lo``."""
    while pos > lo:
        step = min(pos - lo, _READ_BLOCK_BYTES)
        cut = os.pread(fd, step, pos - step).rfind(b"\n")
        if cut >= 0:
            return pos - step + cut + 1
        pos -= step
    return lo


def _parse_lines(data: bytes, sep: str, width: int) -> np.ndarray:
    """The rows of ``data``, whole lines, with warnings turned into
    errors; ``ValueError`` unless there is one row of ``width`` cells a
    line."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # decoded as the serial reader decodes the whole file
        rows = np.loadtxt(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"),
                          delimiter=sep, comments=None, ndmin=2)
    if rows.shape != (data.count(b"\n"), width):
        raise ValueError("rows differ from the lines")
    return rows


def _parse_into(fd: int, lo: int, hi: int, sep: str, width: int,
                part: int) -> None:
    """The rows of bytes ``lo:hi`` of ``fd`` as float64 bytes into the
    part file ``part``."""
    for rows in _lines_parsed(fd, lo, hi, sep, width):
        _write_all(part, rows.tobytes())


def _part_rows(part: int, width: int):
    """The rows :func:`_parse_into` wrote into ``part``, about
    ``_READ_BLOCK_BYTES`` at a time."""
    size, row = os.fstat(part).st_size, 8 * width
    if size % row:
        raise ValueError("the part file holds a partial row")
    step = max(1, _READ_BLOCK_BYTES // row) * row
    for pos in range(0, size, step):
        data = os.pread(part, step, pos)
        if len(data) != min(step, size - pos):
            raise ValueError("the part file is short")
        yield np.frombuffer(data).reshape(-1, width)


def _layout(fd: int, sep: str):
    """``(header, width, lo, mid, hi)`` of a file whose lines the block
    reader can cut: the header line, the cells of the first row, and the
    body ``lo:hi`` of whole lines, of which ``mid:hi`` goes to a forked
    child where a table of so many cells splits (:func:`_splits`; the
    count is estimated from the first row's length), else ``mid`` is
    ``hi``.  None for a file only the serial reader may judge: no header
    line, a carriage return or bytes that are not UTF-8 in it, or no
    final newline."""
    size = os.fstat(fd).st_size
    head = os.pread(fd, _READ_BLOCK_BYTES, 0)
    lo = head.find(b"\n") + 1
    if not lo or b"\r" in head[:lo] or os.pread(fd, 1, size - 1) != b"\n":
        return None
    first = _line_chunk(fd, lo, size) if lo < size else b""
    line = first.find(b"\n") + 1
    try:
        header = head[:lo - 1].decode("utf-8")
    except UnicodeDecodeError:
        return None
    width = first[:line].count(sep.encode()) + 1
    cells = (size - lo) // max(line, 1) * width
    mid = _line_start(fd, lo, (lo + size) // 2) if _splits(cells) else size
    return header, width, lo, mid, size


def _parsed(fd: int, sep: str, width: int, lo: int, mid: int, hi: int,
            name: str):
    """The rows of bytes ``lo:hi`` of ``fd`` in pieces, in order, parsed a
    chunk at a time.  Where ``mid`` is not ``hi``, this process parses
    ``lo:mid`` into a part file of its own while one forked child
    (:func:`_forked`) parses ``mid:hi`` into another, both next to
    ``name``, and the rows are read back from the two parts once both
    are parsed.  So no row is used while the child runs: a BLAS product
    in this process would then wait for a thread of OpenBLAS's that the
    child keeps off the CPU.  On the 24-agent fleet (2-CPU host, medians
    of 7 in process), ``verify`` took 0.42-0.44 s using this half's rows
    as they were parsed (0.34-0.36 s with one BLAS thread), and
    0.24-0.29 s so, against 0.26-0.36 s reading the whole table first.
    ``ValueError``, ``OSError`` or a warning where a chunk does not parse
    into one row of ``width`` cells a line, or the child fails."""
    if mid == hi:
        yield from _lines_parsed(fd, lo, hi, sep, width)
        return
    own = _part_file(name)
    try:
        with _forked(name, partial(_parse_into, fd, mid, hi, sep,
                                   width)) as wait:
            _parse_into(fd, lo, mid, sep, width, own)
            part = wait()
        if part is None:
            raise ValueError("the child's rows did not parse")
        try:
            yield from _part_rows(own, width)
            yield from _part_rows(part, width)
        finally:
            os.close(part)
    finally:
        os.close(own)


def _read_serial(path, sep: str) -> tuple[str, np.ndarray]:
    line = 1

    def body(fh):  # numpy pulls one line at a time: ``line`` is its number
        nonlocal line
        for line, text in enumerate(fh, start=2):
            yield text

    with open(path, encoding="utf-8") as fh:
        try:
            first = fh.readline().rstrip("\n")
            with warnings.catch_warnings():
                # an empty body is reported below, not as a warning
                warnings.simplefilter("ignore", UserWarning)
                table = np.loadtxt(body(fh), delimiter=sep, comments=None,
                                   ndmin=2)
        except ValueError as exc:
            # numpy counts rows its own way; the file line replaces that
            detail = str(exc).split(" at row")[0]
            raise SchemaError(f"{path}: line {line}: {detail}") from exc
    return first, table


def _pieces(path, sep: str):
    """The header line, then the table below it in pieces of rows, in
    file order: from :func:`_parsed`, or, for a file it cannot cut or
    from the first piece that fails, from :func:`_read_serial`, whose
    rows past those already given follow and whose error is raised."""
    with open(path, "rb") as fh:
        layout = _layout(fh.fileno(), sep)
        if layout is None:
            yield from _read_serial(path, sep)
            return
        header, width, lo, mid, hi = layout
        yield header
        done = 0
        try:
            for piece in _parsed(fh.fileno(), sep, width, lo, mid, hi,
                                 os.fspath(path)):
                done += len(piece)
                yield piece
        except (OSError, ValueError, Warning):
            yield _read_serial(path, sep)[1][done:]


def _checked(path, sep: str):
    """The header line, then the table below it in pieces (:func:`_pieces`),
    none from the first non-finite row on.  The errors of
    :func:`read_rows` are raised only once the whole file is parsed:
    an empty body, then the first non-finite row's line."""
    pieces = _pieces(path, sep)
    yield next(pieces)
    count, bad = 0, None
    for piece in pieces:
        finite = np.isfinite(piece).all(axis=1)
        if bad is None and not finite.all():
            bad = count + int(np.argmin(finite))
        count += len(piece)
        if bad is None:
            yield piece
    if not count:
        raise SchemaError(f"{path}: no rows below the header line")
    if bad is not None:
        raise SchemaError(f"{path}: line {bad + 2}: non-finite value")


def _blocks(path, sep: str, rows: int):
    """The header line, then the table below it in the blocks of
    :func:`_spans`, however the pieces fall: each piece is copied into a
    block of ``rows`` rows, and a full block is given once two more rows
    are known to follow, or at the end, where one more joins it."""
    pieces = _checked(path, sep)
    yield next(pieces)
    ready, block, filled = None, None, 0
    for piece in pieces:
        at = 0
        while at < len(piece):
            if ready is not None and filled + len(piece) - at >= 2:
                yield ready
                ready = None
            if block is None:
                block, filled = np.empty((rows, piece.shape[1])), 0
            take = min(rows - filled, len(piece) - at)
            block[filled:filled + take] = piece[at:at + take]
            at, filled = at + take, filled + take
            if filled == rows:
                ready, block, filled = block, None, 0
    if ready is not None and filled:  # the one row after the last block
        ready, block = np.concatenate([ready, block[:filled]]), None
    if ready is not None:
        yield ready
    if block is not None:
        yield block[:filled]


def read_rows(path, sep: str) -> tuple[str, np.ndarray]:
    """The header line and the table :func:`write_rows` wrote below it.
    A non-numeric cell, a ragged row, an empty body or a non-finite cell
    raises :class:`SchemaError` naming the file and the line.

    The body is parsed in chunks of whole lines of about
    ``_READ_BLOCK_BYTES`` (:func:`_checked`).  A table of more than
    ``_SPLIT_CELLS`` cells is cut at the line nearest its middle
    (:func:`_splits`, :func:`_parsed`): this process parses the first
    half, and one forked child the second, each writing the rows'
    float64 bytes to a part file next to ``path``, unlinked once made,
    which this process then reads back.  A chunk that fails or parses to
    other rows than its line count, a child that fails and a part file
    that cannot be made send the file through the serial reader, so the
    table and every error text are the serial reader's.  On one CPU,
    without ``os.fork``, or while another Python thread runs, nothing
    forks."""
    pieces = _checked(path, sep)
    header = next(pieces)
    return header, np.concatenate(list(pieces))


# --- trace CSV --------------------------------------------------------------

def _trace_columns(net: NetworkModel) -> list[tuple[str, list[str]]]:
    """The trace CSV layout in file order: each :class:`SimTrace` field
    with the header names of its columns.  The header, the write order
    and the read cuts all come from this table, which names one column
    per agent for the u/y/v signals."""
    if net.n_u != 1 or net.n_y != 1 or net.n_v != 1:
        raise SchemaError(
            "trace CSV schema supports single-channel agents only "
            f"(n_u={net.n_u}, n_y={net.n_y}, n_v={net.n_v})")
    agents = range(1, net.m + 1)

    def per_state(label: str, n: int) -> list[str]:
        return [f"{label}[{i}][{k}]" for i in agents for k in range(1, n + 1)]

    def per_agent(label: str) -> list[str]:
        return [f"{label}[{i}]" for i in agents]

    return [
        ("t", ["t"]), ("x", per_state("x", net.n_x)),
        ("eta", per_state("eta", net.n_x + net.n_y)), ("q", per_agent("q")),
        ("x_hat", per_state("xhat", net.n_x)), ("f_hat", per_agent("fhat")),
        ("u", per_agent("u")), ("y_f", per_agent("yf")),
        ("e_bar", per_agent("ebar")), ("v", per_agent("v")),
        ("f_s", per_agent("fs")), ("y0", ["y0"]),
    ]


def _write_staged(fh, blocks, spans, width: int) -> bool:
    """Write the trace whose ``blocks`` (each a list of columns) lie on
    ``spans`` as :func:`write_rows` writes a table in two halves, cut at
    the block boundary nearest the middle: every block's rows go first,
    as float64 bytes, into one part file next to ``fh``'s file, and both
    halves' text is then formatted from it at once.  So no block is made
    while the child runs: the wiring's BLAS products would then wait for
    a thread of OpenBLAS's that the other process keeps off the CPU (at
    m = 128, T = 4 s, the trace write took 1.73 s so, and 1.03 s with one
    BLAS thread).  False, with nothing written, if the part file cannot
    be made."""
    try:
        stage = _part_file(fh.name)
    except OSError:
        return False
    row = 8 * width
    try:
        staged = max(1, _READ_BLOCK_BYTES // row)
        for block in blocks:
            for lo in range(0, len(block[0]), staged):
                rows = np.column_stack([c[lo:lo + staged] for c in block])
                _write_all(stage, memoryview(rows).cast("B"))

        def text(lo: int, hi: int):
            """Rows ``lo:hi`` of the part, read and formatted a kernel's
            worth of rows at a time."""
            step = max(1, _WRITE_BLOCK_CELLS // width)
            kernel = CellText(step * width, "," * (width - 1) + "\n")
            for start in range(lo, hi, step):
                data = os.pread(stage, min(step, hi - start) * row,
                                start * row)
                yield kernel(np.frombuffer(data).reshape(-1, width))

        n = spans[-1][1]
        _write_text(fh, text, n, spans[(len(spans) + 1) // 2][0], n * width)
    finally:
        os.close(stage)
    return True


def trace_to_csv(trace, net: NetworkModel, path, *checks) -> None:
    """Write one row per step; header names every column.  ``trace`` is
    a :class:`SimTrace` or a :class:`Rollout`, whose rows are taken (and
    a rollout's stepped and wired) one block of the trace grid at a
    time, so no column is held whole; each block also goes to every one
    of ``checks`` (``update``), in order.  The observer state is stored
    per agent (states then fault component) even though it lives in the
    canonical stacked layout in memory.  A write that fails part way,
    a rollout whose state stops being finite among them, removes the
    file.

    A trace of more than ``_SPLIT_CELLS`` cells, of two blocks or more,
    is formatted in two halves at once (:func:`_write_staged`)."""
    columns = _trace_columns(net)
    names = [label for _, labels in columns for label in labels]
    perm = agent_permutation(net)

    def cells(block):
        return [block.eta[:, perm] if name == "eta" else getattr(block, name)
                for name, _ in columns]

    width = _width(cells(trace.rows(0, 1)))
    if width != len(names):
        raise SchemaError(f"trace has {width} columns, header names "
                          f"{len(names)}")
    n = trace.t.size
    spans = list(_spans(n, _grid_rows(width)))

    def blocks():
        for lo, hi in spans:
            block = trace.rows(lo, hi)
            for check in checks:
                check.update(block)
            yield cells(block)

    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        try:
            fh.write(",".join(names) + "\n")
            if (len(spans) > 1 and _splits(n * width)
                    and _write_staged(fh, blocks(), spans, width)):
                return
            for block in blocks():
                fh.writelines(_row_text(block, ",", 0, len(block[0])))
        except BaseException:
            with contextlib.suppress(OSError):
                os.remove(path)
            raise


def read_trace(path, net: NetworkModel):
    """The trace :func:`trace_to_csv` wrote at ``path``, one
    :class:`TraceRows` per block of the trace grid (the blocks
    :func:`trace_to_csv` wrote), with the per-agent
    observer-state grouping undone.  Only the time column is kept whole.

    The file's errors are raised once it has been read through, each
    text naming the file: first :func:`read_rows`'s, then a header
    that is not the schema's, rows of another width, fewer than two
    rows, and a time column off a uniform grid (naming the first line
    whose step differs).  No block is given from a non-finite row on, or
    at all for a header or width that does not fit."""
    columns = _trace_columns(net)
    expected = [label for _, labels in columns for label in labels]
    cuts = np.cumsum([len(labels) for _, labels in columns])[:-1]
    inverse = np.argsort(agent_permutation(net))
    blocks = _blocks(path, ",", _grid_rows(len(expected)))
    fits = next(blocks).split(",") == expected
    times, width = [], len(expected)
    for table in blocks:
        width = table.shape[1]
        if fits and width == len(expected):
            parts = dict(zip([name for name, _ in columns],
                             np.split(table, cuts, axis=1)))
            parts["t"] = parts["t"][:, 0]
            parts["eta"] = parts["eta"][:, inverse]
            times.append(parts["t"].copy())
            rows = TraceRows(**parts)
            del table, parts  # so that no block outlives its turn
            yield rows
            del rows
    if not fits:
        raise SchemaError(f"{path}: header does not match the trace "
                          "schema for this network")
    if width != len(expected):
        raise SchemaError(f"{path}: {width} columns, expected "
                          f"{len(expected)}")
    t = np.concatenate(times)
    if len(t) < 2:
        raise SchemaError(f"{path}: {len(t)} row below the header "
                          "line; a trace needs at least two")
    k = _uneven_step(t)
    if k is not None:
        raise SchemaError(f"{path}: line {k + 3}: time grid is not uniform")


def trace_from_csv(path, net: NetworkModel) -> SimTrace:
    """The whole trace :func:`trace_to_csv` wrote at ``path``: the blocks
    of :func:`read_trace`, joined.  Raises what ``read_trace`` raises."""
    blocks = list(read_trace(path, net))
    return SimTrace(**{name: np.concatenate([getattr(b, name)
                                             for b in blocks])
                       for name in _TRACE_FIELDS})
