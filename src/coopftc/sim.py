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
state and signals.  :func:`run_experiment` takes the affine realization
from :func:`~coopftc.control.closed_loop_maps` (one evaluation of the
loop's wiring on a stacked probe), spot-checks it against the readable
:func:`~coopftc.control.closed_loop_rhs` at a random state (so the
probe's affinity assumption and the fast path are verified), builds the
step map by applying the RK4 formula to identity columns
(:func:`rk4_step_maps`) and advances the whole grid with one small
matrix-vector product per step (:func:`propagate`).  :func:`integrate`
is the generic RK4 integrator the step map is checked against.  The
remaining trace columns (measured outputs, estimates, cooperative
error, control) come from one evaluation of the same wiring on the
whole trace, one row per sample.

Every numeric text file goes through :func:`write_rows` and
:func:`read_rows`.  A cell is written as ``'%.17g' % x`` writes it, by
a numpy kernel (:class:`~coopftc.cell_text.CellText`) that finds the 17
correctly rounded digits of a block of cells at once and lays out their
text with one gather.  A cell whose digits it cannot prove (an exact or
near tie, a nonzero magnitude outside [1e-280, 1e17), a value that is
not a finite double) is formatted by Python's own ``'%.17g' %`` and
spliced into its place, so the bytes are always Python's.

A table of more than ``_SPLIT_CELLS`` cells is formatted or parsed by
one process per CPU this process may use
(``os.sched_getaffinity``), at most ``_SPLIT_WAYS_MAX``.  Only this
process forks (``os.fork``, in :func:`_fork_jobs`), and it keeps the
first row range for itself.  A child formats or parses its own
contiguous range into a part file next to the file, unlinked as soon as
it is made, which this process then copies in.  A child touches no BLAS
and no Python stdio, turns warnings into errors, and leaves by
``os._exit``.  The parent reaps every child in a ``finally``.  If any
range fails, it reruns the serial path, so the bytes, the table and
every error text are the serial path's.  On one CPU, without
``os.fork``, or while any other Python thread runs, nothing forks.
Python >= 3.12 warns when a process with threads forks.  That warning
is silenced around the fork call only, by its message: no other Python
thread runs then (checked before each split), the only native threads
are OpenBLAS's pool, which OpenBLAS's own fork handler stops before the
fork, and no child calls BLAS.
"""

from __future__ import annotations

import io
import os
import signal
import threading
import warnings
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .cell_text import CellText
from .control import (ClosedLoop, ClosedLoopMaps, ClosedLoopState,
                      SignalSchedule, _wire, closed_loop_maps,
                      closed_loop_rhs)
from .errors import (DimensionMismatchError, IdentityCheckFailedError,
                     NonFiniteStateError, SchemaError)
from .plant import AugmentedModel, NetworkModel, agent_permutation

__all__ = [
    "SignalSchedule",
    "SimTrace",
    "step_schedule",
    "integrate",
    "rk4_step_maps",
    "propagate",
    "sample_initial_state",
    "run_experiment",
    "write_rows",
    "read_rows",
    "trace_to_csv",
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
    come from one :func:`_rk4_step` applied to identity columns, each
    stage time selecting its own block of input columns, so the maps
    carry the integrator's own arithmetic and no series.
    """
    B = np.hstack([maps.B_v, maps.B_f, maps.B_r])
    n, p = B.shape
    eye = np.eye(n + 3 * p)
    inputs = {0.0: eye[n:n + p], 0.5 * h: eye[n + p:n + 2 * p],
              h: eye[n + 2 * p:]}
    return _rk4_step(lambda t, z: maps.M @ z + B @ inputs[t], 0.0,
                     eye[:n], h)


#: Below this magnitude an RK4 stage overflows only if the loop's gains
#: exceed it too, so the step map and the stage arithmetic of
#: :func:`integrate` agree that every state is finite.  Nearer overflow
#: they can disagree by many steps on where the state first overflows.
_SAFE_MAGNITUDE = np.sqrt(np.finfo(float).max)

#: Grid rows whose forcing is sampled and formed at once: a bounded
#: block keeps the sampled signals out of the run's peak memory.
_BLOCK_ROWS = 4096


def propagate(maps: ClosedLoopMaps, schedule: SignalSchedule,
              z0: np.ndarray, h: float, T: float):
    """RK4 on the affine loop of ``maps`` driven by ``schedule``.

    Returns what :func:`integrate` returns for :func:`_affine_rhs`, to
    rounding: ``(times, states)`` on the same grid.  The schedule is
    sampled at the stage times ``integrate`` uses, the forcing of every
    step is written into the output array, and each step then adds one
    small matrix-vector product.

    A trajectory that leaves the safe magnitude range is handed to
    :func:`integrate`, so a state that stops being finite is reported
    at the time the reference integrator reports.
    """
    times = _grid(h, T)
    step = rk4_step_maps(maps, h)
    n = maps.M.shape[0]
    out = np.empty((times.size, n))
    out[0] = z0
    starts = times[:-1]
    for lo in range(0, starts.size, _BLOCK_ROWS):
        t = starts[lo:lo + _BLOCK_ROWS]
        w = np.hstack([col for s in (t, t + 0.5 * h, t + h)
                       for col in schedule.sample(s)])
        np.matmul(w, step[:, n:].T, out=out[lo + 1:lo + 1 + t.size])
    phi_t = np.ascontiguousarray(step[:, :n].T)
    with np.errstate(over="ignore", invalid="ignore"):
        prev = out[0]
        for row in out[1:]:
            row += prev @ phi_t
            prev = row
    if not -_SAFE_MAGNITUDE < out.min() <= out.max() < _SAFE_MAGNITUDE:
        return integrate(_affine_rhs(maps, schedule), z0, h, T)
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


def _uneven_step(t: np.ndarray):
    """Index of the first step of the time grid ``t`` (two or more
    points) that is not positive or differs from the median step by
    more than ``1e-9`` of it; ``None`` on a uniform grid."""
    steps = np.diff(t)
    h = np.median(steps)
    bad = np.flatnonzero((steps <= 0) | (np.abs(steps - h) > 1e-9 * h))
    return int(bad[0]) if bad.size else None


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
        if n < 2 or _uneven_step(self.t) is not None:
            raise ValueError("trace time grid is not uniform with at "
                             "least two points")

    @property
    def h(self) -> float:
        return float(self.t[1] - self.t[0])


def run_experiment(loop: ClosedLoop, schedule: SignalSchedule,
                   s0: ClosedLoopState, h: float = 1e-3,
                   T: float = 40.0) -> SimTrace:
    """Integrate a closed loop and log the full trace.

    The loop's affine realization is probed once and verified against
    :func:`~coopftc.control.closed_loop_rhs` at one random state; a
    disagreement raises :class:`IdentityCheckFailedError`.  The states
    then come from :func:`propagate`, and the other columns from one
    evaluation of the loop's wiring on the whole trace.
    """
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

    times, Z = propagate(maps, schedule, s0.packed(), h, T)
    state = ClosedLoopState.unpack(Z, net.nbar_x, aug.n_aug)
    v, f_s, y0 = schedule.sample(times)
    y_f, est, e_bar, u, _ = _wire(loop, state, v, f_s, y0)
    return SimTrace(t=times, x=state.x, eta=state.eta, q=state.q,
                    x_hat=est.x_hat, f_hat=est.f_hat, u=u, y_f=y_f,
                    e_bar=e_bar, v=v, f_s=f_s, y0=y0)


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

#: Tables of more cells than this are formatted and parsed by several
#: processes.  On a 2-CPU host, in a process holding 60 MB more than the
#: CLI's imports, a split write plus read (medians of 7 and of 9) took
#: 1.26-1.50x the serial time at 100k cells, 1.19-1.26x for 2 columns but
#: 0.78-0.85x for 33 at 200k, 0.86-0.98x and 0.72-0.82x at 400k, and
#: 0.58-0.80x at 800k.  Every benchmark trace is far above it (1.3M
#: cells or more), every plot curve and gains file far below.
_SPLIT_CELLS = 400_000

#: The most processes one table is split over: the widest host the split
#: has been measured on has two CPUs, and each fork copies the page
#: tables of the whole process, one child after another.
_SPLIT_WAYS_MAX = 2

#: Bytes of whole lines one split reader parses per call.
_READ_BLOCK_BYTES = 1 << 20


def _split_ways(cells: int) -> int:
    """How many processes share a table of ``cells`` cells: one per CPU
    this process may run on, up to ``_SPLIT_WAYS_MAX``.  1 for a small
    table, on one CPU, where the platform cannot fork, and while any
    other Python thread runs: a lock it held at the fork would stay held
    in the child, which could then wait for it for ever."""
    if (cells <= _SPLIT_CELLS or not hasattr(os, "fork")
            or not hasattr(os, "sched_getaffinity")
            or threading.active_count() != 1):
        return 1
    return min(_SPLIT_WAYS_MAX, len(os.sched_getaffinity(0)))


def _fork() -> int:
    with warnings.catch_warnings():
        # Python >= 3.12 warns when a process with threads forks.  No
        # other Python thread runs here (``_split_ways`` checks), the
        # only native threads are OpenBLAS's pool, which OpenBLAS's own
        # fork handler stops before the fork, and a child calls no BLAS;
        # so the warning is silenced for this call only.
        warnings.filterwarnings("ignore", r"This process .*multi-threaded",
                                DeprecationWarning)
        return os.fork()


def _fork_jobs(jobs) -> bool:
    """Run ``jobs[0]`` here and each later job in a forked child, all at
    once; True when every job returned.

    A job runs with warnings turned into errors, so a warning fails it
    rather than being printed.  A child leaves by ``os._exit``: it runs
    no exit handler and flushes no buffer it inherited, so its only
    effects are what its job writes to files.  A child's job must touch
    no BLAS and no Python stdio.  Every child is reaped before this
    returns, and one still running after a failure is killed first.  On
    False the caller reruns its serial path, so the result, or the
    error, is the serial path's."""
    def run(job):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            job()

    pids: list[int] = []
    try:
        try:
            for job in jobs[1:]:
                pid = _fork()
                if pid == 0:
                    code = 1
                    try:
                        run(job)
                        code = 0
                    finally:
                        os._exit(code)
                pids.append(pid)
            run(jobs[0])
            while pids:
                status = os.waitpid(pids[0], 0)[1]
                del pids[0]
                if status:
                    return False
        except Exception:
            return False
        return True
    finally:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _width(columns) -> int:
    return sum(np.shape(c)[1] if np.ndim(c) == 2 else 1 for c in columns)


def _row_text(columns, sep: str, lo: int, hi: int):
    """The text of rows ``lo:hi`` of ``columns``, a block at a time.  A
    float64 block goes through the kernel; any other block, or any
    separator the kernel cannot write, is formatted by Python."""
    width = _width(columns)
    rows = max(1, min(_WRITE_BLOCK_CELLS // width, hi - lo))
    kernel = CellText(rows * width, width, sep) if CellText.fits(sep) else None
    line = sep.join(["%.17g"] * width) + "\n"
    for start in range(lo, hi, rows):
        block = np.column_stack([c[start:min(start + rows, hi)]
                                 for c in columns])
        if kernel is not None and block.dtype == np.float64:
            yield kernel(block)
        else:
            yield (line * len(block)) % tuple(block.ravel().tolist())


def _write_all(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


def _read_all(fd: int, out: np.ndarray) -> None:
    """Fill ``out`` with the bytes of the file ``fd``, from its start."""
    view = memoryview(out.reshape(-1).view(np.uint8))
    os.lseek(fd, 0, os.SEEK_SET)
    while view:
        got = os.readv(fd, [view])
        if not got:
            raise ValueError("part file is short")
        view = view[got:]


def _write_part(fd: int, columns, sep: str, lo: int, hi: int) -> None:
    for text in _row_text(columns, sep, lo, hi):
        _write_all(fd, text.encode())


def _part_files(name: str, count: int) -> list[int] | None:
    """``count`` new files next to ``name``, open and already unlinked,
    so that only the descriptors (which children inherit) reach them and
    nothing is left behind; None where they cannot be made."""
    fds: list[int] = []
    try:
        for k in range(1, count + 1):
            part = f"{name}.{os.getpid()}.{k}.part"
            fds.append(os.open(part, os.O_RDWR | os.O_CREAT | os.O_EXCL,
                               0o600))
            os.unlink(part)
    except OSError:
        for fd in fds:
            os.close(fd)
        return None
    return fds


def _write_split(fh, columns, sep: str, ways: int) -> bool:
    """Write ``columns`` as ``ways`` row ranges at once, if ``fh`` is a
    named, seekable UTF-8 file and the platform can copy between files in
    the kernel; False, with ``fh`` as it was, otherwise or when any range
    or any copy fails."""
    name = getattr(fh, "name", None)
    if (not isinstance(name, str) or getattr(fh, "encoding", None) != "utf-8"
            or not fh.seekable() or not hasattr(os, "copy_file_range")):
        return False
    parts = _part_files(name, ways - 1)
    if parts is None:
        return False
    n = len(columns[0])
    bounds = [n * k // ways for k in range(ways + 1)]
    start = fh.tell()
    try:
        jobs = [partial(fh.writelines, _row_text(columns, sep, 0, bounds[1]))]
        jobs += [partial(_write_part, fd, columns, sep, bounds[k],
                         bounds[k + 1]) for k, fd in enumerate(parts, 1)]
        if _fork_jobs(jobs):
            fh.flush()
            try:
                for fd in parts:  # appended at the descriptor's offset
                    pos = 0
                    while sent := os.copy_file_range(fd, fh.fileno(),
                                                     1 << 30, pos):
                        pos += sent
            except OSError:
                pass
            else:
                fh.seek(0, os.SEEK_END)  # past what the handle did not write
                return True
        fh.seek(start)
        fh.truncate()
        return False
    finally:
        for fd in parts:
            os.close(fd)


def write_rows(fh, columns, sep: str) -> None:
    """Write the arrays ``columns`` side by side (1-D: one column) to the
    text handle ``fh``, a few rows at a time, so the whole table is never
    copied.  The bytes equal ``np.savetxt``'s: 17 significant digits
    per cell, exact on reading back, cells joined by ``sep``, LF endings.
    The cells are formatted by :class:`~coopftc.cell_text.CellText`,
    and those it cannot prove by Python's ``'%.17g' %``.

    A table of more than ``_SPLIT_CELLS`` cells going to a named,
    seekable UTF-8 file is cut into contiguous row ranges, one per CPU
    this process may use, up to ``_SPLIT_WAYS_MAX`` (:func:`_split_ways`,
    :func:`_fork_jobs`).  This process formats the
    first range into ``fh``.  Each forked child formats its range into
    its own part file next to the output, unlinked once created; this
    process then appends the parts in order, copied in the kernel
    (``os.copy_file_range``).  If any range fails, what
    was written is truncated and the serial path below runs, so the
    bytes and any error are the serial path's.  On one CPU, without
    ``os.fork``, or while another Python thread runs, nothing forks."""
    n = len(columns[0])
    ways = min(_split_ways(n * _width(columns)), n)
    if ways > 1 and _write_split(fh, columns, sep, ways):
        return
    fh.writelines(_row_text(columns, sep, 0, n))


def _scan(fd: int, sep: str, ways: int):
    """The header line, the first row's cell count and the body cut into
    blocks of whole lines, ``(offset, length, rows)`` each: at least
    ``ways`` blocks where the body allows, of at most about
    ``_READ_BLOCK_BYTES``.  None for a file only the serial reader may
    judge: no header line, a carriage return in it, or no final
    newline."""
    size = os.fstat(fd).st_size
    head = os.pread(fd, _READ_BLOCK_BYTES, 0)
    end = head.find(b"\n") + 1
    if not end or b"\r" in head[:end]:
        return None
    step = max(1, min(_READ_BLOCK_BYTES, (size - end) // ways))
    blocks, cols, pos = [], 0, end
    while pos < size:
        chunk = os.pread(fd, step, pos)
        cut = chunk.rfind(b"\n") + 1
        while not cut and pos + len(chunk) < size:  # a line longer than step
            chunk += os.pread(fd, step, pos + len(chunk))
            cut = chunk.rfind(b"\n") + 1
        if not cut:
            return None
        if not blocks:
            cols = chunk[:chunk.find(b"\n")].count(sep.encode()) + 1
        lines = np.frombuffer(chunk, dtype=np.uint8, count=cut)
        blocks.append((pos, cut, int(np.count_nonzero(lines == 10))))
        pos += cut
    return head[:end - 1].decode("utf-8"), cols, blocks


def _read_split(path, sep: str):
    """``(header, table)`` parsed by one process per CPU, or None where
    the serial reader must run: a small table, one CPU, a file that does
    not cut into whole lines, or any block that does not parse into as
    many rows of the first row's width as it has lines."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return None
    parts = None
    try:
        # a cell takes at least two bytes, its text and a separator
        ways = _split_ways(os.fstat(fd).st_size // 2)
        scan = _scan(fd, sep, ways) if ways > 1 else None
        if scan is None:
            return None
        header, cols, blocks = scan
        rows = np.cumsum([0] + [count for _, _, count in blocks])
        if _split_ways(int(rows[-1]) * cols) < 2:
            return None
        parts = _part_files(os.fspath(path), ways - 1)
        if parts is None:
            return None
        # each process takes the blocks that start in its share of bytes
        offsets = np.array([offset for offset, _, _ in blocks])
        body = blocks[-1][0] + blocks[-1][1] - offsets[0]
        edges = np.searchsorted(
            offsets, offsets[0] + body * np.arange(ways + 1) // ways)
        table = np.empty((int(rows[-1]), cols))

        def parse(lo: int, hi: int, part_fd: int | None = None) -> None:
            """Blocks ``lo:hi`` into the table, or as float64 bytes into
            the part file ``part_fd``."""
            for (offset, length, count), r in zip(blocks[lo:hi], rows[lo:hi]):
                # decoded as the serial reader decodes the whole file
                data = io.BytesIO(os.pread(fd, length, offset))
                part = np.loadtxt(io.TextIOWrapper(data, encoding="utf-8"),
                                  delimiter=sep, comments=None, ndmin=2)
                if part.shape != (count, cols):
                    raise ValueError("rows differ from the lines")
                if part_fd is None:
                    table[r:r + count] = part
                else:
                    _write_all(part_fd, part.tobytes())

        jobs = [partial(parse, 0, edges[1])]
        jobs += [partial(parse, edges[k], edges[k + 1], part_fd)
                 for k, part_fd in enumerate(parts, 1)]
        if not _fork_jobs(jobs):
            return None
        for k, part_fd in enumerate(parts, 1):
            _read_all(part_fd, table[rows[edges[k]]:rows[edges[k + 1]]])
        return header, table
    except (OSError, ValueError):  # a header that is not UTF-8 included
        return None
    finally:
        for part_fd in parts or ():
            os.close(part_fd)
        os.close(fd)


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


def read_rows(path, sep: str) -> tuple[str, np.ndarray]:
    """The header line and the table :func:`write_rows` wrote below it.
    A non-numeric cell, a ragged row, an empty body or a non-finite cell
    raises :class:`SchemaError` naming the file and the line.

    A table of more than ``_SPLIT_CELLS`` cells is cut into byte ranges
    of whole lines, one per CPU this process may use, up to
    ``_SPLIT_WAYS_MAX`` (:func:`_split_ways`, :func:`_fork_jobs`).
    This process parses the first range into the table.  Each forked
    child parses its own and writes the rows' float64 bytes to a part
    file next to ``path``, unlinked once made; this process reads them
    into the table.  The table is an ordinary array, so a long-lived
    process can build it in memory it freed before (rows in shared
    memory could not reuse that).  Any range that fails, or that parses
    to other rows than its line count, and any part file that cannot be
    made, sends the whole file through the serial reader, so the table
    and every error text are the serial reader's.  On one CPU, without
    ``os.fork``, or while another Python thread runs, nothing forks."""
    split = _read_split(path, sep)
    first, table = split if split is not None else _read_serial(path, sep)
    if table.size == 0:
        raise SchemaError(f"{path}: no rows below the header line")
    bad = np.flatnonzero(~np.isfinite(table).all(axis=1))
    if bad.size:
        raise SchemaError(f"{path}: line {bad[0] + 2}: non-finite value")
    return first, table


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


def trace_to_csv(trace: SimTrace, net: NetworkModel, path) -> None:
    """Write one row per step; header names every column.  The observer
    state is stored per agent (states then fault component) even though
    it lives in the canonical stacked layout in memory."""
    columns = _trace_columns(net)
    parts = [trace.eta[:, agent_permutation(net)] if name == "eta"
             else getattr(trace, name) for name, _ in columns]
    names = [label for _, labels in columns for label in labels]
    width = sum(part.size for part in parts) // trace.t.size
    if width != len(names):
        raise SchemaError(f"trace has {width} columns, header names "
                          f"{len(names)}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(names) + "\n")
        write_rows(fh, parts, ",")


def trace_from_csv(path, net: NetworkModel) -> SimTrace:
    """Read a trace written by :func:`trace_to_csv`, undoing the
    per-agent observer-state grouping.  Fewer than two rows, or a time
    column off a uniform grid, raises :class:`SchemaError` naming the
    file (and the first line whose step differs)."""
    columns = _trace_columns(net)
    expected = [label for _, labels in columns for label in labels]
    header, table = read_rows(path, ",")
    if header.split(",") != expected:
        raise SchemaError(f"{path}: header does not match the trace "
                          "schema for this network")
    if table.shape[1] != len(expected):
        raise SchemaError(f"{path}: {table.shape[1]} columns, expected "
                          f"{len(expected)}")
    if len(table) < 2:
        raise SchemaError(f"{path}: {len(table)} row below the header "
                          "line; a trace needs at least two")
    k = _uneven_step(table[:, 0])
    if k is not None:
        raise SchemaError(f"{path}: line {k + 3}: time grid is not uniform")
    cuts = np.cumsum([len(labels) for _, labels in columns])[:-1]
    parts = dict(zip([name for name, _ in columns],
                     np.split(table, cuts, axis=1)))
    parts["t"] = parts["t"][:, 0]
    parts["eta"] = parts["eta"][:, np.argsort(agent_permutation(net))]
    return SimTrace(**parts)
