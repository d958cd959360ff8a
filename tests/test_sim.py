"""Integration kernel, schedules, experiment runs, text tables and the
trace CSV round trip."""

import dataclasses
import decimal
import io
import os
import re
import signal
import tempfile
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import benchmark_schedule, quiet_schedule
from coopftc import cell_text, sim
from coopftc.cli import save_matrix
from coopftc.control import ClosedLoopMaps, closed_loop_maps
from coopftc.errors import (DimensionMismatchError, NonFiniteStateError,
                            SchemaError)
from coopftc.sim import (SignalSchedule, integrate, propagate, read_rows,
                         run_experiment, sample_initial_state, step_schedule,
                         trace_from_csv, trace_to_csv, write_rows)
from oracles import savetxt_series


# --- integrate --------------------------------------------------------------

def test_integrate_constant_when_rhs_zero():
    t, z = integrate(lambda t, z: np.zeros_like(z), np.array([2.0, -1.0]),
                     h=0.1, T=1.0)
    assert t.shape == (11,)
    npt.assert_allclose(z, np.tile([2.0, -1.0], (11, 1)))


def test_integrate_scalar_decay():
    t, z = integrate(lambda t, z: -z, np.array([1.0]), h=0.01, T=1.0)
    assert abs(z[-1, 0] - np.exp(-1.0)) <= 1e-8


def test_integrate_fourth_order_on_linear_system():
    A = np.array([[0.0, 1.0], [-4.0, -1.0]])
    z0 = np.array([1.0, 0.0])
    exact = scipy.linalg.expm(A * 2.0) @ z0

    def err(h):
        _, z = integrate(lambda t, z: A @ z, z0, h=h, T=2.0)
        return np.linalg.norm(z[-1] - exact)

    assert err(0.02) / err(0.01) >= 8.0  # ~16 for a 4th-order scheme


def test_integrate_validates_grid():
    with pytest.raises(ValueError):
        integrate(lambda t, z: z, np.zeros(1), h=0.0, T=1.0)
    with pytest.raises(ValueError):
        integrate(lambda t, z: z, np.zeros(1), h=0.5, T=0.1)


def test_integrate_aborts_on_finite_time_escape():
    with np.errstate(over="ignore"), pytest.raises(NonFiniteStateError):
        # quadratic growth escapes to infinity just before t=1
        integrate(lambda t, z: z ** 2, np.array([1.0]), h=0.01, T=2.0)


# --- propagate: the RK4 step map against integrate -------------------------

def _affine_oracle(maps, schedule):
    """The affine loop as a plain right-hand side for :func:`integrate`."""
    def rhs(t, z):
        v, f_s, y0 = schedule.sample(t)
        return maps.M @ z + maps.B_v @ v + maps.B_f @ f_s + maps.B_r @ y0
    return rhs


def _relative_gap(a, b):
    return np.abs(a - b).max() / max(1.0, np.abs(b).max())


@st.composite
def _affine_runs(draw):
    """A random Hurwitz affine system and a piecewise-constant schedule
    whose breakpoints lie on the time grid."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 6))
    widths = draw(st.tuples(*[st.integers(1, 3)] * 3))
    M = rng.normal(size=(n, n))
    M -= (np.linalg.eigvals(M).real.max()
          + draw(st.floats(0.05, 3.0))) * np.eye(n)
    maps = ClosedLoopMaps(M, *(rng.normal(size=(n, w)) for w in widths))
    h = draw(st.sampled_from([1e-3, 5e-3, 1e-2, 2e-2]))
    n_steps = draw(st.integers(1, 400))
    steps = draw(st.lists(st.integers(1, n_steps), max_size=4, unique=True))
    times = np.concatenate([[0.0], np.sort(steps) * h])
    schedule = SignalSchedule(times, *(rng.uniform(-2.0, 2.0,
                                                   size=(times.size, w))
                                       for w in widths))
    return maps, schedule, rng.uniform(-1.0, 1.0, size=n), h, n_steps * h


@settings(max_examples=40, deadline=None)
@given(_affine_runs())
def test_propagate_matches_integrate_on_affine_systems(run):
    maps, schedule, z0, h, T = run
    t_ref, z_ref = integrate(_affine_oracle(maps, schedule), z0, h, T)
    t, z = propagate(maps, schedule, z0, h, T)
    npt.assert_array_equal(t, t_ref)
    assert _relative_gap(z, z_ref) <= 1e-9


def test_propagate_matches_integrate_on_star_loop(loops, benchmark_trace,
                                                  s0):
    # 21 s crosses the fault onset at 10 s and the setpoint step at 20 s
    T = 21.0
    maps = closed_loop_maps(loops["star"])
    _, z_ref = integrate(_affine_oracle(maps, benchmark_schedule(4)),
                         s0.packed(), 1e-3, T)
    rows = z_ref.shape[0]
    tr = benchmark_trace
    z = np.hstack([tr.x[:rows], tr.eta[:rows], tr.q[:rows]])
    assert _relative_gap(z, z_ref) <= 1e-9


def test_propagate_reports_first_non_finite_time_of_integrate(loops, s0):
    # positive inner feedback: the loop diverges and overflows near 12.4 s
    star = loops["star"]
    unstable = dataclasses.replace(
        star, law=dataclasses.replace(star.law, K=-20.0 * star.law.K))
    maps = closed_loop_maps(unstable)
    schedule = benchmark_schedule(4)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteStateError) as ref:
            integrate(_affine_oracle(maps, schedule), s0.packed(), 1e-3,
                      15.0)
        with pytest.raises(NonFiniteStateError) as fast:
            run_experiment(unstable, schedule, s0, h=1e-3, T=15.0)
    assert 0.0 < ref.value.time < 15.0
    assert fast.value.time == ref.value.time


def _step_maps_formula(maps, h):
    """The RK4 step map as one ``_rk4_step`` on the square identity's
    first ``n`` rows, each stage time taking its own input columns."""
    B = np.hstack([maps.B_v, maps.B_f, maps.B_r])
    n, p = B.shape
    eye = np.eye(n + 3 * p)
    inputs = {0.0: eye[n:n + p], 0.5 * h: eye[n + p:n + 2 * p],
              h: eye[n + 2 * p:]}
    return sim._rk4_step(lambda t, z: maps.M @ z + B @ inputs[t], 0.0,
                         eye[:n], h)


def _fleet_like_maps(m, seed=3):
    """Random maps of the shape of an ``m``-motor fleet's: six states and
    one disturbance and one fault input per motor, one shared setpoint."""
    rng = np.random.default_rng(seed)
    n = 6 * m
    M = rng.normal(size=(n, n))
    M[rng.random(size=M.shape) < 0.5] = 0.0  # zeros, as a wired loop has
    return ClosedLoopMaps(M, rng.normal(size=(n, m)),
                          rng.normal(size=(n, m)), rng.normal(size=(n, 1)))


def test_rk4_step_maps_keep_the_formula_bits_in_bounded_memory(loops):
    """The map formed stage by stage in place equals the RK4 formula on
    identity columns bit for bit, and its call holds at most four maps'
    worth of memory at once."""
    for maps, h in ((closed_loop_maps(loops["star"]), 1e-3),
                    (closed_loop_maps(loops["path"]), 0.25),
                    (_fleet_like_maps(4), 1e-2)):
        npt.assert_array_equal(sim.rk4_step_maps(maps, h),
                               _step_maps_formula(maps, h))
    maps = _fleet_like_maps(32)
    tracemalloc.start()
    try:
        step = sim.rk4_step_maps(maps, 1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    npt.assert_array_equal(step, _step_maps_formula(maps, 1e-3))
    assert peak <= 4 * step.nbytes


@st.composite
def _stepped_runs(draw):
    """An affine run of :func:`_affine_runs` and a block size of the
    grid: small, so most runs take several blocks, and at times one that
    leaves a last block of one row to join the one before."""
    maps, schedule, z0, h, T = draw(_affine_runs())
    n = int(round(T / h)) + 1
    rows = draw(st.one_of(st.integers(2, 40),
                          st.sampled_from([r for r in range(2, n)
                                           if n % r == 1] or [2])))
    return maps, schedule, z0, h, T, rows


@settings(max_examples=60, deadline=None)
@given(_stepped_runs())
@example(run=(_fleet_like_maps(1), SignalSchedule(
    np.array([0.0, 0.08]), np.ones((2, 1)), np.array([[0.0], [1.5]]),
    np.array([[1.0], [2.0]])), np.full(6, 0.5), 1e-2, 0.16, 8))
def test_stepper_blocks_are_the_propagated_bits(run):
    """The stepper's blocks on the grid of ``rows`` rows, joined, are
    ``propagate``'s states on that grid bit for bit; asking again for
    row 0, as a width probe does, does not advance it.  The example has
    17 rows in blocks of 8 and 9 (a last block of one row joins the one
    before it) and a breakpoint at the second block's first row."""
    maps, schedule, z0, h, T, rows = run
    t, whole = propagate(maps, schedule, z0, h, T, rows)
    stepper = sim._Stepper(maps, schedule, z0, h, T)
    npt.assert_array_equal(stepper(0, 1), whole[:1])
    blocks = [stepper(lo, hi) for lo, hi in sim._spans(t.size, rows)]
    npt.assert_array_equal(stepper.t, t)
    npt.assert_array_equal(np.concatenate(blocks), whole)


def test_stepper_continues_from_integrate_past_the_safe_range():
    """States beyond the safe magnitude (though finite) send ``propagate``
    and the stepper's first block to ``integrate``; the stepper's rows
    then continue from its states, so they are still ``propagate``'s."""
    maps = _fleet_like_maps(1)
    schedule = quiet_schedule(1)
    z0 = np.full(6, 1e160)
    t, whole = propagate(maps, schedule, z0, 1e-2, 0.5, 8)
    assert np.isfinite(whole).all() and not sim._safe(whole)
    stepper = sim._Stepper(maps, schedule, z0, 1e-2, 0.5)
    blocks = [stepper(lo, hi) for lo, hi in sim._spans(t.size, 8)]
    npt.assert_array_equal(np.concatenate(blocks), whole)


def test_stepper_refuses_rows_out_of_grid_order(loops, s0):
    run = sim.rollout(loops["star"], benchmark_schedule(4), s0, h=1e-3,
                      T=1.0)
    run.rows(0, 300)
    with pytest.raises(ValueError, match="grid order"):
        run.rows(0, 300)
    with pytest.raises(ValueError, match="grid order"):
        run.rows(301, 600)
    assert run.rows(299, 600).t[0] == run.t[299]


# --- signal schedules -------------------------------------------------------

def test_constant_disturbance_broadcast():
    sched = step_schedule(4, 0.1, 0.0, 0.0, [(0.0, 1.0)])
    npt.assert_allclose(sched.sample(0.0)[0], 0.1 * np.ones(4))
    npt.assert_allclose(sched.sample(17.3)[0], 0.1 * np.ones(4))
    with pytest.raises(DimensionMismatchError):
        step_schedule(4, [0.1, 0.2], 0.0, 0.0, [(0.0, 1.0)])


def test_step_fault_right_continuous():
    sched = step_schedule(4, 0.0, 5.75, 10.0, [(0.0, 1.0)])
    npt.assert_allclose(sched.sample(9.999)[1], np.zeros(4))
    npt.assert_allclose(sched.sample(10.0)[1], 5.75 * np.ones(4))
    with pytest.raises(ValueError):
        step_schedule(4, 0.0, 1.0, -1.0, [(0.0, 1.0)])


def test_piecewise_setpoint_breakpoints():
    sched = step_schedule(1, 0.0, 0.0, 0.0, [(0.0, 1.0), (20.0, 2.0)])
    npt.assert_allclose(sched.sample(0.0)[2], [1.0])
    npt.assert_allclose(sched.sample(19.999)[2], [1.0])
    npt.assert_allclose(sched.sample(20.0)[2], [2.0])
    with pytest.raises(ValueError):  # must start at 0
        step_schedule(1, 0.0, 0.0, 0.0, [(1.0, 1.0), (2.0, 2.0)])
    with pytest.raises(ValueError):
        SignalSchedule(times=[1.0, 2.0], v=np.zeros((2, 1)),
                       f_s=np.zeros((2, 1)), y0=[[1.0], [2.0]])


def test_schedule_merges_breakpoints():
    sched = step_schedule(2, [0.1, 0.2], [5.0, 6.0], 10.0,
                          [(0.0, 1.0), (20.0, 2.0)])
    npt.assert_array_equal(sched.times, [0.0, 10.0, 20.0])
    npt.assert_array_equal(sched.v, [[0.1, 0.2]] * 3)
    npt.assert_array_equal(sched.f_s, [[0.0, 0.0], [5.0, 6.0], [5.0, 6.0]])
    npt.assert_array_equal(sched.y0, [[1.0], [1.0], [2.0]])
    # an onset on a setpoint step adds no row
    assert step_schedule(2, 0.0, 1.0, 20.0,
                         [(0.0, 1.0), (20.0, 2.0)]).times.size == 2


def test_schedule_rejects_bad_tables():
    with pytest.raises(ValueError):  # not increasing
        SignalSchedule(times=[0.0, 2.0, 2.0], v=np.zeros((3, 1)),
                       f_s=np.zeros((3, 1)), y0=np.zeros((3, 1)))
    with pytest.raises(DimensionMismatchError):  # one row short
        SignalSchedule(times=[0.0, 2.0], v=np.zeros((1, 1)),
                       f_s=np.zeros((2, 1)), y0=np.zeros((2, 1)))
    with pytest.raises(ValueError):  # setpoint steps out of order
        step_schedule(1, 0.0, 0.0, 0.0, [(0.0, 1.0), (3.0, 2.0), (2.0, 0.5)])
    sched = step_schedule(1, 0.0, 0.0, 0.0, [(0.0, 1.0)])
    with pytest.raises(ValueError):  # the table is read-only
        sched.v[0, 0] = 1.0


@st.composite
def _tables(draw):
    n_rows = draw(st.integers(1, 6))
    gaps = draw(st.lists(st.floats(1e-3, 10.0), min_size=n_rows - 1,
                         max_size=n_rows - 1))
    times = np.concatenate([[0.0], np.cumsum(gaps)])
    widths = draw(st.tuples(*[st.integers(1, 3)] * 3))
    values = st.floats(-1e3, 1e3, allow_nan=False)
    cols = [np.array(draw(st.lists(values, min_size=n_rows * w,
                                   max_size=n_rows * w))).reshape(n_rows, w)
            for w in widths]
    return SignalSchedule(times, *cols)


@settings(max_examples=60, deadline=None)
@given(_tables(), st.lists(st.floats(0.0, 60.0), max_size=20))
def test_schedule_sample_vectorized_matches_scalar(sched, extra):
    # every breakpoint, just before each one, and arbitrary times
    t = np.concatenate([sched.times, np.nextafter(sched.times, -np.inf)[1:],
                        extra])
    batch = sched.sample(t)
    for k, tk in enumerate(t):
        for col, row in zip(batch, sched.sample(tk)):
            npt.assert_array_equal(col[k], row)
    # right-continuous: row k holds from times[k] on, row k-1 just before
    for k, tk in enumerate(sched.times):
        for col, row in zip((sched.v, sched.f_s, sched.y0), sched.sample(tk)):
            npt.assert_array_equal(row, col[k])
        if k:
            before = sched.sample(np.nextafter(tk, -np.inf))
            for col, row in zip((sched.v, sched.f_s, sched.y0), before):
                npt.assert_array_equal(row, col[k - 1])


# --- initial states ---------------------------------------------------------

def test_initial_state_reproducible(benchmark_net, benchmark_aug):
    a = sample_initial_state(benchmark_net, benchmark_aug, seed=123)
    b = sample_initial_state(benchmark_net, benchmark_aug, seed=123)
    npt.assert_array_equal(a.x, b.x)
    assert not np.array_equal(
        a.x, sample_initial_state(benchmark_net, benchmark_aug, seed=124).x)


def test_initial_state_bounds_and_rest(benchmark_net, benchmark_aug):
    s = sample_initial_state(benchmark_net, benchmark_aug, seed=7,
                             bounds=(-1.0, 1.0))
    assert s.x.shape == (8,)
    assert np.all(np.abs(s.x) <= 1.0)
    npt.assert_allclose(s.eta, 0.0)
    npt.assert_allclose(s.q, 0.0)


def test_estimate_split_at_rest_start(benchmark_aug):
    # eta(0)=0 puts the whole initial estimate into the fault block:
    # the state block of F2 y_f vanishes because E1 F2 = 0
    npt.assert_allclose(benchmark_aug.E1 @ benchmark_aug.F2,
                        np.zeros((8, 4)), atol=0)


# --- experiments ------------------------------------------------------------

def test_benchmark_grid_row_count(benchmark_trace):
    assert benchmark_trace.t.shape == (40001,)
    assert benchmark_trace.h == pytest.approx(1e-3)


def test_output_estimation_error_small_before_fault(benchmark_trace):
    tr = benchmark_trace
    window = (tr.t >= 5.0) & (tr.t < 10.0)
    y_hat = tr.x_hat[:, 0::2]  # measured output is the first state
    y_true = tr.x[:, 0::2]
    assert np.abs(y_hat[window] - y_true[window]).max() <= 1e-2
    # full state-estimate norms settle to the disturbance floor
    eps = np.linalg.norm((tr.x - tr.x_hat)[window], axis=1)
    assert eps.max() <= 5e-2


def test_estimation_error_insensitive_to_fault_step(benchmark_trace):
    """The fault hits plant state and observer feedthrough identically,
    so the augmented estimation error never sees the step at all."""
    tr = benchmark_trace
    eps = np.hstack([tr.x - tr.x_hat, tr.f_s - tr.f_hat])
    norms = np.linalg.norm(eps, axis=1)
    onset = int(np.flatnonzero(tr.f_s[:, 0] > 0)[0])
    jump = np.abs(norms[onset] - norms[onset - 1])
    assert jump <= 1e-3  # continuous across the injection
    pre = norms[(tr.t >= 5.0) & (tr.t < 10.0)].max()
    post = norms[(tr.t >= 15.0) & (tr.t <= 20.0)].max()
    assert post <= 1.01 * pre


def test_run_determinism(loops, s0):
    a = run_experiment(loops["star"], benchmark_schedule(4), s0, h=1e-3,
                       T=2.0)
    b = run_experiment(loops["star"], benchmark_schedule(4), s0, h=1e-3,
                       T=2.0)
    for name in ("x", "eta", "q", "u", "y_f"):
        npt.assert_array_equal(getattr(a, name), getattr(b, name))


def test_step_halving_on_smooth_run(loops, s0):
    finals = {}
    for h in (2e-3, 1e-3, 5e-4):
        tr = run_experiment(loops["star"], quiet_schedule(4), s0, h=h, T=2.0)
        finals[h] = np.concatenate([tr.x[-1], tr.eta[-1], tr.q[-1]])
    coarse = np.linalg.norm(finals[2e-3] - finals[1e-3])
    fine = np.linalg.norm(finals[1e-3] - finals[5e-4])
    assert coarse / fine >= 8.0


def test_quiet_run_errors_vanish(quiet_traces):
    tr = quiet_traces["star"]
    tail = tr.t >= 35.0
    assert np.linalg.norm(tr.e_bar[tail], axis=1).max() <= 1e-6
    eps = np.hstack([tr.x - tr.x_hat, tr.f_s - tr.f_hat])
    assert np.linalg.norm(eps[tail], axis=1).max() <= 1e-6


# --- text tables ------------------------------------------------------------

_TABLES = arrays(np.float64, st.tuples(st.integers(1, 5), st.integers(1, 4)),
                 elements=st.floats(allow_nan=False, allow_infinity=False))

#: Exact ties at 17 digits: 1e15 + 0.75 is 1000000000000000.75, and
#: 3 * 2**-24 is 1.78813934326171875e-07.
_TIES = np.array([1e15 + 0.75, 3 * 2.0**-24])


def _kernel_edge_cells() -> np.ndarray:
    """Cells at the edges of the write kernel, both signs: each power of
    ten from 1e-20 to 1e20 and its neighbours (9.9999999999999991e-05,
    below 1e-4, is where %g's notation changes); 1e-5; the ends of the
    kernel's range, 1e16, 1e17 and 1e-280, with their neighbours;
    three-digit exponents, subnormals, zero and the largest double; the
    exact ties."""
    special = np.array([1e-5, 1e16, 1e17, 1e-280, *10.0 ** np.arange(-20, 21)])
    cells = np.concatenate([
        special, np.nextafter(special, np.inf), np.nextafter(special, -np.inf),
        [1e-100, 1.5e-300, 5e-324, 2.2250738585072014e-308, 1e-310, 0.0,
         np.finfo(float).max], _TIES])
    return np.concatenate([cells, -cells])


_KERNEL_EDGES = _kernel_edge_cells()


@settings(max_examples=40, deadline=None)
@given(_TABLES, st.sampled_from([",", " "]))
@example(np.array([[0.0, -0.0, 5e-324], [-2.2250738585072014e-308, 1e300,
                                          -1e300]]), ",")
@example(np.array([[-0.0], [5e-324], [1e300], [-1e300]]), " ")
@example(np.arange(3001.0).reshape(-1, 1) / 7, " ")  # several blocks
@example(np.arange(4200.0).reshape(2, -1) / 7, ",")  # rows wider than a block
@example(_KERNEL_EDGES.reshape(-1, 1), ",")
@example(_KERNEL_EDGES.reshape(-1, 2), " ")
def test_table_bytes_and_round_trip(tmp_path_factory, rows, sep):
    """Every finite float64 reads back bit-exactly, and the bytes are
    those of ``np.savetxt`` with the same format."""
    written, oracle = io.StringIO(), io.StringIO()
    write_rows(written, [rows], sep)
    np.savetxt(oracle, rows, fmt="%.17g", delimiter=sep)
    assert written.getvalue() == oracle.getvalue()
    path = tmp_path_factory.mktemp("table") / "t.txt"
    path.write_text("header line\n" + written.getvalue(), newline="\n")
    first, back = read_rows(path, sep)
    assert first == "header line"
    assert back.shape == rows.shape
    npt.assert_array_equal(back.view(np.uint64), rows.view(np.uint64))


def test_random_doubles_are_python_s_bytes():
    """10**5 doubles of random bits (every exponent, both signs,
    subnormals), cell by cell against Python's ``'%.17g' %``."""
    bits = np.random.default_rng(18).integers(0, 2**64, 10**5,
                                              dtype=np.uint64)
    cells = bits.view(np.float64)[np.isfinite(bits.view(np.float64))]
    written = io.StringIO()
    write_rows(written, [cells], ",")
    assert written.getvalue().splitlines() == ["%.17g" % v
                                               for v in cells.tolist()]


@pytest.mark.parametrize("sep", [", ", "\t\t", "\0", "\u00a0", ""])
def test_separator_the_kernel_cannot_write_is_refused(sep):
    """Only one ASCII character other than NUL separates cells; any
    other separator is named in a ``ValueError`` and nothing is written."""
    written = io.StringIO()
    with pytest.raises(ValueError, match=re.escape(repr(sep))):
        write_rows(written, [np.arange(3.0)], sep)
    assert written.getvalue() == ""


def _is_tie(value: float) -> bool:
    """Whether ``value`` lies exactly halfway between two 17-digit
    decimals."""
    exponent = decimal.Decimal(value).adjusted()
    return (abs(Fraction(value)) * Fraction(10) ** (16 - exponent)
            ).denominator == 2


def test_only_unprovable_cells_take_python_s_formatter(monkeypatch):
    """Python formats exactly the cells outside the kernel's range
    (1e-280 <= |x| < 1e17, and zero) and the exact ties."""
    assert all(map(_is_tie, _TIES))
    seen, python_cells = [], cell_text.python_cells

    def spy(values):
        seen.extend(values.tolist())
        return python_cells(values)
    monkeypatch.setattr(cell_text, "python_cells", spy)
    written = io.StringIO()
    write_rows(written, [_KERNEL_EDGES.reshape(-1, 1)], ",")
    size = np.abs(_KERNEL_EDGES)
    outside = (size >= 1e17) | ((size > 0) & (size < 1e-280))
    ties = [v for v in _KERNEL_EDGES[~outside].tolist() if v and _is_tie(v)]
    assert sorted(seen) == sorted(_KERNEL_EDGES[outside].tolist() + ties)
    assert written.getvalue().splitlines() == [
        "%.17g" % v for v in _KERNEL_EDGES.tolist()]


# --- text tables on several processes --------------------------------------

def _split_over(mp, cpus: int) -> list[int]:
    """Split every table of two or more rows, as on ``cpus`` CPUs; the
    list that is returned grows by one at each fork."""
    forks = []
    fork = os.fork

    def counted():
        forks.append(1)
        return fork()
    mp.setattr(sim, "_SPLIT_CELLS", 0)
    mp.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    mp.setattr(os, "fork", counted)
    return forks


def _assert_tidy(directory, *names):
    """No child process is left, and no file but ``names`` (no part)."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert sorted(os.listdir(directory)) == sorted(names)


def _write_file(path, columns, sep):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("header line\n")
        write_rows(fh, columns, sep)


_EDGES = np.array([[0.0, -0.0, 5e-324], [-5e-324, 1e308, -1e308],
                   [2.2250738585072014e-308, 1 / 3, -1.5]])


@settings(max_examples=20, deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(1, 30), st.integers(1, 4)),
              elements=st.floats(allow_nan=False, allow_infinity=False)),
       st.sampled_from([",", " "]), st.integers(1, 2))
@example(_EDGES, ",", 2)
@example(_EDGES[:1], ",", 2)  # one row on two CPUs
@example(_EDGES.reshape(-1, 1), " ", 2)  # width 1
@example(np.arange(6001.0).reshape(-1, 1) / 7, ",", 2)  # several blocks
@example(_KERNEL_EDGES.reshape(-1, 2), ",", 2)
def test_split_table_matches_serial(tmp_path_factory, rows, sep, cpus):
    """Written on 1 or 2 CPUs, the bytes are ``np.savetxt``'s and the
    serial writer's, and the split reader returns the serial table bit
    for bit.  On two CPUs the write forks one child unless the table has
    one row, and the read forks one child."""
    oracle, serial = io.StringIO(), io.StringIO()
    np.savetxt(oracle, rows, fmt="%.17g", delimiter=sep)
    write_rows(serial, [rows], sep)  # an unnamed handle: never split
    assert serial.getvalue() == oracle.getvalue()
    directory = tmp_path_factory.mktemp("split")
    path = directory / "t.txt"
    with pytest.MonkeyPatch.context() as mp:
        forks = _split_over(mp, cpus)
        _write_file(path, [rows[:, :1], rows[:, 1:]], sep)
        first, back = read_rows(path, sep)
    assert path.read_text() == "header line\n" + oracle.getvalue()
    assert first == "header line"
    _, serial_back = read_rows(path, sep)
    npt.assert_array_equal(back.view(np.uint64), serial_back.view(np.uint64))
    npt.assert_array_equal(back.view(np.uint64), rows.view(np.uint64))
    assert len(forks) == (0 if cpus == 1 else (len(rows) > 1) + 1)
    _assert_tidy(directory, "t.txt")


def test_split_write_of_edge_cells_needs_no_serial_rerun(tmp_path,
                                                         monkeypatch):
    """Both processes format the kernel's edge cells with warnings turned
    into errors: no numpy warning sends the table to the serial path."""
    results, write_pair = [], sim._write_pair

    def recorded(*args):
        results.append("raised")
        write_pair(*args)
        results[-1] = "returned"
    _split_over(monkeypatch, 2)
    monkeypatch.setattr(sim, "_write_pair", recorded)
    _write_file(tmp_path / "t.txt", [_KERNEL_EDGES.reshape(-1, 2)], ",")
    assert results == ["returned"]


@pytest.mark.parametrize("bad", ["1,x,3", "1,2", "1,inf,3"],
                         ids=["non-numeric", "ragged", "non-finite"])
def test_split_read_errors_are_the_serial_errors(tmp_path, bad):
    """A bad row in the child's half gives the serial reader's error:
    the same text, file and line."""
    lines = ["header line"] + [",".join("%.17g" % v for v in row)
                               for row in np.arange(180).reshape(60, 3) / 7]
    lines[-2] = bad
    path = tmp_path / "t.csv"
    path.write_text("\n".join(lines) + "\n")
    errors = []
    for cpus in (1, 2):
        with pytest.MonkeyPatch.context() as mp:
            forks = _split_over(mp, cpus)
            with pytest.raises(SchemaError) as exc:
                read_rows(path, ",")
        assert len(forks) == cpus - 1
        errors.append(str(exc.value))
        _assert_tidy(tmp_path, "t.csv")
    assert errors[0] == errors[1]
    assert errors[0].startswith(f"{path}: line {len(lines) - 1}: ")


def _reading(path):
    """What ``read_rows`` gives: the header and rows, or the error text."""
    try:
        first, table = read_rows(path, ",")
    except SchemaError as exc:
        return str(exc)
    return first, table.tolist()


@pytest.mark.parametrize("text", [
    "h\n1\n2\n3\n\n4\n",
    "h\r\n1\r\n2\r\n3\r\n4\r\n",
    "h\n1\n2\n3\n4",
    # a blank line hides a row with the cells of two from a line count
    "h\n1,2\n3,4\n5,6\n1,2,3,4\n\n",
], ids=["blank-line", "crlf", "no-final-newline", "wide-row"])
def test_split_read_of_odd_lines_is_the_serial_reading(tmp_path, text):
    """Lines the byte cuts cannot count as rows read as serially, and
    fail as serially."""
    path = tmp_path / "t.txt"
    path.write_bytes(text.encode())
    serial = _reading(path)
    with pytest.MonkeyPatch.context() as mp:
        _split_over(mp, 2)
        assert _reading(path) == serial
    _assert_tidy(tmp_path, "t.txt")


def test_rows_longer_than_a_chunk_are_read_in_chunks(tmp_path, monkeypatch):
    """Rows longer than a read chunk, the first one included, are parsed
    a chunk of whole lines at a time and split, not sent to the serial
    reader."""
    rows = np.arange(600.0).reshape(20, 30) / 7
    path = tmp_path / "t.txt"
    _write_file(path, [rows], ",")
    serial, read_serial = [], sim._read_serial
    monkeypatch.setattr(sim, "_READ_BLOCK_BYTES", 64)
    monkeypatch.setattr(sim, "_read_serial",
                        lambda *args: serial.append(1) or read_serial(*args))
    forks = _split_over(monkeypatch, 2)
    first, back = read_rows(path, ",")
    assert first == "header line"
    npt.assert_array_equal(back.view(np.uint64), rows.view(np.uint64))
    assert len(forks) == 1 and not serial
    _assert_tidy(tmp_path, "t.txt")


def test_split_write_failure_gives_the_serial_error(tmp_path):
    """A cell only the child meets that cannot be converted to float64:
    the file and the error are the serial writer's."""
    column = (np.arange(60.0) / 7).astype(object)
    column[-2] = "x"
    results = []
    for cpus in (1, 2):
        with pytest.MonkeyPatch.context() as mp:
            forks = _split_over(mp, cpus)
            with pytest.raises(ValueError) as exc:
                _write_file(tmp_path / "t.txt", [column], ",")
        assert len(forks) == cpus - 1
        results.append((str(exc.value), (tmp_path / "t.txt").read_bytes()))
        _assert_tidy(tmp_path, "t.txt")
    assert results[0] == results[1]


def test_failing_child_falls_back_to_serial_bytes(tmp_path):
    rows = np.arange(300.0).reshape(100, 3) / 7
    oracle = io.StringIO()
    np.savetxt(oracle, rows, fmt="%.17g", delimiter=",")

    def fail(*args):
        raise OSError("no space left in the part file")
    with pytest.MonkeyPatch.context() as mp:
        forks = _split_over(mp, 2)
        mp.setattr(sim, "_child_job", fail)
        _write_file(tmp_path / "t.txt", [rows], ",")
    assert len(forks) == 1
    assert (tmp_path / "t.txt").read_text() == ("header line\n"
                                                + oracle.getvalue())
    _assert_tidy(tmp_path, "t.txt")


def _spy_kill(mp) -> list[int]:
    """Pass every ``os.kill`` on; the list that is returned gathers the
    signals sent."""
    signals, kill = [], os.kill

    def spy(pid, sig):
        signals.append(sig)
        kill(pid, sig)
    mp.setattr(os, "kill", spy)
    return signals


def test_failing_write_half_here_kills_the_child(tmp_path):
    """A cell in this process's half, after a whole block, that cannot be
    converted to float64: the child is killed and reaped, and the file
    and the error are the serial writer's."""
    column = (np.arange(10000.0) / 7).astype(object)
    column[4500] = "x"
    results = []
    for cpus in (1, 2):
        with pytest.MonkeyPatch.context() as mp:
            forks, kills = _split_over(mp, cpus), _spy_kill(mp)
            with pytest.raises(ValueError) as exc:
                _write_file(tmp_path / "t.txt", [column], ",")
        assert len(forks) == cpus - 1
        assert kills == [signal.SIGKILL] * (cpus - 1)
        results.append((str(exc.value), (tmp_path / "t.txt").read_bytes()))
        _assert_tidy(tmp_path, "t.txt")
    assert results[0] == results[1]
    assert results[0][1].count(b"\n") == 1 + 4096  # the first block


def test_failing_read_half_here_kills_the_child(tmp_path):
    """A bad row in this process's half: the child is killed and reaped,
    and the error is the serial reader's."""
    lines = ["header line"] + [",".join("%.17g" % v for v in row)
                               for row in np.arange(180).reshape(60, 3) / 7]
    lines[2] = "1,x,3"
    path = tmp_path / "t.csv"
    path.write_text("\n".join(lines) + "\n")
    text, errors = path.read_bytes(), []
    for cpus in (1, 2):
        with pytest.MonkeyPatch.context() as mp:
            forks, kills = _split_over(mp, cpus), _spy_kill(mp)
            with pytest.raises(SchemaError) as exc:
                read_rows(path, ",")
        assert len(forks) == cpus - 1
        assert kills == [signal.SIGKILL] * (cpus - 1)
        errors.append(str(exc.value))
        _assert_tidy(tmp_path, "t.csv")
    assert errors[0] == errors[1]
    assert errors[0].startswith(f"{path}: line 3: ")
    assert path.read_bytes() == text


@pytest.mark.parametrize("copy", ["raises", "missing"])
def test_failed_part_copy_falls_back_to_serial_bytes(tmp_path, copy):
    """Where the kernel copy of the part fails, after a first call that
    copied it, or the platform has none, the file is the serial writer's
    and no part or child is left."""
    rows = np.arange(300.0).reshape(100, 3) / 7
    oracle = io.StringIO()
    np.savetxt(oracle, rows, fmt="%.17g", delimiter=",")
    calls, copy_file_range = [], getattr(os, "copy_file_range", None)

    def copy_once(*args):
        calls.append(args)
        if len(calls) > 1:
            raise OSError("copy_file_range: operation not supported")
        return copy_file_range(*args)
    with pytest.MonkeyPatch.context() as mp:
        forks = _split_over(mp, 2)
        if copy == "raises":
            mp.setattr(os, "copy_file_range", copy_once)
        else:
            mp.delattr(os, "copy_file_range", raising=False)
        _write_file(tmp_path / "t.txt", [rows], ",")
    # without the call, nothing is formatted twice
    assert len(forks) == (1 if copy == "raises" else 0)
    assert len(calls) == (2 if copy == "raises" else 0)
    assert (tmp_path / "t.txt").read_text() == ("header line\n"
                                                + oracle.getvalue())
    _assert_tidy(tmp_path, "t.txt")


@pytest.mark.parametrize("one_core", ["one-cpu", "no-fork"])
def test_one_core_path_forks_nothing(tmp_path, monkeypatch, one_core):
    """With one usable CPU, or no ``os.fork``, nothing forks and the file
    and the table equal a split run's."""
    rows = np.arange(600.0).reshape(200, 3) / 7
    with pytest.MonkeyPatch.context() as mp:
        _split_over(mp, 2)
        _write_file(tmp_path / "split.txt", [rows], ",")
        _, split = read_rows(tmp_path / "split.txt", ",")

    class Forked(BaseException):
        """Not an ``Exception``, so no serial fallback can swallow it."""

    def refuse(*args):
        raise Forked
    _split_over(monkeypatch, 1 if one_core == "one-cpu" else 2)
    if one_core == "one-cpu":
        monkeypatch.setattr(os, "fork", refuse)
    else:
        monkeypatch.delattr(os, "fork")
        monkeypatch.setattr(sim, "_at_once", refuse)
    _write_file(tmp_path / "one.txt", [rows], ",")
    _, table = read_rows(tmp_path / "one.txt", ",")
    assert ((tmp_path / "one.txt").read_bytes()
            == (tmp_path / "split.txt").read_bytes())
    npt.assert_array_equal(table.view(np.uint64), split.view(np.uint64))


def test_split_is_capped_and_waits_for_no_thread(tmp_path, monkeypatch):
    """On eight CPUs a table is still split over two processes, one child
    each way.  While another Python thread runs nothing forks, since a
    lock it held at the fork would stay held in the child; the bytes stay
    the same."""
    rows = np.arange(600.0).reshape(200, 3) / 7
    forks = _split_over(monkeypatch, 8)
    _write_file(tmp_path / "split.txt", [rows], ",")
    _, split = read_rows(tmp_path / "split.txt", ",")
    assert len(forks) == 2  # one for the write, one for the read

    class Forked(BaseException):
        """Not an ``Exception``, so no serial fallback can swallow it."""

    def refuse(*args):
        raise Forked
    monkeypatch.setattr(os, "fork", refuse)
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        _write_file(tmp_path / "threaded.txt", [rows], ",")
        _, table = read_rows(tmp_path / "threaded.txt", ",")
    finally:
        release.set()
        thread.join()
    assert ((tmp_path / "threaded.txt").read_bytes()
            == (tmp_path / "split.txt").read_bytes())
    npt.assert_array_equal(table.view(np.uint64), split.view(np.uint64))
    _assert_tidy(tmp_path, "split.txt", "threaded.txt")


# --- plot files -------------------------------------------------------------

def _plot_files(directory):
    """Two plot files of several blocks of rows, whose times and values
    hold cells only Python formats: a tie, a subnormal, 1e300 and -0.0."""
    odd = np.array([_TIES[0], 5e-324, 1e300, -0.0])
    t = np.arange(6000.0) / 7
    t[[0, 4095, 4096, 5999]] = odd
    values = np.sin(np.arange(6000.0))
    values[[1, 2, 4097, 5998]] = odd
    return [(directory / "errors.dat", t,
             [("agent1", values), ("agent2", -values)]),
            (directory / "outputs.dat", t,
             [("agent1", values[::-1]), ("setpoint", np.ones(6000))])]


@pytest.mark.parametrize("cpus", [1, 2])
def test_plot_files_are_savetxt_s_bytes(tmp_path, monkeypatch, cpus):
    """On two CPUs this process writes one plot file and one child the
    other; on one nothing forks.  Either way the bytes are
    ``np.savetxt``'s, and no piece written holds more than one block of
    lines."""
    files = _plot_files(tmp_path)
    forks = _split_over(monkeypatch, cpus)
    sim.write_series(files)
    assert len(forks) == cpus - 1
    for path, t, curves in files:
        assert path.read_bytes() == savetxt_series(t, curves)
        assert max(map(len, sim._series_text(t, curves))) <= (
            2 * cell_text._LAYOUT_WIDTH * sim._WRITE_BLOCK_CELLS)
    _assert_tidy(tmp_path, "errors.dat", "outputs.dat")


def test_failing_plot_child_falls_back_to_serial_bytes(tmp_path,
                                                       monkeypatch):
    def fail(*args):
        raise OSError("no space left in the part file")
    files = _plot_files(tmp_path)
    forks = _split_over(monkeypatch, 2)
    monkeypatch.setattr(sim, "_child_job", fail)
    sim.write_series(files)
    assert len(forks) == 1
    for path, t, curves in files:
        assert path.read_bytes() == savetxt_series(t, curves)
    _assert_tidy(tmp_path, "errors.dat", "outputs.dat")


def test_plot_curve_of_other_length_is_refused(tmp_path):
    """A curve whose length is not the times' is named before any file
    is written."""
    files = _plot_files(tmp_path)
    files[1][2].append(("short", np.zeros(5)))
    with pytest.raises(DimensionMismatchError, match="curve short has 5"):
        sim.write_series(files)
    assert os.listdir(tmp_path) == []


# --- CSV round trip ---------------------------------------------------------

def test_csv_round_trip(tmp_path, loops, s0, benchmark_net):
    tr = run_experiment(loops["star"], benchmark_schedule(4), s0, h=1e-3,
                        T=1.0)
    path = tmp_path / "trace.csv"
    trace_to_csv(tr, benchmark_net, path)
    back = trace_from_csv(path, benchmark_net)
    for name in ("t", "x", "eta", "q", "x_hat", "f_hat", "u", "y_f",
                 "e_bar", "v", "f_s", "y0"):
        npt.assert_array_equal(getattr(back, name), getattr(tr, name),
                               err_msg=name)


@pytest.mark.parametrize("T", [2.048, 4.5])
def test_trace_grid_keeps_the_whole_trace_bytes(tmp_path, loops, s0,
                                                benchmark_net, T):
    """A trace wired and written a block of the trace grid at a time from
    its states has the bytes of the whole trace's file, also on 2049 rows,
    where a last block of one row would take numpy's one-row product; and
    ``read_trace`` gives back the blocks the writer cut."""
    loop, schedule = loops["star"], benchmark_schedule(4)
    run = sim.rollout(loop, schedule, s0, h=1e-3, T=T)
    whole = run_experiment(loop, schedule, s0, h=1e-3, T=T)
    trace_to_csv(run, benchmark_net, tmp_path / "blocks.csv")
    trace_to_csv(whole, benchmark_net, tmp_path / "whole.csv")
    assert ((tmp_path / "blocks.csv").read_bytes()
            == (tmp_path / "whole.csv").read_bytes())
    rows = sim._grid_rows(58)
    cut = [hi - lo for lo, hi in sim._spans(run.t.size, rows)]
    back = [len(block.t)
            for block in sim.read_trace(tmp_path / "blocks.csv", benchmark_net)]
    assert back == cut == ([rows + 1] if T == 2.048 else [rows, rows, 405])


class _Blocks:
    """A check that records the first time and the length of each block
    it is handed."""

    def __init__(self):
        self.seen = []

    def update(self, block):
        self.seen.append((float(block.t[0]), len(block.t)))


@pytest.mark.parametrize("fault", ["child-fails", "no-stage-part"])
def test_split_trace_falls_back_to_the_one_cpu_file(tmp_path, loops, s0,
                                                    benchmark_net, fault):
    """A split trace write whose child fails, or whose rows cannot be
    staged next to the file, gives the one-CPU file byte for byte, leaves
    no part file and no child, and hands each grid block to every check
    exactly once."""
    loop, schedule = loops["star"], benchmark_schedule(4)

    def written(name, cpus):
        check = _Blocks()
        with pytest.MonkeyPatch.context() as mp:
            forks = _split_over(mp, cpus)
            if cpus == 2 and fault == "child-fails":
                mp.setattr(sim, "_child_job", fail)
            elif cpus == 2:
                mp.setattr(tempfile, "TemporaryFile", no_stage)
            trace_to_csv(sim.rollout(loop, schedule, s0, h=1e-3, T=4.5),
                         benchmark_net, tmp_path / name, check)
        return len(forks), check.seen

    def fail(*args):
        raise OSError("no space left in the part file")
    parts, temporary_file = [], tempfile.TemporaryFile

    def no_stage(*args, **kwargs):
        """No part next to the trace for the stage, the first one made."""
        parts.append(kwargs.get("dir"))
        if len(parts) == 1:
            raise OSError("no room next to the trace")
        return temporary_file(*args, **kwargs)
    forks, seen = written("one.csv", 1)
    assert forks == 0
    assert written("t.csv", 2) == (1, seen)
    assert ((tmp_path / "t.csv").read_bytes()
            == (tmp_path / "one.csv").read_bytes())
    rows = sim._grid_rows(58)
    assert seen == [(lo * 1e-3, hi - lo)
                    for lo, hi in sim._spans(4501, rows)]
    if fault == "no-stage-part":  # staged in the temporary directory
        assert parts == [str(tmp_path), None, str(tmp_path)]
    _assert_tidy(tmp_path, "one.csv", "t.csv")


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("table", ["trace", "gains", "plots"])
def test_table_whose_write_fails_part_way_is_removed(tmp_path, loops, s0,
                                                     benchmark_net, table,
                                                     cpus):
    """A block that fails after the first has been formatted, on one CPU
    or with the table split: the error reaches the caller, and neither
    the file (or plot files) nor a part file is left."""
    padded = cell_text.CellText.padded
    calls = []

    def failing(self, block):
        calls.append(1)
        if len(calls) > 1:
            raise OSError("no space left on device")
        return padded(self, block)
    trace = run_experiment(loops["star"], quiet_schedule(4), s0, h=1e-3,
                           T=0.5)
    with pytest.MonkeyPatch.context() as mp:
        forks = _split_over(mp, cpus)
        mp.setattr(cell_text.CellText, "padded", failing)
        with pytest.raises(OSError, match="no space left on device"):
            if table == "trace":
                trace_to_csv(trace, benchmark_net, tmp_path / "t.csv")
            elif table == "gains":
                save_matrix(tmp_path / "K.txt",
                            np.arange(9000.0).reshape(90, 100) / 7)
            else:
                sim.write_series(_plot_files(tmp_path))
    assert len(calls) > 1 and len(forks) == cpus - 1
    _assert_tidy(tmp_path)


def test_csv_header_names(tmp_path, loops, s0, benchmark_net):
    tr = run_experiment(loops["star"], quiet_schedule(4), s0, h=1e-3, T=0.1)
    path = tmp_path / "trace.csv"
    trace_to_csv(tr, benchmark_net, path)
    header = path.read_text().splitlines()[0].split(",")
    assert header[0] == "t"
    assert "x[1][1]" in header and "x[4][2]" in header
    assert "fhat[4]" in header and header[-1] == "y0"
    assert len(header) == 1 + 8 + 12 + 4 + 8 + 4 + 4 + 4 + 4 + 4 + 4 + 1


def test_csv_rejects_foreign_header(tmp_path, benchmark_net):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(SchemaError):
        trace_from_csv(path, benchmark_net)
