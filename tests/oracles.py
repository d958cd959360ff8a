"""Test-only reference models that the package itself never runs."""

import numpy as np
from scipy.interpolate import CubicHermiteSpline, CubicSpline

from coopftc.errors import DimensionMismatchError
from coopftc.sim import integrate


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
