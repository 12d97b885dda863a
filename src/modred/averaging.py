"""Centered moving averages of trajectories and the variance they obey.

The moving average over a window of size tau is

    ubar(t) = (1/tau) * integral of u(t+s) ds,  s in [-tau/2, tau/2],

with a constant extension at the interval ends: for t closer than tau/2 to an
endpoint, the value at the nearest admissible time is returned.  All integrals
are evaluated exactly for the stored piecewise-linear representation
(trapezoid rule over the nodes inside the window, with the two window
endpoints linearly interpolated), so averaging is exact for trajectories that
are affine in time.

The variance of the right-hand side,

    gbar(t) = average of s -> f(u(s), s)  minus  f(ubar(t), t),

is the exact forcing that the averaged solution obeys; it is what the
constant subgrid model is fitted to.  For f affine in (u, t) the variance
vanishes to roundoff, because averaging commutes with affine maps under the
exact quadrature.
"""

from __future__ import annotations

import numpy as np

from .system import Array, DynamicalSystem, Trajectory, evaluate_rhs, interpolate


def _check_window(traj: Trajectory, tau: float) -> tuple[float, float]:
    if not tau > 0:
        raise ValueError(f"window size must be positive, got {tau}")
    t0, t1 = traj.span
    if tau >= t1 - t0:
        raise ValueError(
            f"window tau={tau!r} does not fit inside the trajectory span "
            f"[{t0!r}, {t1!r}] of length {t1 - t0!r}"
        )
    return t0, t1


def _segments(times: Array, values: Array) -> Array:
    """Trapezoid integral of the piecewise-linear data over each interval."""
    dt = np.diff(times)
    return 0.5 * dt[:, None] * (values[:-1] + values[1:])


def trapezoid(times: Array, values: Array) -> Array:
    """Exact integral of the piecewise-linear data (rows of ``values``) over
    [times[0], times[-1]], per column."""
    return np.sum(_segments(times, values), axis=0)


def _window_integrals(times: Array, values: Array, a: Array, b: Array) -> Array:
    """Integrals of the piecewise-linear data over the windows [a_i, b_i]."""
    cum = np.zeros_like(values)
    np.cumsum(_segments(times, values), axis=0, out=cum[1:])

    def antiderivative(x):
        idx, vx = interpolate(times, values, x)
        return cum[idx] + (0.5 * (x - times[idx]))[:, None] * (values[idx] + vx)

    return antiderivative(b) - antiderivative(a)


def averaged_values(traj: Trajectory, tau: float, ts: Array) -> Array:
    """Centered moving averages over a window of size tau at the given times.

    Near the trajectory ends the constant extension applies: a time closer
    than tau/2 to an end is clamped to the nearest admissible center.
    """
    t0, t1 = _check_window(traj, tau)
    half = 0.5 * tau
    centers = np.clip(np.asarray(ts, dtype=float), t0 + half, t1 - half)
    a = np.clip(centers - half, t0, t1)
    b = np.clip(centers + half, t0, t1)
    return _window_integrals(traj.times, traj.states, a, b) / tau


def variance_values(traj: Trajectory, sys: DynamicalSystem, tau: float, ts: Array) -> Array:
    """The defect gbar(t) between the averaged rhs and the rhs of the average.

    Requires every t in the interior region [t_start + tau/2, t_end - tau/2];
    the boundary strips are owned by the inactivation convention of the
    reduction step and are refused here.
    """
    t0, t1 = _check_window(traj, tau)
    half = 0.5 * tau
    ts = np.asarray(ts, dtype=float)
    lo, hi = t0 + half, t1 - half
    slack = 1e-9 * tau
    if np.any(ts < lo - slack) or np.any(ts > hi + slack):
        raise ValueError(
            f"variance is only defined on the interior window [{lo!r}, {hi!r}]; "
            f"boundary strips are handled by inactivation, not here"
        )
    f_traj = Trajectory(traj.times, evaluate_rhs(sys, traj.states, traj.times))
    f_avg = averaged_values(f_traj, tau, ts)
    return f_avg - evaluate_rhs(sys, averaged_values(traj, tau, ts), ts)
