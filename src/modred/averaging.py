"""Centered moving averages of trajectories and the variance they obey.

The moving average over a window of size tau is

    ubar(t) = (1/tau) * integral of u(t+s) ds,  s in [-tau/2, tau/2],

with a constant extension at the interval ends: a time outside the interior
window [t0 + tau/2, t1 - tau/2] of a run over [t0, t1] takes the value at its
nearest end.  ``interior`` alone decides that window, up to a slack relative to
tau, for the variance and measure_gbar as for the fit.  All integrals
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


def interior(traj: Trajectory, tau: float, ts: Array) -> tuple[Array, tuple[float, float]]:
    """Which of the times ``ts`` lie in the interior window (lo, hi) of the
    trajectory's span, and the window; ValueError when tau is not positive or
    does not fit inside the span.  A time within a billionth of tau outside an
    end lies in it, so nodes that round across an end count."""
    if not tau > 0:
        raise ValueError(f"window size must be positive, got {tau}")
    t0, t1 = traj.span
    if tau >= t1 - t0:
        raise ValueError(
            f"window tau={tau!r} does not fit inside the trajectory span "
            f"[{t0!r}, {t1!r}] of length {t1 - t0!r}"
        )
    lo, hi = t0 + 0.5 * tau, t1 - 0.5 * tau
    slack = 1e-9 * tau
    return (ts >= lo - slack) & (ts <= hi + slack), (lo, hi)


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

    Near the trajectory ends the constant extension applies: a time outside
    the interior window is clamped to its nearest end.
    """
    ts = np.asarray(ts, dtype=float)
    _, (lo, hi) = interior(traj, tau, ts)
    t0, t1 = traj.span
    half = 0.5 * tau
    centers = np.clip(ts, lo, hi)
    a = np.clip(centers - half, t0, t1)
    b = np.clip(centers + half, t0, t1)
    return _window_integrals(traj.times, traj.states, a, b) / tau


def variance_values(traj: Trajectory, sys: DynamicalSystem, tau: float, ts: Array) -> Array:
    """The defect gbar(t) between the averaged rhs and the rhs of the average.

    Requires every t in the interior window; the boundary strips are owned by
    the inactivation convention of the reduction step and are refused here.
    """
    ts = np.asarray(ts, dtype=float)
    inside, (lo, hi) = interior(traj, tau, ts)
    if not np.all(inside):
        raise ValueError(
            f"variance is only defined on the interior window [{lo!r}, {hi!r}]; "
            f"boundary strips are handled by inactivation, not here"
        )
    # The average first: times that are not 1-D fail there, before any rhs call.
    ubar = averaged_values(traj, tau, ts)
    f_traj = Trajectory(traj.times, evaluate_rhs(sys, traj.states, traj.times))
    return averaged_values(f_traj, tau, ts) - evaluate_rhs(sys, ubar, ts)


def measure_gbar(resolved: Trajectory, sys: DynamicalSystem, tau: float) -> Array:
    """Time-averaged variance over the interior window of a resolved run."""
    inside, _ = interior(resolved, tau, resolved.times)
    ts = resolved.times[inside]
    if len(ts) < 2:
        raise ValueError("resolved run too short to measure the variance")
    gbar = variance_values(resolved, sys, tau, ts)
    return trapezoid(ts, gbar) / (ts[-1] - ts[0])
