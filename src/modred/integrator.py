"""cG(1) time stepping: piecewise-linear trial functions, piecewise-constant
test functions, midpoint quadrature.  With one-point midpoint quadrature the
scheme is the implicit midpoint method,

    U_j = U_{j-1} + k_j * f((U_{j-1} + U_j)/2, t_{j-1} + k_j/2),

solved on each interval by chord Newton from U_{j-1}: v += M (g - v) with
g = U_{j-1} + k f((U_{j-1} + v)/2, t_mid), M = inv(I - (k/2) J), J taken lazily
and refreshed after CHORD_REFRESH corrections (Hairer & Wanner, Solving ODEs II,
IV.8).  A step too large for the fastest scale ((k/2) J of spectral radius >= 1) raises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .system import (
    INTERPOLATE_BLOCK,
    Array,
    DynamicalSystem,
    Trajectory,
    evaluate_rhs,
    frozen_array,
    interpolate,
    jacobian,
    rhs_value,
)

# Gauss points of the 2-point rule on [-1/2, 1/2], used for residual sampling.
_GAUSS_OFFSET = 0.5 / np.sqrt(3.0)

#: Chord iterations allowed per interval before ConvergenceError.
MAX_CHORD_ITERS = 100

#: Chord corrections after which an unconverged step re-evaluates J.
CHORD_REFRESH = 4


class ConvergenceError(RuntimeError):
    """A step did not converge, or its (k/2) J has spectral radius ``contraction`` >= 1."""

    def __init__(self, interval: int, t_end: float, residual: float, contraction: float | None = None):
        self.interval = interval
        self.t_end = t_end
        self.residual = residual
        self.contraction = contraction
        cause = f"did not converge (last residual norm {residual:.3e})"
        if contraction is not None:
            cause = f"is too large (spectral radius of (k/2)J estimated at {contraction:.3e} >= 1)"
        super().__init__(
            f"cG(1) step on interval {interval} (ending at t={t_end:.6g}) {cause}; "
            f"the step must resolve the fastest active time scale"
        )


@dataclass(frozen=True)
class TimePartition:
    """Strictly increasing time nodes t_0 < t_1 < ... < t_M."""

    times: Array

    def __post_init__(self):
        times = frozen_array(self.times)
        if times.ndim != 1 or len(times) < 2:
            raise ValueError("a partition needs at least two time nodes")
        if not np.all(np.diff(times) > 0):
            raise ValueError("partition nodes must be strictly increasing")
        object.__setattr__(self, "times", times)

    @classmethod
    def uniform(cls, t_start: float, t_end: float, step: float) -> "TimePartition":
        """Uniform partition of [t_start, t_end]; the step is rounded so that
        an integer number of intervals covers the interval exactly."""
        for name, value in (("t_start", t_start), ("t_end", t_end), ("step", step)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if not step > 0:
            raise ValueError(f"step must be positive, got {step}")
        if not t_end > t_start:
            raise ValueError(f"empty interval [{t_start}, {t_end}]")
        n = max(1, round((t_end - t_start) / step))
        return cls(np.linspace(t_start, t_end, n + 1))

    @property
    def steps(self) -> Array:
        return np.diff(self.times)


@dataclass(frozen=True)
class SolverOptions:
    fixed_point_tol: float = 1e-12

    def __post_init__(self):
        if not self.fixed_point_tol > 0:
            raise ValueError("fixed_point_tol must be positive")


def _chord_matrix(sys: DynamicalSystem, u: Array, t: float, k: float) -> tuple[Array, float]:
    """inv(I - (k/2) J) at (u, t) and the spectral radius of (k/2) J, estimated by
    20 power steps on its square from a fixed start (a pair +-i*w converges too)."""
    A = jacobian(sys, u, t) * (-0.5 * k)
    x = np.linspace(1.0, 2.0, len(A))
    for _ in range(20):
        y = A @ (A @ x)
        growth = float(np.linalg.norm(y))
        if not 0.0 < growth < np.inf:
            break
        x = y / growth
    A.flat[:: len(A) + 1] += 1.0
    return np.linalg.inv(A), float(np.sqrt(growth))


def solve_cg1(
    sys: DynamicalSystem,
    part: TimePartition,
    opts: SolverOptions | None = None,
) -> Trajectory:
    """Integrate the system over the given partition with cG(1).

    The returned nodal values satisfy the midpoint relation to within
    ``fixed_point_tol`` (relative to max(1, |U|)).  Raises ConvergenceError
    when a step is too large or does not converge, and EvaluationError,
    naming t and the component, for a non-finite rhs value.
    """
    opts = opts or SolverOptions()
    times = part.times
    rhs = sys.rhs
    n = sys.dimension
    tol = opts.fixed_point_tol

    states = np.empty((len(times), n))
    states[0] = sys.initial_value
    u_prev = states[0]
    M = None

    # A non-finite rhs value raises EvaluationError below; numpy's warnings
    # would only repeat that.  One errstate per solve costs nothing.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for j in range(1, len(times)):
            k = times[j] - times[j - 1]
            t_mid = times[j - 1] + 0.5 * k
            v = u_prev
            for it in range(MAX_CHORD_ITERS):
                mid = 0.5 * (u_prev + v)
                g = u_prev + k * rhs_value(rhs(mid, t_mid), n)
                r = g - v
                # x.dot(x) is np.linalg.norm's own path for a 1-D vector.
                res = math.sqrt(r.dot(r))
                if not math.isfinite(res):
                    evaluate_rhs(sys, mid[None], np.array([t_mid]))  # raises if f is non-finite
                    raise ConvergenceError(j, float(times[j]), res)
                if res <= tol * max(1.0, math.sqrt(g.dot(g))):
                    break
                if M is None or (it and it % CHORD_REFRESH == 0):
                    M, rho = _chord_matrix(sys, mid, t_mid, k)
                    if not rho < 1.0:
                        raise ConvergenceError(j, float(times[j]), res, rho)
                v = v + M @ r
            else:
                raise ConvergenceError(j, float(times[j]), res)
            states[j] = u_prev = g

    return Trajectory(times, states)


def residual_samples(traj: Trajectory, sys: DynamicalSystem) -> Array:
    """Per-interval residual r(t) = U' - f(U, t) of a cG(1) solution of sys.

    On each interval U' is the constant chord slope; the residual is sampled
    at the two Gauss points, and entry j - 1 (interval j ends at node j) is
    the larger ||k_j r||_2 of the two.  The midpoint is not sampled: there the
    midpoint relation makes r vanish to the solver tolerance.
    """
    times = traj.times
    left = times[:-1]
    k = np.diff(times)
    slopes = np.diff(traj.states, axis=0) / k[:, None]
    worst = np.zeros(len(k))
    for lo in range(0, len(k), INTERPOLATE_BLOCK):
        b = slice(lo, lo + INTERPOLATE_BLOCK)
        for offset in (-_GAUSS_OFFSET, _GAUSS_OFFSET):
            t_s = left[b] + 0.5 * k[b] + offset * k[b]
            _, u_s = interpolate(times, traj.states, t_s)
            # One dot per row, as np.linalg.norm(r) takes it: a vectorized norm rounds differently.
            norms = [math.sqrt(r.dot(r)) for r in slopes[b] - evaluate_rhs(sys, u_s, t_s)]
            worst[b] = np.maximum(worst[b], k[b] * norms)
    return worst
