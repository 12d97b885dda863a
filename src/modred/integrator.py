"""cG(1) time stepping: piecewise-linear trial functions, piecewise-constant
test functions, midpoint quadrature.  With one-point midpoint quadrature the
scheme is the implicit midpoint method,

    U_j = U_{j-1} + k_j * f((U_{j-1} + U_j)/2, t_{j-1} + k_j/2),

solved on each interval by damped fixed-point iteration started from U_{j-1}.
Fixed step sequences only; the step must resolve the fastest active scale or
the iteration diverges and the solver raises rather than returning garbage.
"""

from __future__ import annotations

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
    rhs_value,
)

# Gauss points of the 2-point rule on [-1/2, 1/2], used for residual sampling.
_GAUSS_OFFSET = 0.5 / np.sqrt(3.0)

_DAMPING_FLOOR = 0.25

#: Fixed-point iterations allowed per interval before ConvergenceError.
MAX_FIXED_POINT_ITERS = 100


class ConvergenceError(RuntimeError):
    """Fixed-point iteration failed to converge on some interval."""

    def __init__(self, interval: int, t_end: float, residual: float):
        self.interval = interval
        self.t_end = t_end
        self.residual = residual
        super().__init__(
            f"fixed-point iteration did not converge on interval {interval} "
            f"(ending at t={t_end:.6g}); last residual norm {residual:.3e}. "
            f"The step is likely too large for the fastest active time scale."
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


def solve_cg1(
    sys: DynamicalSystem,
    part: TimePartition,
    opts: SolverOptions | None = None,
) -> Trajectory:
    """Integrate the system over the given partition with cG(1).

    The returned nodal values satisfy the midpoint relation to within
    ``fixed_point_tol`` (relative to max(1, |U|)).  Raises ConvergenceError
    when the damped fixed-point iteration does not contract.
    """
    opts = opts or SolverOptions()
    times = part.times
    rhs = sys.rhs
    n = sys.dimension
    tol = opts.fixed_point_tol

    states = np.empty((len(times), n))
    states[0] = sys.initial_value
    u_prev = states[0]

    # Diverging iterates overflow on their way to the non-finite residual
    # that raises ConvergenceError below; numpy's overflow warnings would only
    # repeat that.  One errstate per solve adds no per-iteration work.
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(1, len(times)):
            k = times[j] - times[j - 1]
            t_mid = times[j - 1] + 0.5 * k
            v = u_prev
            damping = 1.0
            res_prev = np.inf
            converged = False
            res = np.inf
            for _ in range(MAX_FIXED_POINT_ITERS):
                g = u_prev + k * rhs_value(rhs(0.5 * (u_prev + v), t_mid), n)
                res = float(np.linalg.norm(g - v))
                if not np.isfinite(res):
                    break
                if res <= tol * max(1.0, float(np.linalg.norm(g))):
                    v = g
                    converged = True
                    break
                if res > res_prev:
                    damping = max(_DAMPING_FLOOR, 0.5 * damping)
                res_prev = res
                v = (1.0 - damping) * v + damping * g
            if not converged:
                raise ConvergenceError(j, float(times[j]), res)
            states[j] = v
            u_prev = v

    return Trajectory(times, states)


def residual_samples(traj: Trajectory, sys: DynamicalSystem) -> Array:
    """Per-interval residual r(t) = U' - f(U, t) of a cG(1) solution of sys.

    On each interval U' is the constant chord slope; the residual is sampled
    at the two Gauss points plus the midpoint, and entry j - 1 (interval j
    ends at node j) is the maximum of ||k_j r||_2 over the samples.
    """
    times = traj.times
    left = times[:-1]
    k = np.diff(times)
    slopes = np.diff(traj.states, axis=0) / k[:, None]
    worst = np.zeros(len(k))
    for lo in range(0, len(k), INTERPOLATE_BLOCK):
        b = slice(lo, lo + INTERPOLATE_BLOCK)
        for offset in (-_GAUSS_OFFSET, 0.0, _GAUSS_OFFSET):
            t_s = left[b] + 0.5 * k[b] + offset * k[b]
            _, u_s = interpolate(times, traj.states, t_s)
            # One norm per row: a vectorized norm rounds differently.
            norms = [np.linalg.norm(r) for r in slopes[b] - evaluate_rhs(sys, u_s, t_s)]
            worst[b] = np.maximum(worst[b], k[b] * norms)
    return worst
