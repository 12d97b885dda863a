"""Core abstractions: dynamical systems u' = f(u, t) and piecewise-linear trajectories.

All types are immutable after construction and safe to share between threads;
right-hand sides are expected to be pure functions of (u, t).
"""

from __future__ import annotations

import dataclasses
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

Array = np.ndarray

# Relative step for central finite differences, cbrt(machine epsilon).
FD_EPS_REL = float(np.finfo(float).eps) ** (1.0 / 3.0)

#: Values in one stack of states: a (stack_rows(dimension), dimension)
#: array holds at most 128 KiB.  That bounds the temporaries of one rhs
#: call, and so the peak memory, while a small system takes long stacks.
RHS_BLOCK_VALUES = 16384


class EvaluationError(RuntimeError):
    """A right-hand side or Jacobian evaluation produced a non-finite value."""


def frozen_array(values, dtype=float) -> Array:
    """Read-only float (or ``dtype``) copy of the values."""
    arr = np.array(values, dtype=dtype)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class DynamicalSystem:
    """First-order system u' = f(u, t) with initial value u0; each solve's
    time partition sets the span it covers.

    ``rhs(u, t)`` must return a length-``dimension`` vector and must not mutate
    its arguments: solve_cg1 passes a stored node itself, U_0 for the first
    evaluation of the first step solved alone.  ``jacobian(u, t)``, if
    given, returns the N x N matrix with entry (i, j) = d f_i / d u_j;
    otherwise central finite differences are used.
    ``oscillator_pairs`` lists (position, velocity) index pairs of fast
    oscillator components, used by the model-reduction inactivation rule.
    A ``vectorized`` system's rhs also takes a stack: states of shape
    (rows, dimension) at times of shape (rows,), returning (rows, dimension)
    with every row bit for bit its single-state value.  Its analytic
    Jacobian, if given, takes the same stack and returns
    (rows, dimension, dimension), every slice bit for bit its single-state
    value.
    """

    dimension: int
    rhs: Callable[[Array, float], Array]
    initial_value: Array
    jacobian: Callable[[Array, float], Array] | None = None
    oscillator_pairs: tuple[tuple[int, int], ...] = ()
    vectorized: bool = False

    def __post_init__(self):
        # Checked before the pairs are iterated: a call written for the old
        # (dimension, rhs, u0, final time, jacobian) order fails here.
        if not isinstance(self.dimension, numbers.Integral):
            raise ValueError(f"dimension must be an integer, got {self.dimension!r}")
        if not callable(self.rhs):
            raise ValueError(f"rhs must be callable, got {self.rhs!r}")
        if not (self.jacobian is None or callable(self.jacobian)):
            raise ValueError(
                f"jacobian must be callable or None, got {self.jacobian!r}; "
                "DynamicalSystem takes no final time, the solve sets the span"
            )
        if not isinstance(self.vectorized, bool):
            raise ValueError(f"vectorized must be a bool, got {self.vectorized!r}")
        if self.dimension < 1:
            raise ValueError(f"dimension must be >= 1, got {self.dimension}")
        u0 = frozen_array(self.initial_value)
        if u0.shape != (self.dimension,):
            raise ValueError(
                f"initial value has shape {u0.shape}, expected ({self.dimension},)"
            )
        if not np.all(np.isfinite(u0)):
            raise ValueError("initial value contains non-finite entries")
        object.__setattr__(self, "initial_value", u0)
        for i, j in self.oscillator_pairs:
            if not (0 <= i < self.dimension and 0 <= j < self.dimension):
                raise ValueError(f"oscillator pair ({i}, {j}) out of range")

    def seen_from(self, t0: float) -> DynamicalSystem:
        """The system on a local clock s = t - t0: its rhs and Jacobian are
        called at t0 + s, so a window solved on [0, 2*tau] from any t0 has the
        steps of one solved from 0; a stack of states at times s passes
        through.  At t0 == 0 the system itself."""
        if t0 == 0.0:
            return self
        rhs, jac = self.rhs, self.jacobian
        return dataclasses.replace(
            self,
            rhs=lambda u, s: rhs(u, t0 + s),
            jacobian=None if jac is None else lambda u, s: jac(u, t0 + s),
        )


def rhs_value(f, *shape: int) -> Array:
    """An rhs result as a float array, or ValueError when its shape is not
    ``shape``: (dimension,) for one state, (rows, dimension) for a stack."""
    f = np.asarray(f, dtype=float)
    if f.shape != shape:
        raise ValueError(f"rhs returned shape {f.shape}, expected {shape}")
    return f


def stack_rows(dimension: int) -> int:
    """Rows of one stack of states, max(1, RHS_BLOCK_VALUES // dimension): the
    rows of one rhs call of a vectorized system, of one solver block and of
    one residual chunk."""
    return max(1, RHS_BLOCK_VALUES // dimension)


def row_norms(rows: Array) -> Array:
    """Norm of each row, bit for bit np.linalg.norm(row): one dot per row; a sum rounds otherwise."""
    return np.sqrt((rows[:, None, :] @ rows[:, :, None])[:, 0, 0])


def evaluate_rhs(sys: DynamicalSystem, states: Array, times: Array) -> Array:
    """f(u_i, t_i) for the rows u_i of ``states`` at the ``times`` t_i, as a
    (rows, dimension) array.  A vectorized system's rhs is called once per
    stack of stack_rows(dimension) rows, any other's once per row.  Each
    result passes the shape check of rhs_value, and a non-finite value
    raises EvaluationError naming the first bad t and component."""
    times = np.asarray(times, dtype=float)
    out = np.empty((times.size, sys.dimension))
    if times.ndim != 1 or np.shape(states) != out.shape:
        raise ValueError(f"states of shape {np.shape(states)} for times of shape {times.shape}")
    rhs, n = sys.rhs, sys.dimension
    states = np.asarray(states, dtype=float)
    # A non-finite value raises EvaluationError below; numpy's warnings would only repeat that.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if sys.vectorized:
            rows = stack_rows(n)
            for lo in range(0, len(times), rows):
                hi = min(lo + rows, len(times))
                out[lo:hi] = rhs_value(rhs(states[lo:hi], times[lo:hi]), hi - lo, n)
        else:
            for i, (u, t) in enumerate(zip(states, times.tolist())):
                out[i] = rhs_value(rhs(u, t), n)
    bad = ~np.isfinite(out)
    if bad.any():
        row, comp = (int(k[0]) for k in np.nonzero(bad))
        raise EvaluationError(
            f"rhs component {comp} is non-finite at t={float(times[row])!r} "
            f"(overflow or invalid state)"
        )
    return out


def jacobian(sys: DynamicalSystem, u: Array, t: float | Array) -> Array:
    """Jacobian of the right-hand side at (u, t): N x N for one state, and
    (rows, N, N) for a stack of states (rows, N) at times (rows,).

    Uses the analytic Jacobian when present, otherwise central finite
    differences with steps h_j = FD_EPS_REL * max(|u_j|, 1), whose 2N
    perturbed states go through evaluate_rhs as one batch: one rhs call of a
    vectorized system while 2N * N <= RHS_BLOCK_VALUES, else one per stack
    of stack_rows(N) rows; one call per state otherwise.  A vectorized
    system's analytic Jacobian takes a stack in one call; in every other case
    the rows go through the single-state path one at a time.  Either way a
    non-finite entry raises EvaluationError naming its t and first bad (i, j).
    """
    u = np.asarray(u, dtype=float)
    n = sys.dimension
    if u.ndim == 2:
        t = np.asarray(t, dtype=float)
        if t.shape != u.shape[:1]:
            raise ValueError(f"states of shape {u.shape} for times of shape {t.shape}")
        if not (sys.vectorized and sys.jacobian is not None):
            out = np.empty((len(u), n, n))
            for i, (row, s) in enumerate(zip(u, t.tolist())):
                out[i] = jacobian(sys, row, s)
            return out
    if sys.jacobian is not None:
        kind = "analytic"
        J = np.asarray(sys.jacobian(u, t), dtype=float)
        shape = (*u.shape[:-1], n, n)
        if J.shape != shape:
            raise ValueError(f"jacobian returned shape {J.shape}, expected {shape}")
    else:
        kind = "finite-difference"
        h = FD_EPS_REL * np.maximum(np.abs(u), 1.0)
        # Rows u + h_j e_j, then u - h_j e_j, taken as one batch.
        states = np.tile(u, (2, n, 1))
        np.fill_diagonal(states[0], u + h)
        np.fill_diagonal(states[1], u - h)
        f = evaluate_rhs(sys, states.reshape(2 * n, n), np.full(2 * n, float(t)))
        # Finite values may still overflow in the difference; the check below
        # names the entry.  Row-major like an analytic J: BLAS products with
        # it round by its layout.
        with np.errstate(over="ignore"):
            J = np.ascontiguousarray(((f[:n] - f[n:]) / (2.0 * h)[:, None]).T)
    if not np.isfinite(J).all():
        *row, i, j = (int(k[0]) for k in np.nonzero(~np.isfinite(J)))
        at = float(t[row[0]]) if row else t
        raise EvaluationError(f"{kind} Jacobian entry ({i}, {j}) is non-finite at t={at!r}")
    return J


@dataclass(frozen=True)
class Trajectory:
    """Discrete solution values on strictly increasing time nodes.

    Between nodes the trajectory evaluates by linear interpolation, matching
    the piecewise-linear trial space of the cG(1) time stepping; evaluation
    outside [times[0], times[-1]] is an error.
    """

    times: Array
    states: Array  # shape (len(times), dimension)

    def __post_init__(self):
        times = frozen_array(self.times)
        states = np.atleast_2d(np.array(self.states, dtype=float))
        states.flags.writeable = False
        if times.ndim != 1 or len(times) < 2:
            raise ValueError("a trajectory needs at least two time nodes")
        if not np.all(np.diff(times) > 0):
            raise ValueError("trajectory time nodes must be strictly increasing")
        if states.shape[0] != len(times):
            raise ValueError(
                f"{states.shape[0]} states for {len(times)} time nodes"
            )
        if not np.all(np.isfinite(states)):
            raise ValueError("trajectory states contain non-finite entries")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "states", states)

    @property
    def dimension(self) -> int:
        return self.states.shape[1]

    @property
    def span(self) -> tuple[float, float]:
        return float(self.times[0]), float(self.times[-1])


def interpolate(times: Array, values: Array, ts: Array) -> tuple[Array, Array]:
    """Piecewise-linear interpolation of nodal ``values`` at the times ``ts``.

    Returns the index of each time's interval (its left node) and the
    interpolated rows.  Times that are not 1-D, or a time outside
    [times[0], times[-1]], raise ValueError.
    """
    ts = np.asarray(ts, dtype=float)
    if ts.ndim != 1:
        raise ValueError(f"times of shape {ts.shape}, expected a 1-D array")
    t0, t1 = float(times[0]), float(times[-1])
    outside = ts[~((ts >= t0) & (ts <= t1))]
    if len(outside):
        raise ValueError(f"t={float(outside[0])!r} outside trajectory domain [{t0!r}, {t1!r}]")
    idx = np.clip(np.searchsorted(times, ts, side="right") - 1, 0, len(times) - 2)
    left = times[idx]
    theta = (ts - left) / (times[idx + 1] - left)
    return idx, (1.0 - theta[:, None]) * values[idx] + theta[:, None] * values[idx + 1]
