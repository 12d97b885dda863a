"""cG(1) time stepping: piecewise-linear trial functions, piecewise-constant
test functions, midpoint quadrature.  With one-point midpoint quadrature the
scheme is the implicit midpoint method,

    U_j = U_{j-1} + k_j * f((U_{j-1} + U_j)/2, t_{j-1} + k_j/2),

solved on each interval by chord Newton from U_{j-1}: v += M (g - v) with
g = U_{j-1} + k f((U_{j-1} + v)/2, t_mid), M = inv(I - (k/2) J), J taken lazily
and refreshed after CHORD_REFRESH corrections (Hairer & Wanner, Solving ODEs II,
IV.8).  A step too large for the fastest scale ((k/2) J of spectral radius >= 1) raises.

Below BLOCK_CROSSOVER components the solve also steps blocks of up to
stack_rows(N) intervals at a time, so that a block's check is one rhs call of
a vectorized system.  A block predicts its nodes with the solve's chord
matrix by one doubling scan (Blelloch, "Prefix sums and their applications",
1990), checks them all by one rhs batch at their midpoints, and keeps the
prefix that meets the per-step stopping rule, after one chord correction of
that prefix from the defects the check found; a whole pass doubles the
block, anything else halves it for the rest of the solve.  The correction
does for a block what returning g does for a step solved alone: a node
passes with a defect up to the tolerance, and leaves with a contracted one.
The two paths agree to the tolerance, not to roundoff.  The scan's powers of
P = 2M - I are taken once per chord matrix: the solve keeps them for its
blocks and discards them when a refresh sets a new M.  A block evaluates no
Jacobian, so a system whose Jacobian varies along it fails the block's first
step and steps alone; the chord matrix and its step guard are the steps'.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .system import (
    Array,
    DynamicalSystem,
    Trajectory,
    evaluate_rhs,
    frozen_array,
    interpolate,
    jacobian,
    rhs_value,
    row_norms,
    stack_rows,
)

# Gauss points of the 2-point rule on [-1/2, 1/2], used for residual sampling.
_GAUSS_OFFSET = 0.5 / np.sqrt(3.0)

#: Chord iterations allowed per interval before ConvergenceError.
MAX_CHORD_ITERS = 100

#: A step is solved when ||g - v|| <= FIXED_POINT_TOL * max(1, ||g||).
FIXED_POINT_TOL = 1e-12

#: Chord corrections after which an unconverged step re-evaluates J.
CHORD_REFRESH = 4

#: Dimension from which solve_cg1 steps one interval at a time, the dual as the
#: primal; smaller systems step a block of intervals at a time.
BLOCK_CROSSOVER = 24


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


def _chord_scan(M: Array, c: Array, powers: list[Array]) -> Array:
    """Rows d_j = P d_{j-1} + M c_j from d_0 = 0, P = 2M - I: the chord
    linearization of consecutive midpoint steps driven by the rows c_j of c,
    by a Hillis-Steele doubling scan.  ``powers`` holds P, P^2, P^4, ... of
    this M, as far as earlier scans needed them, and is extended here."""
    d = c @ M.T
    h, level = 1, 0
    while h < len(d):
        if level == len(powers):
            powers.append(powers[-1] @ powers[-1] if powers else 2.0 * M - np.eye(len(M)))
        d[h:] += d[:-h] @ powers[level].T
        h, level = 2 * h, level + 1
    return d


def _predicted_steps(
    sys: DynamicalSystem, k: Array, t_mids: Array, u: Array, M: Array, powers: list[Array]
) -> Array:
    """The nodes after u over intervals of steps k and midpoint times t_mids,
    predicted with the chord matrix M (its powers in ``powers``, as
    _chord_scan keeps them), up to the first that fails solve_cg1's stopping
    rule.

    The prediction holds the first chord correction from u, k f(u, t_mid),
    fixed over the block, and is checked by one rhs batch at its midpoints.
    The defects r_j = U_{j-1} + k f(mid_j) - U_j of the passing prefix drive
    one last chord correction, as a step solved alone returns g after its
    check.  f at u is the first evaluation of a step solved alone, so its
    errors are that step's; an evaluation at a predicted midpoint that fails
    in any way passes no step.
    """
    r1 = k[0] * evaluate_rhs(sys, u[None], t_mids[:1])
    nodes = u + _chord_scan(M, np.repeat(r1, len(k), axis=0), powers)
    left = np.vstack((u, nodes[:-1]))
    try:
        r = left + k[:, None] * evaluate_rhs(sys, 0.5 * (left + nodes), t_mids) - nodes
    except Exception:
        return nodes[:0]
    passed = row_norms(r) <= FIXED_POINT_TOL * np.maximum(1.0, row_norms(nodes + r))
    m = len(k) if passed.all() else int(np.argmin(passed))
    return nodes[:m] + _chord_scan(M, r[:m], powers)


def solve_cg1(sys: DynamicalSystem, part: TimePartition, opts: None = None) -> Trajectory:
    """Integrate the system over the given partition with cG(1).

    Every returned node U_j meets the midpoint relation: a step solved alone
    returns g = U_{j-1} + k f((U_{j-1} + v)/2, t_mid) with ||g - v|| <=
    FIXED_POINT_TOL * max(1, ||g||); a step taken in a block (systems
    of fewer than BLOCK_CROSSOVER components) passes the same check at its
    predicted node v and returns v plus the block's chord correction from
    those defects.  A block spans at most stack_rows(N) steps, so its check
    is one rhs call of a vectorized system, and starts after a step solved
    alone has set the chord matrix, so a system at rest steps alone.
    Raises ConvergenceError when a step is too large or does not converge,
    and EvaluationError, naming t and the component, for a non-finite rhs
    value, both for the interval a step solved alone names.  An rhs
    evaluation at a predicted node that fails, by a non-finite value or by
    any exception, only shrinks the block.  ``opts`` keeps the call shape
    solve_cg1(sys, part, opts) and must be None.
    """
    if opts is not None:
        raise TypeError(f"solve_cg1 takes no options; its tolerance is FIXED_POINT_TOL, got {opts!r}")
    times = part.times
    steps = np.diff(times)
    mids = times[:-1] + 0.5 * steps
    rhs = sys.rhs
    n = sys.dimension

    states = np.empty((len(times), n))
    states[0] = sys.initial_value
    u_prev = states[0]
    # The powers of P = 2M - I that blocks scan with, emptied wherever M is
    # set, so no block reads the powers of an earlier M; they live in this
    # call only, so no solve reads another's.
    M, powers = None, []
    j, block, ceiling = 1, 1, stack_rows(n) if n < BLOCK_CROSSOVER else 1

    # A non-finite rhs value raises EvaluationError below; numpy's warnings
    # would only repeat that.  One errstate per solve costs nothing.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        while j < len(times):
            m = min(block, len(times) - j)
            if m > 1 and M is not None:
                b = slice(j - 1, j - 1 + m)
                accepted = _predicted_steps(sys, steps[b], mids[b], u_prev, M, powers)
                states[j : j + len(accepted)] = accepted
                j += len(accepted)
                u_prev = states[j - 1]
                if len(accepted) == m:
                    block = min(2 * block, ceiling)
                else:
                    ceiling = block = block // 2
                continue
            k, t_mid = steps[j - 1], mids[j - 1]
            # The first midpoint 0.5 * (u_prev + u_prev) is u_prev bit for bit
            # (short of overflow), so f is first evaluated at the stored node.
            v = mid = u_prev
            for it in range(MAX_CHORD_ITERS):
                if it:
                    mid = 0.5 * (u_prev + v)
                g = u_prev + k * rhs_value(rhs(mid, t_mid), n)
                r = g - v
                # x.dot(x) is np.linalg.norm's own path for a 1-D vector.
                res = math.sqrt(r.dot(r))
                if not math.isfinite(res):
                    evaluate_rhs(sys, mid[None], np.array([t_mid]))  # raises if f is non-finite
                    raise ConvergenceError(j, float(times[j]), res)
                if res <= FIXED_POINT_TOL * max(1.0, math.sqrt(g.dot(g))):
                    break
                if M is None or (it and it % CHORD_REFRESH == 0):
                    M, rho = _chord_matrix(sys, mid, t_mid, k)
                    powers = []
                    if not rho < 1.0:
                        raise ConvergenceError(j, float(times[j]), res, rho)
                v = v + M @ r
            else:
                raise ConvergenceError(j, float(times[j]), res)
            states[j] = u_prev = g
            j += 1
            block = min(2 * block, ceiling)

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
    rows = stack_rows(sys.dimension)
    for lo in range(0, len(k), rows):
        b = slice(lo, lo + rows)
        for offset in (-_GAUSS_OFFSET, _GAUSS_OFFSET):
            t_s = left[b] + 0.5 * k[b] + offset * k[b]
            _, u_s = interpolate(times, traj.states, t_s)
            norms = row_norms(slopes[b] - evaluate_rhs(sys, u_s, t_s))
            worst[b] = np.maximum(worst[b], k[b] * norms)
    return worst
