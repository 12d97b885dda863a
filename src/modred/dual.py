"""A posteriori error machinery: backward dual solve, stability factors,
combined discretization + modeling error bound, and control-point validation
of the subgrid model.

The dual problem is the backward linear system

    -phi'(t) = J(t)^T phi(t),   phi(T) = psi,

where J is the Jacobian of the right-hand side along the computed solution U
and T is the final node of U.  On the clock s = T - t it is a forward linear
system, which solve_cg1 steps as it steps the primal, by one cG(1) method.
The output error satisfies |(e(T), psi)| <= S1 * max ||k r|| + S0 * max
||g_model - g_measured||, with stability factors S0 = integral of ||phi|| and
S1 = integral of ||phi'||.  The Jacobian is evaluated at U alone (the
mean-value segment between the averaged and computed solutions is collapsed
to its endpoint); the discrepancy is second order in their distance and is
recorded in every report.  Control points take tau and the resolved step from
the fitted SubgridModel and step on its local partition of [0, 2*tau] wherever
they start, so they measure gbar exactly as the fit did.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import integrator
from .averaging import measure_gbar, trapezoid
from .integrator import ConvergenceError, TimePartition, residual_samples
# Imported only as a rebinding target of perfbench/tracing.py.
from .integrator import solve_cg1  # noqa: F401
from .reduction import SubgridModel, resolve_short
from .system import (
    Array,
    DynamicalSystem,
    Trajectory,
    frozen_array,
    interpolate,
    jacobian,
)

@dataclass(frozen=True)
class DualProblem:
    """Backward dual problem from the final node of a computed primal trajectory."""

    primal: Trajectory
    sys: DynamicalSystem
    psi: Array

    def __post_init__(self):
        n, m = self.sys.dimension, self.primal.dimension
        if n != m:
            raise ValueError(f"system dimension {n} does not match the primal trajectory's dimension {m}")
        psi = frozen_array(self.psi)
        if psi.shape != (self.primal.dimension,):
            raise ValueError("psi dimension does not match the primal trajectory")
        if not np.all(np.isfinite(psi)):
            raise ValueError("psi must be finite")
        if not np.linalg.norm(psi) > 0:
            raise ValueError("psi must be nonzero")
        object.__setattr__(self, "psi", psi)


def solve_dual(dp: DualProblem, step: float) -> Trajectory:
    """Integrate the dual backward from phi(T) = psi, T the primal's final time.

    On the clock s = T - t the dual is phi' = A(s) phi, A(s) = J(u(T - s),
    T - s)^T, which solve_cg1 steps on a uniform partition of [0, T - t0],
    from psi scaled to largest entry 1 (the result is scaled back), so that
    its stopping rule is relative at any scale of psi.  One helper gives the
    system's rhs and Jacobian and keeps the last run of times it evaluated
    with their A, which times that continue the run reuse: a step's rhs
    evaluations share one A with its chord matrix, and a block's check, one
    rhs call, shares its first A with the block's first evaluation.  So each
    dual step takes one Jacobian, through ``jacobian``.  The
    dual step must resolve the fastest active time scale, as the primal's
    must, or RuntimeError names the primal time t = T - s where it failed.
    The returned trajectory is oriented forward in t.
    """
    if not 0 < step < np.inf:
        raise ValueError("dual step must be positive and finite")
    t_start, t_end = dp.primal.span
    n = dp.sys.dimension
    last = [np.empty(0), np.empty((0, n, n))]  # the times last evaluated together, and their A

    def adjoint(s):
        """A(s) for one time, or the stack of A(s_i) for a 1-D array of times.
        Times that continue the last evaluated run of times reuse its A."""
        rows = np.atleast_1d(s)
        lo = int(last[0].searchsorted(rows[0]))
        head = last[0][lo : lo + len(rows)]
        known = len(head) if (rows[: len(head)] == head).all() else 0
        if known < len(rows):
            t = t_end - rows[known:]
            _, u = interpolate(dp.primal.times, dp.primal.states, np.clip(t, t_start, t_end))
            A = jacobian(dp.sys, u, t).transpose(0, 2, 1)
            last[:] = rows.copy(), np.concatenate((last[1][lo : lo + known], A)) if known else A
            lo = 0
        A = last[1][lo : lo + len(rows)]
        return A[0] if np.ndim(s) == 0 else A

    # The dual is linear, and the stopping rule is absolute below norm 1.
    scale = float(np.max(np.abs(dp.psi)))
    backward = DynamicalSystem(
        len(dp.psi), lambda phi, s: (adjoint(s) @ phi[..., None])[..., 0], dp.psi / scale,
        jacobian=lambda phi, s: adjoint(s), vectorized=True,
    )
    try:
        # Through the module, so that a traced run keeps the dual's time in its own span.
        phi = integrator.solve_cg1(backward, TimePartition.uniform(0.0, t_end - t_start, step))
    except ConvergenceError as err:
        cause = f"on the clock s = T - t: {err}; use a smaller dual step than {step:g}"
        raise RuntimeError(f"dual step ending at t={t_end - err.t_end:g} failed, {cause}") from err
    times = (t_end - phi.times)[::-1].copy()
    times[0], times[-1] = t_start, t_end  # pin endpoints against roundoff
    return Trajectory(times, scale * phi.states[::-1])


def stability_factors(phi: Trajectory) -> tuple[float, float]:
    """(S0, S1): integrals of ||phi|| (trapezoid over the nodes) and ||phi'||
    (exact for the piecewise-linear representation)."""
    norms = np.linalg.norm(phi.states, axis=1)
    s0 = float(trapezoid(phi.times, norms[:, None])[0])
    s1 = float(np.sum(np.linalg.norm(np.diff(phi.states, axis=0), axis=1)))
    return s0, s1


@dataclass(frozen=True)
class ErrorEstimate:
    """Combined bound: total = S1 * max ||k r||  +  S0 * max ||g - gbar||.

    The modeling term is restricted to active components; the error frozen
    into inactive components is reported separately as ``inactive_residual``,
    the largest deviation of any frozen component's average from its held
    value relative to its oscillation amplitude (the 1/(omega*tau)-scale
    attenuation measured from the resolved run).  ``validated`` records
    whether the modeling deviation was actually measured at control points.
    """

    S0: float
    S1: float
    max_step_residual: float
    max_model_deviation: float
    disc_term: float
    model_term: float
    total: float
    validated: bool
    inactive_residual: float


def error_estimate(
    U: Trajectory,
    reduced: DynamicalSystem,
    model: SubgridModel,
    phi: Trajectory,
    points: Sequence[ControlPoint],
) -> ErrorEstimate:
    """Evaluate the a posteriori bound for the solve U of the reduced system
    that ``model`` assembles.

    ``points`` carry the deviations freshly measured by
    validate_at_control_points; when empty, the modeling term is zero and the
    estimate is flagged as unvalidated.
    """
    s0, s1 = stability_factors(phi)
    max_res = float(np.max(residual_samples(U, reduced)))
    max_dev = max((p.deviation for p in points), default=0.0)
    disc = s1 * max_res
    mod = s0 * max_dev
    amp = np.abs(model.oscillation_amplitude)
    ratio = model.frozen_deviation / np.maximum(amp, 1e-300)
    inactive_residual = float(np.max(ratio[~model.active], initial=0.0))
    return ErrorEstimate(
        S0=s0,
        S1=s1,
        max_step_residual=max_res,
        max_model_deviation=max_dev,
        disc_term=disc,
        model_term=mod,
        total=disc + mod,
        validated=bool(points),
        inactive_residual=inactive_residual,
    )


@dataclass(frozen=True)
class ControlPoint:
    """A fresh variance measurement at one time along the reduced solve.

    ``deviation`` is ||g_model - gbar|| over the active components, the
    2-norm that the bound's model term S0 * max ||g - gbar|| takes.
    """

    time: float
    gbar: Array
    deviation: float


def _perturbation_vector(sys: DynamicalSystem, model: SubgridModel) -> Array:
    """Displacement of the frozen components by their recorded fast amplitude,
    signed with the recorded oscillation phase so the original mode shape is
    re-excited.  Velocity partners of declared oscillator pairs are left
    untouched so that the re-excited oscillation has the original energy."""
    delta = np.where(model.active, 0.0, model.oscillation_amplitude)
    delta[[vel for _, vel in sys.oscillator_pairs]] = 0.0
    return delta


def validate_at_control_points(
    reduced_traj: Trajectory, sys: DynamicalSystem, model: SubgridModel, points
) -> tuple[ControlPoint, ...]:
    """Re-resolve the full system at each control point (in time order) and
    re-measure gbar.

    Initial data at a control point is the computed reduced solution with the
    frozen components displaced by their recorded oscillation amplitude; the
    full system seen from t_c is resolved over the local window [0, 2*tau] at
    the model's resolved_step, the fit's own partition, and the variance
    averaged over the interior window by the same resolve_short and
    measure_gbar as the original fit, with rhs times t_c + s.
    """
    delta = _perturbation_vector(sys, model)
    measured: list[ControlPoint] = []
    times = np.sort(np.asarray(points, dtype=float))
    _, starts = interpolate(reduced_traj.times, reduced_traj.states, times)
    for t_c, u_c in zip(times.tolist(), starts + delta):
        resolved = resolve_short(sys, u_c, t_c, model.tau, model.resolved_step)
        gbar = measure_gbar(resolved, sys.seen_from(t_c), model.tau)
        deviation = float(np.linalg.norm((model.constants - gbar)[model.active]))
        measured.append(ControlPoint(time=t_c, gbar=gbar, deviation=deviation))
    return tuple(measured)


_JACOBIAN_NOTE = (
    "dual Jacobian evaluated at the computed solution only "
    "(mean-value segment collapsed to its endpoint)"
)


def format_estimate_report(est: ErrorEstimate) -> str:
    """key: value serialization of the error estimate."""
    lines = [
        f"S0: {est.S0:.17g}",
        f"S1: {est.S1:.17g}",
        f"max_step_residual: {est.max_step_residual:.17g}",
        f"max_model_deviation: {est.max_model_deviation:.17g}",
        f"disc_term: {est.disc_term:.17g}",
        f"model_term: {est.model_term:.17g}",
        f"total: {est.total:.17g}",
        f"model_term_validated: {'yes' if est.validated else 'no'}",
        f"inactive_residual: {est.inactive_residual:.17g}",
        f"jacobian_approximation: {_JACOBIAN_NOTE}",
    ]
    return "\n".join(lines) + "\n"


def format_control_report(model: SubgridModel, points: Sequence[ControlPoint]) -> str:
    """key: value serialization of the control-point validation."""
    lines = [
        f"n_points: {len(points)}",
        "g_model: " + " ".join(f"{v:.17g}" for v in model.constants),
    ]
    for i, p in enumerate(points, start=1):
        lines.append(f"point_{i}_time: {p.time:.17g}")
        lines.append(f"point_{i}_deviation: {p.deviation:.17g}")
        lines.append("point_{}_gbar: {}".format(i, " ".join(f"{v:.17g}" for v in p.gbar)))
    return "\n".join(lines) + "\n"
