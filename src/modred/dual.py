"""A posteriori error machinery: backward dual solve, stability factors,
combined discretization + modeling error bound, and control-point validation
of the subgrid model.

The dual problem is the backward linear system

    -phi'(t) = J(t)^T phi(t),   phi(T) = psi,

where J is the Jacobian of the right-hand side along the computed solution U.
The output error satisfies |(e(T), psi)| <= S1 * max ||k r|| + S0 * max
||g_model - g_measured||, with stability factors S0 = integral of ||phi|| and
S1 = integral of ||phi'||.  The Jacobian is evaluated at U alone (the
mean-value segment between the averaged and computed solutions is collapsed
to its endpoint); the discrepancy is second order in their distance and is
recorded in every report.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .averaging import trapezoid
from .integrator import TimePartition, residual_samples
# Imported only as a rebinding target of perfbench/tracing.py.
from .integrator import solve_cg1  # noqa: F401
from .reduction import (
    ModelingOptions,
    ReducedSystem,
    SubgridModel,
    measure_gbar,
    resolve_short,
)
from .system import (
    INTERPOLATE_BLOCK,
    Array,
    DynamicalSystem,
    Trajectory,
    frozen_array,
    interpolate,
    jacobian,
    trajectory_eval,
)


@dataclass(frozen=True)
class DualProblem:
    """Backward dual problem along a computed primal trajectory."""

    primal: Trajectory
    sys: DynamicalSystem
    psi: Array
    T: float

    def __post_init__(self):
        psi = frozen_array(self.psi)
        if psi.shape != (self.primal.dimension,):
            raise ValueError("psi dimension does not match the primal trajectory")
        if not np.linalg.norm(psi) > 0:
            raise ValueError("psi must be nonzero")
        t0, t1 = self.primal.span
        if not (t0 < self.T <= t1 + 1e-12 * max(1.0, abs(t1))):
            raise ValueError(f"final time {self.T} outside the primal span [{t0}, {t1}]")
        object.__setattr__(self, "psi", psi)


def solve_dual(dp: DualProblem, step: float) -> Trajectory:
    """Integrate the dual backward from phi(T) = psi.

    Substituting s = T - t turns the problem into a forward linear system,
    which is stepped with cG(1); since the system is linear in phi, each
    midpoint step is solved directly.  The returned trajectory is oriented
    forward in t.
    """
    if not step > 0:
        raise ValueError("dual step must be positive")
    t_start, t_end = dp.primal.span
    part = TimePartition.uniform(0.0, dp.T - t_start, step)
    s_nodes = part.times
    n = dp.sys.dimension
    eye = np.eye(n)

    phi = np.empty((len(s_nodes), n))
    phi[0] = dp.psi
    for lo in range(1, len(s_nodes), INTERPOLATE_BLOCK):
        hi = min(lo + INTERPOLATE_BLOCK, len(s_nodes))
        t_mids = dp.T - 0.5 * (s_nodes[lo:hi] + s_nodes[lo - 1 : hi - 1])
        _, u_mids = interpolate(dp.primal.times, dp.primal.states, np.clip(t_mids, t_start, t_end))
        for j, t_mid, u_mid in zip(range(lo, hi), t_mids, u_mids):
            k = float(s_nodes[j] - s_nodes[j - 1])
            A = jacobian(dp.sys, u_mid, float(t_mid)).T
            phi[j] = np.linalg.solve(eye - 0.5 * k * A, phi[j - 1] + 0.5 * k * (A @ phi[j - 1]))

    times = (dp.T - s_nodes)[::-1].copy()
    times[0], times[-1] = t_start, dp.T  # pin endpoints against roundoff
    return Trajectory(times, phi[::-1])


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
    reduced: ReducedSystem,
    phi: Trajectory,
    gbar_samples: list[tuple[float, Array]],
) -> ErrorEstimate:
    """Evaluate the a posteriori bound for the reduced solve U.

    ``gbar_samples`` are (time, freshly measured variance) pairs from
    validate_at_control_points; when empty, the modeling term is zero and the
    estimate is flagged as unvalidated.
    """
    s0, s1 = stability_factors(phi)
    max_res = max(r for _, r in residual_samples(U, reduced.system.rhs))
    active = reduced.model.active
    g = reduced.model.constants
    if gbar_samples:
        max_dev = max(
            float(np.linalg.norm((g - np.asarray(gbar))[active])) for _, gbar in gbar_samples
        )
        validated = True
    else:
        max_dev = 0.0
        validated = False
    disc = s1 * max_res
    mod = s0 * max_dev
    amp = np.abs(reduced.model.oscillation_amplitude)
    ratio = reduced.model.frozen_deviation / np.maximum(amp, 1e-300)
    inactive_residual = float(np.max(ratio[~active], initial=0.0))
    return ErrorEstimate(
        S0=s0,
        S1=s1,
        max_step_residual=float(max_res),
        max_model_deviation=max_dev,
        disc_term=disc,
        model_term=mod,
        total=disc + mod,
        validated=validated,
        inactive_residual=inactive_residual,
    )


@dataclass(frozen=True)
class ControlPoint:
    time: float
    gbar: Array
    deviation: float
    perturbation: float


@dataclass(frozen=True)
class ControlPointReport:
    """Fresh variance measurements along the reduced solve.

    ``deviation`` per point is the max over active components of
    |g_model - g_measured|; points are stored in time order.
    """

    model: SubgridModel
    points: tuple[ControlPoint, ...]

    def gbar_samples(self) -> list[tuple[float, Array]]:
        return [(p.time, p.gbar) for p in self.points]

    def deviations(self) -> list[float]:
        return [p.deviation for p in self.points]


def _perturbation_vector(sys: DynamicalSystem, model: SubgridModel) -> Array:
    """Displacement of the frozen components by their recorded fast amplitude,
    signed with the recorded oscillation phase so the original mode shape is
    re-excited.  Velocity partners of declared oscillator pairs are left
    untouched so that the re-excited oscillation has the original energy."""
    delta = np.zeros(model.dimension)
    paired_velocities = {vel for _, vel in sys.oscillator_pairs}
    for i in range(model.dimension):
        if not model.active[i] and i not in paired_velocities:
            delta[i] = model.oscillation_amplitude[i]
    return delta


def validate_at_control_points(
    reduced_traj: Trajectory,
    sys: DynamicalSystem,
    model: SubgridModel,
    points,
    opts: ModelingOptions,
) -> ControlPointReport:
    """Re-resolve the full system at each control point and re-measure gbar.

    Initial data at a control point is the computed reduced solution with the
    frozen components displaced by their recorded oscillation amplitude; the
    full system is resolved over [t_c, t_c + 2*tau] and the variance averaged
    over the interior window by the same resolve_short and measure_gbar as the
    original fit.
    """
    delta = _perturbation_vector(sys, model)
    perturbation = float(np.max(np.abs(delta), initial=0.0))
    report: list[ControlPoint] = []
    for t_c in sorted(float(t) for t in points):
        u_c = trajectory_eval(reduced_traj, t_c) + delta
        gbar = measure_gbar(resolve_short(sys, u_c, t_c, opts), sys, opts.tau)
        deviation = float(np.max(np.abs((model.constants - gbar)[model.active]), initial=0.0))
        report.append(ControlPoint(time=t_c, gbar=gbar, deviation=deviation, perturbation=perturbation))
    return ControlPointReport(model=model, points=tuple(report))


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


def format_control_report(report: ControlPointReport) -> str:
    """key: value serialization of the control-point validation."""
    lines = [
        f"n_points: {len(report.points)}",
        "g_model: " + " ".join(f"{v:.17g}" for v in report.model.constants),
    ]
    for i, p in enumerate(report.points, start=1):
        lines.append(f"point_{i}_time: {p.time:.17g}")
        lines.append(f"point_{i}_deviation: {p.deviation:.17g}")
        lines.append(f"point_{i}_perturbation: {p.perturbation:.17g}")
        lines.append("point_{}_gbar: {}".format(i, " ".join(f"{v:.17g}" for v in p.gbar)))
    return "\n".join(lines) + "\n"
