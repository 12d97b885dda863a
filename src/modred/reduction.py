"""Automatic model reduction: resolve the fast scales over a short interval,
fit a constant subgrid forcing from the measured variance, freeze components
whose average stays constant, and assemble the reduced system.

The resolved run covers 2*tau at a fixed step, from t = 0 for the fit and from
each control point t_c, always on the local partition of [0, 2*tau] with the
system seen from its start (rhs and Jacobian called at t_c + s); the fitted
SubgridModel carries tau and the step, so control points resolve on exactly
the steps of the fit.  The fit window is the run's interior window, which the
averaging module decides: [tau/2, 3*tau/2].  A component is inactivated (frozen) when
its moving average is constant over the fit window while the unaveraged signal
carries a macroscopic oscillation; the oscillation guard (variation dominated
by the fast scale, amplitude above the tolerance) ensures that neither a
genuinely steady component nor a slow component with a microscopic fast jiggle
is ever frozen.  For second-order systems in first-order form, the velocity
partner of a frozen position component is frozen with it (declared via
``DynamicalSystem.oscillator_pairs``).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .averaging import averaged_values, interior, measure_gbar, trapezoid
from .integrator import ConvergenceError, TimePartition, solve_cg1
from .system import Array, DynamicalSystem, EvaluationError, Trajectory, frozen_array, rhs_value

#: Minimum resolved nodes per fast oscillation period for the quadrature of
#: the rhs average to be trustworthy.
MIN_NODES_PER_PERIOD = 20

#: Minimum resolved nodes in the fit window [tau/2, 3*tau/2].
MIN_WINDOW_NODES = 200

#: How far the moving average may drift across the fit window, relative to
#: max(1, |ubar|), for a component to count as constant-average; also the
#: relative amplitude above which an oscillation is macroscopic.
INACTIVE_TOL = 1e-3

#: Factor by which the raw signal's total variation must exceed that of its
#: average before a component may be frozen.
OSCILLATION_FACTOR = 10.0


@dataclass(frozen=True)
class SubgridModel:
    """Constant subgrid forcing plus the active/inactive component mask.

    Inactive components carry a zero constant; their effective subgrid term is
    the inactivation choice g_i = -f_i, realized by freezing the component in
    the reduced system.  ``tau`` and ``resolved_step`` are the window and step
    of the resolved run behind the fit, which control points reuse.
    ``oscillation_amplitude`` records the fast oscillation max |u_i - ubar_i|
    over the fit window, signed with the phase of the collective oscillation at
    its largest excursion, so that perturbing the frozen components by these
    values at a control point re-excites the recorded mode.
    ``frozen_deviation`` records max |ubar_i - frozen value| for inactive
    components (the built-in error of holding them constant).
    ``initial_value`` is the reduced start state: ubar at the left edge of the
    fit window for active components, the fit-window mean for frozen ones.
    """

    constants: Array
    active: Array
    tau: float
    resolved_step: float
    oscillation_amplitude: Array
    frozen_deviation: Array
    initial_value: Array

    def __post_init__(self):
        constants = frozen_array(self.constants)
        active = frozen_array(self.active, dtype=bool)
        amp = frozen_array(self.oscillation_amplitude)
        dev = frozen_array(self.frozen_deviation)
        u0 = frozen_array(self.initial_value)
        n = len(constants)
        if not (len(active) == len(amp) == len(dev) == len(u0) == n):
            raise ValueError("model arrays must have equal length")
        if not np.all(np.isfinite(constants)):
            raise ValueError("subgrid constants must be finite")
        if not np.all(np.isfinite(u0)):
            raise ValueError("reduced initial value must be finite")
        for key in ("tau", "resolved_step"):
            if not getattr(self, key) > 0:
                raise ValueError(f"{key} must be positive, got {getattr(self, key)}")
        if np.any(constants[~active] != 0.0):
            raise ValueError("inactive components must carry zero constants")
        object.__setattr__(self, "constants", constants)
        object.__setattr__(self, "active", active)
        object.__setattr__(self, "oscillation_amplitude", amp)
        object.__setattr__(self, "frozen_deviation", dev)
        object.__setattr__(self, "initial_value", u0)

    @property
    def dimension(self) -> int:
        return len(self.constants)


def resolve_short(sys: DynamicalSystem, u: Array, t: float, tau: float, step: float) -> Trajectory:
    """Solve the full system from state u at time t with the resolved step:
    the run behind the fit and every control point.

    Every run steps on the same local partition of [0, 2*tau], wherever it
    starts: the trajectory's times are s = t' - t, and the system it solves,
    sys.seen_from(t), is what measure_gbar must be given with it."""
    window_sys = dataclasses.replace(sys.seen_from(t), initial_value=u)
    try:
        return solve_cg1(window_sys, TimePartition.uniform(0.0, 2.0 * tau, step))
    except ConvergenceError as err:
        raise RuntimeError(
            f"resolved run from t={t:g} failed: {err}; use a smaller resolved_step than {step:g}"
        ) from err
    except EvaluationError as err:
        raise EvaluationError(f"resolved run from t={t:g}, in its local time: {err}") from err


def _check_resolution(u: Array, check: Array) -> float:
    """Smallest estimated nodes-per-period among the checked components.

    Components with fewer than a handful of direction reversals are treated as
    non-oscillating and skipped."""
    d = np.diff(u[:, check], axis=0)
    changes = np.sum(d[1:] * d[:-1] < 0.0, axis=0)
    most = int(np.max(changes[changes >= 8], initial=0))
    return 2.0 * (u.shape[0] - 1) / most if most else np.inf


def fit_constant_subgrid(
    resolved: Trajectory, sys: DynamicalSystem, tau: float, step: float
) -> SubgridModel:
    """Fit per-component subgrid constants and decide inactivation.

    Active components get the time-average of the variance over the fit
    window; components whose average is constant while the raw signal
    oscillates are marked inactive (along with their declared velocity
    partners) and carry a zero constant.
    """
    inside, (lo, hi) = interior(resolved, tau, resolved.times)
    window_times = resolved.times[inside]
    if len(window_times) < MIN_WINDOW_NODES:
        raise ValueError(
            f"only {len(window_times)} resolved nodes in the fit window "
            f"[{lo:g}, {hi:g}]; need at least {MIN_WINDOW_NODES}"
        )
    u = resolved.states[inside]

    # ubar on the window, then at its left edge: the reduced start, ubar(0) by the constant extension.
    ubar_and_start = averaged_values(resolved, tau, np.append(window_times, lo))
    ubar, start = ubar_and_start[:-1], ubar_and_start[-1]
    scale = np.maximum(1.0, np.max(np.abs(ubar), axis=0))
    amplitude = np.max(np.abs(u - ubar), axis=0)
    macroscopic = amplitude > INACTIVE_TOL * scale

    # The rhs-average quadrature must resolve every oscillation large enough
    # to matter; microscopic ripples riding on slow components are exempt.
    nodes_per_period = _check_resolution(u, macroscopic)
    if nodes_per_period < MIN_NODES_PER_PERIOD:
        raise ValueError(
            f"fastest macroscopic oscillation is sampled with ~{nodes_per_period:.1f} "
            f"nodes per period (need >= {MIN_NODES_PER_PERIOD}); use a smaller resolved_step"
        )

    # Constant-average test: drift of the averaged signal between the two
    # window halves, relative to max(1, |ubar|).  The attenuated remainder of
    # a fast oscillation averages out within each half, while a component that
    # genuinely moves on the window scale does not.
    half = len(window_times) // 2
    drift = np.abs(np.mean(ubar[half:], axis=0) - np.mean(ubar[:half], axis=0))
    constant_average = drift <= INACTIVE_TOL * scale

    # Oscillation guard: freezing requires the raw total variation to dominate
    # that of the average (so steady components are never inactivated) and the
    # oscillation to be macroscopic (so a slow component is not frozen just
    # because its microscopic fast jiggle outweighs a near-zero drift).
    tv_raw = np.sum(np.abs(np.diff(u, axis=0)), axis=0)
    tv_avg = np.sum(np.abs(np.diff(ubar, axis=0)), axis=0)
    oscillates = (tv_raw > OSCILLATION_FACTOR * tv_avg) & macroscopic

    inactive = constant_average & oscillates
    for pos, vel in sys.oscillator_pairs:
        if inactive[pos]:
            inactive[vel] = True
    active = ~inactive

    constants = measure_gbar(resolved, sys, tau, ubar)
    constants[inactive] = 0.0

    # Sign the amplitudes with the oscillation phase at the largest collective
    # excursion of the frozen components, so restarts reproduce the mode shape
    # (a uniform positive displacement would excite a different mode).
    wiggle = u - ubar
    if np.any(inactive):
        peak = int(np.argmax(np.sum(wiggle[:, inactive] ** 2, axis=1)))
        sign = np.where(wiggle[peak] < 0.0, -1.0, 1.0)
    else:
        sign = np.ones(resolved.dimension)

    frozen_value = trapezoid(window_times, ubar) / (window_times[-1] - window_times[0])
    deviation = np.where(inactive, np.max(np.abs(ubar - frozen_value), axis=0), 0.0)

    return SubgridModel(
        constants=constants,
        active=active,
        tau=tau,
        resolved_step=step,
        oscillation_amplitude=sign * amplitude,
        frozen_deviation=deviation,
        initial_value=np.where(active, start, frozen_value),
    )


def assemble_reduced(sys: DynamicalSystem, model: SubgridModel) -> DynamicalSystem:
    """The reduced system: rhs f + g with inactive components frozen, taking
    stacks of states when the base system does.

    Its initial value is the model's averaged start state, and its Jacobian
    (analytic when the base system has one, and taking stacks when the base
    one does) carries zero rows for frozen components.
    """
    if model.dimension != sys.dimension:
        raise ValueError("model dimension does not match the system")
    # Column indices: writing them through out.T costs a single state no more
    # than a boolean mask on out, and serves a stack as well.
    frozen = np.flatnonzero(~model.active)
    constants = model.constants
    base_rhs = sys.rhs
    n = sys.dimension

    def reduced_rhs(u, t):
        # Checked before adding g, which would broadcast a wrong shape; a
        # stack of states (rows, n) gives a stack of values.
        out = rhs_value(base_rhs(u, t), *u.shape[:-1], n) + constants
        out.T[frozen] = 0.0
        return out

    reduced_jac = None
    if sys.jacobian is not None:
        base_jac = sys.jacobian

        def reduced_jac(u, t):
            J = np.array(base_jac(u, t), dtype=float)
            J[..., frozen, :] = 0.0
            return J

    return DynamicalSystem(
        dimension=sys.dimension,
        rhs=reduced_rhs,
        initial_value=model.initial_value,
        jacobian=reduced_jac,
        oscillator_pairs=sys.oscillator_pairs,
        vectorized=sys.vectorized,
    )


# Kept only as a rebinding target of perfbench/tracing.py; nothing calls it.
build_reduced = assemble_reduced


def auto_model(
    sys: DynamicalSystem, tau: float, step: float
) -> tuple[DynamicalSystem, SubgridModel, Trajectory]:
    """Resolve over [0, 2*tau] at the given step, fit, and assemble: returns
    (reduced system, model, resolved run)."""
    for key, value in (("tau", tau), ("resolved_step", step)):
        if not value > 0:
            raise ValueError(f"{key} must be positive, got {value}")
    # A step of at most tau/MIN_WINDOW_NODES leaves at least MIN_WINDOW_NODES
    # nodes in the fit window however the partition rounds the step.
    max_step = tau / MIN_WINDOW_NODES
    if step > max_step:
        raise ValueError(
            f"resolved_step {step:g} leaves fewer than {MIN_WINDOW_NODES} nodes "
            f"in the fit window; reduce it to at most {max_step:g}"
        )
    resolved = resolve_short(sys, sys.initial_value, 0.0, tau, step)
    model = fit_constant_subgrid(resolved, sys, tau, step)
    return assemble_reduced(sys, model), model, resolved


def format_model_report(model: SubgridModel) -> str:
    """Plain-text model report: one `index active|inactive g_value` line per
    component (1-based indices), preceded by commented metadata used to
    rebuild the reduced system."""
    lines = [
        f"# tau = {model.tau:.17g}",
        f"# resolved_step = {model.resolved_step:.17g}",
        "# u0 = " + " ".join(f"{v:.17g}" for v in model.initial_value),
        "# oscillation_amplitude = "
        + " ".join(f"{v:.17g}" for v in model.oscillation_amplitude),
        "# frozen_deviation = " + " ".join(f"{v:.17g}" for v in model.frozen_deviation),
    ]
    for i in range(model.dimension):
        state = "active" if model.active[i] else "inactive"
        lines.append(f"{i + 1} {state} {model.constants[i]:.17g}")
    return "\n".join(lines) + "\n"


def parse_model_report(text: str) -> SubgridModel:
    """Inverse of format_model_report."""
    meta: dict[str, str] = {}
    rows: list[tuple[int, bool, float]] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            key, _, value = line[1:].partition("=")
            meta[key.strip()] = value.strip()
            continue
        fields = line.split()
        if len(fields) != 3 or fields[1] not in ("active", "inactive"):
            raise ValueError(f"malformed model report line: {raw!r}")
        rows.append((int(fields[0]), fields[1] == "active", float(fields[2])))
    if not rows:
        raise ValueError("model report contains no component lines")
    rows.sort()
    if [r[0] for r in rows] != list(range(1, len(rows) + 1)):
        raise ValueError("model report component indices must be 1..N")

    def vector(key):
        if key not in meta:
            raise ValueError(f"model report is missing the '# {key} = ...' header")
        return np.array([float(v) for v in meta[key].split()])

    def scalar(key):
        values = vector(key)
        if len(values) != 1:
            raise ValueError(f"report header '# {key}' must hold one value, got {len(values)}")
        return float(values[0])

    return SubgridModel(
        constants=np.array([r[2] for r in rows]),
        active=np.array([r[1] for r in rows]),
        tau=scalar("tau"),
        resolved_step=scalar("resolved_step"),
        oscillation_amplitude=vector("oscillation_amplitude"),
        frozen_deviation=vector("frozen_deviation"),
        initial_value=vector("u0"),
    )
