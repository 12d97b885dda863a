import warnings

import numpy as np
import pytest

from conftest import rotation_system
from modred import (
    ConvergenceError,
    DynamicalSystem,
    SimpleModelSpec,
    SolverOptions,
    TimePartition,
    make_simple_model,
    residual_samples,
    solve_cg1,
)

GAUSS_HALF_WIDTH = 0.5 / np.sqrt(3.0)  # Gauss points of the 2-point rule


def test_constant_solution():
    c = np.array([2.0, -3.0])
    sys = DynamicalSystem(2, lambda u, t: np.zeros(2), c, 1.0)
    traj = solve_cg1(sys, TimePartition.uniform(0, 1.0, 0.1))
    np.testing.assert_array_equal(traj.states, np.tile(c, (11, 1)))


@pytest.mark.parametrize("lam,k", [(-1.0, 0.1), (0.5, 0.2), (-3.0, 0.05)])
def test_single_step_matches_midpoint_recursion(lam, k):
    sys = DynamicalSystem(1, lambda u, t: lam * u, np.array([1.0]), k)
    traj = solve_cg1(sys, TimePartition(np.array([0.0, k])))
    expected = (1.0 + 0.5 * k * lam) / (1.0 - 0.5 * k * lam)
    np.testing.assert_allclose(traj.states[1, 0], expected, rtol=1e-11)


def test_reduced_oscillator_matches_closed_form():
    # x'' + x = 1/4 from rest: x(t) = (1/4)(1 - cos t)
    sys = DynamicalSystem(
        2, lambda u, t: np.array([u[1], 0.25 - u[0]]), np.zeros(2), 100.0
    )
    traj = solve_cg1(sys, TimePartition.uniform(0, 100.0, 0.01))
    exact = 0.25 * (1.0 - np.cos(traj.times))
    assert np.max(np.abs(traj.states[:, 0] - exact)) <= 1e-2


def test_second_order_convergence():
    sys = DynamicalSystem(1, lambda u, t: -u, np.array([1.0]), 1.0)
    errors = []
    for k in (0.02, 0.01):
        traj = solve_cg1(sys, TimePartition.uniform(0, 1.0, k))
        errors.append(np.max(np.abs(traj.states[:, 0] - np.exp(-traj.times))))
    ratio = errors[0] / errors[1]
    assert 3.5 <= ratio <= 4.5


def test_energy_conservation_harmonic_oscillator():
    traj = solve_cg1(rotation_system(T=10.0), TimePartition.uniform(0, 10.0, 0.01))
    energy = 0.5 * np.sum(traj.states**2, axis=1)
    assert np.max(np.abs(np.diff(energy))) < 1e-10


def test_divergence_raises_with_interval():
    sys = DynamicalSystem(1, lambda u, t: -1e4 * u, np.array([1.0]), 1.0)
    with pytest.raises(ConvergenceError) as exc:
        solve_cg1(sys, TimePartition.uniform(0, 1.0, 0.01))
    assert exc.value.interval == 1
    assert np.isfinite(exc.value.residual) or exc.value.residual == np.inf


def test_overflowing_divergence_raises_without_numpy_warning():
    # the simple model at kappa=1e18 with step 0.01: the iterates overflow
    # within a few iterations, which must surface only as ConvergenceError
    sys = make_simple_model(SimpleModelSpec(kappa=1e18, T=0.1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConvergenceError) as exc:
            solve_cg1(sys, TimePartition.uniform(0, 0.1, 0.01))
    assert exc.value.interval == 1
    assert not np.isfinite(exc.value.residual)


def test_fixed_point_tolerance_is_respected():
    lam = -2.0
    sys = DynamicalSystem(1, lambda u, t: lam * u, np.array([1.0]), 1.0)
    traj = solve_cg1(sys, TimePartition.uniform(0, 1.0, 0.05), SolverOptions())
    # every step satisfies the midpoint relation to tolerance
    for j in range(1, len(traj.times)):
        k = traj.times[j] - traj.times[j - 1]
        mid = 0.5 * (traj.states[j - 1] + traj.states[j])
        defect = traj.states[j] - traj.states[j - 1] - k * lam * mid
        assert abs(defect[0]) <= 1e-11


def test_residuals_zero_for_exactly_solved_system():
    c = np.array([1.5])
    sys = DynamicalSystem(1, lambda u, t: np.zeros(1), c, 1.0)
    traj = solve_cg1(sys, TimePartition.uniform(0, 1.0, 0.25))
    for _, r in residual_samples(traj, sys.rhs):
        assert r == 0.0


def test_residual_midpoint_collocation():
    lam = -1.3
    sys = DynamicalSystem(1, lambda u, t: lam * u, np.array([1.0]), 1.0)
    traj = solve_cg1(sys, TimePartition.uniform(0, 1.0, 0.1))
    for j in range(1, len(traj.times)):
        k = traj.times[j] - traj.times[j - 1]
        slope = (traj.states[j] - traj.states[j - 1]) / k
        mid = 0.5 * (traj.states[j - 1] + traj.states[j])
        assert abs(slope[0] - lam * mid[0]) <= 1e-10 / k


def test_residual_hand_case_time_dependent_rhs():
    # u' = t over one unit step: slope is 1/2, residual r(t) = 1/2 - t, and
    # the Gauss samples give |k r| = 1/(2 sqrt 3)
    sys = DynamicalSystem(1, lambda u, t: np.array([t]), np.zeros(1), 1.0)
    traj = solve_cg1(sys, TimePartition(np.array([0.0, 1.0])))
    samples = residual_samples(traj, sys.rhs)
    assert len(samples) == 1
    j, worst = samples[0]
    assert j == 1
    np.testing.assert_allclose(worst, GAUSS_HALF_WIDTH, rtol=1e-12)


def test_uniform_partition_counts():
    part = TimePartition.uniform(0.0, 10.0, 0.01)
    assert len(part.times) == 1001
    np.testing.assert_allclose(part.steps, 0.01)
    with pytest.raises(ValueError):
        TimePartition.uniform(0.0, 1.0, -0.1)
    with pytest.raises(ValueError):
        TimePartition(np.array([0.0, 0.0, 1.0]))


def test_solver_options_validation():
    with pytest.raises(ValueError):
        SolverOptions(fixed_point_tol=0.0)
