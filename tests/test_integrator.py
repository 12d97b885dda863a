import dataclasses
import warnings

import numpy as np
import pytest

from conftest import rotation_system
from modred import (
    ConvergenceError,
    DynamicalSystem,
    EvaluationError,
    LatticeSpec,
    SolverOptions,
    SubgridModel,
    TimePartition,
    Trajectory,
    assemble_reduced,
    evaluate_rhs,
    interpolate,
    make_lattice,
    make_simple_model,
    residual_samples,
    resolve_short,
    solve_cg1,
)

GAUSS_HALF_WIDTH = 0.5 / np.sqrt(3.0)  # Gauss points of the 2-point rule


def test_constant_solution():
    c = np.array([2.0, -3.0])
    sys = DynamicalSystem(2, lambda u, t: np.zeros(2), c)
    traj = solve_cg1(sys, TimePartition.uniform(0, 1.0, 0.1))
    np.testing.assert_array_equal(traj.states, np.tile(c, (11, 1)))


@pytest.mark.parametrize("lam,k", [(-1.0, 0.1), (0.5, 0.2), (-3.0, 0.05)])
def test_single_step_matches_midpoint_recursion(lam, k):
    sys = DynamicalSystem(1, lambda u, t: lam * u, np.array([1.0]))
    traj = solve_cg1(sys, TimePartition(np.array([0.0, k])))
    expected = (1.0 + 0.5 * k * lam) / (1.0 - 0.5 * k * lam)
    np.testing.assert_allclose(traj.states[1, 0], expected, rtol=1e-11)


def test_reduced_oscillator_matches_closed_form():
    # x'' + x = 1/4 from rest: x(t) = (1/4)(1 - cos t)
    sys = DynamicalSystem(
        2, lambda u, t: np.array([u[1], 0.25 - u[0]]), np.zeros(2)
    )
    traj = solve_cg1(sys, TimePartition.uniform(0, 100.0, 0.01))
    exact = 0.25 * (1.0 - np.cos(traj.times))
    assert np.max(np.abs(traj.states[:, 0] - exact)) <= 1e-2


def test_second_order_convergence():
    sys = DynamicalSystem(1, lambda u, t: -u, np.array([1.0]))
    errors = []
    for k in (0.02, 0.01):
        traj = solve_cg1(sys, TimePartition.uniform(0, 1.0, k))
        errors.append(np.max(np.abs(traj.states[:, 0] - np.exp(-traj.times))))
    ratio = errors[0] / errors[1]
    assert 3.5 <= ratio <= 4.5


def test_energy_conservation_harmonic_oscillator():
    traj = solve_cg1(rotation_system(), TimePartition.uniform(0, 10.0, 0.01))
    energy = 0.5 * np.sum(traj.states**2, axis=1)
    assert np.max(np.abs(np.diff(energy))) < 1e-10


def test_divergence_raises_with_interval():
    sys = DynamicalSystem(1, lambda u, t: -1e4 * u, np.array([1.0]))
    with pytest.raises(ConvergenceError) as exc:
        solve_cg1(sys, TimePartition.uniform(0, 1.0, 0.01))
    assert exc.value.interval == 1
    assert np.isfinite(exc.value.residual) or exc.value.residual == np.inf


def test_overflowing_divergence_raises_without_numpy_warning():
    # the simple model at kappa=1e18 with step 0.01: the iterates overflow
    # within a few iterations, which must surface only as ConvergenceError
    sys = make_simple_model(1e18)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConvergenceError) as exc:
            solve_cg1(sys, TimePartition.uniform(0, 0.1, 0.01))
    assert exc.value.interval == 1
    assert exc.value.contraction >= 1.0


def test_step_guard_raises_at_interval_one_and_spares_the_equilibrium():
    # Newton alone would converge at any step of the A-stable midpoint rule;
    # the guard rejects a step with k*omega/2 = 2 (estimated spectral radius
    # of (k/2) J equal to 2) as soon as a correction needs the Jacobian, and
    # a system at rest never needs one
    part = TimePartition.uniform(0, 40.0, 4.0)
    with pytest.raises(ConvergenceError) as exc:
        solve_cg1(rotation_system(), part)
    assert exc.value.interval == 1
    assert exc.value.contraction == pytest.approx(2.0, rel=1e-12)
    rest = solve_cg1(rotation_system(u0=(0.0, 0.0)), part)
    np.testing.assert_array_equal(rest.states, np.zeros((11, 2)))


@pytest.mark.parametrize("bad", [lambda t: np.nan, lambda t: np.exp(1e4 * t)], ids=["nan", "overflow"])
def test_nonfinite_rhs_raises_evaluation_error_naming_t_and_component(bad):
    # a NaN or an overflow from the rhs is a bad evaluation, not a step that
    # failed to converge, and it surfaces without a numpy warning
    sys = DynamicalSystem(
        2, lambda u, t: np.array([-u[0], bad(t) if t > 0.3 else 0.0]), np.ones(2)
    )
    part = TimePartition.uniform(0, 1.0, 0.1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EvaluationError, match=rf"component 1 is non-finite at t={float(part.times[3] + 0.05)!r}"):
            solve_cg1(sys, part)


def _damped_fixed_point(sys, part, tol=1e-12):
    """Nodal states by the damped fixed-point iteration that chord Newton
    replaced: undamped until the residual grows, then halved down to 1/4."""
    times = part.times
    states = [sys.initial_value]
    for j in range(1, len(times)):
        k = times[j] - times[j - 1]
        t_mid = times[j - 1] + 0.5 * k
        u_prev = v = states[-1]
        damping, res_prev = 1.0, np.inf
        for _ in range(100):
            g = u_prev + k * sys.rhs(0.5 * (u_prev + v), t_mid)
            res = np.linalg.norm(g - v)
            if res <= tol * max(1.0, np.linalg.norm(g)):
                break
            if res > res_prev:
                damping = max(0.25, 0.5 * damping)
            res_prev = res
            v = (1.0 - damping) * v + damping * g
        else:
            raise AssertionError(f"reference did not converge on interval {j}")
        states.append(g)
    return np.array(states)


@pytest.mark.parametrize(
    "sys,tau,step",
    [
        (make_lattice(LatticeSpec(p=3, m=1e-4)), 1.0, 0.002),
        (make_simple_model(1e18), 1e-7, 2e-10),
    ],
    ids=["lattice-p3", "simple-kappa1e18"],
)
def test_chord_newton_matches_damped_fixed_point_on_fit_windows(sys, tau, step):
    # both solvers meet the same 1e-12 stopping rule on every step; over the
    # 1000 steps of an example fit window their states agree to 1e-9 relative
    # to the largest state entry, and chord Newton needs at most 6 rhs calls
    # per step where the damped iteration needed about 20
    calls = 0

    def counted_rhs(u, t):
        nonlocal calls
        calls += 1
        return sys.rhs(u, t)

    chord = resolve_short(dataclasses.replace(sys, rhs=counted_rhs), sys.initial_value, 0.0, tau, step)
    reference = _damped_fixed_point(sys, TimePartition.uniform(0.0, 2.0 * tau, step))
    scale = np.max(np.abs(reference))
    assert np.max(np.abs(chord.states - reference)) <= 1e-9 * scale
    assert calls <= 6 * (len(chord.times) - 1)


def test_fixed_point_tolerance_is_respected():
    lam = -2.0
    sys = DynamicalSystem(1, lambda u, t: lam * u, np.array([1.0]))
    traj = solve_cg1(sys, TimePartition.uniform(0, 1.0, 0.05), SolverOptions())
    # every step satisfies the midpoint relation to tolerance
    for j in range(1, len(traj.times)):
        k = traj.times[j] - traj.times[j - 1]
        mid = 0.5 * (traj.states[j - 1] + traj.states[j])
        defect = traj.states[j] - traj.states[j - 1] - k * lam * mid
        assert abs(defect[0]) <= 1e-11


def test_residuals_zero_for_exactly_solved_system():
    c = np.array([1.5])
    sys = DynamicalSystem(1, lambda u, t: np.zeros(1), c)
    traj = solve_cg1(sys, TimePartition.uniform(0, 1.0, 0.25))
    np.testing.assert_array_equal(residual_samples(traj, sys), np.zeros(4))


def test_residual_midpoint_collocation():
    lam = -1.3
    sys = DynamicalSystem(1, lambda u, t: lam * u, np.array([1.0]))
    traj = solve_cg1(sys, TimePartition.uniform(0, 1.0, 0.1))
    for j in range(1, len(traj.times)):
        k = traj.times[j] - traj.times[j - 1]
        slope = (traj.states[j] - traj.states[j - 1]) / k
        mid = 0.5 * (traj.states[j - 1] + traj.states[j])
        assert abs(slope[0] - lam * mid[0]) <= 1e-10 / k


def test_residual_hand_case_time_dependent_rhs():
    # u' = t over one unit step: slope is 1/2, residual r(t) = 1/2 - t, and
    # the Gauss samples give |k r| = 1/(2 sqrt 3)
    sys = DynamicalSystem(1, lambda u, t: np.array([t]), np.zeros(1))
    traj = solve_cg1(sys, TimePartition(np.array([0.0, 1.0])))
    samples = residual_samples(traj, sys)
    assert samples.shape == (1,)
    np.testing.assert_allclose(samples[0], GAUSS_HALF_WIDTH, rtol=1e-12)


def test_residual_samples_equal_the_per_row_norm():
    # the dot per row is the one np.linalg.norm takes, so no bit may move
    sys = make_lattice(LatticeSpec(p=3, m=1e-4))
    traj = solve_cg1(sys, TimePartition.uniform(0.0, 0.05, 0.001))
    times, k = traj.times, np.diff(traj.times)
    slopes = np.diff(traj.states, axis=0) / k[:, None]
    expected = np.zeros(len(k))
    for offset in (-GAUSS_HALF_WIDTH, GAUSS_HALF_WIDTH):
        t_s = times[:-1] + 0.5 * k + offset * k
        r = slopes - evaluate_rhs(sys, interpolate(times, traj.states, t_s)[1], t_s)
        expected = np.maximum(expected, k * np.array([np.linalg.norm(row) for row in r]))
    assert np.all(expected > 0)
    np.testing.assert_array_equal(residual_samples(traj, sys), expected)


def test_residual_samples_check_every_rhs_value():
    # residual sampling takes rhs values through the same checks as the fit:
    # a scalar would broadcast over both components, a NaN would become the
    # residual
    traj = Trajectory([0.0, 1.0, 2.0], [[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
    scalar = DynamicalSystem(2, lambda u, t: 0.0, np.zeros(2))
    with pytest.raises(ValueError, match=r"rhs returned shape \(\), expected \(2,\)"):
        residual_samples(traj, scalar)
    nan = DynamicalSystem(2, lambda u, t: np.array([t, np.nan]), np.zeros(2))
    t_first = float(0.5 - GAUSS_HALF_WIDTH)
    with pytest.raises(EvaluationError, match=rf"component 1 is non-finite at t={t_first!r}"):
        residual_samples(traj, nan)


def test_uniform_partition_counts():
    part = TimePartition.uniform(0.0, 10.0, 0.01)
    assert len(part.times) == 1001
    np.testing.assert_allclose(part.steps, 0.01)
    with pytest.raises(ValueError):
        TimePartition.uniform(0.0, 1.0, -0.1)
    with pytest.raises(ValueError):
        TimePartition(np.array([0.0, 0.0, 1.0]))


@pytest.mark.parametrize(
    "args, name",
    [
        ((0.0, 1.0, np.inf), "step"),
        ((0.0, 1.0, np.nan), "step"),
        ((0.0, np.inf, 0.1), "t_end"),
        ((-np.inf, 0.0, 0.1), "t_start"),
        ((np.nan, 1.0, 0.1), "t_start"),
    ],
)
def test_uniform_partition_rejects_non_finite_arguments(args, name):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        TimePartition.uniform(*args)


def test_solver_options_validation():
    with pytest.raises(ValueError, match="positive"):
        SolverOptions(0.0)


def test_wrong_shape_rhs_is_rejected_at_the_first_call():
    # a scalar rhs would broadcast over both components and solve silently,
    # on its own and inside the reduced rhs f + g
    calls = []

    def rhs(u, t):
        calls.append(t)
        return -u[0]

    sys = DynamicalSystem(2, rhs, np.array([1.0, 2.0]))
    model = SubgridModel(
        constants=np.zeros(2),
        active=np.ones(2, dtype=bool),
        tau=0.1,
        resolved_step=2e-4,
        oscillation_amplitude=np.zeros(2),
        frozen_deviation=np.zeros(2),
        initial_value=sys.initial_value,
    )
    for system in (sys, assemble_reduced(sys, model)):
        calls.clear()
        with pytest.raises(ValueError, match=r"rhs returned shape \(\), expected \(2,\)"):
            solve_cg1(system, TimePartition.uniform(0, 1.0, 0.01))
        assert len(calls) == 1
