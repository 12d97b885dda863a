import numpy as np
import pytest

from conftest import linear_system
from modred import (
    DynamicalSystem,
    EvaluationError,
    SimpleModelSpec,
    Trajectory,
    evaluate_rhs,
    jacobian,
    make_simple_model,
    trajectory_eval,
)


def test_simple_model_rhs_at_initial_value():
    sys = make_simple_model(SimpleModelSpec(kappa=1.0, T=1.0))
    f = evaluate_rhs(sys, np.array([0.0, 1.0, 0.0, 0.0]), 0.0)
    np.testing.assert_allclose(f, [0.0, 0.0, 0.5, -1.0])


def test_zero_field_rhs():
    sys = DynamicalSystem(3, lambda u, t: np.zeros(3), np.ones(3), 1.0)
    np.testing.assert_array_equal(evaluate_rhs(sys, sys.initial_value, 0.5), np.zeros(3))


def test_linear_rhs_returns_matrix_column(rng):
    A = rng.normal(size=(4, 4))
    sys = linear_system(A, np.zeros(4), 1.0)
    e1 = np.zeros(4)
    e1[0] = 1.0
    np.testing.assert_allclose(evaluate_rhs(sys, e1, 0.0), A[:, 0])


def test_rhs_does_not_mutate_input():
    sys = make_simple_model(SimpleModelSpec(kappa=2.0, T=1.0))
    u = np.array([0.3, -0.2, 0.1, 0.7])
    snapshot = u.copy()
    evaluate_rhs(sys, u, 0.1)
    np.testing.assert_array_equal(u, snapshot)


def test_nonfinite_rhs_reports_component():
    def bad(u, t):
        return np.array([0.0, np.inf])

    sys = DynamicalSystem(2, bad, np.zeros(2), 1.0)
    with pytest.raises(EvaluationError, match="component 1"):
        evaluate_rhs(sys, sys.initial_value, 0.0)


def test_nonfinite_analytic_jacobian_reports_entry():
    def jac(u, t):
        J = np.zeros((3, 3))
        J[2, 1] = np.nan
        J[2, 2] = np.inf
        return J

    sys = DynamicalSystem(3, lambda u, t: np.zeros(3), np.zeros(3), 1.0, jacobian=jac)
    with pytest.raises(EvaluationError, match=r"analytic Jacobian entry \(2, 1\)"):
        jacobian(sys, sys.initial_value, 0.0)


def test_nonfinite_fd_jacobian_reports_entry():
    sys = DynamicalSystem(2, lambda u, t: np.array([0.0, np.sqrt(u[0])]), np.zeros(2), 1.0)
    with np.errstate(invalid="ignore"):
        with pytest.raises(EvaluationError, match=r"finite-difference Jacobian entry \(1, 0\)"):
            jacobian(sys, sys.initial_value, 0.0)


def test_trajectory_eval_linear_interpolation():
    traj = Trajectory([0.0, 1.0], [[0.0], [2.0]])
    np.testing.assert_allclose(trajectory_eval(traj, 0.5), [1.0])


def test_trajectory_eval_nodal_identity():
    traj = Trajectory([0.0, 0.3, 1.0], [[1.0, 2.0], [3.0, -1.0], [0.0, 0.0]])
    for i, t in enumerate(traj.times):
        np.testing.assert_array_equal(trajectory_eval(traj, float(t)), traj.states[i])


def test_trajectory_eval_chord_of_quadratic():
    # nodes of u(t) = t**2 at {0, 0.5, 1}; the chord between (0,0) and
    # (0.5,0.25) evaluates to 0.125 at t = 0.25
    traj = Trajectory([0.0, 0.5, 1.0], [[0.0], [0.25], [1.0]])
    np.testing.assert_allclose(trajectory_eval(traj, 0.25), [0.125])


def test_trajectory_eval_outside_domain():
    traj = Trajectory([0.0, 1.0], [[0.0], [1.0]])
    with pytest.raises(ValueError, match="outside"):
        trajectory_eval(traj, 1.5)
    with pytest.raises(ValueError, match="outside"):
        trajectory_eval(traj, -0.1)


def test_trajectory_eval_exact_for_affine(rng):
    a = rng.normal(size=3)
    b = rng.normal(size=3)
    ts = np.sort(rng.uniform(0, 1, size=10))
    traj = Trajectory(ts, np.outer(ts, a) + b)
    for t in rng.uniform(ts[0], ts[-1], size=20):
        np.testing.assert_allclose(trajectory_eval(traj, t), a * t + b, atol=1e-14)


def test_trajectory_validation():
    with pytest.raises(ValueError):
        Trajectory([0.0], [[1.0]])
    with pytest.raises(ValueError):
        Trajectory([0.0, 0.0], [[1.0], [1.0]])
    with pytest.raises(ValueError):
        Trajectory([1.0, 0.0], [[1.0], [1.0]])


def test_jacobian_scalar_linear():
    kappa = 3.5
    sys = DynamicalSystem(1, lambda u, t: -kappa * u, np.array([1.0]), 1.0)
    np.testing.assert_allclose(jacobian(sys, np.array([0.7]), 0.0), [[-kappa]], rtol=1e-8)


def test_jacobian_simple_model_row():
    sys = make_simple_model(SimpleModelSpec(kappa=10.0, T=1.0))
    u = np.array([0.4, -1.3, 0.2, 0.9])
    J = jacobian(sys, u, 0.0)
    np.testing.assert_allclose(J[2], [-1.0, u[1], 0.0, 0.0])
    # finite differences agree with the analytic row
    fd_sys = DynamicalSystem(4, sys.rhs, sys.initial_value, 1.0)
    np.testing.assert_allclose(jacobian(fd_sys, u, 0.0)[2], J[2], atol=1e-6)


def test_jacobian_constant_rhs_is_zero():
    sys = DynamicalSystem(2, lambda u, t: np.array([1.0, -2.0]), np.zeros(2), 1.0)
    np.testing.assert_allclose(jacobian(sys, np.array([0.3, 0.4]), 0.0), np.zeros((2, 2)), atol=1e-9)


def test_fd_jacobian_matches_linear_system(rng):
    for _ in range(5):
        A = rng.normal(size=(3, 3))
        sys = linear_system(A, np.zeros(3), 1.0)
        fd_sys = DynamicalSystem(3, sys.rhs, sys.initial_value, 1.0)
        u = rng.normal(size=3)
        J = jacobian(fd_sys, u, 0.0)
        assert np.max(np.abs(J - A)) <= 1e-8 * max(1.0, np.max(np.abs(A)))


def test_system_validation():
    with pytest.raises(ValueError):
        DynamicalSystem(0, lambda u, t: u, np.array([]), 1.0)
    with pytest.raises(ValueError):
        DynamicalSystem(1, lambda u, t: u, np.array([1.0]), 0.0)
    with pytest.raises(ValueError):
        DynamicalSystem(2, lambda u, t: u, np.array([1.0]), 1.0)
    with pytest.raises(ValueError):
        DynamicalSystem(1, lambda u, t: u, np.array([np.nan]), 1.0)
