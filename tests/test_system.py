import dataclasses
import re

import numpy as np
import pytest

from conftest import linear_system
from modred import (
    DynamicalSystem,
    EvaluationError,
    LatticeSpec,
    Trajectory,
    evaluate_rhs,
    interpolate,
    jacobian,
    make_simple_model,
)
from modred.system import INTERPOLATE_BLOCK, RHS_BLOCK, row_norms


def test_simple_model_rhs_at_initial_value():
    sys = make_simple_model(1.0)
    f = evaluate_rhs(sys, np.array([[0.0, 1.0, 0.0, 0.0]]), [0.0])
    np.testing.assert_allclose(f, [[0.0, 0.0, 0.5, -1.0]])


def test_zero_field_rhs():
    sys = DynamicalSystem(3, lambda u, t: np.zeros(3), np.ones(3))
    np.testing.assert_array_equal(evaluate_rhs(sys, [sys.initial_value], [0.5]), np.zeros((1, 3)))


def test_linear_rhs_returns_matrix_column(rng):
    A = rng.normal(size=(4, 4))
    sys = linear_system(A, np.zeros(4))
    e1 = np.zeros(4)
    e1[0] = 1.0
    np.testing.assert_allclose(evaluate_rhs(sys, [e1], [0.0]), [A[:, 0]])


def test_rhs_does_not_mutate_input():
    sys = make_simple_model(2.0)
    u = np.array([0.3, -0.2, 0.1, 0.7])
    snapshot = u.copy()
    evaluate_rhs(sys, u[None], [0.1])
    np.testing.assert_array_equal(u, snapshot)


def test_nonfinite_rhs_reports_component():
    def bad(u, t):
        return np.array([0.0, np.inf])

    sys = DynamicalSystem(2, bad, np.zeros(2))
    with pytest.raises(EvaluationError, match="component 1"):
        evaluate_rhs(sys, [sys.initial_value], [0.0])


def test_batch_rhs_names_first_bad_time_and_component():
    def rhs(u, t):
        return np.array([0.0, 1.0 / u[0] if t > 0.2 else 0.0, np.sqrt(u[0]) - 1.0])

    sys = DynamicalSystem(3, rhs, np.ones(3))
    states = np.array([[1.0, 0, 0], [1.0, 0, 0], [0.0, 0, 0], [-1.0, 0, 0]])
    with pytest.raises(EvaluationError, match=r"component 1 is non-finite at t=0\.5 "):
        evaluate_rhs(sys, states, [0.0, 0.25, 0.5, 0.75])


def test_batch_rhs_values_and_plain_float_times():
    seen = []

    def rhs(u, t):
        seen.append(type(t))
        return np.array([t, -u[0]])

    sys = DynamicalSystem(2, rhs, np.zeros(2))
    out = evaluate_rhs(sys, np.array([[1.0, 0.0], [2.0, 0.0]]), np.array([0.1, 0.2]))
    np.testing.assert_array_equal(out, [[0.1, -1.0], [0.2, -2.0]])
    assert seen == [float, float]


def test_batch_rhs_rejects_mismatched_rows():
    sys = DynamicalSystem(2, lambda u, t: -u, np.zeros(2))
    with pytest.raises(ValueError, match=r"states of shape \(3, 2\) for times of shape \(2,\)"):
        evaluate_rhs(sys, np.zeros((3, 2)), [0.0, 1.0])
    with pytest.raises(ValueError, match=r"states of shape \(2,\) for times of shape \(1,\)"):
        evaluate_rhs(sys, np.zeros(2), [0.0])


def test_stacked_rhs_names_the_bad_row_of_a_later_block():
    shapes = []

    def rhs(u, t):
        shapes.append(np.shape(u))
        return 1.0 / u

    sys = DynamicalSystem(2, rhs, np.ones(2), vectorized=True)
    states = np.ones((RHS_BLOCK + 5, 2))
    states[RHS_BLOCK + 3, 1] = 0.0
    times = 0.125 * np.arange(len(states))
    bad_t = float(times[RHS_BLOCK + 3])
    with pytest.raises(EvaluationError, match=re.escape(f"component 1 is non-finite at t={bad_t!r} ")):
        evaluate_rhs(sys, states, times)
    assert shapes == [(RHS_BLOCK, 2), (5, 2)]


def test_stacked_rhs_of_the_wrong_shape_names_both_shapes():
    sys = DynamicalSystem(2, lambda u, t: u[..., :1], np.ones(2), vectorized=True)
    with pytest.raises(ValueError, match=r"rhs returned shape \(3, 1\), expected \(3, 2\)"):
        evaluate_rhs(sys, np.ones((3, 2)), np.zeros(3))


def test_wrapping_rhs_by_replace_keeps_the_stack_contract():
    # the work-count gate and the benchmark's tracer wrap rhs this way
    sys = make_simple_model(1e18)
    wrapped = dataclasses.replace(sys, rhs=lambda u, t: sys.rhs(u, t))
    assert sys.vectorized and wrapped.vectorized
    assert not DynamicalSystem(2, _rhs, np.zeros(2)).vectorized


def test_nonfinite_analytic_jacobian_reports_entry():
    def jac(u, t):
        J = np.zeros((3, 3))
        J[2, 1] = np.nan
        J[2, 2] = np.inf
        return J

    sys = DynamicalSystem(3, lambda u, t: np.zeros(3), np.zeros(3), jacobian=jac)
    with pytest.raises(EvaluationError, match=r"analytic Jacobian entry \(2, 1\)"):
        jacobian(sys, sys.initial_value, 0.0)


def test_nonfinite_fd_jacobian_reports_entry():
    sys = DynamicalSystem(2, lambda u, t: np.array([0.0, np.sqrt(u[0])]), np.zeros(2))
    with np.errstate(invalid="ignore"):
        with pytest.raises(EvaluationError, match=r"finite-difference Jacobian entry \(1, 0\)"):
            jacobian(sys, sys.initial_value, 0.0)


def _interpolate_rows(traj, ts):
    return interpolate(traj.times, traj.states, np.asarray(ts, dtype=float))[1]


def test_interpolate_linear_interpolation():
    traj = Trajectory([0.0, 1.0], [[0.0], [2.0]])
    np.testing.assert_allclose(_interpolate_rows(traj, [0.5]), [[1.0]])


def test_interpolate_nodal_identity():
    traj = Trajectory([0.0, 0.3, 1.0], [[1.0, 2.0], [3.0, -1.0], [0.0, 0.0]])
    np.testing.assert_array_equal(_interpolate_rows(traj, traj.times), traj.states)


def test_interpolate_chord_of_quadratic():
    # nodes of u(t) = t**2 at {0, 0.5, 1}; the chord between (0,0) and
    # (0.5,0.25) evaluates to 0.125 at t = 0.25
    traj = Trajectory([0.0, 0.5, 1.0], [[0.0], [0.25], [1.0]])
    np.testing.assert_allclose(_interpolate_rows(traj, [0.25]), [[0.125]])


def test_interpolate_outside_domain():
    traj = Trajectory([0.0, 1.0], [[0.0], [1.0]])
    with pytest.raises(ValueError, match=r"t=1\.5 outside trajectory domain \[0\.0, 1\.0\]"):
        _interpolate_rows(traj, [0.5, 1.5])
    with pytest.raises(ValueError, match=r"t=-0\.1 outside"):
        _interpolate_rows(traj, [-0.1])
    with pytest.raises(ValueError, match="t=nan outside"):
        _interpolate_rows(traj, [np.nan])


def test_interpolate_exact_for_affine(rng):
    a = rng.normal(size=3)
    b = rng.normal(size=3)
    ts = np.sort(rng.uniform(0, 1, size=10))
    traj = Trajectory(ts, np.outer(ts, a) + b)
    t = rng.uniform(ts[0], ts[-1], size=20)
    np.testing.assert_allclose(_interpolate_rows(traj, t), np.outer(t, a) + b, atol=1e-14)


def test_trajectory_validation():
    with pytest.raises(ValueError):
        Trajectory([0.0], [[1.0]])
    with pytest.raises(ValueError):
        Trajectory([0.0, 0.0], [[1.0], [1.0]])
    with pytest.raises(ValueError):
        Trajectory([1.0, 0.0], [[1.0], [1.0]])


def test_jacobian_scalar_linear():
    kappa = 3.5
    sys = DynamicalSystem(1, lambda u, t: -kappa * u, np.array([1.0]))
    np.testing.assert_allclose(jacobian(sys, np.array([0.7]), 0.0), [[-kappa]], rtol=1e-8)


def test_jacobian_simple_model_row():
    sys = make_simple_model(10.0)
    u = np.array([0.4, -1.3, 0.2, 0.9])
    J = jacobian(sys, u, 0.0)
    np.testing.assert_allclose(J[2], [-1.0, u[1], 0.0, 0.0])
    # finite differences agree with the analytic row
    fd_sys = DynamicalSystem(4, sys.rhs, sys.initial_value)
    np.testing.assert_allclose(jacobian(fd_sys, u, 0.0)[2], J[2], atol=1e-6)


def test_jacobian_constant_rhs_is_zero():
    sys = DynamicalSystem(2, lambda u, t: np.array([1.0, -2.0]), np.zeros(2))
    np.testing.assert_allclose(jacobian(sys, np.array([0.3, 0.4]), 0.0), np.zeros((2, 2)), atol=1e-9)


def test_fd_jacobian_matches_linear_system(rng):
    for _ in range(5):
        A = rng.normal(size=(3, 3))
        sys = linear_system(A, np.zeros(3))
        fd_sys = DynamicalSystem(3, sys.rhs, sys.initial_value)
        u = rng.normal(size=3)
        J = jacobian(fd_sys, u, 0.0)
        assert np.max(np.abs(J - A)) <= 1e-8 * max(1.0, np.max(np.abs(A)))


def test_system_validation():
    with pytest.raises(ValueError):
        DynamicalSystem(0, lambda u, t: u, np.array([]))
    with pytest.raises(ValueError):
        DynamicalSystem(2, lambda u, t: u, np.array([1.0]))
    with pytest.raises(ValueError):
        DynamicalSystem(1, lambda u, t: u, np.array([np.nan]))


def _rhs(u, t):
    return -u


@pytest.mark.parametrize(
    "args,kwargs,match",
    [
        ((2.0, _rhs, np.zeros(2)), {}, "dimension must be an integer"),
        ((2, 1.0, np.zeros(2)), {}, "rhs must be callable"),
        ((2, _rhs, np.zeros(2), 1.0), {}, "jacobian must be callable or None.*takes no final time"),
        # the old (dimension, rhs, u0, final_time, jacobian) order
        ((2, _rhs, np.zeros(2), 1.0, 5.0), {}, "jacobian must be callable or None.*takes no final time"),
        ((2, _rhs, np.zeros(2), 1.0, lambda u, t: -np.eye(2)), {}, "takes no final time"),
        ((2, _rhs, np.zeros(2)), {"jacobian": "analytic"}, "jacobian must be callable or None"),
        ((2, _rhs, np.zeros(2)), {"vectorized": 1}, "vectorized must be a bool, got 1"),
    ],
    ids=["float-dimension", "rhs-not-callable", "final-time-positional", "old-order-5-args",
         "old-order-with-jacobian", "jacobian-not-callable", "vectorized-not-bool"],
)
def test_construction_rejects_a_malformed_or_old_style_call(args, kwargs, match):
    # fails at construction, not with a TypeError inside a later solve
    with pytest.raises(ValueError, match=match):
        DynamicalSystem(*args, **kwargs)


def test_system_takes_no_final_time():
    # the solve's partition sets the span; neither the system nor a spec has one
    names = [f.name for f in dataclasses.fields(DynamicalSystem)]
    assert names == ["dimension", "rhs", "initial_value", "jacobian", "oscillator_pairs", "vectorized"]
    assert "T" not in [f.name for f in dataclasses.fields(LatticeSpec)]
    with pytest.raises(TypeError, match="final_time"):
        DynamicalSystem(2, _rhs, np.zeros(2), final_time=1.0)


def test_fd_jacobian_rejects_wrong_shape_rhs():
    # a scalar rhs would broadcast into every row of the difference quotient
    sys = DynamicalSystem(2, lambda u, t: -u[0], np.array([1.0, 2.0]))
    with pytest.raises(ValueError, match=r"rhs returned shape \(\), expected \(2,\)"):
        jacobian(sys, np.array([1.0, 2.0]), 0.0)


@pytest.mark.parametrize("n", [1, 2, 4, 52, 244, 724])
@pytest.mark.parametrize("rows", [1, INTERPOLATE_BLOCK + 1])
def test_row_norms_equal_the_norm_of_each_row(n, rows, rng):
    # one dot per row, as np.linalg.norm takes it of a 1-D row; a sum along
    # each row would round differently
    for scale in (1e-9, 1e-3, 1.0, 1e5):
        x = scale * rng.standard_normal((rows, n))
        x[1 : rows // 2] = 0.0  # zero rows between nonzero ones when there are several
        norms = row_norms(x)
        assert norms.shape == (rows,) and np.all(norms[[0, -1]] > 0)
        np.testing.assert_array_equal(norms, [np.linalg.norm(row) for row in x])
    np.testing.assert_array_equal(row_norms(np.zeros((1, n))), [0.0])
