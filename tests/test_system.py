import dataclasses
import re

import numpy as np
import pytest

from conftest import linear_system
from modred import (
    DynamicalSystem,
    EvaluationError,
    LatticeSpec,
    SubgridModel,
    Trajectory,
    assemble_reduced,
    evaluate_rhs,
    interpolate,
    jacobian,
    make_lattice,
    make_simple_model,
)
from modred.system import FD_EPS_REL, RHS_BLOCK_VALUES, row_norms, stack_rows


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
    rows = RHS_BLOCK_VALUES // 2
    states = np.ones((rows + 5, 2))
    states[rows + 3, 1] = 0.0
    times = 0.125 * np.arange(len(states))
    bad_t = float(times[rows + 3])
    with pytest.raises(EvaluationError, match=re.escape(f"component 1 is non-finite at t={bad_t!r} ")):
        evaluate_rhs(sys, states, times)
    assert shapes == [(rows, 2), (5, 2)]


@pytest.mark.parametrize("n,rows,calls", [(4, stack_rows(4), 1), (244, 1001, 15)])
def test_stacked_rhs_takes_its_rows_by_a_budget_of_values(n, rows, calls):
    # a small system takes a whole stack, a solver block, in one call; a wide
    # one takes max(1, RHS_BLOCK_VALUES // n) rows, 67 at n = 244
    shapes = []

    def rhs(u, t):
        shapes.append(np.shape(u))
        return 2.0 * u

    sys = DynamicalSystem(n, rhs, np.ones(n), vectorized=True)
    evaluate_rhs(sys, np.ones((rows, n)), np.zeros(rows))
    assert len(shapes) == calls
    assert sum(r for r, _ in shapes) == rows
    assert all(r * n <= RHS_BLOCK_VALUES for r, _ in shapes)


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
    # the rhs is NaN at u0 = -h: evaluate_rhs names the value, with no numpy warning
    sys = DynamicalSystem(2, lambda u, t: np.array([0.0, np.sqrt(u[0])]), np.zeros(2))
    with pytest.raises(EvaluationError, match=re.escape("rhs component 1 is non-finite at t=0.0")):
        jacobian(sys, sys.initial_value, 0.0)


def test_fd_jacobian_difference_overflow_reports_entry():
    # finite rhs values whose difference overflows
    sys = DynamicalSystem(2, lambda u, t: np.array([0.0, 1.5e308 * np.sign(u[0])]), np.zeros(2))
    with pytest.raises(EvaluationError, match=r"finite-difference Jacobian entry \(1, 0\)"):
        jacobian(sys, sys.initial_value, 0.0)


def _fd_jacobian_by_columns(sys, u, t):
    """The finite-difference Jacobian as a per-column loop of single-state rhs calls."""
    n = sys.dimension
    J = np.empty((n, n))
    for j in range(n):
        h = FD_EPS_REL * max(abs(u[j]), 1.0)
        up = u.copy()
        um = u.copy()
        up[j] += h
        um[j] -= h
        J[:, j] = (sys.rhs(up, t) - sys.rhs(um, t)) / (2.0 * h)
    return J


def _fd_systems():
    A = np.array([[0.3, -1.2, 0.5], [2.0, 0.1, -0.7], [-0.4, 0.9, 1.1]])
    return {
        "lattice-p3": dataclasses.replace(make_lattice(LatticeSpec(p=3, m=1e-4)), jacobian=None),
        "lattice-p6": dataclasses.replace(make_lattice(LatticeSpec(p=6, m=1e-4)), jacobian=None),
        "simple": dataclasses.replace(make_simple_model(1e18), jacobian=None),
        "not-vectorized": DynamicalSystem(3, lambda u, t: A @ u + np.sin(u) * t, np.ones(3)),
    }


@pytest.mark.parametrize("name", sorted(_fd_systems()))
def test_fd_jacobian_equals_the_per_column_loop(name, rng):
    sys = _fd_systems()[name]
    for t in (0.0, 0.7, 3.1):
        u = sys.initial_value + rng.normal(scale=0.1, size=sys.dimension)
        np.testing.assert_array_equal(jacobian(sys, u, t), _fd_jacobian_by_columns(sys, u, t))


@pytest.mark.parametrize(
    "name,calls", [("lattice-p3", 1), ("lattice-p6", 8), ("simple", 1), ("not-vectorized", 6)]
)
def test_fd_jacobian_takes_its_states_as_batches(name, calls):
    # 2N perturbed states: stacks of RHS_BLOCK_VALUES // N rows (104 rows in
    # one call at N = 52, 488 in stacks of 67 at N = 244), or one call per row
    sys = _fd_systems()[name]
    shapes = []

    def counted(u, t):
        shapes.append(u.shape)
        return sys.rhs(u, t)

    jacobian(dataclasses.replace(sys, rhs=counted), sys.initial_value, 0.0)
    assert len(shapes) == calls
    assert sum(s[0] if len(s) == 2 else 1 for s in shapes) == 2 * sys.dimension


def _forced_stacked():
    """x'' = -400 x + cos(t) x**2, vectorized, with an analytic Jacobian that
    depends on t."""

    def rhs(u, t):
        x, v = u[..., 0], u[..., 1]
        return np.stack([v, -400.0 * x + np.cos(t) * x * x], axis=-1)

    def jac(u, t):
        J = np.zeros((*u.shape[:-1], 2, 2))
        J[..., 0, 1] = 1.0
        J[..., 1, 0] = -400.0 + 2.0 * np.cos(t) * u[..., 0]
        return J

    return DynamicalSystem(2, rhs, np.array([0.5, 0.0]), jacobian=jac, vectorized=True)


def _stack_contract_systems():
    """Vectorized systems with analytic Jacobians: the built-ins, their reduced
    systems (oscillator pairs frozen), and systems seen from a later time."""
    base = {
        "simple": make_simple_model(1e18),
        "lattice-p2": make_lattice(LatticeSpec(p=2, m=1e-4)),
        "lattice-p3": make_lattice(LatticeSpec(p=3, m=1e-4)),
    }
    systems = {**base, "forced-seen-from": _forced_stacked().seen_from(33.3)}
    for name, sys in base.items():
        active = np.ones(sys.dimension, dtype=bool)
        active[[c for pair in sys.oscillator_pairs for c in pair]] = False
        zeros = np.zeros(sys.dimension)
        model = SubgridModel(zeros, active, 0.1, 1e-3, zeros, zeros, sys.initial_value)
        systems[f"{name}-reduced"] = assemble_reduced(sys, model)
        systems[f"{name}-seen-from"] = sys.seen_from(33.3)
    return systems


@pytest.mark.parametrize("name", sorted(_stack_contract_systems()))
def test_stacked_jacobian_slices_equal_single_state_calls(name, rng):
    sys = _stack_contract_systems()[name]
    assert sys.vectorized and sys.jacobian is not None
    rows = 5
    states = sys.initial_value + rng.normal(scale=0.1, size=(rows, sys.dimension))
    times = np.linspace(0.0, 2.0, rows)
    per_state = np.array([sys.jacobian(u, t) for u, t in zip(states, times.tolist())])
    stacked = sys.jacobian(states, times)
    assert stacked.shape == (rows, sys.dimension, sys.dimension)
    np.testing.assert_array_equal(stacked.view(np.int64), per_state.view(np.int64))
    np.testing.assert_array_equal(jacobian(sys, states, times).view(np.int64), per_state.view(np.int64))


def test_seen_from_stacks_its_jacobian_at_the_shifted_times(rng):
    sys = _forced_stacked()
    states = rng.normal(size=(3, 2))
    s = np.array([0.0, 0.25, 1.0])
    np.testing.assert_array_equal(sys.seen_from(33.3).jacobian(states, s), sys.jacobian(states, 33.3 + s))


@pytest.mark.parametrize(
    "vectorized,analytic,calls",
    [(True, True, [(3, 2)]), (False, True, [(2,)] * 3), (True, False, [])],
    ids=["vectorized-analytic", "not-vectorized", "finite-difference"],
)
def test_jacobian_takes_a_stack_in_one_call_only_when_vectorized_and_analytic(vectorized, analytic, calls, rng):
    # every other system goes row by row through the single-state path
    base = _forced_stacked()
    seen = []

    def recorded(u, t):
        seen.append(u.shape)
        return base.jacobian(u, t)

    sys = dataclasses.replace(base, jacobian=recorded if analytic else None, vectorized=vectorized)
    states = rng.normal(size=(3, 2))
    times = np.array([0.0, 0.5, 2.0])
    per_state = np.array([jacobian(sys, u, t) for u, t in zip(states, times.tolist())])
    seen.clear()
    np.testing.assert_array_equal(jacobian(sys, states, times).view(np.int64), per_state.view(np.int64))
    assert seen == calls


def test_stacked_jacobian_checks_its_shape_and_names_the_bad_row_time():
    def infinite_late(u, t):
        J = np.zeros((*u.shape[:-1], 2, 2))
        J[..., 1, 0] = np.where(np.asarray(t) > 0.6, np.inf, 0.0)
        return J

    sys = DynamicalSystem(2, _rhs, np.zeros(2), jacobian=infinite_late, vectorized=True)
    states, times = np.zeros((4, 2)), np.array([0.0, 0.5, 0.7, 1.0])
    with pytest.raises(EvaluationError, match=re.escape("analytic Jacobian entry (1, 0) is non-finite at t=0.7")):
        jacobian(sys, states, times)
    with pytest.raises(ValueError, match=re.escape("states of shape (4, 2) for times of shape (3,)")):
        jacobian(sys, states, times[:3])
    blind = dataclasses.replace(sys, jacobian=lambda u, t: np.zeros((2, 2)))
    with pytest.raises(ValueError, match=re.escape("jacobian returned shape (2, 2), expected (4, 2, 2)")):
        jacobian(blind, states, times)


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


@pytest.mark.parametrize("ts", [0.5, [[0.5]]], ids=["scalar", "2-D"])
def test_interpolate_refuses_times_that_are_not_1d(ts):
    # a scalar time raised IndexError, and [[0.5]] returned a 3-D array
    traj = Trajectory([0.0, 1.0], [[0.0], [2.0]])
    with pytest.raises(ValueError, match=re.escape(f"times of shape {np.shape(ts)}, expected a 1-D array")):
        _interpolate_rows(traj, ts)


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
    with pytest.raises(ValueError, match="3 states for 2 time nodes"):
        Trajectory([0.0, 1.0], [[1.0], [2.0], [3.0]])
    with pytest.raises(ValueError, match="states contain non-finite entries"):
        Trajectory([0.0, 1.0], [[1.0], [np.inf]])


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
        ((2, _rhs, np.zeros(2)), {"oscillator_pairs": ((0, 2),)}, r"oscillator pair \(0, 2\) out of range"),
    ],
    ids=["float-dimension", "rhs-not-callable", "final-time-positional", "old-order-5-args",
         "old-order-with-jacobian", "jacobian-not-callable", "vectorized-not-bool", "pair-out-of-range"],
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
@pytest.mark.parametrize("rows", [1, 1025])
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
