import dataclasses
import re

import numpy as np
import pytest

import modred.averaging
from conftest import forced_oscillator, linear_system, rhs_counted
from modred import (
    DynamicalSystem,
    EvaluationError,
    SubgridModel,
    TimePartition,
    Trajectory,
    assemble_reduced,
    auto_model,
    evaluate_rhs,
    fit_constant_subgrid,
    make_simple_model,
    measure_gbar,
    resolve_short,
    solve_cg1,
)
from modred.reduction import format_model_report, parse_model_report


def test_unresolved_window_names_the_contraction_estimate():
    # kappa=4e20 at step 2e-10: (k/2) * sqrt(kappa) = 2, so the first step
    # that evaluates the Jacobian is rejected, and the message says why
    sys = make_simple_model(4e20)
    with pytest.raises(RuntimeError, match=r"resolved run from t=0 failed: cG\(1\) step on interval 1 ") as exc:
        resolve_short(sys, sys.initial_value, 0.0, 1e-7, 2e-10)
    assert "spectral radius of (k/2)J estimated at 2.000e+00 >= 1" in str(exc.value)
    assert "use a smaller resolved_step than 2e-10" in str(exc.value)


@pytest.fixture(scope="module")
def stiff_modeling():
    sys = make_simple_model(1e18)
    reduced, model, resolved = auto_model(sys, 1e-7, 2e-10)
    return sys, reduced, model, resolved


def test_resolve_short_node_count_and_periods(stiff_modeling):
    _, _, _, resolved = stiff_modeling
    assert len(resolved.times) == 1001  # 1000 uniform steps over [0, 2e-7]
    u2 = resolved.states[:, 1]
    crossings = int(np.sum(u2[1:] * u2[:-1] < 0))
    # about 31.8 oscillation periods, two crossings per period
    assert 61 <= crossings <= 66


def test_resolve_short_constant_field():
    sys = DynamicalSystem(2, lambda u, t: np.zeros(2), np.array([1.0, -1.0]))
    traj = resolve_short(sys, sys.initial_value, 0.0, 0.5, 0.001)
    np.testing.assert_array_equal(traj.states, np.tile(sys.initial_value, (len(traj.times), 1)))


def test_resolve_short_exponential_endpoint():
    sys = DynamicalSystem(1, lambda u, t: -u, np.array([2.0]))
    traj = resolve_short(sys, sys.initial_value, 0.0, 0.5, 0.002)
    np.testing.assert_allclose(traj.times[-1], 1.0)
    assert abs(traj.states[-1, 0] - 2.0 * np.exp(-1.0)) <= 1e-4


def test_a_window_longer_than_the_run_fails_in_the_averaging_check(stiff_modeling):
    # the fit reported "only 0 resolved nodes in the fit window [5e-07, -3e-07]"
    # and measure_gbar "resolved run too short"; both now name tau and the span
    sys, _, _, resolved = stiff_modeling
    message = re.escape("window tau=1e-06 does not fit inside the trajectory span [0.0, 2e-07]")
    with pytest.raises(ValueError, match=message):
        fit_constant_subgrid(resolved, sys, 1e-6, 2e-10)
    with pytest.raises(ValueError, match=message):
        measure_gbar(resolved, sys, 1e-6)


def test_a_fit_and_a_control_point_each_average_their_run_twice(stiff_modeling, monkeypatch):
    # the fit takes ubar on the window and at its left edge (the reduced
    # start) in one call and hands it to measure_gbar, which averages f(u);
    # a control point's measure_gbar averages f(u) and u once each
    sys, _, model, resolved = stiff_modeling
    calls = []
    integrals = modred.averaging._window_integrals

    def counted(*args):
        calls.append(args)
        return integrals(*args)

    monkeypatch.setattr(modred.averaging, "_window_integrals", counted)
    refit = fit_constant_subgrid(resolved, sys, model.tau, model.resolved_step)
    assert len(calls) == 2
    assert format_model_report(refit) == format_model_report(model)
    calls.clear()
    measure_gbar(resolved, sys, model.tau)
    assert len(calls) == 2


@pytest.mark.parametrize("t_c", [33.3, 2000.0, 1e7])
def test_window_from_a_control_time_steps_on_the_fit_partition(t_c):
    # on an absolute partition the nodes rounded to ulp(t_c): the chord matrix
    # missed the jittered steps (2.88 and 2.79 rhs rows per step at 33.3 and
    # 2000, against 2.00 from t = 0) and at 1e7 the nodes stopped increasing;
    # the local clock gives every window the fit's steps, so the autonomous
    # model's window is that from t = 0, bit for bit, at the same rhs rows
    sys = make_simple_model(1e18)
    tau, step = 1e-7, 2e-10
    u = sys.initial_value
    counted_fit, fit_counts = rhs_counted(sys)
    fit = resolve_short(counted_fit, u, 0.0, tau, step)
    counted, counts = rhs_counted(sys)
    window = resolve_short(counted, u, t_c, tau, step)
    assert counts["rows"] == fit_counts["rows"] < 2 * (len(fit.times) - 1)
    np.testing.assert_array_equal(window.times, fit.times)
    np.testing.assert_array_equal(window.states, fit.states)
    gbar = measure_gbar(window, sys.seen_from(t_c), tau)
    np.testing.assert_array_equal(gbar, measure_gbar(fit, sys, tau))


def test_seen_from_calls_the_system_at_the_shifted_time():
    sys = forced_oscillator()
    assert sys.seen_from(0.0) is sys
    shifted = sys.seen_from(5.0)
    u = np.array([0.3, -2.0])
    for s in (0.0, 0.25, 1.0):
        np.testing.assert_array_equal(shifted.rhs(u, s), sys.rhs(u, 5.0 + s))
        np.testing.assert_array_equal(shifted.jacobian(u, s), sys.jacobian(u, 5.0 + s))
    assert shifted.dimension == sys.dimension and shifted.oscillator_pairs == sys.oscillator_pairs
    np.testing.assert_array_equal(shifted.initial_value, sys.initial_value)


def test_window_of_a_time_dependent_system_matches_an_absolute_solve():
    # at a moderate t_c the absolute partition's nodes sit within a few ulp(t_c)
    # of the local ones, so both runs agree to far below the solver tolerance
    sys = forced_oscillator()
    tau, step, t_c = 0.5, 1e-3, 5.0
    u = np.array([0.4, 1.0])
    window = resolve_short(sys, u, t_c, tau, step)
    direct = solve_cg1(
        dataclasses.replace(sys, initial_value=u), TimePartition.uniform(t_c, t_c + 2 * tau, step)
    )
    assert window.times[0] == 0.0 and window.times[-1] == 2 * tau
    np.testing.assert_allclose(window.times + t_c, direct.times, rtol=0, atol=1e-13)
    np.testing.assert_allclose(window.states, direct.states, rtol=0, atol=1e-10)
    gbar = measure_gbar(window, sys.seen_from(t_c), tau)
    assert np.max(np.abs(gbar)) > 1e-3  # the forcing is measured, not zero
    np.testing.assert_allclose(gbar, measure_gbar(direct, sys, tau), rtol=0, atol=1e-9)
    # the same window measured on the unshifted clock sees another forcing
    assert np.max(np.abs(measure_gbar(window, sys, tau) - gbar)) > 1e-3


def test_window_evaluation_error_names_the_window_start():
    # the solver names the local time; the message adds where the window starts
    sys = DynamicalSystem(1, lambda u, t: u / (t < 5.5), np.array([1.0]))
    with pytest.raises(EvaluationError, match=r"resolved run from t=5, in its local time: rhs component 0 is non-finite at t=0\.505 "):
        resolve_short(sys, sys.initial_value, 5.0, 0.5, 0.01)


def test_auto_model_resolved_step_bound():
    # the advised maximum step leaves MIN_WINDOW_NODES nodes in the fit
    # window [tau/2, 3*tau/2], so a step just under it passes the fit
    sys = make_simple_model(1e4)
    with pytest.raises(ValueError, match="at most 0.0005"):
        auto_model(sys, 0.1, 0.00051)
    for step in (0.0005, 0.000499):
        _, model, _ = auto_model(sys, 0.1, step)
        assert np.all(np.isfinite(model.constants))


def test_fit_simple_model_constant_and_mask(stiff_modeling):
    _, _, model, _ = stiff_modeling
    assert abs(model.constants[2] - 0.2495) <= 0.005
    assert list(model.active) == [True, False, True, False]
    assert model.constants[1] == 0.0 and model.constants[3] == 0.0
    # recorded oscillation amplitude of the fast position component is ~1
    assert 0.9 <= abs(model.oscillation_amplitude[1]) <= 1.1


def test_fit_linear_system_all_active_zero_constants(rng):
    # slow LTI dynamics: no component may be frozen and the fitted constants
    # vanish to quadrature accuracy
    A = np.array([[0.0, 1.0], [-0.04, 0.0]])
    sys = linear_system(A, [1.0, 0.0])
    reduced, model, resolved = auto_model(sys, 0.5, 0.001)
    assert model.active.all()
    f0 = evaluate_rhs(sys, [sys.initial_value], [0.0])
    assert np.max(np.abs(model.constants)) <= 1e-6 * np.max(np.abs(f0)) + 1e-12


def test_fit_zero_field_keeps_everything_active():
    sys = DynamicalSystem(3, lambda u, t: np.zeros(3), np.ones(3))
    _, model, _ = auto_model(sys, 0.5, 0.001)
    assert model.active.all()
    np.testing.assert_array_equal(model.constants, np.zeros(3))


def test_fit_refuses_sparse_window():
    ts = np.linspace(0, 1, 21)
    traj = Trajectory(ts, np.zeros((21, 1)))
    sys = DynamicalSystem(1, lambda u, t: np.zeros(1), np.zeros(1))
    with pytest.raises(ValueError, match="nodes"):
        fit_constant_subgrid(traj, sys, 0.5, 0.001)


def test_fit_refuses_underresolved_oscillation():
    # a unit-amplitude oscillation at ~8 nodes per period is below the
    # quadrature requirement (the window itself holds plenty of nodes)
    omega = 400.0
    ts = np.linspace(0, 1, 501)
    traj = Trajectory(ts, np.cos(omega * ts)[:, None])
    sys = DynamicalSystem(1, lambda u, t: np.zeros(1), np.array([1.0]))
    with pytest.raises(ValueError, match="nodes per"):
        fit_constant_subgrid(traj, sys, 0.5, 0.001)

    # with two macroscopic oscillations (~10.5 and ~4.5 nodes per period) and
    # a slow ramp, the figure is the per-component reference loop's minimum
    traj = Trajectory(ts, np.stack([np.cos(300 * ts), np.cos(700 * ts), 0.1 * ts], axis=1))
    sys = DynamicalSystem(3, lambda u, t: np.zeros(3), traj.states[0])
    window = traj.states[(ts >= 0.25) & (ts <= 0.75)]
    worst = np.inf
    for i in (0, 1):
        d = np.diff(window[:, i])
        worst = min(worst, 2.0 * (len(window) - 1) / int(np.sum(d[1:] * d[:-1] < 0.0)))
    with pytest.raises(ValueError, match=rf"~{worst:.1f} nodes per period"):
        fit_constant_subgrid(traj, sys, 0.5, 0.001)


def test_build_reduced_rhs_combines_forcing_and_freezing(stiff_modeling):
    sys, reduced, model, _ = stiff_modeling
    u = np.array([0.3, model.initial_value[1], -0.1, model.initial_value[3]])
    out = evaluate_rhs(reduced, [u], [0.0])[0]
    expected_3 = -u[0] + 0.5 * u[1] ** 2 + model.constants[2]
    np.testing.assert_allclose(out[2], expected_3, rtol=1e-12)
    assert out[1] == 0.0 and out[3] == 0.0  # frozen components do not move
    # frozen fast position sits near the (vanishing) average
    assert abs(model.initial_value[1]) <= 1e-2


def test_identity_reduction_reproduces_original(rng):
    A = np.array([[0.0, 1.0], [-0.09, 0.0]])
    sys = linear_system(A, [1.0, 0.5])
    reduced, model, resolved = auto_model(sys, 0.25, 5e-4)
    part = TimePartition.uniform(0, 5.0, 0.01)
    full = solve_cg1(sys, part)
    red = solve_cg1(
        dataclasses.replace(reduced, initial_value=sys.initial_value), part
    )
    # same dynamics up to the tiny fitted constants
    assert np.max(np.abs(full.states - red.states)) <= 1e-8


def test_all_inactive_model_freezes_everything():
    sys = DynamicalSystem(2, lambda u, t: np.array([u[1], -u[0]]), np.array([1.0, 0.0]))
    model = SubgridModel(
        constants=np.zeros(2),
        active=np.array([False, False]),
        tau=0.1,
        resolved_step=2e-4,
        oscillation_amplitude=np.zeros(2),
        frozen_deviation=np.zeros(2),
        initial_value=np.array([0.99, -0.1]),
    )
    reduced = assemble_reduced(sys, model)
    traj = solve_cg1(reduced, TimePartition.uniform(0, 5.0, 0.1))
    np.testing.assert_array_equal(traj.states, np.tile(model.initial_value, (51, 1)))


def test_frozen_components_exact_at_all_nodes(stiff_modeling):
    _, reduced, model, _ = stiff_modeling
    traj = solve_cg1(reduced, TimePartition.uniform(0, 10.0, 0.01))
    for i in np.flatnonzero(~model.active):
        assert np.all(traj.states[:, i] == model.initial_value[i])


def test_subgrid_model_invariants():
    with pytest.raises(ValueError, match="zero"):
        SubgridModel(
            constants=np.array([1.0]),
            active=np.array([False]),
            tau=0.1,
            resolved_step=2e-4,
            oscillation_amplitude=np.zeros(1),
            frozen_deviation=np.zeros(1),
            initial_value=np.zeros(1),
        )


def test_subgrid_model_needs_positive_resolved_step(stiff_modeling):
    _, _, model, _ = stiff_modeling
    for step in (0.0, -1e-10):
        with pytest.raises(ValueError, match="resolved_step must be positive"):
            dataclasses.replace(model, resolved_step=step)


def test_model_report_round_trip(stiff_modeling):
    _, _, model, _ = stiff_modeling
    text = format_model_report(model)
    lines = text.strip().splitlines()
    assert "2 inactive 0" in lines
    assert "4 inactive 0" in lines
    assert any(line.startswith("3 active 0.24") for line in lines)
    parsed = parse_model_report(text)
    np.testing.assert_array_equal(parsed.constants, model.constants)
    np.testing.assert_array_equal(parsed.active, model.active)
    np.testing.assert_array_equal(parsed.oscillation_amplitude, model.oscillation_amplitude)
    np.testing.assert_array_equal(parsed.initial_value, model.initial_value)
    assert parsed.tau == model.tau and parsed.resolved_step == model.resolved_step


@pytest.mark.parametrize("value", ["", "1e-07 2e-07"])
def test_model_report_scalar_header_needs_one_value(stiff_modeling, value):
    _, _, model, _ = stiff_modeling
    lines = format_model_report(model).splitlines()
    text = "\n".join(f"# tau = {value}" if line.startswith("# tau") else line for line in lines)
    with pytest.raises(ValueError, match=r"'# tau' must hold one value"):
        parse_model_report(text)


def test_model_of_another_dimension_is_not_assembled(stiff_modeling):
    _, _, model, _ = stiff_modeling
    sys = DynamicalSystem(2, lambda u, t: -u, np.zeros(2))
    with pytest.raises(ValueError, match="model dimension does not match the system"):
        assemble_reduced(sys, model)


def test_modeling_options_validation(stiff_modeling):
    # the window is checked where it enters, before any resolved step, and
    # where it is kept for the control points
    sys, _, model, _ = stiff_modeling
    for tau, step, message in (
        (0.0, 0.002, "tau must be positive, got 0.0"),
        (1.0, 0.0, "resolved_step must be positive, got 0.0"),
        (1.0, -0.5, "resolved_step must be positive, got -0.5"),
    ):
        with pytest.raises(ValueError, match=message):
            auto_model(sys, tau, step)
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(model, tau=tau, resolved_step=step)
