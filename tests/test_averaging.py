import numpy as np
import pytest

import modred.averaging
from conftest import linear_system
from modred import (
    DynamicalSystem,
    Trajectory,
    averaged_values,
    fit_constant_subgrid,
    measure_gbar,
    variance_values,
)
from modred.averaging import interior


def _cosine_trajectory(omega, t_end, nodes_per_period, components=1):
    n = int(round(t_end * omega / (2 * np.pi) * nodes_per_period)) + 1
    ts = np.linspace(0.0, t_end, n)
    states = np.tile(np.cos(omega * ts)[:, None], (1, components))
    return Trajectory(ts, states)


def test_average_preserves_constants():
    traj = Trajectory(np.linspace(0, 1, 51), np.full((51, 2), 3.25))
    ts = [0.0, 0.3, 0.77, 1.0]
    np.testing.assert_allclose(averaged_values(traj, 0.2, ts), np.full((4, 2), 3.25))


def test_centered_average_of_affine_is_exact():
    ts = np.linspace(0, 2, 41)
    traj = Trajectory(ts, (2.0 * ts - 0.5)[:, None])
    t = np.array([0.25, 0.8, 1.5, 1.75])
    np.testing.assert_allclose(averaged_values(traj, 0.5, t)[:, 0], 2.0 * t - 0.5, atol=1e-13)


def test_full_period_average_of_fast_cosine():
    # cos(1e9 t) sampled at 50 nodes per period, window = one period: the
    # analytic average is 0 and the quadrature remainder stays below 1e-3
    omega = 1e9
    period = 2 * np.pi / omega
    traj = _cosine_trajectory(omega, 5 * period, 50)
    ts = np.linspace(1.1 * period, 3.9 * period, 7)
    assert np.max(np.abs(averaged_values(traj, period, ts))) <= 1e-3


def test_constant_extension_at_both_ends():
    ts = np.linspace(0, 1, 101)
    traj = Trajectory(ts, np.sin(3 * ts)[:, None])
    ends = averaged_values(traj, 0.2, [0.0, 0.1, 1.0, 0.9])
    np.testing.assert_array_equal(ends[0], ends[1])
    np.testing.assert_array_equal(ends[2], ends[3])
    out = averaged_values(traj, 0.2, np.linspace(0, 1, 21))
    np.testing.assert_array_equal(out[0], ends[1])


def test_attenuated_oscillation_amplitude_scale():
    # fast oscillator at sqrt(kappa) = 1e9 averaged over tau = 1e-7: the
    # remaining oscillation has amplitude of order 1/(sqrt(kappa) tau) = 1e-2
    omega, tau = 1e9, 1e-7
    traj = _cosine_trajectory(omega, 2e-7, 32)
    out = averaged_values(traj, tau, traj.times[(traj.times >= tau / 2) & (traj.times <= 1.5e-7)])
    amp = np.max(np.abs(out[:, 0]))
    assert 0.1 / (omega * tau) <= amp <= 2.0 / (omega * tau)


def test_linearity_on_shared_nodes(rng):
    ts = np.linspace(0, 1, 201)
    u = rng.normal(size=(201, 2))
    v = rng.normal(size=(201, 2))
    alpha, beta = 1.7, -0.6
    combo = Trajectory(ts, alpha * u + beta * v)
    t = [0.2, 0.5, 0.9]
    expected = alpha * averaged_values(Trajectory(ts, u), 0.3, t) + beta * averaged_values(
        Trajectory(ts, v), 0.3, t
    )
    np.testing.assert_allclose(averaged_values(combo, 0.3, t), expected, atol=1e-13)


def test_window_must_fit_trajectory():
    traj = Trajectory(np.linspace(0, 1, 11), np.zeros((11, 1)))
    with pytest.raises(ValueError, match="window"):
        averaged_values(traj, 1.0, [0.5])
    with pytest.raises(ValueError, match="positive"):
        averaged_values(traj, 0.0, [0.5])


def test_small_window_reproduces_trajectory_values():
    ts = np.linspace(0, 1, 101)
    dt = ts[1] - ts[0]
    traj = Trajectory(ts, np.sin(2 * ts)[:, None])
    t = np.array([0.2, 0.55, 0.8])
    err = np.abs(averaged_values(traj, 2 * dt, t)[:, 0] - np.sin(2 * t))
    assert np.max(err) <= 10.0 * 4.0 * dt**2  # 10x the local curvature bound


def test_variance_vanishes_for_linear_rhs(rng):
    A = rng.normal(size=(3, 3))
    sys = linear_system(A, np.zeros(3))
    ts = np.linspace(0, 2, 301)
    traj = Trajectory(ts, rng.normal(size=(301, 3)).cumsum(axis=0) * 0.01)
    v = variance_values(traj, sys, 0.4, [0.5, 1.0, 1.5])
    assert np.max(np.abs(v)) <= 1e-12


def test_variance_invariant_under_constant_shift():
    c = np.array([0.7, -1.2])

    def f(u, t):
        return np.array([u[1], -u[0]])

    sys_a = DynamicalSystem(2, f, np.zeros(2))
    sys_b = DynamicalSystem(2, lambda u, t: f(u, t) + c, np.zeros(2))
    ts = np.linspace(0, 3, 301)
    traj = Trajectory(ts, np.stack([np.sin(5 * ts), np.cos(7 * ts)], axis=1))
    t = [0.5, 1.5, 2.5]
    va = variance_values(traj, sys_a, 0.5, t)
    vb = variance_values(traj, sys_b, 0.5, t)
    np.testing.assert_allclose(va, vb, atol=1e-13)


def test_variance_of_stiff_oscillator_coupling():
    # analytic trajectory of the stiff two-mass model: u2 = cos(omega t),
    # so the variance of the coupling equation is (mean of u2^2)/2 ~ 1/4
    omega, tau = 1e9, 1e-7
    ts = np.linspace(0, 2e-7, 1001)
    states = np.zeros((len(ts), 4))
    states[:, 1] = np.cos(omega * ts)
    states[:, 3] = -omega * np.sin(omega * ts)
    traj = Trajectory(ts, states)

    def f(u, t):
        return np.array([u[2], u[3], -u[0] + 0.5 * u[1] ** 2, -omega**2 * u[1]])

    sys = DynamicalSystem(4, f, states[0])
    v = variance_values(traj, sys, tau, [tau])[0]
    assert abs(v[2] - 0.25) <= 0.01


def test_mean_square_of_fast_oscillation():
    # the averaged square of a unit-amplitude fast cosine is close to 1/2
    omega, tau = 1e9, 1e-7
    ts = np.linspace(0, 2e-7, 1001)
    traj = Trajectory(ts, (np.cos(omega * ts) ** 2)[:, None])
    val = averaged_values(traj, tau, [tau])[0, 0]
    assert abs(val - 0.5) <= 0.01


def test_variance_refuses_boundary_strips():
    sys = DynamicalSystem(1, lambda u, t: u, np.zeros(1))
    traj = Trajectory(np.linspace(0, 1, 101), np.linspace(0, 1, 101)[:, None])
    with pytest.raises(ValueError, match="interior"):
        variance_values(traj, sys, 0.2, [0.05])
    with pytest.raises(ValueError, match="interior"):
        variance_values(traj, sys, 0.2, [0.95])


def test_variance_exact_for_affine_data(rng):
    # affine trajectory plus affine rhs: variance is identically zero
    a = rng.normal(size=2)
    b = rng.normal(size=2)
    A = rng.normal(size=(2, 2))
    c = rng.normal(size=2)
    sys = DynamicalSystem(2, lambda u, t: A @ u + c * t, np.zeros(2))
    ts = np.linspace(0, 4, 101)
    traj = Trajectory(ts, np.outer(ts, a) + b)
    np.testing.assert_allclose(
        variance_values(traj, sys, 1.0, [1.0, 2.0, 3.0]), np.zeros((3, 2)), atol=1e-13
    )


@pytest.mark.parametrize("ts", [0.5, [[0.5]]], ids=["scalar", "2-D"])
def test_times_that_are_not_1d_fail_before_any_rhs_call(ts):
    calls = []

    def rhs(u, t):
        calls.append(t)
        return u

    sys = DynamicalSystem(1, rhs, np.zeros(1))
    traj = Trajectory(np.linspace(0, 1, 11), np.linspace(0, 1, 11)[:, None])
    with pytest.raises(ValueError, match=r"times of shape"):
        averaged_values(traj, 0.4, ts)
    with pytest.raises(ValueError, match=r"times of shape"):
        variance_values(traj, sys, 0.4, ts)
    assert calls == []


def _reference_window_nodes(traj, tau):
    """The interior-window node rule the fit has always selected by: the
    reference that the averaging module's one rule must reproduce."""
    t0, t1 = traj.span
    lo = t0 + 0.5 * tau
    hi = t1 - 0.5 * tau
    slack = 1e-9 * tau
    return np.flatnonzero((traj.times >= lo - slack) & (traj.times <= hi + slack))


def test_interior_window_keeps_the_reference_node_rule(monkeypatch):
    # nodes 0.5 and 2 slacks (1e-9 * tau) inside and outside both window ends
    tau = 0.4
    lo, hi = 0.5 * tau, 1.0 - 0.5 * tau
    offsets = np.array([-2.0, -0.5, 0.5, 2.0]) * 1e-9 * tau
    times = np.sort(np.concatenate(([0.0, 0.1, 0.5, 0.9, 1.0], lo + offsets, hi + offsets)))
    traj = Trajectory(times, np.sin(3 * times)[:, None])
    sys = DynamicalSystem(1, lambda u, t: u**2, np.zeros(1))
    reference = _reference_window_nodes(traj, tau)
    # half a slack outside an end is in, two slacks outside are out
    assert len(reference) == 7
    assert times[reference[0]] == lo + offsets[1] and times[reference[-1]] == hi + offsets[2]

    inside, window = interior(traj, tau, times)
    np.testing.assert_array_equal(np.flatnonzero(inside), reference)
    assert window == (lo, hi)
    for i, t in enumerate(times):
        if i in reference:
            variance_values(traj, sys, tau, [t])
        else:
            with pytest.raises(ValueError, match="interior window"):
                variance_values(traj, sys, tau, [t])

    # measure_gbar and the fit select the same nodes
    seen = []
    defect = modred.averaging._defect

    def spy(traj_, sys_, tau_, ts, ubar):
        seen.append(ts)
        return defect(traj_, sys_, tau_, ts, ubar)

    monkeypatch.setattr(modred.averaging, "_defect", spy)
    measure_gbar(traj, sys, tau)
    np.testing.assert_array_equal(seen[0], times[reference])
    with pytest.raises(ValueError, match=r"only 7 resolved nodes in the fit window \[0\.2, 0\.8\]"):
        fit_constant_subgrid(traj, sys, tau, 0.1)
