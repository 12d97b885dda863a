import dataclasses
import gc
import weakref

import numpy as np
import pytest

import modred.dual
from conftest import forced_oscillator, rotation_exact, rotation_system
from modred import (
    ControlPoint,
    ConvergenceError,
    DualProblem,
    DynamicalSystem,
    LatticeSpec,
    SubgridModel,
    TimePartition,
    Trajectory,
    assemble_reduced,
    auto_model,
    averaged_values,
    error_estimate,
    estimate_run,
    interpolate,
    jacobian,
    make_lattice,
    make_simple_model,
    reduce_run,
    solve_cg1,
    solve_dual,
    stability_factors,
    validate_at_control_points,
)
from modred.cli import RunConfig
from modred.integrator import BLOCK_CROSSOVER
from modred.averaging import measure_gbar

GAUSS_HALF_WIDTH = 0.5 / np.sqrt(3.0)


@pytest.mark.parametrize("a", [-1.0, 1.0])
def test_scalar_adjoint_closed_form(a):
    # -phi' = a phi with phi(T) = 1 gives phi(t) = exp(a (T - t)),
    # so phi(0) = exp(a) at T = 1
    sys = DynamicalSystem(1, lambda u, t: a * u, np.array([1.0]))
    traj = solve_cg1(sys, TimePartition.uniform(0, 1.0, 1e-3))
    phi = solve_dual(DualProblem(primal=traj, sys=sys, psi=np.array([1.0])), 1e-3)
    assert abs(phi.states[0, 0] - np.exp(a)) <= 1e-4
    ts = phi.times
    np.testing.assert_allclose(phi.states[:, 0], np.exp(a * (1.0 - ts)), atol=1e-4)


def test_constant_jacobian_free_dual():
    sys = DynamicalSystem(2, lambda u, t: np.array([1.0, 2.0]), np.zeros(2))
    traj = solve_cg1(sys, TimePartition.uniform(0, 5.0, 0.1))
    psi = np.array([0.3, -0.7])
    phi = solve_dual(DualProblem(primal=traj, sys=sys, psi=psi), 0.1)
    np.testing.assert_allclose(phi.states, np.tile(psi, (len(phi.times), 1)), atol=1e-12)


def test_error_representation_matches_direct_error():
    # for a linear system the dual representation of the output error is an
    # identity; evaluate it with the analytic adjoint and Gauss quadrature
    sys = rotation_system()
    k = 0.01
    U = solve_cg1(sys, TimePartition.uniform(0, 1.0, k))
    psi = np.array([1.0, 0.0])
    e_true = float((U.states[-1] - rotation_exact(sys.initial_value, 1.0)) @ psi)

    def phi_exact(t):
        s = 1.0 - t
        return np.array([np.cos(s), np.sin(s)])

    A = np.array([[0.0, 1.0], [-1.0, 0.0]])
    rep = 0.0
    for j in range(len(U.times) - 1):
        t0, t1 = U.times[j], U.times[j + 1]
        kk = t1 - t0
        slope = (U.states[j + 1] - U.states[j]) / kk
        for xi in (0.5 - GAUSS_HALF_WIDTH, 0.5 + GAUSS_HALF_WIDTH):
            t_s = t0 + xi * kk
            u_s = (1 - xi) * U.states[j] + xi * U.states[j + 1]
            rep += 0.5 * kk * float(phi_exact(t_s) @ (slope - A @ u_s))
    assert abs(rep - e_true) <= 1e-6


def test_stability_factors_constant_dual():
    phi = Trajectory(np.array([0.0, 10.0]), np.array([[1.0], [1.0]]))
    s0, s1 = stability_factors(phi)
    assert s0 == pytest.approx(10.0)
    assert s1 == 0.0


def test_stability_factors_exponential():
    ts = np.linspace(0, 1, 2001)
    phi = Trajectory(ts, np.exp(-(1.0 - ts))[:, None])
    s0, s1 = stability_factors(phi)
    assert abs(s0 - (1 - np.exp(-1))) <= 1e-6
    assert abs(s1 - (1 - np.exp(-1))) <= 1e-12


def test_stability_factors_homogeneous_in_psi():
    sys = rotation_system()
    traj = solve_cg1(sys, TimePartition.uniform(0, 2.0, 0.01))
    psi = np.array([0.6, 0.8])
    phi1 = solve_dual(DualProblem(primal=traj, sys=sys, psi=psi), 0.01)
    phi2 = solve_dual(DualProblem(primal=traj, sys=sys, psi=2.0 * psi), 0.01)
    np.testing.assert_allclose(2.0 * phi1.states, phi2.states, rtol=1e-12)
    s = stability_factors(phi1)
    s2 = stability_factors(phi2)
    assert s2[0] == pytest.approx(2.0 * s[0], rel=1e-12)
    assert s2[1] == pytest.approx(2.0 * s[1], rel=1e-12)


def test_stability_factors_orientation_invariant():
    # reversing the bookkeeping (s = T - t) must not change the factors
    sys = rotation_system()
    traj = solve_cg1(sys, TimePartition.uniform(0, 1.0, 0.02))
    phi = solve_dual(DualProblem(primal=traj, sys=sys, psi=np.array([1.0, 0.0])), 0.02)
    reversed_phi = Trajectory((1.0 - phi.times)[::-1], phi.states[::-1])
    assert stability_factors(phi) == pytest.approx(stability_factors(reversed_phi))


def _trivial_model(n, tau, u0):
    return SubgridModel(
        constants=np.zeros(n),
        active=np.ones(n, dtype=bool),
        tau=tau,
        resolved_step=tau / 500,
        oscillation_amplitude=np.zeros(n),
        frozen_deviation=np.zeros(n),
        initial_value=u0,
    )


def _frozen_model(sys, frozen):
    active = np.ones(sys.dimension, dtype=bool)
    active[list(frozen)] = False
    return dataclasses.replace(_trivial_model(sys.dimension, 0.1, sys.initial_value), active=active)


def _reduced_lattice():
    sys = make_lattice(LatticeSpec(p=3))
    return sys, [c for pair in sys.oscillator_pairs for c in pair]


def _reduced_simple():
    sys = make_simple_model(1e18)
    return sys, [1, 3]


@pytest.mark.parametrize("build", [_reduced_lattice, _reduced_simple])
def test_dual_makes_no_rhs_calls(build):
    # both built-in problems carry an analytic Jacobian, so the dual never
    # falls back to finite differences of the rhs
    sys, frozen = build()
    reduced = assemble_reduced(sys, _frozen_model(sys, frozen))
    U = solve_cg1(reduced, TimePartition.uniform(0, 1.0, 0.05))
    calls = 0

    def counted_rhs(u, t):
        nonlocal calls
        calls += 1
        return reduced.rhs(u, t)

    counted = dataclasses.replace(reduced, rhs=counted_rhs)
    psi = np.zeros(sys.dimension)
    psi[0] = 1.0
    phi = solve_dual(DualProblem(primal=U, sys=counted, psi=psi), 0.05)
    assert len(phi.times) == 21
    assert calls == 0


def _midpoint_jacobians(dp, step):
    """(k/2, J^T) at each dual step's midpoint, by one single-time
    interpolation per step, the loop that the batched midpoint interpolation
    replaced."""
    t_start, t_end = dp.primal.span
    s = TimePartition.uniform(0.0, t_end - t_start, step).times
    for j in range(1, len(s)):
        k = float(s[j] - s[j - 1])
        t_mid = t_end - 0.5 * (float(s[j]) + float(s[j - 1]))
        t_in = np.array([min(max(t_mid, t_start), t_end)])
        u_mid = interpolate(dp.primal.times, dp.primal.states, t_in)[1][0]
        yield 0.5 * k, jacobian(dp.sys, u_mid, t_mid).T


def _midpoint_matrices(dp, step):
    """hA = (k/2) J^T at each dual step's midpoint."""
    for h, A in _midpoint_jacobians(dp, step):
        yield h * A


def _dual_reference(dp, step):
    """Each step's propagator (I - hA)^-1 (I + hA) by its own solve, applied
    to the previous state."""
    eye = np.eye(len(dp.psi))
    phi = [dp.psi]
    for hA in _midpoint_matrices(dp, step):
        phi.append(np.linalg.solve(eye - hA, eye + hA) @ phi[-1])
    return np.array(phi[::-1])


def _dual_direct(dp, step):
    """Each midpoint step solved for the state, (I - hA) phi_j = phi_{j-1} + hA phi_{j-1}."""
    eye = np.eye(len(dp.psi))
    phi = [dp.psi]
    for hA in _midpoint_matrices(dp, step):
        phi.append(np.linalg.solve(eye - hA, phi[-1] + hA @ phi[-1]))
    return np.array(phi[::-1])


def _assert_close(states, reference, rel=1e-12):
    assert np.max(np.abs(states - reference)) <= rel * np.max(np.abs(reference))


def _simple_dual_problem():
    sys = make_simple_model(4.0)
    U = solve_cg1(sys, TimePartition.uniform(0, 25.0, 0.01))
    return DualProblem(primal=U, sys=sys, psi=np.array([1.0, 0.5, 0.0, -0.25]))


def _reduced_lattice_dual_problem(p=2, T=25.0):
    # at p=2: 20 components, 4 of them frozen with zero Jacobian rows
    sys = make_lattice(LatticeSpec(p=p))
    frozen = [c for pair in sys.oscillator_pairs for c in pair]
    reduced = assemble_reduced(sys, _frozen_model(sys, frozen))
    U = solve_cg1(reduced, TimePartition.uniform(0, T, 0.01))
    return DualProblem(primal=U, sys=reduced, psi=np.cos(np.arange(1.0, sys.dimension + 1.0)))


def _reduced_simple_dual_problem():
    # the frozen oscillator holds the Jacobian constant, so every block passes whole
    sys, frozen = _reduced_simple()
    reduced = assemble_reduced(sys, _frozen_model(sys, frozen))
    U = solve_cg1(reduced, TimePartition.uniform(0, 25.0, 0.01))
    return DualProblem(primal=U, sys=reduced, psi=np.array([1.0, 0.5, 0.0, -0.25]))


@pytest.mark.parametrize("step", [0.01, 0.007])
def test_dual_matches_per_step_reference_exactly(step):
    # more than one interpolation block, and a dual partition that does and
    # does not coincide with the primal one: solve_cg1 meets each midpoint
    # relation to its tolerance, so both references agree within 1e-12
    # relative, not to the bit (the name is older than that)
    for dp in (_simple_dual_problem(), _reduced_lattice_dual_problem()):
        phi = solve_dual(dp, step).states
        _assert_close(phi, _dual_reference(dp, step))
        _assert_close(phi, _dual_direct(dp, step))


@pytest.mark.parametrize("build", [_simple_dual_problem, _reduced_lattice_dual_problem])
def test_dual_propagators_agree_with_direct_step_solves(build):
    # the step solved for the state, not its propagator, is the dual's cG(1) step
    dp = build()
    _assert_close(solve_dual(dp, 0.01).states, _dual_direct(dp, 0.01))


@pytest.mark.parametrize(
    "build",
    [
        _reduced_simple_dual_problem,
        _simple_dual_problem,
        _reduced_lattice_dual_problem,
        lambda: _reduced_lattice_dual_problem(p=4, T=1.0),
    ],
    ids=["reduced-simple", "simple", "reduced-lattice-p2", "reduced-lattice-p4"],
)
def test_dual_takes_one_jacobian_state_per_step(build, monkeypatch):
    # the reduced simple model, whose Jacobian is constant, steps in blocks
    # of stacked states; the others, whose Jacobian varies along the primal,
    # and the reduced lattice at p=4 (100 components, 36 frozen) one interval
    # at a time; either way a step's rhs evaluations and chord matrix share
    # its midpoint's Jacobian
    dp = build()
    rows = []
    counted = modred.dual.jacobian

    def recorded(sys, u, t):
        rows.append(len(u) if np.ndim(u) == 2 else 1)
        return counted(sys, u, t)

    monkeypatch.setattr(modred.dual, "jacobian", recorded)
    phi = solve_dual(dp, 0.01).states
    monkeypatch.undo()
    assert sum(rows) == len(phi) - 1
    assert (max(rows) > 1) == (build is _reduced_simple_dual_problem)
    _assert_close(phi, _dual_reference(dp, 0.01))


@pytest.mark.parametrize("build", [_reduced_simple_dual_problem, _simple_dual_problem])
@pytest.mark.parametrize("c", [1e-13, 1e6])
def test_dual_is_linear_in_psi_at_any_scale(build, c):
    # the solver's stopping rule is absolute below norm 1: a dual solved for
    # psi as given would accept an explicit step at psi ~ 1e-13; solved for
    # psi scaled to largest entry 1, it is linear in psi to the tolerance
    dp = build()
    small = dataclasses.replace(dp, psi=c * dp.psi)
    phi = solve_dual(small, 0.01).states
    _assert_close(phi, c * solve_dual(dp, 0.01).states)
    _assert_close(phi, _dual_direct(small, 0.01))


def test_dual_leaves_no_reference_cycle():
    # without the collector, the problem must die with its last reference
    dp = _reduced_simple_dual_problem()
    alive = weakref.ref(dp)
    gc.disable()
    try:
        solve_dual(dp, 0.01)
        del dp
        assert alive() is None
    finally:
        gc.enable()


def test_unresolved_dual_step_names_the_dual_and_its_time():
    # the unreduced lattice at p=3 (m = 1e-12) has (k/2) rho(J) of about 3.5e4
    # at step 0.05: the dual, like the primal, must resolve the fastest scale
    sys = make_lattice(LatticeSpec(p=3))
    U = Trajectory(np.linspace(0.0, 1.0, 20), np.tile(sys.initial_value, (20, 1)))
    dp = DualProblem(primal=U, sys=sys, psi=np.cos(np.arange(1.0, sys.dimension + 1.0)))
    with pytest.raises(RuntimeError, match=r"^dual step ending at t=0\.95 failed") as exc:
        solve_dual(dp, 0.05)
    assert isinstance(exc.value.__cause__, ConvergenceError)
    assert exc.value.__cause__.contraction > 1e4


def test_unresolved_reduced_dual_step_names_the_dual_and_its_time():
    # the reduced simple model at dual step 5: (k/2) rho(J) = 2.5 cannot
    # resolve the slow oscillator, whatever step the primal took
    sys, frozen = _reduced_simple()
    reduced = assemble_reduced(sys, _frozen_model(sys, frozen))
    U = solve_cg1(reduced, TimePartition.uniform(0, 10.0, 0.1))
    dp = DualProblem(primal=U, sys=reduced, psi=np.array([1.0, 0.0, 0.0, 0.0]))
    with pytest.raises(RuntimeError, match=r"^dual step ending at t=5 failed") as exc:
        solve_dual(dp, 5.0)
    assert "smaller dual step than 5" in str(exc.value)
    assert isinstance(exc.value.__cause__, ConvergenceError)


def test_all_live_large_dual_matches_the_dense_step_exactly():
    # the unreduced lattice at p=3 with resolvable small masses has no zero
    # Jacobian row and steps one interval at a time; it must agree with the
    # dense step solve, kept here as the reference, within 1e-12 relative
    # (the name is older than that)
    sys = make_lattice(LatticeSpec(p=3, m=1.0))
    assert sys.dimension >= BLOCK_CROSSOVER
    U = solve_cg1(sys, TimePartition.uniform(0.0, 1.0, 0.05))
    dp = DualProblem(primal=U, sys=sys, psi=np.cos(np.arange(1.0, sys.dimension + 1.0)))
    eye = np.eye(sys.dimension)
    phi = [dp.psi]
    for h, A in _midpoint_jacobians(dp, 0.05):
        assert A.any(axis=0).all()
        phi.append(np.linalg.solve(eye - h * A, phi[-1] + h * (A @ phi[-1])))
    _assert_close(solve_dual(dp, 0.05).states, np.array(phi[::-1]))


def test_estimate_zero_for_exactly_solved_linear_system():
    # constant rhs is integrated exactly by cG(1): residual and modeling terms
    # both vanish at machine precision
    sys = DynamicalSystem(2, lambda u, t: np.array([1.0, -0.5]), np.zeros(2))
    model = _trivial_model(2, 0.2, sys.initial_value)
    reduced = assemble_reduced(sys, model)
    U = solve_cg1(reduced, TimePartition.uniform(0, 4.0, 0.1))
    phi = solve_dual(DualProblem(primal=U, sys=reduced, psi=np.array([1.0, 0.0])), 0.1)
    points = validate_at_control_points(U, sys, model, [1.0, 2.0, 3.0])
    est = error_estimate(U, reduced, model, phi, points)
    assert est.validated
    assert est.total <= 1e-10 * max(est.S1, 1.0)
    for p in points:
        assert p.deviation <= 1e-8


def test_estimate_bounds_linear_discretization_error():
    sys = rotation_system()
    k = 0.01
    model = _trivial_model(2, 0.1, sys.initial_value)
    reduced = assemble_reduced(sys, model)
    U = solve_cg1(reduced, TimePartition.uniform(0, 1.0, k))
    psi = np.array([1.0, 0.0])
    phi = solve_dual(DualProblem(primal=U, sys=reduced, psi=psi), k)
    est = error_estimate(U, reduced, model, phi, ())
    e_true = abs(float((U.states[-1] - rotation_exact(sys.initial_value, 1.0)) @ psi))
    assert e_true <= est.total
    assert est.total <= 100.0 * e_true  # effectivity sanity, not sharpness
    assert not est.validated


def test_model_term_zero_when_gbar_matches():
    sys = rotation_system()
    model = _trivial_model(2, 0.1, sys.initial_value)
    reduced = assemble_reduced(sys, model)
    U = solve_cg1(reduced, TimePartition.uniform(0, 1.0, 0.01))
    phi = solve_dual(DualProblem(primal=U, sys=reduced, psi=np.array([1.0, 0.0])), 0.01)
    point = ControlPoint(time=0.5, gbar=np.zeros(2), deviation=0.0)
    est = error_estimate(U, reduced, model, phi, (point,))
    assert est.model_term == 0.0
    assert est.validated


def test_dual_linearity(rng):
    sys = make_simple_model(1e18)
    reduced, model, resolved = auto_model(sys, 1e-7, 2e-10)
    U = solve_cg1(reduced, TimePartition.uniform(0, 10.0, 0.05))
    psi = np.array([1.0, 0.0, 0.0, 0.0])
    alpha = -2.5
    phi1 = solve_dual(DualProblem(primal=U, sys=reduced, psi=psi), 0.05)
    phi2 = solve_dual(DualProblem(primal=U, sys=reduced, psi=alpha * psi), 0.05)
    np.testing.assert_allclose(phi2.states, alpha * phi1.states, rtol=1e-10, atol=1e-18)


def test_control_points_on_fresh_simple_model():
    sys = make_simple_model(1e18)
    reduced, model, resolved = auto_model(sys, 1e-7, 2e-10)
    U = solve_cg1(reduced, TimePartition.uniform(0, 1.0, 0.01))
    points = validate_at_control_points(U, sys, model, [2e-7, 0.5])
    for p in points:
        assert p.deviation <= 0.01  # refit reproduces the fitted constant
    assert 0.9 <= abs(model.oscillation_amplitude[1]) <= 1.1  # the displacement of the stiff u2


def test_lattice_deviation_is_the_norm_the_bound_takes():
    # the lattice example's pipeline: several active components deviate, so
    # the 2-norm of the model term exceeds the largest single deviation
    sys = make_lattice(LatticeSpec(p=3, M=100.0, m=1e-4))
    cfg = RunConfig(T=20.0, tau=1.0, resolved_step=0.002, reduced_step=0.05, control_points=4)
    model, U, _ = reduce_run(sys, cfg)
    est, points, _ = estimate_run(sys, model, U, np.ones(sys.dimension), cfg)
    for p in points:
        diff = (model.constants - p.gbar)[model.active]
        assert p.deviation == np.linalg.norm(diff)
        assert p.deviation > np.max(np.abs(diff))
    assert est.max_model_deviation == max(p.deviation for p in points)


def test_control_points_resolve_with_the_model_window(monkeypatch):
    # the fitted model is the only carrier of the window: control points
    # resolve with its tau and resolved_step, here not the tau/500 default
    sys = rotation_system()
    model = dataclasses.replace(_trivial_model(2, 0.1, sys.initial_value), resolved_step=3e-4)
    U = solve_cg1(assemble_reduced(sys, model), TimePartition.uniform(0, 1.0, 0.01))
    calls = []
    resolve = modred.dual.resolve_short

    def spy(sys_, u, t, tau, step):
        calls.append((t, tau, step))
        return resolve(sys_, u, t, tau, step)

    monkeypatch.setattr(modred.dual, "resolve_short", spy)
    points = validate_at_control_points(U, sys, model, [0.7, 0.3])
    assert calls == [(0.3, model.tau, model.resolved_step), (0.7, model.tau, model.resolved_step)]
    assert [p.time for p in points] == [0.3, 0.7]


def test_control_point_measures_a_time_dependent_forcing_at_its_own_time():
    # the window from t_c is solved and measured on one local clock, the rhs
    # seeing t_c + s: as a solve over [t_c, t_c + 2*tau] in absolute time
    sys = forced_oscillator()
    model = _trivial_model(2, 0.5, sys.initial_value)
    u = np.array([0.4, 1.0])
    held = Trajectory(np.array([0.0, 10.0]), np.array([u, u]))
    (point,) = validate_at_control_points(held, sys, model, [5.0])
    direct = solve_cg1(
        dataclasses.replace(sys, initial_value=u), TimePartition.uniform(5.0, 6.0, model.resolved_step)
    )
    gbar = measure_gbar(direct, sys, model.tau)
    assert np.max(np.abs(gbar)) > 1e-3
    np.testing.assert_allclose(point.gbar, gbar, rtol=0, atol=1e-9)


def test_corrupted_subgrid_constant_is_caught_and_bounded():
    # moderately stiff configuration with clean scale separation
    # (sqrt(kappa) * tau = 100), so the oscillator is frozen and control-point
    # refits measure the true forcing
    sys = make_simple_model(1e4)
    # step 1e-3 also resolves the second-harmonic ripple the coupling injects
    reduced, model, resolved = auto_model(sys, 1.0, 0.001)
    assert list(model.active) == [True, False, True, False]
    assert abs(model.constants[2] - 0.25) <= 0.01

    bad_constants = model.constants.copy()
    bad_constants[2] = 0.5
    bad_model = dataclasses.replace(model, constants=bad_constants)
    bad_reduced = assemble_reduced(sys, bad_model)
    k = 0.01
    U = solve_cg1(bad_reduced, TimePartition.uniform(0, 10.0, k))
    psi = np.array([1.0, 0.0, 0.0, 0.0])
    phi = solve_dual(DualProblem(primal=U, sys=bad_reduced, psi=psi), k)
    points = validate_at_control_points(U, sys, bad_model, [2.5, 5.0, 7.5])
    est = error_estimate(U, bad_reduced, bad_model, phi, points)

    # the injected error of ~0.25 dominates the estimate
    assert est.model_term > 10.0 * est.disc_term
    assert abs(est.max_model_deviation - 0.25) <= 0.08

    # oracle: moving average of a fully resolved solve
    brute = solve_cg1(sys, TimePartition.uniform(0, 10.0, 1e-3))
    oracle = averaged_values(brute, 1.0, np.linspace(0.5, 9.5, 500))
    e_true = abs(U.states[-1, 0] - oracle[-1, 0])
    assert e_true <= est.total


def test_dual_problem_validation():
    sys = rotation_system()
    traj = solve_cg1(sys, TimePartition.uniform(0, 1.0, 0.1))
    with pytest.raises(ValueError, match="nonzero"):
        DualProblem(primal=traj, sys=sys, psi=np.zeros(2))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="psi must be finite"):
            DualProblem(primal=traj, sys=sys, psi=np.array([bad, 0.0]))
    with pytest.raises(ValueError):
        DualProblem(primal=traj, sys=sys, psi=np.array([1.0, 0.0, 0.0]))
    sys3 = DynamicalSystem(3, lambda u, t: -u, np.ones(3))
    with pytest.raises(ValueError, match="system dimension 3 does not match the primal trajectory's"):
        DualProblem(primal=traj, sys=sys3, psi=np.array([1.0, 0.0]))
    dp = DualProblem(primal=traj, sys=sys, psi=np.array([1.0, 0.0]))
    for bad in (0.0, -0.1, np.inf, np.nan):
        with pytest.raises(ValueError, match="dual step must be positive and finite"):
            solve_dual(dp, bad)
