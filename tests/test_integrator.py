import dataclasses
import math
import warnings

import numpy as np
import pytest

import modred.integrator
from conftest import forced_oscillator, linear_system, rhs_counted, rotation_system
from modred import (
    ConvergenceError,
    DynamicalSystem,
    EvaluationError,
    LatticeSpec,
    SubgridModel,
    TimePartition,
    Trajectory,
    assemble_reduced,
    auto_model,
    evaluate_rhs,
    interpolate,
    make_lattice,
    make_simple_model,
    residual_samples,
    resolve_short,
    solve_cg1,
)
from modred.integrator import BLOCK_CROSSOVER, CHORD_REFRESH, MAX_CHORD_ITERS
from modred.system import jacobian, stack_rows

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
    counted, counts = rhs_counted(sys)
    chord = resolve_short(counted, sys.initial_value, 0.0, tau, step)
    reference = _damped_fixed_point(sys, TimePartition.uniform(0.0, 2.0 * tau, step))
    scale = np.max(np.abs(reference))
    assert np.max(np.abs(chord.states - reference)) <= 1e-9 * scale
    assert counts["calls"] <= 6 * (len(chord.times) - 1)


def _per_step_chord(sys, part, tol=1e-12):
    """Nodal states by solve_cg1's per-step chord loop, the path of every
    step taken alone: each interval iterated from U_{j-1} until a chord
    matrix M is set, and from U_{j-1} + (2M - I)(U_{j-1} - U_{j-2}) after,
    with one chord matrix per solve, refreshed after CHORD_REFRESH
    corrections, and a step whose (k/2) J has spectral radius >= 1 rejected,
    naming the components by their share of the eigenvector of that radius."""
    times = part.times
    states = [sys.initial_value]
    M = None
    for j in range(1, len(times)):
        k = times[j] - times[j - 1]
        t_mid = times[j - 1] + 0.5 * k
        u_prev = v = states[-1]
        if M is not None:
            d = u_prev - states[-2]
            v = u_prev + (2.0 * (M @ d) - d)
        for it in range(MAX_CHORD_ITERS):
            g = u_prev + k * np.asarray(sys.rhs(0.5 * (u_prev + v), t_mid))
            res = np.linalg.norm(g - v)
            if res <= tol * max(1.0, np.linalg.norm(g)):
                break
            if M is None or (it and it % CHORD_REFRESH == 0):
                A = 0.5 * k * jacobian(sys, 0.5 * (u_prev + v), t_mid)
                lam, vectors = np.linalg.eig(A)
                rho = np.max(np.abs(lam))
                if not rho < 1.0:
                    fast = np.argsort(-np.abs(vectors[:, np.argmax(np.abs(lam))]), kind="stable")
                    raise ConvergenceError(
                        j, float(times[j]), res, rho, tuple(fast.tolist()), k / rho, sys.oscillator_pairs
                    )
                M = np.linalg.inv(np.eye(len(v)) - A)
            v = v + M @ (g - v)
        else:
            raise ConvergenceError(j, float(times[j]), res)
        states.append(g)
    return np.array(states)


def _midpoint_defects(traj, sys):
    """||U_j - U_{j-1} - k_j f(mid_j, t_mid_j)|| per interval, over
    FIXED_POINT_TOL * max(1, ||U_j||)."""
    k = np.diff(traj.times)
    mids = 0.5 * (traj.states[1:] + traj.states[:-1])
    f = evaluate_rhs(sys, mids, traj.times[:-1] + 0.5 * k)
    defects = np.linalg.norm(np.diff(traj.states, axis=0) - k[:, None] * f, axis=1)
    return defects / (1e-12 * np.maximum(1.0, np.linalg.norm(traj.states[1:], axis=1)))


@pytest.fixture(scope="module")
def simple_reduced():
    sys = make_simple_model(1e18)
    reduced, _, _ = auto_model(sys, 1e-7, 2e-10)
    return reduced


def _simple_reduced_long(simple_reduced):
    return simple_reduced, TimePartition.uniform(0.0, 2000.0, 0.1)


def _simple_fit_window(simple_reduced):
    return make_simple_model(1e18), TimePartition.uniform(0.0, 2e-7, 2e-10)


def _lattice_p2_reduced(simple_reduced):
    # 20 components, below BLOCK_CROSSOVER, and nonlinear in every large mass
    reduced, _, _ = auto_model(make_lattice(LatticeSpec(p=2, m=1e-4)), 1.0, 0.002)
    return reduced, TimePartition.uniform(0.0, 20.0, 0.05)


@pytest.mark.parametrize(
    "case, max_calls",
    [(_simple_reduced_long, 400), (_simple_fit_window, 28), (_lattice_p2_reduced, 600)],
    ids=["simple-reduced-20000-steps", "simple-fit-window", "lattice-p2-reduced"],
)
def test_block_path_agrees_with_the_per_step_loop(simple_reduced, case, max_calls):
    # each component agrees within FIXED_POINT_TOL * max(1, max_j |U_j,i|),
    # its own scale, so a small component beside a large one keeps its
    # digits (measured: 0.004, 0.021 and 0.81 of that scale), where the
    # per-step loop makes 2 rhs calls per step and the block path far fewer
    sys, part = case(simple_reduced)
    assert sys.dimension < BLOCK_CROSSOVER
    counted, counts = rhs_counted(sys)
    block = solve_cg1(counted, part)
    reference = _per_step_chord(sys, part)
    scale = 1e-12 * np.maximum(1.0, np.max(np.abs(reference), axis=0))
    assert np.all(np.abs(block.states - reference) <= scale)
    assert counts["calls"] <= max_calls
    assert np.max(_midpoint_defects(block, sys)) <= 1.0


def _block_schedule(monkeypatch, sys, part):
    """The trajectory of solve_cg1 on sys over part, and (steps asked, steps
    passed) of each of its blocks in order."""
    blocks = []
    predicted = modred.integrator._predicted_steps

    def recorded(*args):
        nodes = predicted(*args)
        blocks.append((len(args[1]), len(nodes)))
        return nodes

    monkeypatch.setattr(modred.integrator, "_predicted_steps", recorded)
    return solve_cg1(sys, part), blocks


def test_a_failed_block_sets_the_next_block_to_the_steps_it_passed(monkeypatch, simple_reduced):
    # the fit window's blocks double to 256, which passes 138 steps: where
    # u4 (up to 1e9) crosses zero, the whole-state tolerance dips from about
    # 5e-4 to 1e-6 and meets the roundoff of u4.  The next block asks for
    # the 138 steps that passed, not 128, and passes double it again, so the
    # window takes 13 blocks where halving the ceiling for good took 28
    _, blocks = _block_schedule(monkeypatch, *_simple_fit_window(simple_reduced))
    assert blocks == [
        (2, 2), (4, 4), (8, 8), (16, 16), (32, 32), (64, 64), (128, 128),
        (256, 138), (138, 138), (276, 193), (193, 189), (87, 79), (8, 8),
    ]


def test_no_block_follows_one_that_passed_at_most_one_step(monkeypatch, simple_reduced):
    # a block that passes at most one step is no cheaper than a step solved
    # alone, so lattice-p2's reduced solve, nonlinear in every large mass,
    # steps alone from its first such block on
    _, blocks = _block_schedule(monkeypatch, *_lattice_p2_reduced(simple_reduced))
    assert [i for i, (_, passed) in enumerate(blocks) if passed <= 1] == [len(blocks) - 1]


def test_a_step_solved_alone_first_evaluates_f_at_its_predicted_midpoint(monkeypatch):
    # step 1 first evaluates f at U_0 itself, 0.5 * (u + u) being u bit for
    # bit; each later step at the midpoint of U_{j-1} and its prediction
    # U_{j-1} + (2M - I)(U_{j-1} - U_{j-2}), M the chord matrix in force, so
    # this p=3 window makes 3,533 rhs calls where a start at U_{j-1} made 4,446
    sys = make_lattice(LatticeSpec(p=3, m=1e-4))
    assert sys.dimension >= BLOCK_CROSSOVER
    part = TimePartition.uniform(0.0, 2.0, 0.002)
    events = []  # (t, u) per rhs call, (None, M) per chord matrix
    rhs, chord_matrix = sys.rhs, modred.integrator._chord_matrix

    def recorded(u, t):
        events.append((t, u.copy()))
        return rhs(u, t)

    def recorded_matrix(*args):
        out = chord_matrix(*args)
        events.append((None, out[0]))
        return out

    monkeypatch.setattr(modred.integrator, "_chord_matrix", recorded_matrix)
    U = solve_cg1(dataclasses.replace(sys, rhs=recorded), part).states
    # every call of a step is at that step's t_mid, so a new t starts a step
    firsts, expected, M, t_last = [], [U[0]], None, None
    for t, x in events:
        if t is None:
            M = x
        elif t != t_last:
            firsts.append(x)
            if len(firsts) > 1:
                j = len(firsts)
                d = U[j - 1] - U[j - 2]
                expected.append(0.5 * (U[j - 1] + (U[j - 1] + (2.0 * (M @ d) - d))))
            t_last = t
    assert len(firsts) == len(part.times) - 1
    np.testing.assert_array_equal(np.array(firsts).view(np.int64), np.array(expected).view(np.int64))
    assert len(events) - sum(t is None for t, _ in events) == 3533


def test_a_linear_autonomous_system_solved_alone_passes_each_later_step_at_its_prediction():
    # for u' = A u the prediction is the midpoint step itself, so after step
    # 1 (f at U_0, then at its chord correction) every step passes its first
    # check: 12 rotations in 24 components take 1,001 rhs calls over 1,000
    # steps, where a start at U_{j-1} took 2 per step
    A = np.kron(np.diag(np.arange(1.0, 13.0)), [[0.0, 1.0], [-1.0, 0.0]])
    sys = linear_system(A, np.tile([1.0, 0.0], 12))
    assert sys.dimension == BLOCK_CROSSOVER
    counted, counts = rhs_counted(sys)
    traj = solve_cg1(counted, TimePartition.uniform(0.0, 10.0, 0.01))
    assert counts["calls"] == 1001
    assert np.max(_midpoint_defects(traj, sys)) <= 1.0


@pytest.fixture(scope="module", params=[3, 6], ids=["p3", "p6"])
def lattice_window_and_reduced_solve(request):
    """(system, solve) for the example lattice's fit window and for its
    reduced solve over [0, 20] at step 0.05, at p=3 and p=6."""
    sys = make_lattice(LatticeSpec(p=request.param, m=1e-4))
    reduced, _, resolved = auto_model(sys, 1.0, 0.002)
    assert sys.dimension >= BLOCK_CROSSOVER
    return (sys, resolved), (reduced, solve_cg1(reduced, TimePartition.uniform(0.0, 20.0, 0.05)))


@pytest.mark.parametrize("which", [0, 1], ids=["window", "reduced-solve"])
def test_predicted_steps_of_the_lattice_meet_the_midpoint_relation(lattice_window_and_reduced_solve, which):
    # a step that passes at its first check returns g from the predicted
    # midpoint; the node still meets the midpoint relation to the tolerance
    # (measured: at most 0.018 of it)
    sys, traj = lattice_window_and_reduced_solve[which]
    assert np.max(_midpoint_defects(traj, sys)) <= 1.0


def _small_beside_large(c3):
    """x' = y, y' = -x - c3 x^3 + 1e-3 sin t beside a frozen z = 1e6, whose
    size makes the stopping rule's absolute scale 1e-6 where |x| < 1e-2."""

    def rhs(u, t):
        x, y, z = u.T
        return np.array([y, -x - c3 * x**3 + 1e-3 * np.sin(t), 0.0 * z]).T

    def jac(u, t):
        J = np.zeros((*np.shape(u)[:-1], 3, 3))
        J[..., 0, 1] = 1.0
        J[..., 1, 0] = -1.0 - 3.0 * c3 * u[..., 0] ** 2
        return J

    return DynamicalSystem(3, rhs, np.array([0.0, 0.0, 1e6]), jacobian=jac, vectorized=True)


@pytest.mark.parametrize("c3", [0.0, 1e4])
def test_block_nodes_are_as_close_to_a_tight_solve_as_the_per_step_loop(c3):
    # blocks pass the stopping rule with defects up to its whole-state scale;
    # the chord correction of each passing prefix brings the small components
    # back to where the per-step loop leaves them (without it x was off by
    # 3.5e-4): per component, no farther from a solve at 1e-16 than the
    # per-step loop (measured: equal at c3 = 0, 9x closer at c3 = 1e4)
    sys = _small_beside_large(c3)
    part = TimePartition.uniform(0.0, 20.0, 0.01)
    tight = _per_step_chord(sys, part, tol=1e-16)
    block_error = np.max(np.abs(solve_cg1(sys, part).states - tight), axis=0)
    step_error = np.max(np.abs(_per_step_chord(sys, part) - tight), axis=0)
    assert np.all(block_error <= 1.01 * step_error)


def _nan_above(u, t):
    return np.where(u > 1.2, np.nan, 1.0 - u * u)


def _raising_above(u, t):
    # math.sqrt raises ValueError, not EvaluationError, for u > 1.2
    return np.array([1.0 - u[0] * u[0] + 0.0 * math.sqrt(1.2 - u[0])])


@pytest.mark.parametrize(
    "rhs, vectorized", [(_nan_above, True), (_raising_above, False)], ids=["nan", "raises"]
)
def test_speculative_failure_only_shrinks_the_block(rhs, vectorized):
    # u' = 1 - u^2 from -0.5 at step 0.8: the per-step loop never evaluates
    # above u = 0.8, but the first predicted block overshoots into the region
    # where the rhs is NaN or raises by itself; that evaluation must not
    # raise, and the solve goes on step by step to the reference nodes
    seen = []

    def recorded(u, t):
        seen.append(float(np.max(u)))
        return rhs(u, t)

    sys = DynamicalSystem(1, recorded, np.array([-0.5]), vectorized=vectorized)
    part = TimePartition.uniform(0.0, 30.0, 0.8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = solve_cg1(sys, part)
    assert max(seen) > 1.2
    np.testing.assert_allclose(traj.states, _per_step_chord(sys, part), rtol=0, atol=1e-12)
    seen.clear()
    _per_step_chord(sys, part)
    assert max(seen) < 1.2


def test_forced_nonlinear_oscillator_matches_the_per_step_loop():
    # rhs and Jacobian both depend on t, and the system is not vectorized:
    # the check evaluates every step of a block at its own midpoint time
    sys = forced_oscillator()
    part = TimePartition.uniform(0.0, 0.5, 1e-4)
    traj = solve_cg1(sys, part)
    np.testing.assert_allclose(traj.states, _per_step_chord(sys, part), rtol=0, atol=2e-11)
    assert np.max(_midpoint_defects(traj, sys)) <= 1.0


def test_too_large_step_after_blocks_names_the_reference_interval():
    # u' = -c(t) u with c jumping from 1 to 1e4 at t = 0.55: blocks carry the
    # solve up to the jump, and the step whose midpoint lies past it has
    # (k/2) J of spectral radius 50; blocks that reach it fail their check,
    # and the step taken alone raises for the interval the reference names
    def c(t):
        return np.where(t < 0.55, 1.0, 1e4)

    sys = DynamicalSystem(
        1,
        lambda u, t: -(c(t) * u.T).T,
        np.ones(1),
        jacobian=lambda u, t: np.array([[-float(c(t))]]),
        vectorized=True,
    )
    part = TimePartition.uniform(0.0, 1.0, 0.01)
    with pytest.raises(ConvergenceError) as reference:
        _per_step_chord(sys, part)
    counted, counts = rhs_counted(sys)
    with pytest.raises(ConvergenceError) as exc:
        solve_cg1(counted, part)
    assert exc.value.interval == reference.value.interval == 56
    assert str(exc.value) == str(reference.value)
    assert exc.value.contraction == pytest.approx(50.0, rel=1e-9)
    assert counts["calls"] < 2 * 55


def _varying_rotation():
    """u' = w(t) R u, R the quarter turn and w(t) = 1 + 0.5 sin t: linear,
    with a matrix that changes along every block, as the dual of a primal
    whose Jacobian varies; its analytic Jacobian takes stacks."""
    R = np.array([[0.0, 1.0], [-1.0, 0.0]])

    def w(t):
        return 1.0 + 0.5 * np.sin(np.asarray(t))

    return DynamicalSystem(
        2,
        lambda u, t: w(t)[..., None] * (u @ R.T),
        np.array([1.0, 0.0]),
        jacobian=lambda u, t: w(t)[..., None, None] * R,
        vectorized=True,
    )


def test_linear_time_varying_system_steps_alone(monkeypatch):
    # the chord prediction holds one matrix, so the first block passes no
    # step: the solve attempts no other block, and every node is the
    # per-step loop's, bit for bit
    sys = _varying_rotation()
    part = TimePartition.uniform(0.0, 20.0, 0.01)
    traj, blocks = _block_schedule(monkeypatch, sys, part)
    assert blocks == [(2, 0)]
    np.testing.assert_array_equal(traj.states, _per_step_chord(sys, part))


def test_blocks_keep_the_chord_step_guard():
    # u' = -c(t) u with c jumping from 1 to 1e4 at t = 0.55, as in the test
    # above, with a Jacobian that takes stacks: no block may carry a step
    # past the jump (the midpoint rule is A-stable), so the step is solved
    # alone and the chord loop's guard raises on it
    def c(t):
        return np.where(np.asarray(t) < 0.55, 1.0, 1e4)

    sys = DynamicalSystem(
        1,
        lambda u, t: -(c(t) * u.T).T,
        np.ones(1),
        jacobian=lambda u, t: -c(t)[..., None, None] * np.ones((1, 1)),
        vectorized=True,
    )
    part = TimePartition.uniform(0.0, 1.0, 0.01)
    with pytest.raises(ConvergenceError) as reference:
        _per_step_chord(sys, part)
    with pytest.raises(ConvergenceError) as exc:
        solve_cg1(sys, part)
    assert exc.value.interval == reference.value.interval == 56
    assert str(exc.value) == str(reference.value)


def test_a_block_check_is_one_rhs_call():
    # a block spans at most one rhs stack, so its check is one call that
    # starts at the time of the call before it, the block's first row.  A
    # check split over two stacks would make the dual's run cache take a
    # block's Jacobians twice
    A = np.random.default_rng(5).standard_normal((20, 20))
    A -= A.T
    calls = []

    def rhs(u, t):
        calls.append((np.ndim(u), len(np.atleast_2d(u)), float(np.atleast_1d(t)[0])))
        return u @ A.T

    sys = DynamicalSystem(20, rhs, np.ones(20), jacobian=lambda u, t: A, vectorized=True)
    solve_cg1(sys, TimePartition.uniform(0.0, 30.0, 0.01))
    stacked = [i for i, (ndim, rows, _) in enumerate(calls) if ndim == 2 and rows > 1]
    assert len(stacked) >= 4
    assert max(rows for _, rows, _ in calls) <= stack_rows(20) == 819
    assert all(calls[i][2] == calls[i - 1][2] for i in stacked)


def _fresh_chord_scan(M, c, powers=None):
    """_chord_scan as a doubling scan that builds the powers of P = 2M - I
    anew on every call and ignores any kept ones."""
    d = c @ M.T
    P, h = 2.0 * M - np.eye(len(M)), 1
    while h < len(d):
        d[h:] += d[:-h] @ P.T
        P, h = P @ P, 2 * h
    return d


def test_chord_scan_with_kept_powers_is_the_fresh_scan_bit_for_bit():
    # one powers list serves scans of every length: each extends it as far
    # as it needs and later ones read it; M is a Cayley map of a skew
    # matrix, so P is orthogonal and its powers stay of order one
    rng = np.random.default_rng(7)
    A = rng.standard_normal((4, 4))
    M = np.linalg.inv(np.eye(4) - 0.05 * (A - A.T))
    powers = []
    for rows in (1, 2, 3, 17, 4096, 17, 3):
        c = rng.standard_normal((rows, 4))
        kept = modred.integrator._chord_scan(M, c.copy(), powers)
        assert kept.tobytes() == _fresh_chord_scan(M, c.copy()).tobytes()
    assert len(powers) == 12


def _solved_with_kept_and_fresh_powers(monkeypatch, sys, part):
    """(states, rhs calls) of solve_cg1 as shipped and with _chord_scan
    building the powers of P anew on every call."""
    runs = []
    for scan in (modred.integrator._chord_scan, _fresh_chord_scan):
        monkeypatch.setattr(modred.integrator, "_chord_scan", scan)
        counted, counts = rhs_counted(sys)
        runs.append((solve_cg1(counted, part).states, counts["calls"]))
    return runs


@pytest.mark.parametrize(
    "case",
    [
        _simple_fit_window,
        _lattice_p2_reduced,
        lambda _: (forced_oscillator(), TimePartition.uniform(0.0, 0.5, 1e-4)),
    ],
    ids=["simple-fit-window", "lattice-p2-reduced", "forced-oscillator"],
)
def test_kept_powers_change_no_bit_of_a_block_solve(monkeypatch, simple_reduced, case):
    sys, part = case(simple_reduced)
    assert sys.dimension < BLOCK_CROSSOVER
    (kept, kept_calls), (fresh, fresh_calls) = _solved_with_kept_and_fresh_powers(monkeypatch, sys, part)
    assert kept.tobytes() == fresh.tobytes()
    assert kept_calls == fresh_calls


def test_no_power_of_p_carries_over_from_one_solve_to_the_next(monkeypatch):
    # the fit window of kappa = 1e18 and then that of kappa = 1e16 in one
    # process: the second solve's blocks scan with its own chord matrix only
    solve_cg1(make_simple_model(1e18), TimePartition.uniform(0.0, 2e-7, 2e-10))
    part = TimePartition.uniform(0.0, 2e-6, 2e-9)
    (kept, kept_calls), (fresh, fresh_calls) = _solved_with_kept_and_fresh_powers(
        monkeypatch, make_simple_model(1e16), part
    )
    assert kept.tobytes() == fresh.tobytes()
    assert kept_calls == fresh_calls


def test_fixed_point_tolerance_is_respected():
    lam = -2.0
    sys = DynamicalSystem(1, lambda u, t: lam * u, np.array([1.0]))
    traj = solve_cg1(sys, TimePartition.uniform(0, 1.0, 0.05), None)
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


def _residual_reference(traj, sys, norm):
    """residual_samples over all intervals at once, with ``norm`` taken of each residual row."""
    times, k = traj.times, np.diff(traj.times)
    slopes = np.diff(traj.states, axis=0) / k[:, None]
    expected = np.zeros(len(k))
    for offset in (-GAUSS_HALF_WIDTH, GAUSS_HALF_WIDTH):
        t_s = times[:-1] + 0.5 * k + offset * k
        r = slopes - evaluate_rhs(sys, interpolate(times, traj.states, t_s)[1], t_s)
        expected = np.maximum(expected, k * np.array([norm(row) for row in r]))
    assert np.all(expected > 0)
    return expected


def test_residual_samples_equal_the_per_row_norm():
    # the dot per row is the one np.linalg.norm takes, so no bit may move
    sys = make_lattice(LatticeSpec(p=3, m=1e-4))
    traj = solve_cg1(sys, TimePartition.uniform(0.0, 0.05, 0.001))
    expected = _residual_reference(traj, sys, np.linalg.norm)
    np.testing.assert_array_equal(residual_samples(traj, sys), expected)


def _reduced_lattice_run():
    sys = make_lattice(LatticeSpec(p=3))
    active = np.ones(sys.dimension, dtype=bool)
    active[[c for pair in sys.oscillator_pairs for c in pair]] = False
    model = SubgridModel(
        constants=np.zeros(sys.dimension),
        active=active,
        tau=0.1,
        resolved_step=2e-4,
        oscillation_amplitude=np.zeros(sys.dimension),
        frozen_deviation=np.zeros(sys.dimension),
        initial_value=sys.initial_value,
    )
    reduced = assemble_reduced(sys, model)
    return solve_cg1(reduced, TimePartition.uniform(0.0, 1.0, 0.01)), reduced


def _long_simple_run():
    sys = make_simple_model(4.0)
    traj = solve_cg1(sys, TimePartition.uniform(0.0, 42.0, 0.01))
    assert len(traj.times) - 1 > stack_rows(sys.dimension)
    return traj, sys


@pytest.mark.parametrize("run", [_long_simple_run, _reduced_lattice_run])
def test_residual_samples_equal_the_per_row_dot(run):
    # the stacked row norms replaced one math.sqrt(r.dot(r)) per row, the
    # reference kept here; across residual chunks no bit may move
    traj, sys = run()
    expected = _residual_reference(traj, sys, lambda r: math.sqrt(r.dot(r)))
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


@pytest.mark.parametrize("opts", [1e-10, {"fixed_point_tol": 1e-10}, 0.0])
def test_solve_takes_no_options(opts):
    # the third parameter only keeps the call shape solve_cg1(sys, part, opts)
    sys = DynamicalSystem(1, lambda u, t: -u, np.array([1.0]))
    with pytest.raises(TypeError, match="FIXED_POINT_TOL"):
        solve_cg1(sys, TimePartition.uniform(0.0, 1.0, 0.1), opts)


def test_partition_needs_two_nodes_and_a_nonempty_interval():
    with pytest.raises(ValueError, match="at least two time nodes"):
        TimePartition(np.array([0.0]))
    with pytest.raises(ValueError, match=r"empty interval \[1.0, 1.0\]"):
        TimePartition.uniform(1.0, 1.0, 0.1)


def test_step_that_runs_out_of_chord_iterations_raises():
    # a zero Jacobian makes the chord matrix I, so the iteration is the plain
    # fixed point, whose factor (k/2) * 198 = 0.99 needs far more than
    # MAX_CHORD_ITERS iterations; (k/2) J = 0 passes the contraction guard
    sys = DynamicalSystem(1, lambda u, t: -198.0 * u, np.array([1.0]), jacobian=lambda u, t: np.zeros((1, 1)))
    with pytest.raises(ConvergenceError, match=r"did not converge \(last residual norm 7.321e-01\)") as exc:
        solve_cg1(sys, TimePartition.uniform(0.0, 1.0, 0.01))
    assert exc.value.interval == 1 and exc.value.contraction is None


def test_residual_that_overflows_from_a_finite_rhs_raises():
    # f is finite, so EvaluationError does not apply, but the squared norm of
    # the first residual g - u0 = 5e307 overflows
    sys = DynamicalSystem(1, lambda u, t: np.array([1e308]), np.array([1e308]))
    with pytest.raises(ConvergenceError, match=r"last residual norm inf") as exc:
        solve_cg1(sys, TimePartition.uniform(0.0, 1.0, 0.5))
    assert exc.value.interval == 1 and exc.value.residual == np.inf


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
