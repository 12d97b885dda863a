import dataclasses
import warnings

import numpy as np
import pytest

from modred import (
    DualProblem,
    EvaluationError,
    LatticeSpec,
    SubgridModel,
    TimePartition,
    Trajectory,
    analytic_reduced_simple,
    assemble_reduced,
    diameter,
    evaluate_rhs,
    jacobian,
    lattice_equilibrium,
    make_lattice,
    make_simple_model,
    small_mass_distance,
    solve_cg1,
    solve_dual,
)
from modred.problems import _lattice_geometry
from modred.system import RHS_BLOCK_VALUES


def test_simple_model_rhs_and_pairs():
    kappa = 7.0
    sys = make_simple_model(kappa)
    np.testing.assert_allclose(
        evaluate_rhs(sys, [sys.initial_value], [0.0]), [[0.0, 0.0, 0.5, -kappa]]
    )
    assert sys.oscillator_pairs == ((1, 3),)


def test_simple_model_oscillator_amplitude_and_phase():
    # u2 obeys u2'' + kappa u2 = 0 from (1, 0): amplitude is an invariant of
    # the midpoint rule and the phase error stays tiny at this resolution
    kappa = 1.0
    sys = make_simple_model(kappa)
    period = 2 * np.pi / np.sqrt(kappa)
    traj = solve_cg1(sys, TimePartition.uniform(0, 10 * period, 0.005))
    amplitude = np.sqrt(traj.states[:, 1] ** 2 + traj.states[:, 3] ** 2 / kappa)
    assert np.max(np.abs(amplitude - 1.0)) <= 1e-6
    node = np.argmin(np.abs(traj.times - 10 * period))
    assert abs(traj.states[node, 1] - 1.0) <= 1e-4


def test_analytic_reduced_simple_values():
    assert analytic_reduced_simple(0.0) == 0.0
    assert analytic_reduced_simple(np.pi) == pytest.approx(0.5)
    assert analytic_reduced_simple(2 * np.pi) == pytest.approx(0.0, abs=1e-15)


def test_simple_model_spec_validation():
    with pytest.raises(ValueError):
        make_simple_model(0.5)


@pytest.mark.parametrize(
    "build,key",
    [
        (lambda: make_simple_model(float("nan")), "kappa"),
        (lambda: make_simple_model(float("inf")), "kappa"),
        (lambda: LatticeSpec(p=3, kappa=float("inf")), "kappa"),
        (lambda: LatticeSpec(p=3, M=float("inf")), "M"),
        (lambda: LatticeSpec(p=3, m=float("inf")), "m"),
        (lambda: LatticeSpec(p=3, m=float("nan")), "m"),
        (lambda: LatticeSpec(p=3, initial_small_displacement=float("nan")), "initial_small_displacement"),
        (lambda: LatticeSpec(p=3.5), "p"),
        (lambda: LatticeSpec(p=3.0), "p"),
    ],
    ids=["simple-kappa-nan", "simple-kappa-inf", "lattice-kappa-inf", "lattice-M-inf",
         "lattice-m-inf", "lattice-m-nan", "lattice-displacement-nan", "lattice-p-3.5",
         "lattice-p-3.0"],
)
def test_problem_parameters_fail_at_construction(build, key):
    # each would otherwise build, then fail (or solve silently) later
    with pytest.raises(ValueError, match=rf"^{key} must be"):
        build()


@pytest.fixture(scope="module")
def lattice_spec():
    return LatticeSpec(p=3, M=100.0, m=1e-4)


@pytest.fixture(scope="module")
def resolved_lattice(lattice_spec):
    sys = make_lattice(lattice_spec)
    # a few fast periods at ~44 nodes per period
    part = TimePartition.uniform(0.0, 0.2, 0.001)
    return sys, solve_cg1(sys, part)


def test_lattice_initial_diameter(lattice_spec):
    sys = make_lattice(lattice_spec)
    ts = np.array([0.0, 1.0])
    traj = Trajectory(ts, np.tile(sys.initial_value, (2, 1)))
    np.testing.assert_allclose(diameter(traj.states, lattice_spec), np.sqrt(2.0))


def test_lattice_equilibrium_is_force_free(lattice_spec):
    sys = make_lattice(lattice_spec)
    eq = lattice_equilibrium(lattice_spec)
    np.testing.assert_array_equal(evaluate_rhs(sys, [eq], [0.0]), np.zeros((1, sys.dimension)))


def test_lattice_small_mass_geometry():
    spec = LatticeSpec(p=3, m=1e-4, initial_small_displacement=0.0)
    sys = make_lattice(spec)
    traj = Trajectory([0.0, 1.0], np.tile(sys.initial_value, (2, 1)))
    np.testing.assert_allclose(small_mass_distance(traj.states, spec), np.sqrt(2.0) / 4.0)
    spec2 = LatticeSpec(p=2, m=1e-4, initial_small_displacement=0.0)
    sys2 = make_lattice(spec2)
    traj2 = Trajectory([0.0, 1.0], np.tile(sys2.initial_value, (2, 1)))
    np.testing.assert_allclose(small_mass_distance(traj2.states, spec2), np.sqrt(2.0) / 2.0)


def test_lattice_fast_period(lattice_spec, resolved_lattice):
    # transverse small-mass motion against two aligned unit springs has
    # effective stiffness 2*kappa: period = 2*pi*sqrt(m/2)
    sys, traj = resolved_lattice
    n_large = lattice_spec.n_large
    x = traj.states[:, 2 * n_large] - traj.states[0, 2 * n_large].mean()
    x = x - np.mean(x)
    crossings = int(np.sum(x[1:] * x[:-1] < 0))
    measured_period = 2.0 * (traj.times[-1] - traj.times[0]) / crossings
    expected = 2 * np.pi * np.sqrt(lattice_spec.m / (2 * lattice_spec.kappa))
    assert abs(measured_period - expected) <= 0.05 * expected


def test_small_mass_distance_oscillates_at_double_frequency(lattice_spec, resolved_lattice):
    # d measures the distance to a corner transverse to the oscillation, so it
    # varies quadratically in the displacement: twice the mechanical frequency
    sys, traj = resolved_lattice
    d = small_mass_distance(traj.states, lattice_spec)
    assert d.max() - d.min() > 1e-6
    dc = d - np.mean(d)
    crossings = int(np.sum(dc[1:] * dc[:-1] < 0))
    period_d = 2.0 * (traj.times[-1] - traj.times[0]) / crossings
    mech = 2 * np.pi * np.sqrt(lattice_spec.m / (2 * lattice_spec.kappa))
    assert abs(period_d - 0.5 * mech) <= 0.15 * mech


def test_observables_equal_the_per_row_norm(lattice_spec, resolved_lattice):
    # the CSV columns keep the bits of one np.linalg.norm per state row
    _, traj = resolved_lattice
    last, small = lattice_spec.n_large - 1, lattice_spec.n_large
    for fn, mass in ((diameter, last), (small_mass_distance, small)):
        reference = [np.linalg.norm(u[2 * mass : 2 * mass + 2] - u[:2]) for u in traj.states]
        np.testing.assert_array_equal(fn(traj.states, lattice_spec), reference)


def test_lattice_momentum_conservation(lattice_spec, resolved_lattice):
    sys, traj = resolved_lattice
    n_masses = lattice_spec.n_large + lattice_spec.n_small
    masses = np.concatenate(
        [np.full(lattice_spec.n_large, lattice_spec.M), np.full(lattice_spec.n_small, lattice_spec.m)]
    )
    vel = traj.states[:, 2 * n_masses :].reshape(len(traj.times), n_masses, 2)
    momentum = np.einsum("m,tmc->tc", masses, vel)
    drift = np.max(np.abs(momentum - momentum[0]), axis=1)
    assert np.all(drift <= 1e-8 * np.maximum(traj.times, 1e-3))


def test_diameter_translation_invariance(lattice_spec):
    sys = make_lattice(lattice_spec)
    u = sys.initial_value.copy()
    shifted = u.copy()
    n_pos = 2 * (lattice_spec.n_large + lattice_spec.n_small)
    shifted[:n_pos] += 0.37  # translate every coordinate
    d = diameter(np.stack([u, shifted]), lattice_spec)
    assert d[0] == pytest.approx(d[1])


def test_diameter_dimension_mismatch(lattice_spec):
    with pytest.raises(ValueError, match="components"):
        diameter(np.zeros((2, 8)), lattice_spec)


def test_lattice_spec_validation():
    with pytest.raises(ValueError):
        LatticeSpec(p=1)
    with pytest.raises(ValueError):
        LatticeSpec(p=3, M=-1.0)
    spec = LatticeSpec(p=3)
    assert spec.displacement == pytest.approx(0.05 * 0.5)
    assert spec.n_large == 9 and spec.n_small == 4


def test_lattice_oscillator_pairs_cover_small_masses(lattice_spec):
    sys = make_lattice(lattice_spec)
    n_pos = 2 * (lattice_spec.n_large + lattice_spec.n_small)
    pairs = sys.oscillator_pairs
    assert len(pairs) == 2 * lattice_spec.n_small
    for pos, vel in pairs:
        assert 2 * lattice_spec.n_large <= pos < n_pos
        assert vel == pos + n_pos


@pytest.mark.parametrize(
    "spec",
    [
        LatticeSpec(p=3, m=1e-4),
        LatticeSpec(p=3),
        LatticeSpec(p=6, m=1e-4),
        LatticeSpec(p=6),
        1e6,
    ],
    ids=["lattice-p3-m1e-4", "lattice-p3", "lattice-p6-m1e-4", "lattice-p6", "simple"],
)
def test_analytic_jacobian_matches_finite_differences(spec, rng):
    # each row's error relative to its largest entry, at perturbed states
    sys = make_lattice(spec) if isinstance(spec, LatticeSpec) else make_simple_model(spec)
    assert sys.jacobian is not None
    fd_sys = dataclasses.replace(sys, jacobian=None)
    for _ in range(3):
        u = sys.initial_value + rng.normal(scale=0.01, size=sys.dimension)
        J = jacobian(sys, u, 0.0)
        J_fd = jacobian(fd_sys, u, 0.0)
        row_scale = np.max(np.abs(J_fd), axis=1)
        assert np.all(row_scale > 0)
        assert np.max(np.max(np.abs(J - J_fd), axis=1) / row_scale) <= 1e-6


def _add_at_kernels(spec):
    """The lattice rhs and Jacobian as np.add.at scattered them, the reference
    that the one-bincount kernels must match bit for bit."""
    positions, ia, ib, rest = _lattice_geometry(spec)
    n_masses = len(positions)
    n_pos = 2 * n_masses
    masses = np.concatenate([np.full(spec.n_large, spec.M), np.full(spec.n_small, spec.m)])
    coord = np.arange(2)
    block_rows = np.stack([ia, ia, ib, ib], axis=1)
    block_cols = np.stack([ia, ib, ia, ib], axis=1)
    rows = n_pos + 2 * block_rows[:, :, None, None] + coord[None, None, :, None]
    cols = 2 * block_cols[:, :, None, None] + coord[None, None, None, :]
    jac_index = (rows * (2 * n_pos) + cols).ravel()
    block_sign = np.array([-1.0, 1.0, 1.0, -1.0])[None, :, None, None]

    def rhs(u):
        pos = u[:n_pos].reshape(n_masses, 2)
        d = pos[ib] - pos[ia]
        length = np.linalg.norm(d, axis=1)
        pull = (spec.kappa * (length - rest) / length)[:, None] * d
        force = np.zeros_like(pos)
        np.add.at(force, ia, pull)
        np.add.at(force, ib, -pull)
        return np.concatenate([u[n_pos:], (force / masses[:, None]).ravel()])

    def jac(u):
        pos = u[:n_pos].reshape(n_masses, 2)
        d = pos[ib] - pos[ia]
        length = np.linalg.norm(d, axis=1)
        ratio = rest / length
        B = (spec.kappa * ratio / (length * length))[:, None, None] * (d[:, :, None] * d[:, None, :])
        B[:, 0, 0] += spec.kappa * (1.0 - ratio)
        B[:, 1, 1] += spec.kappa * (1.0 - ratio)
        J = np.zeros((2 * n_pos, 2 * n_pos))
        np.add.at(J.reshape(-1), jac_index, (block_sign * B[:, None, :, :]).ravel())
        J[n_pos:] /= np.repeat(masses, 2)[:, None]
        J[np.arange(n_pos), n_pos + np.arange(n_pos)] = 1.0
        return J

    return rhs, jac


@pytest.mark.parametrize("p", [2, 3, 6])
def test_lattice_kernels_equal_the_add_at_reference(p, rng):
    # the bincount scatter adds in np.add.at's order, so no bit may move
    spec = LatticeSpec(p=p, m=1e-4)
    sys = make_lattice(spec)
    ref_rhs, ref_jac = _add_at_kernels(spec)
    for scale in (1e-6, 1e-3, 1e-1):
        for _ in range(10):
            u = sys.initial_value + rng.normal(scale=scale, size=sys.dimension)
            np.testing.assert_array_equal(sys.rhs(u, 0.0), ref_rhs(u))
            np.testing.assert_array_equal(sys.jacobian(u, 0.0), ref_jac(u))


def _take_rhs(spec):
    """The lattice rhs as it gathered the spring ends by two np.take calls
    over a (masses, 2) view, for one state or a stack: the reference that the
    one-gather rhs must match bit for bit."""
    positions, ia, ib, rest = _lattice_geometry(spec)
    n_masses = len(positions)
    n_pos = 2 * n_masses
    masses = np.concatenate([np.full(spec.n_large, spec.M), np.full(spec.n_small, spec.m)])
    coord_masses = np.repeat(masses, 2)
    force_index = (2 * np.concatenate([ia, ib])[:, None] + np.arange(2)).ravel()

    def rhs(u):
        stack = u.reshape(-1, 2 * n_pos)
        n_rows = len(stack)
        pos = stack[:, :n_pos].reshape(n_rows, n_masses, 2)
        d = np.take(pos, ib, axis=-2) - np.take(pos, ia, axis=-2)
        length = np.sqrt(d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1])
        pull = (spec.kappa * (length - rest) / length)[..., None] * d
        weights = np.stack([pull, -pull], axis=1)
        index = force_index + n_pos * np.arange(n_rows)[:, None]
        force = np.bincount(index.ravel(), weights.ravel(), n_rows * n_pos).reshape(n_rows, n_pos)
        return np.concatenate([stack[:, n_pos:], force / coord_masses], axis=1).reshape(u.shape)

    return rhs


@pytest.mark.parametrize("p", [2, 3, 6])
def test_lattice_rhs_equals_the_two_take_reference(p, rng):
    # one flat gather of both spring ends leaves every bit where it was
    spec = LatticeSpec(p=p, m=1e-4)
    sys = make_lattice(spec)
    ref = _take_rhs(spec)
    stack = RHS_BLOCK_VALUES // sys.dimension
    for rows in (None, 1, 3, stack, stack + 1):
        shape = (sys.dimension,) if rows is None else (rows, sys.dimension)
        u = sys.initial_value + rng.normal(scale=1e-2, size=shape)
        f = sys.rhs(u, np.zeros(shape[:-1]))
        assert f.shape == shape
        np.testing.assert_array_equal(f.view(np.int64), ref(u).view(np.int64))


def test_simple_jacobian_equals_the_nested_list_and_is_fresh(rng):
    kappa = 1e18
    sys = make_simple_model(kappa)
    for _ in range(10):
        u = rng.normal(size=4)
        ref = np.array(
            [
                [0.0, 0.0, 1.0, 0.0],
                [0.0, 0.0, 0.0, 1.0],
                [-1.0, u[1], 0.0, 0.0],
                [0.0, -kappa, 0.0, 0.0],
            ]
        )
        J = sys.jacobian(u, 0.0)
        np.testing.assert_array_equal(J.view(np.int64), ref.view(np.int64))
        # a caller may scale its copy in place, as the chord matrix does
        J *= -0.5
        J[2, 1] = np.nan
        np.testing.assert_array_equal(sys.jacobian(u, 0.0), ref)


def test_lattice_rhs_neither_mutates_nor_shares_its_state(rng):
    sys = make_lattice(LatticeSpec(p=3))
    u = sys.initial_value + rng.normal(scale=1e-3, size=sys.dimension)
    snapshot = u.copy()
    f = sys.rhs(u, 0.0)
    np.testing.assert_array_equal(u, snapshot)
    assert not np.shares_memory(f, u)


def _frozen_pairs(sys):
    """sys reduced with its oscillator pairs frozen and g = 0.25 elsewhere."""
    active = np.ones(sys.dimension, dtype=bool)
    for pos, vel in sys.oscillator_pairs:
        active[[pos, vel]] = False
    zeros = np.zeros(sys.dimension)
    model = SubgridModel(
        constants=np.where(active, 0.25, 0.0),
        active=active,
        tau=1.0,
        resolved_step=0.01,
        oscillation_amplitude=zeros,
        frozen_deviation=zeros,
        initial_value=sys.initial_value,
    )
    return assemble_reduced(sys, model)


# "stack+1" is one row more than evaluate_rhs hands the system per call
@pytest.mark.parametrize("rows", [1, 64, 65, "stack+1"])
@pytest.mark.parametrize("reduce", [False, True], ids=["full", "reduced"])
@pytest.mark.parametrize(
    "build",
    [
        lambda: make_simple_model(1e18),
        lambda: make_lattice(LatticeSpec(p=2)),
        lambda: make_lattice(LatticeSpec(p=6)),
    ],
    ids=["simple", "lattice-p2", "lattice-p6"],
)
def test_stacked_rhs_rows_equal_single_state_calls(build, reduce, rows, rng):
    sys = _frozen_pairs(build()) if reduce else build()
    assert sys.vectorized
    if rows == "stack+1":
        rows = RHS_BLOCK_VALUES // sys.dimension + 1
    states = sys.initial_value + rng.normal(scale=1e-2, size=(rows, sys.dimension))
    times = np.linspace(0.0, 1.0, rows)
    stacked = evaluate_rhs(sys, states, times)
    per_row = evaluate_rhs(dataclasses.replace(sys, vectorized=False), states, times)
    # int64 views compare bits, so -0.0 and 0.0 differ as well
    np.testing.assert_array_equal(stacked.view(np.int64), per_row.view(np.int64))


def test_lattice_rhs_takes_a_stack_longer_than_a_block(rng):
    sys = make_lattice(LatticeSpec(p=3))
    rows = 2 * (RHS_BLOCK_VALUES // sys.dimension) + 1
    states = sys.initial_value + rng.normal(scale=1e-3, size=(rows, sys.dimension))
    stacked = sys.rhs(states, np.zeros(len(states)))
    per_row = np.array([sys.rhs(u, 0.0) for u in states])
    np.testing.assert_array_equal(stacked.view(np.int64), per_row.view(np.int64))


def _collapsed_lattice():
    """The p=2 lattice with mass 1 moved onto mass 0: that spring has length 0."""
    sys = make_lattice(LatticeSpec(p=2))
    u = sys.initial_value.copy()
    u[2:4] = u[0:2]
    return dataclasses.replace(sys, initial_value=u)


@pytest.mark.parametrize("stage", ["evaluate_rhs", "solve_cg1", "solve_dual", "overflow"])
def test_nonfinite_evaluation_raises_without_numpy_warning(stage):
    # a zero-length spring divides by zero and an overflowing rhs overflows;
    # either must surface as EvaluationError alone, not after a RuntimeWarning
    sys = _collapsed_lattice()
    u = sys.initial_value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EvaluationError, match="non-finite"):
            if stage == "evaluate_rhs":
                evaluate_rhs(sys, u[None], [0.0])
            elif stage == "solve_cg1":
                solve_cg1(sys, TimePartition.uniform(0.0, 0.1, 0.01))
            elif stage == "solve_dual":
                primal = Trajectory([0.0, 0.1], [u, u])
                solve_dual(DualProblem(primal, sys, np.ones(sys.dimension)), 0.05)
            else:
                simple = make_simple_model(1.0)
                evaluate_rhs(simple, [[0.0, 1e200, 0.0, 0.0]], [0.0])
