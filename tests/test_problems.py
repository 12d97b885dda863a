import dataclasses

import numpy as np
import pytest

from modred import (
    LatticeSpec,
    SimpleModelSpec,
    TimePartition,
    Trajectory,
    analytic_reduced_simple,
    diameter,
    evaluate_rhs,
    jacobian,
    lattice_equilibrium,
    make_lattice,
    make_simple_model,
    small_mass_distance,
    solve_cg1,
)


def test_simple_model_rhs_and_pairs():
    kappa = 7.0
    sys = make_simple_model(SimpleModelSpec(kappa=kappa, T=1.0))
    np.testing.assert_allclose(
        evaluate_rhs(sys, [sys.initial_value], [0.0]), [[0.0, 0.0, 0.5, -kappa]]
    )
    assert sys.oscillator_pairs == ((1, 3),)


def test_simple_model_oscillator_amplitude_and_phase():
    # u2 obeys u2'' + kappa u2 = 0 from (1, 0): amplitude is an invariant of
    # the midpoint rule and the phase error stays tiny at this resolution
    kappa = 1.0
    sys = make_simple_model(SimpleModelSpec(kappa=kappa, T=100.0))
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
        SimpleModelSpec(kappa=0.5, T=1.0)
    with pytest.raises(ValueError):
        SimpleModelSpec(kappa=2.0, T=0.0)


@pytest.fixture(scope="module")
def lattice_spec():
    return LatticeSpec(p=3, M=100.0, m=1e-4, T=10.0)


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
    spec = LatticeSpec(p=3, m=1e-4, initial_small_displacement=0.0, T=1.0)
    sys = make_lattice(spec)
    traj = Trajectory([0.0, 1.0], np.tile(sys.initial_value, (2, 1)))
    np.testing.assert_allclose(small_mass_distance(traj.states, spec), np.sqrt(2.0) / 4.0)
    spec2 = LatticeSpec(p=2, m=1e-4, initial_small_displacement=0.0, T=1.0)
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
        LatticeSpec(p=3, m=1e-4, T=1.0),
        LatticeSpec(p=3, T=1.0),
        LatticeSpec(p=6, m=1e-4, T=1.0),
        LatticeSpec(p=6, T=1.0),
        SimpleModelSpec(kappa=1e6, T=1.0),
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
