"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import time
from contextlib import contextmanager

import dataclasses
import numpy as np
import pytest

from conftest import rotation_exact, rotation_system
from modred import (
    DualProblem,
    DynamicalSystem,
    LatticeSpec,
    SubgridModel,
    TimePartition,
    assemble_reduced,
    auto_model,
    averaged_values,
    diameter,
    error_estimate,
    evaluate_rhs,
    lattice_equilibrium,
    make_lattice,
    make_simple_model,
    solve_cg1,
    solve_dual,
    stability_factors,
    validate_at_control_points,
)
from modred.system import interpolate


@contextmanager
def criterion(number, name, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[acceptance] {number}. {name}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    status = "PASS" if elapsed < budget_seconds else "FAIL (over time budget)"
    print(f"[acceptance] {number}. {name}: {status} ({elapsed:.2f}s / budget {budget_seconds:.0f}s)")
    assert elapsed < budget_seconds


@pytest.fixture(scope="module")
def stiff_pipeline():
    sys = make_simple_model(1e18)
    reduced, model, resolved = auto_model(sys, 1e-7, 2e-10)
    return sys, reduced, model, resolved


@pytest.fixture(scope="module")
def lattice_pipeline():
    spec = LatticeSpec(p=3, M=100.0, m=1e-4)
    sys = make_lattice(spec)
    reduced, model, resolved = auto_model(sys, 1.0, 0.002)
    return spec, sys, reduced, model, resolved


def test_criterion_1_subgrid_constant(stiff_pipeline):
    with criterion(1, "subgrid constant 0.2495 +- 0.005", 5.0):
        sys = make_simple_model(1e18)
        _, model, _ = auto_model(sys, 1e-7, 2e-10)
        assert abs(model.constants[2] - 0.2495) <= 0.005
        assert not model.active[1] and not model.active[3]


def test_criterion_2_reduced_solution_accuracy(stiff_pipeline):
    with criterion(2, "reduced solution matches (1/4)(1 - cos t)", 5.0):
        _, reduced, _, _ = stiff_pipeline
        traj = solve_cg1(reduced, TimePartition.uniform(0, 100.0, 0.01))
        exact = 0.25 * (1.0 - np.cos(traj.times))
        assert np.max(np.abs(traj.states[:, 0] - exact)) <= 1e-2


def test_criterion_3_cost_bookkeeping(stiff_pipeline):
    with criterion(3, "total step count ~ 1e3 vs 1e12 for full resolution", 5.0):
        _, reduced, _, resolved = stiff_pipeline
        resolved_steps = len(resolved.times) - 1
        part = TimePartition.uniform(0, 100.0, 0.1)
        traj = solve_cg1(reduced, part)
        reduced_steps = len(traj.times) - 1
        assert reduced_steps == 1000
        assert resolved_steps <= 2000
        assert resolved_steps + reduced_steps <= 3000
        # versus ~1e12 steps for resolving [0, 100] at ~1e-10
        assert (resolved_steps + reduced_steps) / 1e12 < 1e-8


def test_criterion_4_oracle_equivalence_moderate_stiffness():
    with criterion(4, "reduced solution tracks averaged brute force (kappa=1e4)", 60.0):
        sys = make_simple_model(1e4)
        brute = solve_cg1(sys, TimePartition.uniform(0, 10.0, 1e-4))
        nodes = np.linspace(0.05, 9.95, 1987)
        oracle = averaged_values(brute, 0.1, nodes)

        reduced, model, _ = auto_model(sys, 0.1, 2e-4)
        traj = solve_cg1(reduced, TimePartition.uniform(0, 10.0, 0.01))
        red_u1 = interpolate(traj.times, traj.states, nodes)[1][:, 0]
        rel = np.max(np.abs(red_u1 - oracle[:, 0])) / np.max(np.abs(oracle[:, 0]))
        assert rel <= 0.05


def test_criterion_5_lattice_baseline_and_contraction(lattice_pipeline):
    with criterion(5, "lattice: sqrt(2) baseline, contraction with modeling", 120.0):
        spec, sys, reduced, model, resolved = lattice_pipeline

        # baseline A: no fast scales excited, no subgrid model -> D constant
        quiet_spec = dataclasses.replace(spec, initial_small_displacement=0.0)
        quiet = make_lattice(quiet_spec)
        base = solve_cg1(quiet, TimePartition.uniform(0, 20.0, 0.05))
        D0 = diameter(base.states, quiet_spec)
        assert np.max(np.abs(D0 - np.sqrt(2.0))) <= 1e-6

        # baseline B: fitted inactivation mask with the subgrid constants
        # zeroed and the frozen state at equilibrium -> D constant
        zero_model = dataclasses.replace(
            model,
            constants=np.zeros_like(model.constants),
            initial_value=lattice_equilibrium(spec),
        )
        frozen = assemble_reduced(sys, zero_model)
        base2 = solve_cg1(frozen, TimePartition.uniform(0, 20.0, 0.05))
        D1 = diameter(base2.states, spec)
        assert np.max(np.abs(D1 - np.sqrt(2.0))) <= 1e-6

        # automatic modeling: the diameter oscillates and contracts
        traj = solve_cg1(reduced, TimePartition.uniform(0, 20.0, 0.05))
        D = diameter(traj.states, spec)
        assert D.max() - D.min() > 1e-4
        window = (traj.times >= 5.0) & (traj.times <= 10.0)
        assert np.mean(D[window]) < np.sqrt(2.0)


def test_criterion_6_dual_and_property_suite():
    with criterion(6, "dual soundness and property suite", 10.0):
        # 2D linear system with analytic solution and adjoint
        sys = rotation_system()
        k = 0.01
        trivial = SubgridModel(
            constants=np.zeros(2),
            active=np.ones(2, dtype=bool),
            tau=0.1,
            resolved_step=2e-4,
            oscillation_amplitude=np.zeros(2),
            frozen_deviation=np.zeros(2),
            initial_value=sys.initial_value,
        )
        reduced = assemble_reduced(sys, trivial)
        U = solve_cg1(reduced, TimePartition.uniform(0, 1.0, k))
        psi = np.array([1.0, 0.0])
        dp = DualProblem(primal=U, sys=reduced, psi=psi)
        phi = solve_dual(dp, k)

        # solve_dual matches the analytic adjoint phi(t) = R(T - t)^T psi
        s = 1.0 - phi.times
        phi_exact = np.stack([np.cos(s), np.sin(s)], axis=1)
        assert np.max(np.abs(phi.states - phi_exact)) <= 1e-4

        points = validate_at_control_points(U, sys, trivial, [0.3, 0.7])
        est = error_estimate(U, reduced, trivial, phi, points)
        e_true = abs(float((U.states[-1] - rotation_exact(sys.initial_value, 1.0)) @ psi))
        assert e_true <= est.total

        # dual linearity
        phi2 = solve_dual(DualProblem(primal=U, sys=reduced, psi=3.0 * psi), k)
        np.testing.assert_allclose(phi2.states, 3.0 * phi.states, rtol=1e-12)

        # S-factor homogeneity
        s0, s1 = stability_factors(phi)
        s0b, s1b = stability_factors(phi2)
        assert s0b == pytest.approx(3.0 * s0, rel=1e-12)
        assert s1b == pytest.approx(3.0 * s1, rel=1e-12)

        # zero variance for linear f
        lin_reduced, lin_model, _ = auto_model(sys, 0.05, 1e-4)
        assert lin_model.active.all()
        f0 = evaluate_rhs(sys, [sys.initial_value], [0.0])
        assert np.max(np.abs(lin_model.constants)) <= 1e-6 * np.max(np.abs(f0)) + 1e-12

        # frozen-component exactness on the stiff model
        stiff = make_simple_model(1e18)
        sreduced, smodel, _ = auto_model(stiff, 1e-7, 2e-10)
        straj = solve_cg1(sreduced, TimePartition.uniform(0, 10.0, 0.05))
        for i in np.flatnonzero(~smodel.active):
            assert np.all(straj.states[:, i] == smodel.initial_value[i])

        # cG(1) second-order convergence
        decay = DynamicalSystem(1, lambda u, t: -u, np.array([1.0]))
        errs = []
        for kk in (0.02, 0.01):
            t2 = solve_cg1(decay, TimePartition.uniform(0, 1.0, kk))
            errs.append(np.max(np.abs(t2.states[:, 0] - np.exp(-t2.times))))
        assert 3.5 <= errs[0] / errs[1] <= 4.5


def test_criterion_7_control_point_validity_decay(lattice_pipeline):
    with criterion(7, "lattice control-point deviation grows over time", 120.0):
        spec, sys, reduced, model, resolved = lattice_pipeline
        traj = solve_cg1(reduced, TimePartition.uniform(0, 24.0, 0.05))
        points = [3.0, 9.0, 15.0, 21.0]
        devs = [p.deviation for p in validate_at_control_points(traj, sys, model, points)]
        assert len(devs) >= 3
        assert devs[-1] > devs[0]
        slope = np.polyfit(points, devs, 1)[0]
        assert slope > 0
