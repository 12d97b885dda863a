"""Metamorphic tests of units: the same physics in another unit of time or of
state must give the same reduction.

Each case runs the pipeline of `modred reduce` + `modred estimate` on an
example config through `reduce_run` and `estimate_run`, once as shipped and
once rescaled by a power of two c, so that every scaled value is exact and a
unit-free pipeline gives the unscaled bits, or c times them.

- Time: t -> c t, with T, tau and both steps times c and f, J divided by c.
  The frozen set, the states and `total` must be bit for bit the same, and
  the nodes c times the unscaled ones.
- State: u -> c u, with f(u) -> c f(u / c), J(u) -> J(u / c) and u0 -> c u0.
  The frozen set must be the same, and the states and `total` c times the
  unscaled ones.  The fit's tests, the solver's stopping rule and the FD
  step measure against max(1, |u|), which a unit of state moves, so five
  cases fail today (ROADMAP item 22).
"""

import dataclasses

import numpy as np
import pytest

from modred import ConvergenceError, estimate_run, reduce_run
from modred.cli import _EXAMPLE_CONFIGS, build_system, parse_config, parse_psi


@pytest.fixture(scope="module")
def examples(tmp_path_factory):
    """Example name -> (config, system, unscaled model, trajectory, estimate)."""
    out = {}
    for name, text in _EXAMPLE_CONFIGS.items():
        path = tmp_path_factory.mktemp("units") / f"{name}.cfg"
        path.write_text(text)
        cfg = parse_config(str(path))
        system, _ = build_system(cfg)
        out[name] = (cfg, system, *_pipeline(system, cfg))
    return out


def _pipeline(system, cfg):
    model, traj, _ = reduce_run(system, cfg)
    estimate, _, _ = estimate_run(system, model, traj, parse_psi(cfg.psi, system.dimension), cfg)
    return model, traj, estimate


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


@pytest.mark.parametrize("k", [-3, 5])
@pytest.mark.parametrize("name", ["simple", "lattice"])
def test_a_unit_of_time_changes_no_bit(examples, name, k):
    cfg, system, model, traj, estimate = examples[name]
    c = 2.0**k
    rhs, jac = system.rhs, system.jacobian
    scaled = dataclasses.replace(
        system,
        rhs=lambda u, t: rhs(u, t / c) / c,
        jacobian=None if jac is None else lambda u, t: jac(u, t / c) / c,
    )
    steps = {key: getattr(cfg, key) * c for key in ("T", "tau", "resolved_step", "reduced_step")}
    model_c, traj_c, estimate_c = _pipeline(scaled, dataclasses.replace(cfg, **steps))
    np.testing.assert_array_equal(model_c.active, model.active)
    np.testing.assert_array_equal(_bits(traj_c.times), _bits(c * traj.times))
    np.testing.assert_array_equal(_bits(traj_c.states), _bits(traj.states))
    assert _bits(estimate_c.total) == _bits(estimate.total)


def _item_22(name, k, raises):
    return pytest.param(
        name, k,
        marks=pytest.mark.xfail(
            strict=True, raises=raises, reason="ROADMAP item 22: the reduction depends on the unit of the state"
        ),
    )


@pytest.mark.parametrize(
    "name,k",
    [
        # nothing freezes, and the reduced solve fails at its first interval
        _item_22("simple", -13, ConvergenceError),
        ("simple", -6),
        _item_22("simple", 10, ConvergenceError),
        _item_22("lattice", -13, ConvergenceError),
        # other components freeze
        _item_22("lattice", -6, AssertionError),
        _item_22("lattice", 10, AssertionError),
    ],
)
def test_a_unit_of_state_scales_the_run(examples, name, k):
    cfg, system, model, traj, estimate = examples[name]
    c = 2.0**k
    rhs, jac = system.rhs, system.jacobian
    scaled = dataclasses.replace(
        system,
        rhs=lambda u, t: c * rhs(u / c, t),
        initial_value=c * system.initial_value,
        jacobian=None if jac is None else lambda u, t: jac(u / c, t),
    )
    model_c, traj_c, estimate_c = _pipeline(scaled, cfg)
    np.testing.assert_array_equal(model_c.active, model.active)
    np.testing.assert_array_equal(_bits(traj_c.states), _bits(c * traj.states))
    assert _bits(estimate_c.total) == _bits(c * estimate.total)
