import dataclasses

import numpy as np
import pytest

from modred import DynamicalSystem


def linear_system(A, u0):
    """LTI system u' = A u with analytic Jacobian."""
    A = np.asarray(A, dtype=float)
    return DynamicalSystem(
        dimension=len(u0),
        rhs=lambda u, t: A @ u,
        initial_value=np.asarray(u0, dtype=float),
        jacobian=lambda u, t: A,
    )


def rotation_system(u0=(1.0, 0.0)):
    """Planar rotation: u1' = u2, u2' = -u1, with closed-form solution."""
    return linear_system([[0.0, 1.0], [-1.0, 0.0]], u0)


def rotation_exact(u0, t):
    c, s = np.cos(t), np.sin(t)
    return np.array([c * u0[0] + s * u0[1], -s * u0[0] + c * u0[1]])


def forced_oscillator():
    """u1'' = -400 u1 + cos(t) u1**2: a fast oscillator whose rhs and
    Jacobian both depend on t."""

    def rhs(u, t):
        return np.array([u[1], -400.0 * u[0] + np.cos(t) * u[0] ** 2])

    def jac(u, t):
        return np.array([[0.0, 1.0], [-400.0 + 2.0 * np.cos(t) * u[0], 0.0]])

    return DynamicalSystem(2, rhs, np.array([0.5, 0.0]), jacobian=jac)


def rhs_counted(sys):
    """sys with an rhs that counts its calls and the state rows it is given,
    and the counts {"calls": ..., "rows": ...}."""
    counts = {"calls": 0, "rows": 0}
    rhs = sys.rhs

    def counted(u, t):
        counts["calls"] += 1
        counts["rows"] += len(u) if u.ndim == 2 else 1
        return rhs(u, t)

    return dataclasses.replace(sys, rhs=counted), counts


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
