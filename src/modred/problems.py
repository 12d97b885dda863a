"""Built-in benchmark systems: a two-mass model with one very stiff spring,
and a 2D lattice of large and small point masses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .system import Array, DynamicalSystem, Trajectory, trajectory_eval


@dataclass(frozen=True)
class SimpleModelSpec:
    """Unit mass on a soft spring, driven quadratically by a second unit mass
    on a very stiff spring (constant kappa) oscillating perpendicular to it."""

    kappa: float
    T: float

    def __post_init__(self):
        if self.kappa < 1:
            raise ValueError(f"kappa must be >= 1, got {self.kappa}")
        if not self.T > 0:
            raise ValueError(f"T must be positive, got {self.T}")


def make_simple_model(spec: SimpleModelSpec) -> DynamicalSystem:
    """First-order form of the two-mass model.

    State (u1, u2, u3, u4) = (x1, x2, x1', x2') with

        f(u) = (u3, u4, -u1 + u2**2 / 2, -kappa * u2),

    started from (0, 1, 0, 0).  The stiff oscillator u2 and its velocity u4
    are declared as an oscillator pair for the inactivation rule.
    """
    kappa = spec.kappa

    def rhs(u, t):
        return np.array([u[2], u[3], -u[0] + 0.5 * u[1] * u[1], -kappa * u[1]])

    def jac(u, t):
        return np.array(
            [
                [0.0, 0.0, 1.0, 0.0],
                [0.0, 0.0, 0.0, 1.0],
                [-1.0, u[1], 0.0, 0.0],
                [0.0, -kappa, 0.0, 0.0],
            ]
        )

    return DynamicalSystem(
        dimension=4,
        rhs=rhs,
        initial_value=np.array([0.0, 1.0, 0.0, 0.0]),
        final_time=spec.T,
        jacobian=jac,
        oscillator_pairs=((1, 3),),
    )


def analytic_reduced_simple(t: float) -> float:
    """Closed-form first component of the reduced two-mass model,
    (1/4) * (1 - cos t)."""
    return 0.25 * (1.0 - np.cos(t))


@dataclass(frozen=True)
class LatticeSpec:
    """Square lattice on the unit square: p**2 large masses at the grid
    points, (p-1)**2 small masses at the cell centers, linear springs of equal
    stiffness along grid edges (large-large) and cell diagonals (small-large),
    with rest lengths equal to the undisplaced separations so the unperturbed
    configuration is an equilibrium.

    Each small mass starts displaced along its cell's anti-diagonal (the
    transverse direction for the springs to the main-diagonal corners, whose
    rectified mean tension is what contracts the lattice) with zero velocity.
    ``initial_small_displacement`` is an absolute length; None picks the
    default 0.05 x cell size.
    """

    p: int
    M: float = 100.0
    m: float = 1e-12
    kappa: float = 1.0
    initial_small_displacement: float | None = None
    T: float = 100.0

    def __post_init__(self):
        if self.p < 2:
            raise ValueError(f"p must be >= 2, got {self.p}")
        if not (self.M > 0 and self.m > 0):
            raise ValueError("masses must be positive")
        if not self.kappa > 0:
            raise ValueError("kappa must be positive")
        if not self.T > 0:
            raise ValueError("T must be positive")

    @property
    def n_large(self) -> int:
        return self.p * self.p

    @property
    def n_small(self) -> int:
        return (self.p - 1) * (self.p - 1)

    @property
    def cell(self) -> float:
        return 1.0 / (self.p - 1)

    @property
    def displacement(self) -> float:
        if self.initial_small_displacement is not None:
            return self.initial_small_displacement
        return 0.05 * self.cell


def _lattice_geometry(spec: LatticeSpec):
    """Rest positions, spring index pairs, and rest lengths."""
    p = spec.p
    a = spec.cell
    positions = np.zeros((spec.n_large + spec.n_small, 2))
    for j in range(p):
        for i in range(p):
            positions[j * p + i] = (i * a, j * a)
    for j in range(p - 1):
        for i in range(p - 1):
            positions[spec.n_large + j * (p - 1) + i] = ((i + 0.5) * a, (j + 0.5) * a)

    springs = []
    for j in range(p):
        for i in range(p):
            l = j * p + i
            if i + 1 < p:
                springs.append((l, j * p + i + 1))
            if j + 1 < p:
                springs.append((l, (j + 1) * p + i))
    for j in range(p - 1):
        for i in range(p - 1):
            s = spec.n_large + j * (p - 1) + i
            for dj in (0, 1):
                for di in (0, 1):
                    springs.append(((j + dj) * p + i + di, s))

    ia = np.array([s[0] for s in springs])
    ib = np.array([s[1] for s in springs])
    rest = np.linalg.norm(positions[ib] - positions[ia], axis=1)
    return positions, ia, ib, rest


def lattice_equilibrium(spec: LatticeSpec) -> Array:
    """The zero-force state: undisplaced positions, zero velocities."""
    positions, _, _, _ = _lattice_geometry(spec)
    return np.concatenate([positions.ravel(), np.zeros(positions.size)])


def make_lattice(spec: LatticeSpec) -> DynamicalSystem:
    """Assemble the lattice as a first-order system.

    State layout: all positions (large masses row-major, then small masses,
    (x, y) per mass), followed by all velocities in the same order.  Every
    small-mass coordinate is declared as an oscillator pair with its velocity.

    The Jacobian is analytic: a spring from mass a to mass b with separation
    d = x_b - x_a, length L and rest length r has the 2x2 stiffness block
    B = kappa * ((1 - r/L) I + (r/L**3) d d^T), which enters the (a, a),
    (a, b), (b, a), (b, b) position blocks as -B, +B, +B, -B; the force rows
    are divided by the masses and the velocity block is the identity.  A
    dual step therefore costs one assembly and one dense solve, with no rhs
    evaluations.
    """
    positions, ia, ib, rest = _lattice_geometry(spec)
    n_masses = spec.n_large + spec.n_small
    n_pos = 2 * n_masses
    masses = np.concatenate(
        [np.full(spec.n_large, spec.M), np.full(spec.n_small, spec.m)]
    )
    kappa = spec.kappa

    # Flat indices of the 16 entries each spring scatters into the force
    # rows of the Jacobian, ordered (block, row, col) to match the values.
    coord = np.arange(2)
    block_rows = np.stack([ia, ia, ib, ib], axis=1)  # (springs, 4)
    block_cols = np.stack([ia, ib, ia, ib], axis=1)
    rows = n_pos + 2 * block_rows[:, :, None, None] + coord[None, None, :, None]
    cols = 2 * block_cols[:, :, None, None] + coord[None, None, None, :]
    jac_index = (rows * (2 * n_pos) + cols).ravel()
    block_sign = np.array([-1.0, 1.0, 1.0, -1.0])[None, :, None, None]
    row_masses = np.repeat(masses, 2)[:, None]
    velocity_diagonal = (np.arange(n_pos), n_pos + np.arange(n_pos))

    u0_pos = positions.copy()
    disp = spec.displacement * np.array([-1.0, 1.0]) / np.sqrt(2.0)
    u0_pos[spec.n_large :] += disp
    u0 = np.concatenate([u0_pos.ravel(), np.zeros(n_pos)])

    def rhs(u, t):
        pos = u[:n_pos].reshape(n_masses, 2)
        vel = u[n_pos:].reshape(n_masses, 2)
        d = pos[ib] - pos[ia]
        length = np.linalg.norm(d, axis=1)
        pull = (kappa * (length - rest) / length)[:, None] * d
        force = np.zeros_like(pos)
        np.add.at(force, ia, pull)
        np.add.at(force, ib, -pull)
        return np.concatenate([vel.ravel(), (force / masses[:, None]).ravel()])

    def jac(u, t):
        pos = u[:n_pos].reshape(n_masses, 2)
        d = pos[ib] - pos[ia]
        length = np.linalg.norm(d, axis=1)
        ratio = rest / length
        B = (kappa * ratio / (length * length))[:, None, None] * (d[:, :, None] * d[:, None, :])
        B[:, 0, 0] += kappa * (1.0 - ratio)
        B[:, 1, 1] += kappa * (1.0 - ratio)
        J = np.zeros((2 * n_pos, 2 * n_pos))
        np.add.at(J.reshape(-1), jac_index, (block_sign * B[:, None, :, :]).ravel())
        J[n_pos:] /= row_masses
        J[velocity_diagonal] = 1.0
        return J

    pairs = tuple(
        (2 * spec.n_large + c, n_pos + 2 * spec.n_large + c)
        for c in range(2 * spec.n_small)
    )
    return DynamicalSystem(
        dimension=2 * n_pos,
        rhs=rhs,
        initial_value=u0,
        final_time=spec.T,
        jacobian=jac,
        oscillator_pairs=pairs,
    )


def _mass_position(state: Array, spec: LatticeSpec, mass_index: int) -> Array:
    expected = 4 * (spec.n_large + spec.n_small)
    if len(state) != expected:
        raise ValueError(
            f"state has {len(state)} components, lattice p={spec.p} needs {expected}"
        )
    return state[2 * mass_index : 2 * mass_index + 2]


def diameter(traj: Trajectory, spec: LatticeSpec, t: float) -> float:
    """Distance between the corner large masses at (0, 0) and (1, 1)."""
    state = trajectory_eval(traj, t)
    lower = _mass_position(state, spec, 0)
    upper = _mass_position(state, spec, spec.n_large - 1)
    return float(np.linalg.norm(upper - lower))


def small_mass_distance(traj: Trajectory, spec: LatticeSpec, t: float) -> float:
    """Distance between the large mass at (0, 0) and its cell's small mass."""
    state = trajectory_eval(traj, t)
    lower = _mass_position(state, spec, 0)
    small = _mass_position(state, spec, spec.n_large)
    return float(np.linalg.norm(small - lower))
