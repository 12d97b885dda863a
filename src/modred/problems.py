"""Built-in benchmark systems: a two-mass model with one very stiff spring,
and a 2D lattice of large and small point masses.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .system import Array, DynamicalSystem, row_norms


def make_simple_model(kappa: float) -> DynamicalSystem:
    """Unit mass on a soft spring, driven quadratically by a second unit mass
    on a very stiff spring (constant kappa >= 1) oscillating perpendicular to
    it, in first-order form.

    State (u1, u2, u3, u4) = (x1, x2, x1', x2') with

        f(u) = (u3, u4, -u1 + u2**2 / 2, -kappa * u2),

    started from (0, 1, 0, 0).  The stiff oscillator u2 and its velocity u4
    are declared as an oscillator pair for the inactivation rule.  The rhs
    and the Jacobian take one state or a stack of them.
    """
    if not (math.isfinite(kappa) and kappa >= 1):
        raise ValueError(f"kappa must be finite and >= 1, got {kappa!r}")

    def rhs(u, t):
        # Python floats for one state, columns for a stack: the same roundings.
        u1, u2, u3, u4 = u.tolist() if u.ndim == 1 else u.T
        return np.array([u3, u4, -u1 + 0.5 * u2 * u2, -kappa * u2]).T

    # Entry (2, 1) is u2, set on a fresh copy per state.
    jac_template = np.array(
        [
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
            [-1.0, 0.0, 0.0, 0.0],
            [0.0, -kappa, 0.0, 0.0],
        ]
    )

    def jac(u, t):
        J = np.tile(jac_template, (*u.shape[:-1], 1, 1))
        J[..., 2, 1] = u[..., 1]
        return J

    return DynamicalSystem(
        dimension=4,
        rhs=rhs,
        initial_value=np.array([0.0, 1.0, 0.0, 0.0]),
        jacobian=jac,
        oscillator_pairs=((1, 3),),
        vectorized=True,
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

    def __post_init__(self):
        if not isinstance(self.p, numbers.Integral):
            raise ValueError(f"p must be an integer, got {self.p!r}")
        if self.p < 2:
            raise ValueError(f"p must be >= 2, got {self.p}")
        for key in ("M", "m", "kappa", "initial_small_displacement"):
            value = getattr(self, key)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{key} must be finite, got {value!r}")
        if not (self.M > 0 and self.m > 0):
            raise ValueError("masses must be positive")
        if not self.kappa > 0:
            raise ValueError("kappa must be positive")

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

    Both kernels scatter with one np.bincount, which adds in input order from
    0.0: bit for bit the sums np.add.at makes over the a-ends, then the b-ends.
    Both take one state or a stack of them; row r of a stack scatters into
    its own bins, offset by r times the bins of one state, in the order of a
    single state.
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
    jac_size = 4 * n_pos**2
    block_sign = np.array([-1.0, 1.0, 1.0, -1.0])[None, :, None, None]
    # Flat force index of each spring end's (x, y), all a-ends then all b-ends.
    force_index = (2 * np.concatenate([ia, ib])[:, None] + coord).ravel()
    # Flat coordinates of every spring's b-end (x, y), then of its a-end: one
    # gather takes both, and their difference is the separations, (x, y) per spring.
    ends = (2 * np.concatenate([ib, ia])[:, None] + coord).ravel()
    n_sep = 2 * len(ia)
    coord_masses = np.repeat(masses, 2)
    # Entries (i, n_pos + i) of every Jacobian in a stack.
    velocity_diagonal = (slice(None), np.arange(n_pos), n_pos + np.arange(n_pos))

    u0_pos = positions.copy()
    disp = spec.displacement * np.array([-1.0, 1.0]) / np.sqrt(2.0)
    u0_pos[spec.n_large :] += disp
    u0 = np.concatenate([u0_pos.ravel(), np.zeros(n_pos)])

    def springs(u):
        """Separations (..., springs, 2) and lengths of one state or a stack."""
        e = u.take(ends, axis=-1)
        d = e[..., :n_sep] - e[..., n_sep:]
        dd = d * d
        # np.linalg.norm(d, axis=-1) of the (x, y) pairs
        return d.reshape(*u.shape[:-1], -1, 2), np.sqrt(dd[..., 0::2] + dd[..., 1::2])

    def rhs(u, t):
        stack = u.reshape(-1, 2 * n_pos)
        n_rows = len(stack)
        d, length = springs(stack)
        weights = np.empty((n_rows, 2, *d.shape[1:]))  # per row pull, then -pull
        np.multiply((kappa * (length - rest) / length)[..., None], d, out=weights[:, 0])
        np.negative(weights[:, 0], out=weights[:, 1])
        # A single state, as the chord solver passes on each call, needs no row
        # offsets; building them costs about 3 us of a 25 us call at p=6.
        index = force_index if n_rows == 1 else force_index + n_pos * np.arange(n_rows)[:, None]
        force = np.bincount(index.ravel(), weights.ravel(), n_rows * n_pos).reshape(n_rows, n_pos)
        return np.concatenate([stack[:, n_pos:], force / coord_masses], axis=1).reshape(u.shape)

    def jac(u, t):
        stack = u.reshape(-1, 2 * n_pos)
        n_rows = len(stack)
        d, length = springs(stack)
        ratio = rest / length
        B = (kappa * ratio / (length * length))[..., None, None] * (d[..., :, None] * d[..., None, :])
        B[..., 0, 0] += kappa * (1.0 - ratio)
        B[..., 1, 1] += kappa * (1.0 - ratio)
        index = jac_index if n_rows == 1 else jac_index + jac_size * np.arange(n_rows)[:, None]
        J = np.bincount(index.ravel(), (block_sign * B[:, :, None]).ravel(), n_rows * jac_size)
        J = J.reshape(n_rows, 2 * n_pos, 2 * n_pos)
        J[:, n_pos:] /= coord_masses[:, None]
        J[velocity_diagonal] = 1.0
        return J.reshape(*u.shape, -1)

    pairs = tuple(
        (2 * spec.n_large + c, n_pos + 2 * spec.n_large + c)
        for c in range(2 * spec.n_small)
    )
    return DynamicalSystem(
        dimension=2 * n_pos,
        rhs=rhs,
        initial_value=u0,
        jacobian=jac,
        oscillator_pairs=pairs,
        vectorized=True,
    )


def _distance(states: Array, spec: LatticeSpec, a: int, b: int) -> Array:
    """Per lattice state row, the distance between masses a and b."""
    states = np.asarray(states, dtype=float)
    n = 4 * (spec.n_large + spec.n_small)
    if states.ndim != 2 or states.shape[1] != n:
        raise ValueError(f"states of shape {states.shape}: lattice p={spec.p} has {n} components")
    return row_norms(states[:, 2 * b : 2 * b + 2] - states[:, 2 * a : 2 * a + 2])


def diameter(states: Array, spec: LatticeSpec) -> Array:
    """Per state row, the distance between the corner large masses at (0, 0)
    and (1, 1)."""
    return _distance(states, spec, 0, spec.n_large - 1)


def small_mass_distance(states: Array, spec: LatticeSpec) -> Array:
    """Per state row, the distance between the large mass at (0, 0) and its
    cell's small mass."""
    return _distance(states, spec, 0, spec.n_large)
