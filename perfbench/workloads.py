"""The benchmark's workloads: fixed modred configs whose output functional
psi is drawn from the seed.

See README.md beside this file for why each workload exists.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# The `modred example simple` config, with the output functional and prefix
# left for the generator to fill in.
_SIMPLE = """\
problem = simple
kappa = 1e18
T = {T}
tau = 1e-7
resolved_step = 2e-10
reduced_step = 0.1
step = 2e-10
control_points = 4
psi = {psi}
output = {output}
"""

# The `modred example lattice` config at p = 6 (N = 244).
_LATTICE = """\
problem = lattice
p = {p}
M = 100
m = 1e-4
kappa = 1
T = 20
tau = 1
reduced_step = 0.05
step = 0.002
control_points = 4
psi = {psi}
output = {output}
observables = diameter,d_small
"""


@dataclass(frozen=True)
class Workload:
    name: str
    problem: str
    T: float = 100.0
    p: int = 0

    @property
    def dimension(self) -> int:
        if self.problem == "simple":
            return 4
        return 4 * (self.p**2 + (self.p - 1) ** 2)

    @property
    def has_reference(self) -> bool:
        """Whether the closed-form reduced solution applies."""
        return self.problem == "simple"

    def expected_frozen(self) -> frozenset[int]:
        """1-based indices the reduction must freeze: the stiff oscillator
        (u2, u4) of the simple model, or every small-mass position and
        velocity component of the lattice."""
        if self.problem == "simple":
            return frozenset({2, 4})
        n_large = self.p**2
        n_pos = 2 * (n_large + (self.p - 1) ** 2)
        small = range(2 * n_large + 1, n_pos + 1)
        return frozenset(small) | frozenset(i + n_pos for i in small)

    def psi(self, seed: int) -> np.ndarray:
        """Output functional drawn from the seed; seed 0 gives e1.

        Simple model: a unit vector in span{e1, e3} at a uniform angle.  The
        slow oscillator is rotation-invariant in that plane, so the bound
        hardly depends on the angle.  Lattice: a unit vector with weights
        uniform in [0.5, 1.5] over the large-mass position components, a
        weighted mean position.  Such functionals give bounds within a few
        percent of each other, where random directions spread by about 10%.
        """
        psi = np.zeros(self.dimension)
        if seed == 0:
            psi[0] = 1.0
            return psi
        rng = np.random.default_rng(seed)
        if self.problem == "simple":
            angle = rng.uniform(0.0, 2.0 * np.pi)
            psi[0], psi[2] = np.cos(angle), np.sin(angle)
            return psi
        n = 2 * self.p**2
        psi[:n] = rng.uniform(0.5, 1.5, n)
        return psi / np.linalg.norm(psi)

    def config(self, seed: int, output: str) -> str:
        """Config text for this workload and seed, writing under ``output``."""
        psi = ",".join(repr(float(v)) for v in self.psi(seed))
        if self.problem == "simple":
            return _SIMPLE.format(T=f"{self.T:g}", psi=psi, output=output)
        return _LATTICE.format(p=self.p, psi=psi, output=output)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("simple-stiff", "simple", T=100.0),
        Workload("simple-long", "simple", T=2000.0),
        Workload("lattice-p6", "lattice", p=6),
    )
}
