"""Spans around calls into modred's layers, recorded from outside the package.

``instrument(tracer)`` rebinds module attributes of modred to wrappers that
open a span per call, and wraps the rhs of every system that
``cli.build_system`` returns with ``dataclasses.replace``.  Nothing under
``src/`` changes; the original attributes come back when the context exits.

The rhs and Jacobian kernels run 10^4 to 10^6 times per pipeline, so they are
not spans of their own: their calls and time are summed onto the innermost
open span.  A span's self time is its duration minus its child spans and the
kernel time summed onto it.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import time
from dataclasses import dataclass, field

import modred.cli
import modred.dual
import modred.reduction


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    run: int
    start: float
    end: float = 0.0
    # Kernel work summed onto this span (calls whose innermost span it is).
    rhs_calls: int = 0
    rhs_s: float = 0.0  # rhs time outside Jacobian calls
    jacobian_calls: int = 0
    jacobian_s: float = 0.0  # includes the finite-difference rhs calls
    fd_rhs_calls: int = 0
    fd_rhs_s: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def kernel_s(self) -> float:
        return self.rhs_s + self.jacobian_s

    def to_json(self) -> dict:
        out = dataclasses.asdict(self)
        out.update(out.pop("attrs"))
        return out


class Tracer:
    """In-memory span recorder; one ``run`` id per traced pipeline."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._in_jacobian = False
        self._epoch = time.perf_counter()
        self.run = 0

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        parent = self._stack[-1].id if self._stack else None
        sp = Span(len(self.spans), name, parent, self.run, self._now(), attrs=attrs)
        self.spans.append(sp)
        self._stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = self._now()
            self._stack.pop()

    def _now(self) -> float:
        return time.perf_counter() - self._epoch

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def rhs_kernel(self, rhs):
        perf = time.perf_counter

        def traced_rhs(u, t):
            t0 = perf()
            out = rhs(u, t)
            elapsed = perf() - t0
            sp = self._stack[-1]
            if self._in_jacobian:
                sp.fd_rhs_calls += 1
                sp.fd_rhs_s += elapsed
            else:
                sp.rhs_calls += 1
                sp.rhs_s += elapsed
            return out

        return traced_rhs

    def jacobian_kernel(self, jacobian):
        perf = time.perf_counter

        def traced_jacobian(sys, u, t):
            t0 = perf()
            self._in_jacobian = True
            try:
                return jacobian(sys, u, t)
            finally:
                self._in_jacobian = False
                sp = self._stack[-1]
                sp.jacobian_calls += 1
                sp.jacobian_s += perf() - t0

        return traced_jacobian


def _solve_cg1(tracer: Tracer, fn, kind: str):
    @functools.wraps(fn)
    def traced(sys, part, opts=None):
        with tracer.span("integrator.solve_cg1", kind=kind, steps=len(part.times) - 1):
            return fn(sys, part, opts)

    return traced


def _solve_dual(tracer: Tracer, fn):
    @functools.wraps(fn)
    def traced(dp, step):
        with tracer.span("dual.solve_dual") as sp:
            phi = fn(dp, step)
            sp.attrs["steps"] = len(phi.times) - 1
            return phi

    return traced


def _build_system(tracer: Tracer, fn):
    @functools.wraps(fn)
    def traced(cfg):
        with tracer.span("problems.build"):
            system, spec = fn(cfg)
            system = dataclasses.replace(system, rhs=tracer.rhs_kernel(system.rhs))
            return system, spec

    return traced


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Rebind modred's module attributes to traced wrappers for the block."""
    cli, red, dual = modred.cli, modred.reduction, modred.dual
    plain = [
        (cli, "auto_model", "reduction.auto_model"),
        (cli, "_observable_columns", "problems.observables"),
        (cli, "write_csv", "cli.write_csv"),
        (cli, "read_csv", "cli.read_csv"),
        (cli, "parse_model_report", "reduction.parse_model_report"),
        (cli, "assemble_reduced", "reduction.assemble_reduced"),
        (cli, "validate_at_control_points", "dual.control_points"),
        (cli, "error_estimate", "dual.error_estimate"),
        (red, "resolve_short", "reduction.resolve_short"),
        (red, "fit_constant_subgrid", "reduction.fit_constant_subgrid"),
        (red, "build_reduced", "reduction.build_reduced"),
        (dual, "measure_gbar", "dual.measure_gbar"),
        (dual, "residual_samples", "integrator.residual_samples"),
    ]
    replacements = [(mod, attr, tracer.wrap(getattr(mod, attr), name)) for mod, attr, name in plain]
    replacements += [
        (cli, "build_system", _build_system(tracer, cli.build_system)),
        (cli, "solve_cg1", _solve_cg1(tracer, cli.solve_cg1, "reduced")),
        (red, "solve_cg1", _solve_cg1(tracer, red.solve_cg1, "resolved")),
        (dual, "solve_cg1", _solve_cg1(tracer, dual.solve_cg1, "resolved")),
        (cli, "solve_dual", _solve_dual(tracer, cli.solve_dual)),
        (dual, "jacobian", tracer.jacobian_kernel(dual.jacobian)),
    ]
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in replacements]
    try:
        for mod, attr, wrapper in replacements:
            setattr(mod, attr, wrapper)
        yield tracer
    finally:
        for mod, attr, original in saved:
            setattr(mod, attr, original)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus child spans and summed kernel time."""
    child = {sp.id: 0.0 for sp in spans}
    for sp in spans:
        if sp.parent is not None:
            child[sp.parent] += sp.duration
    return {sp.id: sp.duration - child[sp.id] - sp.kernel_s for sp in spans}


def subtree(spans: list[Span], root: Span) -> list[Span]:
    """The span and its descendants; ``spans`` is in start order."""
    ids = {root.id}
    out = [root]
    for sp in spans[spans.index(root) + 1 :]:
        if sp.parent in ids:
            ids.add(sp.id)
            out.append(sp)
    return out


def rhs_calls(spans: list[Span]) -> int:
    """All rhs evaluations summed onto the given spans, FD ones included."""
    return sum(sp.rhs_calls + sp.fd_rhs_calls for sp in spans)
