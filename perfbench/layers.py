"""Per-layer metrics and exact work counts derived from one traced pipeline.

Layer names are modred's modules.  See README.md for which end-to-end metric
each of these should move, and on which workload.
"""

from __future__ import annotations

from tracing import Span, rhs_calls, self_times, subtree

# name -> unit, in the order BENCHMARK.json lists them.
PER_LAYER_UNITS = {
    "system.rhs_calls": "count",
    "system.rhs_s": "s",
    "system.rhs_us": "us",
    "system.jacobian_calls": "count",
    "system.jacobian_s": "s",
    "system.fd_rhs_calls": "count",
    "integrator.steps": "count",
    "integrator.resolved_rhs_per_step": "rhs/step",
    "integrator.reduced_rhs_per_step": "rhs/step",
    "integrator.resolved_s": "s",
    "integrator.reduced_s": "s",
    "integrator.self_s": "s",
    "integrator.residual_samples_s": "s",
    "averaging.self_s": "s",
    "reduction.auto_model_s": "s",
    "reduction.resolve_short_s": "s",
    "reduction.fit_s": "s",
    "reduction.build_reduced_s": "s",
    "reduction.frozen": "count",
    "dual.solve_dual_s": "s",
    "dual.solve_dual_self_s": "s",
    "dual.steps": "count",
    "dual.control_points_s": "s",
    "dual.control_resolve_s": "s",
    "dual.measure_gbar_s": "s",
    "dual.error_estimate_s": "s",
    "cli.write_csv_s": "s",
    "cli.read_csv_s": "s",
    "cli.csv_bytes": "B",
    "problems.build_s": "s",
    "problems.observables_s": "s",
    "trace.coverage": "ratio",
    "trace.overhead_s": "s",
}

# Top-level layer spans: direct children of the two CLI command spans.
_COMMANDS = ("cli.reduce", "cli.estimate")


def find(spans: list[Span], name: str, **attrs) -> list[Span]:
    """Spans with the given name whose attributes match ``attrs``."""
    return [
        sp for sp in spans
        if sp.name == name and all(sp.attrs.get(k) == v for k, v in attrs.items())
    ]


def stage(spans: list[Span], name: str, **attrs) -> tuple[float, int]:
    """(seconds, rhs calls) of the matching spans, the calls counted over
    each span's subtree."""
    group = find(spans, name, **attrs)
    trees = [s for sp in group for s in subtree(spans, sp)]
    return sum(sp.duration for sp in group), rhs_calls(trees)


def layer_metrics(spans: list[Span], frozen: int, csv_bytes: int) -> dict[str, float]:
    """Every per-layer metric except ``trace.overhead_s``, which needs an
    untraced run, for the spans of one traced pipeline."""
    selfs = self_times(spans)
    by_id = {sp.id: sp for sp in spans}

    def total(group):
        return sum(sp.duration for sp in group)

    def total_self(group):
        return sum(selfs[sp.id] for sp in group)

    def per_step(group):
        steps = sum(sp.attrs["steps"] for sp in group)
        return rhs_calls(group) / steps if steps else 0.0

    solves = find(spans, "integrator.solve_cg1")
    resolved = find(spans, "integrator.solve_cg1", kind="resolved")
    reduced = find(spans, "integrator.solve_cg1", kind="reduced")
    control = find(spans, "dual.control_points")
    control_ids = {sp.id for sp in control}
    dual_solves = find(spans, "dual.solve_dual")
    fits = find(spans, "reduction.fit_constant_subgrid") + find(spans, "dual.measure_gbar")
    (root,) = find(spans, "pipeline")
    top = [sp for sp in spans if sp.parent is not None and by_id[sp.parent].name in _COMMANDS]

    n_rhs = rhs_calls(spans)
    rhs_s = sum(sp.rhs_s + sp.fd_rhs_s for sp in spans)
    return {
        "system.rhs_calls": n_rhs,
        "system.rhs_s": rhs_s,
        "system.rhs_us": 1e6 * rhs_s / n_rhs,
        "system.jacobian_calls": sum(sp.jacobian_calls for sp in spans),
        "system.jacobian_s": sum(sp.jacobian_s for sp in spans),
        "system.fd_rhs_calls": sum(sp.fd_rhs_calls for sp in spans),
        "integrator.steps": sum(sp.attrs["steps"] for sp in solves),
        "integrator.resolved_rhs_per_step": per_step(resolved),
        "integrator.reduced_rhs_per_step": per_step(reduced),
        "integrator.resolved_s": total(resolved),
        "integrator.reduced_s": total(reduced),
        "integrator.self_s": total_self(solves),
        "integrator.residual_samples_s": total(find(spans, "integrator.residual_samples")),
        "averaging.self_s": total_self(fits),
        "reduction.auto_model_s": total(find(spans, "reduction.auto_model")),
        "reduction.resolve_short_s": total(find(spans, "reduction.resolve_short")),
        "reduction.fit_s": total(find(spans, "reduction.fit_constant_subgrid")),
        "reduction.build_reduced_s": total(find(spans, "reduction.build_reduced")),
        "reduction.frozen": frozen,
        "dual.solve_dual_s": total(dual_solves),
        "dual.solve_dual_self_s": total_self(dual_solves),
        "dual.steps": sum(sp.attrs["steps"] for sp in dual_solves),
        "dual.control_points_s": total(control),
        "dual.control_resolve_s": total(sp for sp in resolved if sp.parent in control_ids),
        "dual.measure_gbar_s": total(find(spans, "dual.measure_gbar")),
        "dual.error_estimate_s": total(find(spans, "dual.error_estimate")),
        "cli.write_csv_s": total(find(spans, "cli.write_csv")),
        "cli.read_csv_s": total(find(spans, "cli.read_csv")),
        "cli.csv_bytes": csv_bytes,
        "problems.build_s": total(find(spans, "problems.build")),
        "problems.observables_s": total(find(spans, "problems.observables")),
        "trace.coverage": total(top) / root.duration,
    }


def work_counts(spans: list[Span]) -> dict[str, list[int]]:
    """Exact work per span name: [spans, rhs calls, FD rhs calls, Jacobian
    calls, steps], each summed over the span's subtree except steps.  These
    repeat exactly between runs of the same config."""
    counts: dict[str, list[int]] = {}
    for sp in spans:
        tree = subtree(spans, sp)
        row = counts.setdefault(sp.name, [0, 0, 0, 0, 0])
        row[0] += 1
        row[1] += rhs_calls(tree)
        row[2] += sum(s.fd_rhs_calls for s in tree)
        row[3] += sum(s.jacobian_calls for s in tree)
        row[4] += sp.attrs.get("steps", 0)
    return counts
