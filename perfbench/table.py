"""Print the baseline table: time and rhs calls per pipeline stage, one row
per workload, from one traced pipeline each with seed 0.

    python3 perfbench/table.py
"""

from __future__ import annotations

import sys
from types import SimpleNamespace

import bootstrap


def _cell(seconds: float, rhs: int, note: str = "") -> str:
    count = f"{rhs / 1000:.1f}k" if rhs >= 1000 else str(rhs)
    return f"{seconds:.2f} s / {count}{note}"


def main() -> int:
    bootstrap.prepare()

    from layers import stage
    from run import Bench, environment
    from tracing import Tracer, instrument
    from workloads import WORKLOADS

    env = environment()
    print(
        f"Traced, one pipeline per row, seed 0; {env['cpu']}, {env['nproc']} cores, "
        f"Python {env['python']}, numpy {env['numpy']}, {env['blas']}, BLAS pinned to 1 thread.\n"
        "Each cell: wall time / rhs calls, FD Jacobian rhs calls included.\n"
    )
    print("| workload | auto_model | reduced solve | dual | control points | pipeline |")
    print("| --- | --- | --- | --- | --- | --- |")
    failed = 0
    for name in WORKLOADS:
        bench = Bench(SimpleNamespace(workload=name, seed=0, seconds=0.0, trace=1))
        tracer = Tracer()
        try:
            with instrument(tracer):
                result = bench.pipeline(tracer)
        finally:
            bench.close()
        if not result.ok:
            failed += 1
            print(f"{name}: FAILED {result.failures}", file=sys.stderr)
        spans = tracer.spans
        dual_s, dual_rhs = stage(spans, "dual.solve_dual")
        note = " (FD J)" if dual_rhs else " (analytic J)"
        cells = [
            _cell(*stage(spans, "reduction.auto_model")),
            _cell(*stage(spans, "integrator.solve_cg1", kind="reduced")),
            _cell(dual_s, dual_rhs, note),
            _cell(*stage(spans, "dual.control_points")),
            _cell(*stage(spans, "pipeline")),
        ]
        print(f"| {name} | " + " | ".join(cells) + " |")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
