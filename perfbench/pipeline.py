"""One benchmark operation: `modred reduce` then `modred estimate` on a
generated config, run in-process through ``modred.cli.main``, followed by the
correctness checks on its artifacts.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from modred.cli import main as modred_main

from reference import wall_clock
from workloads import Workload

ARTIFACTS = (".csv", ".model.txt", ".estimate.txt", ".controls.txt")


@dataclass
class PipelineResult:
    reduce_s: float
    estimate_s: float
    # Reference-kernel runs that fell inside each command (see reference.py).
    reduce_reference: list[float] = field(default_factory=list)
    estimate_reference: list[float] = field(default_factory=list)
    hashes: dict[str, str] = field(default_factory=dict)
    bound_total: float = math.nan
    ref_error: float | None = None
    frozen: int = 0
    csv_bytes: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def pipeline_s(self) -> float:
        return self.reduce_s + self.estimate_s

    @property
    def ok(self) -> bool:
        return not self.failures


def _run_cli(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return modred_main(argv)


def run_pipeline(
    workload: Workload,
    config: Path,
    prefix: Path,
    psi: np.ndarray,
    tracer=None,
    measure=wall_clock,
) -> PipelineResult:
    """Time reduce and estimate, each in a ``measure()`` block, then check
    what they wrote.

    With a tracer, both commands run inside spans ``cli.reduce`` and
    ``cli.estimate`` under one ``pipeline`` span.
    """
    runs = []
    codes = []
    outer = tracer.span("pipeline") if tracer else contextlib.nullcontext()
    with outer:
        for command in ("reduce", "estimate"):
            inner = tracer.span(f"cli.{command}") if tracer else contextlib.nullcontext()
            with measure() as m, inner:
                code = _run_cli([command, str(config)])
            runs.append(m)
            codes.append(code)
            if code != 0:
                break
    result = PipelineResult(runs[0].seconds, math.nan, runs[0].reference)
    if len(runs) == 2:
        result.estimate_s, result.estimate_reference = runs[1].seconds, runs[1].reference
    if codes != [0, 0]:
        result.failures.append(f"exit codes {codes}, expected [0, 0]")
        return result
    _check_artifacts(result, workload, prefix, psi)
    return result


def _check_artifacts(result: PipelineResult, workload: Workload, prefix: Path, psi: np.ndarray) -> None:
    fail = result.failures.append
    paths = {ext: Path(f"{prefix}{ext}") for ext in ARTIFACTS}
    result.hashes = {ext: hashlib.sha256(p.read_bytes()).hexdigest() for ext, p in paths.items()}
    result.csv_bytes = paths[".csv"].stat().st_size

    report = dict(
        line.split(": ", 1) for line in paths[".estimate.txt"].read_text().splitlines()
    )
    if report.get("model_term_validated") != "yes":
        fail(f"model_term_validated is {report.get('model_term_validated')!r}, expected 'yes'")
    result.bound_total = float(report.get("total", "nan"))
    if not (math.isfinite(result.bound_total) and result.bound_total > 0):
        fail(f"bound total {result.bound_total!r} is not finite and positive")

    frozen = set()
    for line in paths[".model.txt"].read_text().splitlines():
        fields = line.split()
        if len(fields) == 3 and fields[1] == "inactive":
            frozen.add(int(fields[0]))
    result.frozen = len(frozen)
    expected = workload.expected_frozen()
    if frozen != expected:
        fail(
            f"frozen set differs: missing {sorted(expected - frozen)}, "
            f"unexpected {sorted(frozen - expected)}"
        )

    if workload.has_reference:
        result.ref_error = _reference_error(paths[".csv"], psi)
        if not result.ref_error <= result.bound_total:
            fail(f"ref_error {result.ref_error!r} exceeds bound total {result.bound_total!r}")


def _reference_error(csv: Path, psi: np.ndarray) -> float:
    """|(U(T) - r(T), psi)| against the closed-form reduced solution
    r = (1/4 (1 - cos t), ., 1/4 sin t, .); psi lives on components 1 and 3."""
    with csv.open("rb") as fh:
        fh.seek(max(0, csv.stat().st_size - 4096))
        last = fh.read().decode().strip().splitlines()[-1]
    t, u1, _, u3, _ = (float(v) for v in last.split(",")[:5])
    err = (u1 - 0.25 * (1.0 - math.cos(t))) * psi[0] + (u3 - 0.25 * math.sin(t)) * psi[2]
    return abs(err)
