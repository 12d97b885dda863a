"""modred benchmark: `modred reduce` + `modred estimate` on a generated config.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs pipelines back to back in this process (one client, closed loop) for
about S seconds; each pipeline is one operation.  Every operation's
artifacts are checked; a failed check counts the operation as failed.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of BENCHMARK.json with ``--trace 1``.
The end-to-end times are ratios to a fixed reference kernel that a timer
signal runs, in a child process on the same CPU, while the pipelines run
(see reference.py); the wall times are printed as well.  The line before the
result, ``details: {...}``, holds the samples, their medians and
percentiles, artifact hashes, the reference error and the environment.

Exits 2 without a result when the checkout has no modred sources.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

# Modules that import numpy or modred are imported inside functions, after
# bootstrap.prepare() has pinned BLAS and chosen the modred sources.
import bootstrap

END_TO_END_UNITS = {
    "pipeline_rel": "ref",
    "reduce_rel": "ref",
    "estimate_rel": "ref",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "bound_total": "1",
}
WALL_TIMES = ("pipeline_s", "reduce_s", "estimate_s")

SETUP_PROBES = 11
# Seconds between runs of the reference kernel (6-11 ms each) while the
# pipelines run: about a tenth of the time, at a grain much finer than the
# phases in which the CPU's speed drifts.
REFERENCE_PERIOD_S = 0.1
# Kernel runs done just before and just after each set-up probe.
SETUP_KERNEL_RUNS = 3
# While the main thread waits for a kernel run, this process should not run
# at all.  If its other threads take more than this share of the kernel's
# time, they compete with the pipeline and with the kernel alike, and the
# ratios would hide that.
MAX_PARENT_SHARE = 0.1
# Do not start another pipeline if it would likely end after this many
# seconds; a run must finish well inside three minutes.
RUN_BUDGET_S = 150.0
MIN_COVERAGE = 0.9


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def summarize(values: list[float]) -> dict:
    """Median, plus the highest nearest-rank percentile with at least ten
    samples above it when there are enough samples, and the sample count."""
    s = sorted(values)
    n = len(s)
    out = {"n": n, "median": statistics.median(s)}
    if n > 10:
        pct = 100 * (n - 10) // n
        out[f"p{pct}"] = s[max(0, math.ceil(pct * n / 100) - 1)]
    return out


def environment() -> dict:
    import numpy as np

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in bootstrap.THREAD_VARS},
    }


def measure_setup(config, kernel) -> tuple[list[float], list[float]]:
    """Set-up in fresh processes, after one unrecorded probe that fills the
    bytecode cache: each probe's wall seconds, and the same scaled to a CPU
    on which the reference kernel takes ``NOMINAL_S``, by the median of the
    kernel runs just before and just after the probe."""
    from reference import NOMINAL_S

    probe = [sys.executable, str(bootstrap.ROOT / "perfbench" / "setup_probe.py"), str(config)]
    wall, scaled = [], []
    for i in range(SETUP_PROBES + 1):
        kernel_s = [kernel.run().wall_s for _ in range(SETUP_KERNEL_RUNS)]
        out = subprocess.run(probe, capture_output=True, text=True, timeout=60, check=True)
        kernel_s += [kernel.run().wall_s for _ in range(SETUP_KERNEL_RUNS)]
        if i:
            seconds = float(out.stdout.strip().splitlines()[-1])
            wall.append(seconds)
            scaled.append(seconds * NOMINAL_S / statistics.median(kernel_s))
    return wall, scaled


class Bench:
    """One benchmark run: a workload, a seed and its scratch directory."""

    def __init__(self, args):
        from workloads import WORKLOADS

        if args.workload not in WORKLOADS:
            raise ValueError(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
        self.args = args
        self.workload = WORKLOADS[args.workload]
        self.psi = self.workload.psi(args.seed)
        self.dir = bootstrap.WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.config = self.dir / "config.txt"
        self.prefix = self.dir / "out"
        self.config.write_text(self.workload.config(args.seed, str(self.prefix)))
        self.results = []
        self.errors: list[str] = []

    def pipeline(self, tracer=None, measure=None):
        """Run one operation; an unexpected exception counts as a failure."""
        from pipeline import PipelineResult, run_pipeline
        from reference import wall_clock

        try:
            result = run_pipeline(
                self.workload, self.config, self.prefix, self.psi, tracer, measure or wall_clock
            )
        except Exception as err:  # the benchmark keeps running and reports it
            traceback.print_exc(file=sys.stderr)
            result = PipelineResult(math.nan, math.nan, failures=[f"raised {err!r}"])
        first = next((r for r in self.results if r.hashes), None)
        if first and result.hashes and result.hashes != first.hashes:
            changed = sorted(k for k in first.hashes if first.hashes[k] != result.hashes[k])
            result.failures.append(f"artifacts differ from the first repeat: {changed}")
        self.results.append(result)
        return result

    def keep_going(self, start: float, last_s: float) -> bool:
        now = time.perf_counter() - start
        return now < self.args.seconds and now + last_s < RUN_BUDGET_S

    def failures(self) -> list[str]:
        return self.errors + [f"op {i}: {f}" for i, r in enumerate(self.results) for f in r.failures]

    def ok(self):
        return [r for r in self.results if r.ok]

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


def run_plain(bench: Bench) -> tuple[dict, dict]:
    """Pipelines back to back, with the reference kernel interleaved; the
    pipeline times exclude the kernel's runs.  Returns no metrics when no
    pipeline succeeded."""
    from reference import Interleaved, KernelProcess, pin_to_one_cpu

    cpu = pin_to_one_cpu()
    with KernelProcess() as kernel:
        try:
            setup_wall, setup = measure_setup(bench.config, kernel)
        except (subprocess.SubprocessError, ValueError, IndexError) as err:
            bench.errors.append(f"set-up probe failed: {err!r}")
            setup_wall, setup = [], []
        start = time.perf_counter()
        with Interleaved(REFERENCE_PERIOD_S, kernel) as ref:
            while True:
                result = bench.pipeline(measure=ref.measure)
                if not bench.keep_going(start, result.pipeline_s if result.ok else 0.0):
                    break
    runs = ref.samples
    parent_share = sum(r.parent_cpu_s for r in runs) / sum(r.wall_s for r in runs) if runs else 0.0
    if parent_share > MAX_PARENT_SHARE:
        bench.errors.append(
            f"this process used {parent_share:.2f} of the CPU while its main thread "
            f"waited for the reference kernel, above {MAX_PARENT_SHARE}"
        )
    ok = bench.ok()
    if not ok:
        bench.errors.append("no pipeline succeeded")
    if not ok or not setup:
        return {}, {}

    # Each command's time over the mean time of the kernel runs during it:
    # both see the same slow or fast phase of the CPU, and the ratio cancels
    # it.  A command too short to hold a kernel run uses the run's mean.
    run_mean = statistics.fmean(r.wall_s for r in runs)

    def relative(seconds, inside):
        return seconds / (statistics.fmean(inside) if inside else run_mean)

    reduce_rel = [relative(r.reduce_s, r.reduce_reference) for r in ok]
    estimate_rel = [relative(r.estimate_s, r.estimate_reference) for r in ok]
    samples = {
        "pipeline_rel": [a + b for a, b in zip(reduce_rel, estimate_rel)],
        "reduce_rel": reduce_rel,
        "estimate_rel": estimate_rel,
        "pipeline_s": [r.pipeline_s for r in ok],
        "reduce_s": [r.reduce_s for r in ok],
        "estimate_s": [r.estimate_s for r in ok],
        "setup_s": setup,
        "setup_wall_s": setup_wall,
        "reference_s": [r.wall_s for r in runs],
    }
    metrics = {name: statistics.median(values) for name, values in samples.items()}
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics["bound_total"] = ok[0].bound_total
    details = {
        "samples": {name: summarize(values) for name, values in samples.items()},
        "values": samples,
        "hashes": ok[0].hashes,
        "cpu": cpu,
        "kernel_cpu_share": statistics.median(r.share for r in runs) if runs else None,
        "parent_cpu_share": parent_share,
    }
    if ok[0].ref_error is not None:
        details["ref_error"] = ok[0].ref_error
        details["effectivity"] = ok[0].bound_total / ok[0].ref_error
    return metrics, details


def run_traced(bench: Bench) -> tuple[dict, dict]:
    """Alternate untraced and traced pipelines: at least one untraced and two
    traced, so that the exact work counts can be compared."""
    from layers import PER_LAYER_UNITS, layer_metrics, work_counts
    from tracing import Tracer, instrument, self_times

    tracer = Tracer()
    per_run, counts, plain = [], [], []
    start = time.perf_counter()
    i = 0
    while True:
        traced = i in (1, 2) or (i > 2 and i % 2 == 0)
        if traced:
            tracer.run = i
            with instrument(tracer):
                result = bench.pipeline(tracer)
            spans = [sp for sp in tracer.spans if sp.run == i]
            if result.ok:
                per_run.append(layer_metrics(spans, result.frozen, result.csv_bytes))
                per_run[-1]["pipeline_s"] = result.pipeline_s
                counts.append(work_counts(spans))
        else:
            result = bench.pipeline()
            if result.ok:
                plain.append(result.pipeline_s)
        i += 1
        if i >= 3 and not bench.keep_going(start, result.pipeline_s if result.ok else 0.0):
            break

    if not per_run or not plain:
        bench.errors.append("no traced or no untraced pipeline succeeded")
        return {}, {}
    if any(c != counts[0] for c in counts[1:]):
        bench.errors.append("exact work counts differ between traced runs")
    for i, m in enumerate(per_run):
        if m["trace.coverage"] < MIN_COVERAGE:
            bench.errors.append(
                f"traced run {i}: top-level spans cover {m['trace.coverage']:.3f} "
                f"of the pipeline, below {MIN_COVERAGE}"
            )

    # Counts repeat exactly (checked above); times are medians over runs.
    metrics = {
        name: per_run[0][name] if PER_LAYER_UNITS.get(name) in ("count", "B")
        else statistics.median(m[name] for m in per_run)
        for name in per_run[0]
    }
    traced_s = metrics.pop("pipeline_s")
    metrics["trace.overhead_s"] = traced_s - statistics.median(plain)

    selfs = self_times(tracer.spans)
    trace_path = bootstrap.WORK / f"trace-{bench.args.workload}-seed{bench.args.seed}.json"
    trace_path.write_text(
        json.dumps(
            {
                "workload": bench.args.workload,
                "seed": bench.args.seed,
                "environment": environment(),
                "spans": [dict(sp.to_json(), self_s=selfs[sp.id]) for sp in tracer.spans],
                "work_counts": counts[0],
            },
            indent=1,
        )
    )
    details = {
        "traced_pipeline_s": traced_s,
        "untraced_pipeline_s": plain,
        "work_counts": counts[0],
        "spans_file": str(trace_path.relative_to(bootstrap.ROOT)),
    }
    return metrics, details


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        bootstrap.prepare()
    except bootstrap.SetupError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    from layers import PER_LAYER_UNITS

    try:
        bench = Bench(args)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    try:
        metrics, details = (run_traced if args.trace else run_plain)(bench)
    finally:
        bench.close()

    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    for name in units:
        if name in metrics:
            print(f"{name:36s} {metrics[name]:.6g} {units[name]}")
    if not args.trace:
        for name in WALL_TIMES:
            if name in metrics:
                print(f"{name:36s} {metrics[name]:.6g} s")
    if "ref_error" in details:
        print(f"{'ref_error':36s} {details['ref_error']:.6g} 1")
    failures = bench.failures()
    for line in failures:
        print(f"FAILED {line}", file=sys.stderr)
    details.update(
        workload=args.workload,
        seed=args.seed,
        psi_nonzero={str(i + 1): float(v) for i, v in enumerate(bench.psi) if v},
        failures=failures,
        environment=environment(),
    )
    print("details: " + json.dumps(details))
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": len(bench.results),
                "failed": sum(not r.ok for r in bench.results),
                # Empty when no operation or no set-up probe succeeded.
                "metrics": {
                    name: {"value": metrics[name], "unit": units[name]}
                    for name in units
                    if name in metrics
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
