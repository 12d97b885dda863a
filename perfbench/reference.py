"""A fixed kernel that times the machine rather than modred.

The machines this benchmark runs on are shared, and the speed of one CPU
drifts by 15-25% within seconds.  The end-to-end times are therefore reported
as a ratio to this kernel, timed on the same CPU at short intervals while the
pipelines run.  The kernel imitates the kinds of work a modred pipeline does,
and never changes with modred.  It runs in a child process of its own, so
nothing modred does to its process (threads, trace hooks, allocator or
garbage-collector pressure) reaches it.

    python3 perfbench/reference.py

serves kernel runs: one per line read on standard input, answered with the
run's wall time and its CPU time in seconds.
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

# A ring of masses and springs, for the vectorized part of the kernel.
_MASSES = 64
_IA = np.arange(_MASSES)
_IB = np.roll(_IA, -1)

# A kernel time near the fast end of what the kernel process took between
# pipeline stretches on the 2-core Xeon the benchmark was tuned on (8-11 ms);
# set-up times are scaled to a CPU that runs the kernel this fast.
NOMINAL_S = 0.008


@functools.cache
def _stream() -> np.ndarray:
    """4 MiB to read through, made on first use so that only the process
    that runs the kernel holds it."""
    return np.arange(1 << 19, dtype=float)


def reference_seconds() -> float:
    """Wall time of one fixed run of the kernel: 6-11 ms on a 2-core Xeon,
    depending on how much of its data the caches still hold.

    It does four kinds of work that modred does: fixed-point steps on a
    4-vector in the interpreter, as the simple model's cG(1) steps do; a
    spring-force assembly with ``np.add.at``, as the lattice rhs does; small
    dense solves, as the dual does; and passes over an array larger than the
    CPU's own caches, as the long trajectories and the CSVs need.  The last
    part feels contention for the shared cache and memory, which the others
    do not.
    """
    stream = _stream()
    t0 = time.perf_counter()
    u = np.array([0.0, 1.0, 0.0, 0.0])
    for _ in range(600):
        f = np.array([u[2], u[3], -u[0] + 0.5 * u[1] * u[1], -u[1]])
        u = 0.5 * (u + (u + 0.01 * f))
    angle = np.linspace(0.0, 2.0 * np.pi, _MASSES, endpoint=False)
    pos = np.stack([np.cos(angle), np.sin(angle)], axis=1) * 1.01
    for _ in range(60):
        d = pos[_IB] - pos[_IA]
        length = np.linalg.norm(d, axis=1)
        pull = ((length - 0.098) / length)[:, None] * d
        force = np.zeros_like(pos)
        np.add.at(force, _IA, pull)
        np.add.at(force, _IB, -pull)
        pos = pos + 1e-3 * force
    a = np.eye(32) + 0.01 * np.ones((32, 32))
    x = np.ones(32)
    for _ in range(120):
        x = np.linalg.solve(a, x + 1.0)
    total = sum(float(stream.sum()) for _ in range(4))
    elapsed = time.perf_counter() - t0
    if not all(np.all(np.isfinite(v)) for v in (u, pos, x, total)):
        raise RuntimeError("reference kernel produced a non-finite value")
    return elapsed


def pin_to_one_cpu() -> int:
    """Pin this process, and the processes it starts from now on, to the CPU
    it runs on now, and return that CPU."""
    allowed = os.sched_getaffinity(0)
    try:
        with open("/proc/self/stat") as fh:
            cpu = int(fh.read().rsplit(")", 1)[1].split()[36])
    except (OSError, ValueError, IndexError):
        cpu = min(allowed)
    if cpu not in allowed:
        cpu = min(allowed)
    os.sched_setaffinity(0, {cpu})
    return cpu


@dataclass
class KernelRun:
    wall_s: float  # the kernel's wall time in the child
    share: float  # the child's CPU time over its wall time
    # CPU time this process spent, in any thread, while its caller waited
    # for the child.
    parent_cpu_s: float


class KernelProcess:
    """The kernel in a child process on the caller's CPUs.

    ``run()`` asks the child for one run and blocks until it answers, so the
    child runs on the CPU the caller leaves idle.
    """

    def __init__(self):
        self._proc = subprocess.Popen(
            [sys.executable, __file__],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            bufsize=1,
        )

    def run(self) -> KernelRun:
        c0 = time.process_time()
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        answer = self._proc.stdout.readline()
        parent_cpu = time.process_time() - c0
        if not answer:
            raise RuntimeError(f"reference kernel process exited with {self._proc.wait()}")
        wall, cpu = (float(v) for v in answer.split())
        return KernelRun(wall, cpu / wall, parent_cpu)

    def close(self) -> None:
        self._proc.stdin.close()
        self._proc.wait(timeout=30)
        self._proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


class Interleaved:
    """Runs the kernel in ``kernel`` every ``period`` seconds of wall time,
    from a SIGALRM handler in the main thread, for as long as the context is
    open.

    Python runs the handler between bytecodes, so the kernel runs while the
    pipeline is wherever it happens to be, on the same CPU and in the same
    phase of its speed.  ``measure()`` times a block without the kernel's
    runs and keeps the runs that fell inside it.
    """

    def __init__(self, period: float, kernel: KernelProcess):
        self.period = period
        self.kernel = kernel
        self.samples: list[KernelRun] = []
        self._inside = 0.0
        self._busy = False
        self._previous = None

    def _clock(self) -> float:
        return time.perf_counter() - self._inside

    def _run(self, signum, frame):
        if self._busy:  # a tick that arrives during a stalled kernel run
            return
        self._busy = True
        t0 = time.perf_counter()
        try:
            self.samples.append(self.kernel.run())
        finally:
            self._inside += time.perf_counter() - t0
            self._busy = False

    @contextlib.contextmanager
    def measure(self):
        """Yields a Measurement, filled in when the block ends."""
        m = Measurement()
        first = len(self.samples)
        t0 = self._clock()
        try:
            yield m
        finally:
            m.seconds = self._clock() - t0
            m.reference = [run.wall_s for run in self.samples[first:]]

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._run)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)


@dataclass
class Measurement:
    seconds: float = math.nan
    # Wall times of the kernel runs that fell inside the block.
    reference: list[float] = field(default_factory=list)


@contextlib.contextmanager
def wall_clock():
    """A Measurement of plain wall time, without reference runs."""
    m = Measurement()
    t0 = time.perf_counter()
    try:
        yield m
    finally:
        m.seconds = time.perf_counter() - t0


def _serve() -> None:
    for _ in sys.stdin:
        c0 = time.process_time()
        wall = reference_seconds()
        print(wall, time.process_time() - c0, flush=True)


if __name__ == "__main__":
    _serve()
