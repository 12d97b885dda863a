"""Command-line driver: full solves, automatic reduction, and error estimates.

Commands:

    modred solve CONFIG [--key value ...]     full system -> CSV
    modred reduce CONFIG [--key value ...]    auto modeling -> CSV + model report + plot script
    modred estimate CONFIG [--key value ...]  dual solve + control points -> estimate report
    modred example simple|lattice [-o FILE]   write a ready-to-edit config

Configs are flat `key = value` text files, one line per key; `--key value`
or `--key=value` (needed for a value such as `-1e-3`) overrides a key, and
`modred <command> --help` lists them.  Outputs are deterministic: identical
config and build give byte-identical files (floats are printed with 17
significant digits, which round-trips binary64 exactly).  An existing output
file is overwritten in place, keeping its inode, links and permissions.

Exit codes: 0 success, 1 usage/config error or out of memory, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import importlib.util
import math
import os
import stat
import sys as _sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .dual import (
    ControlPoint,
    DualProblem,
    ErrorEstimate,
    error_estimate,
    format_control_report,
    format_estimate_report,
    solve_dual,
    validate_at_control_points,
)
from .integrator import TimePartition, solve_cg1
from .problems import (
    LatticeSpec,
    diameter,
    make_lattice,
    make_simple_model,
    small_mass_distance,
)
from .reduction import (
    SubgridModel,
    assemble_reduced,
    auto_model,
    format_model_report,
    parse_model_report,
)
from .system import FD_EPS_REL, DynamicalSystem, Trajectory, evaluate_rhs, jacobian

#: Default resolved step as a fraction of tau (about 500 steps per window).
RESOLVED_STEP_FRACTION = 1.0 / 500.0

#: Rows per formatted block of a CSV artifact.
CSV_BLOCK = 64

#: Lattice CSV extras by config name.
OBSERVABLES = {"diameter": diameter, "d_small": small_mass_distance}


@dataclass
class RunConfig:
    problem: str = "simple"
    kappa: float | None = None  # default: 1e18 for simple, 1 for lattice
    T: float = 100.0
    p: int = 3
    M: float = 100.0
    m: float = 1e-4
    displacement: float | None = None
    problem_file: str | None = None
    tau: float = 1e-7
    resolved_step: float | None = None  # default: tau * RESOLVED_STEP_FRACTION
    reduced_step: float = 0.1
    step: float = 0.01
    control_points: int = 4
    psi: str = "1"
    output: str = "run"
    observables: str = ""

    def __post_init__(self):
        if self.resolved_step is None:
            self.resolved_step = self.tau * RESOLVED_STEP_FRACTION

    def validate(self) -> None:
        if self.problem not in ("simple", "lattice", "external-file"):
            raise ValueError(f"unknown problem {self.problem!r}")
        if self.problem == "external-file" and not self.problem_file:
            raise ValueError("problem = external-file requires problem_file = <path>")
        for key in ("T", "tau", "resolved_step", "reduced_step", "step"):
            if not getattr(self, key) > 0:
                raise ValueError(f"config key {key} must be positive")
        if self.kappa is not None and not self.kappa > 0:
            raise ValueError("kappa must be positive")
        if self.control_points < 1:
            raise ValueError("control_points must be >= 1")
        for name in self.observable_names():
            if self.problem != "lattice":
                raise ValueError(f"observable {name!r} requires the lattice problem")
            if name not in OBSERVABLES:
                raise ValueError(f"unknown observable {name!r}")

    def observable_names(self) -> list[str]:
        return [s.strip() for s in self.observables.split(",") if s.strip()]


_INT_KEYS = {"p", "control_points"}
_STR_KEYS = {"problem", "problem_file", "psi", "output", "observables"}


def _number(key: str, raw: str, kind=float):
    try:
        value = kind(raw)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise ValueError(f"config key {key} must be {noun}, got {raw!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"config key {key} must be finite, got {raw!r}")
    return value


def _coerce(key: str, raw: str):
    return raw if key in _STR_KEYS else _number(key, raw, int if key in _INT_KEYS else float)


def parse_config(path: str, overrides: list[tuple[str, str]] = ()) -> RunConfig:
    """Read a flat key = value config file, each key on at most one line, and
    apply command-line overrides, in order, over its values."""
    known = {f.name for f in fields(RunConfig)}
    lines: dict[str, int] = {}
    entries: list[tuple[str, str]] = []
    text = Path(path).read_text()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = (part.strip() for part in line.partition("="))
        if key in lines:
            raise ValueError(f"{path}: config key {key} appears twice, on lines {lines[key]} and {lineno}")
        lines[key] = lineno
        entries.append((key, value))
    entries.extend(overrides)
    values = {}
    for key, value in entries:
        if key not in known:
            raise ValueError(f"unknown config key {key!r}")
        if value != "":
            values[key] = _coerce(key, value)
    cfg = RunConfig(**values)
    cfg.validate()
    return cfg


def _load_external_system(path: str) -> DynamicalSystem:
    spec = importlib.util.spec_from_file_location("modred_external_problem", path)
    if spec is None or spec.loader is None:
        raise ValueError(f"cannot import problem file {path!r}")
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
        sys_obj = module.make_system()
    except Exception as err:
        # A problem file is configuration: whatever it raises is a config error.
        raise ValueError(f"problem file {path!r}: {type(err).__name__}: {err}") from err
    if not isinstance(sys_obj, DynamicalSystem):
        raise ValueError("make_system() must return a DynamicalSystem")
    _check_external_kernels(sys_obj, path)
    return sys_obj


def _check_external_kernels(system: DynamicalSystem, path: str) -> None:
    """ValueError unless the problem file's rhs, and its analytic Jacobian
    when it has one, evaluate at three states (u0 and two perturbations of
    it, at t = 0, 0.5 and 1) one state per call, and, for a vectorized
    system, unless a stack of those states gives the per-state values bit
    for bit; and unless an analytic Jacobian agrees there with the central
    finite-difference one.  So a non-vectorized system takes 3 rhs
    evaluations at load, and 3 Jacobian and 3 * 2N more rhs evaluations
    when it has an analytic Jacobian."""
    u0, n = system.initial_value, system.dimension
    wiggle = 1e-3 * np.maximum(np.abs(u0), 1.0) * np.cos(1.0 + np.arange(n))
    states = u0 + np.outer([0.0, 1.0, -0.5], wiggle)
    times = np.array([0.0, 0.5, 1.0])

    def evaluated(what, kernel, sys):
        try:
            return kernel(sys, states, times)
        except Exception as err:
            # The problem file's code is configuration: whatever it raises is a config error.
            raise ValueError(f"problem file {path!r}: {what}: {type(err).__name__}: {err}") from err

    kernels = [("rhs", evaluate_rhs)]
    if system.jacobian is not None:
        kernels.append(("jacobian", jacobian))
    values = {}
    for name, kernel in kernels:
        rows = evaluated(f"{name} fails at 3 states near u0", kernel, replace(system, vectorized=False))
        values[name] = rows
        if not system.vectorized:
            continue
        stacked = evaluated(f"vectorized {name} fails on a stack of 3 states", kernel, system)
        bits = stacked.view(np.int64) != rows.view(np.int64)
        differs = np.flatnonzero(bits.reshape(len(times), -1).any(axis=1))
        if len(differs):
            row = int(differs[0])
            raise ValueError(
                f"problem file {path!r}: vectorized {name} on a stack of 3 states differs "
                f"from its per-state value at row {row} (t={float(times[row])!r}); every row of a "
                f"stack must equal the single-state call bit for bit"
            )
    if system.jacobian is None:
        return
    analytic = values["jacobian"]
    fd = evaluated(
        "rhs fails at the finite-difference states near u0", jacobian, replace(system, jacobian=None)
    )
    # Central differences err by about FD_EPS_REL**2 times the row's largest
    # entry and round by about FD_EPS_REL**2 * |f_i| / max(|u_j|, 1).  An entry
    # passes within sqrt(FD_EPS_REL) (2.5e-3) times the one plus FD_EPS_REL
    # times the other: far above both errors, and far below a wrong entry's.
    row_scale = np.maximum(np.abs(analytic), np.abs(fd)).max(axis=2, keepdims=True)
    rounding = np.abs(values["rhs"])[:, :, None] / np.maximum(np.abs(states), 1.0)[:, None, :]
    wrong = np.abs(analytic - fd) > np.sqrt(FD_EPS_REL) * row_scale + FD_EPS_REL * rounding
    if wrong.any():
        k, i, j = (int(x[0]) for x in np.nonzero(wrong))
        raise ValueError(
            f"problem file {path!r}: analytic jacobian entry ({i}, {j}) is {float(analytic[k, i, j])!r} "
            f"at state {k} of 3 near u0 (t={float(times[k])!r}), where central finite differences give "
            f"{float(fd[k, i, j])!r}; entry (i, j) must be d f_i / d u_j"
        )


def build_system(cfg: RunConfig) -> tuple[DynamicalSystem, LatticeSpec | None]:
    if cfg.problem == "simple":
        kappa = cfg.kappa if cfg.kappa is not None else 1e18
        return make_simple_model(kappa), None
    if cfg.problem == "lattice":
        spec = LatticeSpec(
            p=cfg.p,
            M=cfg.M,
            m=cfg.m,
            kappa=cfg.kappa if cfg.kappa is not None else 1.0,
            initial_small_displacement=cfg.displacement,
        )
        return make_lattice(spec), spec
    return _load_external_system(cfg.problem_file), None


def parse_psi(raw: str, dimension: int) -> np.ndarray:
    """Either a 1-based component index or a comma-separated vector."""
    if "," in raw:
        vec = np.array([_number("psi", v) for v in raw.split(",")])
        if len(vec) != dimension:
            raise ValueError(f"psi has {len(vec)} entries, system dimension is {dimension}")
        if not np.any(vec):
            raise ValueError("psi must be nonzero")
        return vec
    index = _number("psi", raw, int)
    if not 1 <= index <= dimension:
        raise ValueError(f"psi component index {index} outside 1..{dimension}")
    vec = np.zeros(dimension)
    vec[index - 1] = 1.0
    return vec


def _observable_columns(cfg: RunConfig, spec: LatticeSpec | None, traj: Trajectory):
    return [(name, OBSERVABLES[name](traj.states, spec)) for name in cfg.observable_names()]


@contextlib.contextmanager
def _overwritten(path: str):
    """A text file that writes over ``path`` in place: the old bytes are
    overwritten and what is left of them is cut off at the end, so the file
    keeps its inode, links and permissions.  Truncating on open instead makes
    some file systems (ext4's auto_da_alloc) flush the new data on close, a
    stall of up to tens of milliseconds per file."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    # A pipe or a device, such as /dev/stdout, has no old bytes and refuses truncate.
    regular = stat.S_ISREG(os.fstat(fd).st_mode)
    with open(fd, "w") as fh:
        try:
            yield fh
        finally:
            if regular:
                fh.truncate()


def write_csv(path: str, traj: Trajectory, extra_columns=()) -> None:
    """CSV with header t,u_1,...,u_N (plus observables), 17 significant digits.

    The bytes of np.savetxt(fmt="%.17g", delimiter=","), formatted with one
    ``%`` per block of CSV_BLOCK rows instead of one per row; the blocks
    bound the temporary strings and floats of a long or wide file.  A column
    whose every row holds the bits of its first, such as a frozen component,
    is formatted once into the row as a literal (``%.17g`` text holds no
    ``%``), so the blocks format only the live columns."""
    names = ["t"] + [f"u_{i + 1}" for i in range(traj.dimension)]
    names += [name for name, _ in extra_columns]
    data = np.column_stack([traj.times, traj.states, *(col for _, col in extra_columns)])
    bits = data.view(np.int64)
    constant = [(bits[:, j] == bits[0, j]).all() for j in range(data.shape[1])]
    live = [j for j, same in enumerate(constant) if not same]
    row = ",".join("%.17g" % data[0, j] if same else "%.17g" for j, same in enumerate(constant)) + "\n"
    with _overwritten(path) as fh:
        fh.write(",".join(names) + "\n")
        for lo in range(0, len(data), CSV_BLOCK):
            block = data[lo : lo + CSV_BLOCK, live]
            fh.write((row * len(block)) % tuple(block.ravel().tolist()))


def read_csv(path: str, dimension: int) -> tuple[float, float, np.ndarray]:
    """The rows of a CSV artifact that `estimate` checks: the second row's
    time, and the last row's time and first ``dimension`` state columns.

    Reads the header and the first two rows from the start and the last row
    from the end, so its cost does not grow with the number of rows."""
    with open(path, "rb") as fh:
        header = fh.readline().decode().strip().split(",")
        if header[: dimension + 1] != ["t"] + [f"u_{i + 1}" for i in range(dimension)]:
            raise ValueError(f"{path}: unexpected CSV header for dimension {dimension}")
        fh.readline()
        start = fh.tell()
        second = fh.readline()
        end = fh.seek(0, os.SEEK_END)
        size = 4096
        while True:
            lo = max(start, end - size)
            fh.seek(lo)
            tail = fh.read(end - lo).rstrip()
            if lo == start or b"\n" in tail:
                break
            size *= 2
    last = tail.rsplit(b"\n", 1)[-1].split(b",")
    if not second.strip() or len(last) < dimension + 1:
        raise ValueError(f"{path}: holds no solve of dimension {dimension}; run `modred reduce` first")
    try:
        values = [float(v) for v in [second.split(b",", 1)[0], *last[: dimension + 1]]]
    except ValueError:
        raise ValueError(f"{path}: its second or last row is not numbers") from None
    return values[0], values[1], np.array(values[2:])


def _write_plot_script(path: str, csv_path: str, n_columns: int) -> None:
    lines = [
        f"# gnuplot script for {csv_path}",
        "set datafile separator ','",
        "set key autotitle columnhead",
        "set xlabel 't'",
        f"plot for [col=2:{n_columns}] '{csv_path}' using 1:col with lines",
    ]
    with _overwritten(path) as fh:
        fh.write("\n".join(lines) + "\n")


def cmd_solve(cfg: RunConfig) -> int:
    system, spec = build_system(cfg)
    part = TimePartition.uniform(0.0, cfg.T, cfg.step)
    traj = solve_cg1(system, part)
    csv_path = f"{cfg.output}.csv"
    write_csv(csv_path, traj, _observable_columns(cfg, spec, traj))
    print(f"[solve] {len(part.steps)} steps over [0, {cfg.T:g}] -> {csv_path}")
    return 0


def reduce_run(system: DynamicalSystem, cfg: RunConfig) -> tuple[SubgridModel, Trajectory, Trajectory]:
    """What `modred reduce` computes: the fit over [0, 2*tau] at resolved_step,
    and the reduced solve over [0, T] at reduced_step.  Returns (model,
    reduced trajectory, resolved run)."""
    # Stages are called through this module's names, which perfbench/tracing.py rebinds.
    reduced, model, resolved = auto_model(system, cfg.tau, cfg.resolved_step)
    return model, solve_cg1(reduced, TimePartition.uniform(0.0, cfg.T, cfg.reduced_step)), resolved


def cmd_reduce(cfg: RunConfig) -> int:
    system, spec = build_system(cfg)
    model, traj, resolved = reduce_run(system, cfg)

    csv_path = f"{cfg.output}.csv"
    write_csv(csv_path, traj, _observable_columns(cfg, spec, traj))
    model_path = f"{cfg.output}.model.txt"
    with _overwritten(model_path) as fh:
        fh.write(format_model_report(model))
    _write_plot_script(
        f"{cfg.output}.gnuplot", csv_path, 1 + traj.dimension + len(cfg.observable_names())
    )

    n_active = int(np.sum(model.active))
    print(
        f"[reduce] resolved {len(resolved.times) - 1} steps over [0, {2 * cfg.tau:g}], "
        f"reduced {len(traj.times) - 1} steps over [0, {cfg.T:g}]"
    )
    print(
        f"[reduce] {n_active}/{model.dimension} components active; "
        f"max |g| = {float(np.max(np.abs(model.constants))):.6g} -> {model_path}"
    )
    return 0


def _control_times(cfg: RunConfig) -> list[float]:
    lo = 2.0 * cfg.tau
    hi = cfg.T - 2.0 * cfg.tau
    if hi <= lo:
        raise ValueError("T too short for control points (need T > 4 * tau)")
    n = cfg.control_points
    if n == 1:
        return [0.5 * (lo + hi)]
    return list(np.linspace(lo, hi, n))


def estimate_run(
    system: DynamicalSystem, model: SubgridModel, traj: Trajectory, psi: np.ndarray, cfg: RunConfig
) -> tuple[ErrorEstimate, tuple[ControlPoint, ...], Trajectory]:
    """What `modred estimate` computes for the reduced trajectory ``traj`` of
    ``model``: the dual of the functional ``psi`` back from T at
    reduced_step, control points at ``control_points`` times in [2*tau,
    T - 2*tau], and the bound.  Returns (estimate, control points, dual)."""
    # Stages are called through this module's names, which perfbench/tracing.py rebinds.
    control_times = _control_times(cfg)
    reduced = assemble_reduced(system, model)
    phi = solve_dual(DualProblem(primal=traj, sys=reduced, psi=psi), cfg.reduced_step)
    points = validate_at_control_points(traj, system, model, control_times)
    return error_estimate(traj, reduced, model, phi, points), points, phi


def cmd_estimate(cfg: RunConfig) -> int:
    """Bound the error of the reduced solve that `modred reduce` wrote.

    The trajectory is not loaded from the CSV: the reduced model of
    ``.model.txt`` is solved again over the same partition, which gives the
    reduce's nodes bit for bit.  The CSV only vouches for that solve: a
    config whose T or reduced_step is not the CSV's, or a last row that is
    not bit for bit the re-solve's final node, is refused."""
    system, _ = build_system(cfg)
    model_path = Path(f"{cfg.output}.model.txt")
    csv_path = Path(f"{cfg.output}.csv")
    for p in (model_path, csv_path):
        if not p.exists():
            raise ValueError(f"missing artifact {p}; run `modred reduce` first")
    try:
        model = parse_model_report(model_path.read_text())
    except ValueError as err:
        raise ValueError(f"{model_path}: {err}") from None
    second_time, final_time, final_state = read_csv(str(csv_path), system.dimension)
    # Control points take the fit's window, and they and the dual cover the solve on disk.
    for key, value, found, source, path in (
        ("tau", cfg.tau, model.tau, "the model's tau =", model_path),
        ("resolved_step", cfg.resolved_step, model.resolved_step, "the model's resolved_step =", model_path),
        ("T", cfg.T, final_time, "the final time", csv_path),
    ):
        if value != found:
            raise ValueError(
                f"config {key} = {value!r} differs from {source} {found!r} in {path}; "
                f"estimate with the {key} that `modred reduce` used"
            )
    part = TimePartition.uniform(0.0, cfg.T, cfg.reduced_step)
    if part.times[1] != second_time:
        raise ValueError(
            f"config reduced_step = {cfg.reduced_step!r} puts the second node at "
            f"{float(part.times[1])!r}, not at the time {second_time!r} in {csv_path}; "
            f"estimate with the reduced_step that `modred reduce` used"
        )
    psi = parse_psi(cfg.psi, system.dimension)

    traj = solve_cg1(assemble_reduced(system, model), part)
    if traj.times[-1] != final_time or traj.states[-1].tobytes() != final_state.tobytes():
        raise ValueError(
            f"the reduced model in {model_path}, solved again, does not end on the last row "
            f"of {csv_path}; both must come from one run of `modred reduce` on the platform "
            f"and BLAS that estimate runs on, since another may round differently"
        )
    est, points, _ = estimate_run(system, model, traj, psi, cfg)

    est_path = f"{cfg.output}.estimate.txt"
    with _overwritten(est_path) as fh:
        fh.write(format_estimate_report(est))
    with _overwritten(f"{cfg.output}.controls.txt") as fh:
        fh.write(format_control_report(model, points))
    print(
        f"[estimate] S0={est.S0:.4g} S1={est.S1:.4g} disc={est.disc_term:.4g} "
        f"model={est.model_term:.4g} total={est.total:.4g} -> {est_path}"
    )
    return 0


_EXAMPLE_CONFIGS = {
    "simple": """\
# Stiff two-mass model: fast oscillator at time scale 1/sqrt(kappa).
problem = simple
kappa = 1e18
T = 100
tau = 1e-7
resolved_step = 2e-10
reduced_step = 0.1
step = 2e-10        # full-solve step; use with a short T, e.g. --T 4e-7
control_points = 4
psi = 1
output = simple_run
""",
    "lattice": """\
# Lattice of large and small point masses with internal fast vibrations.
problem = lattice
p = 3
M = 100
m = 1e-4
kappa = 1
T = 20
tau = 1
reduced_step = 0.05
step = 0.002        # full-solve step (resolves the fast scale for short T)
control_points = 4
psi = 1
output = lattice_run
observables = diameter,d_small
""",
}


def cmd_example(name: str, output: str | None) -> int:
    text = _EXAMPLE_CONFIGS[name]
    if output:
        with _overwritten(output) as fh:
            fh.write(text)
        print(f"[example] wrote {output}")
    else:
        _sys.stdout.write(text)
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first command, not at import, and
    kept: parsing keeps no state on it.  Every ``RunConfig`` field is an
    option of `solve`, `reduce` and `estimate`, collected in order as
    ``(key, value)`` overrides.  Each command's parser is its ``command_parser``
    default, so that arguments it does not take are reported with its own usage
    line.  On a 2-core Xeon (Python 3.11) it builds in about 0.9 ms, 2.5 ms the
    first time, and parses `estimate x.cfg` in 18 us."""
    parser = argparse.ArgumentParser(
        prog="modred",
        description="Automatic model reduction for multiscale ODE systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("solve", "reduce", "estimate"):
        run = sub.add_parser(name, allow_abbrev=False, epilog="A value starting with '-' takes --key=value.")
        run.add_argument("config", help="flat key = value config file")
        for f in fields(RunConfig):
            pair = lambda value, key=f.name: (key, value)  # noqa: E731
            run.add_argument(f"--{f.name}", metavar="VALUE", dest="overrides", action="append", type=pair)
        run.set_defaults(command_parser=run)
    example = sub.add_parser("example")
    example.add_argument("name", choices=sorted(_EXAMPLE_CONFIGS))
    example.add_argument("-o", "--output", default=None)
    example.set_defaults(command_parser=example)
    return parser


def main(argv=None) -> int:
    try:
        args, extra = _parser().parse_known_args(argv)
        if extra:
            args.command_parser.error(f"unrecognized arguments: {' '.join(extra)}")
    except SystemExit as err:
        return 0 if err.code == 0 else 1

    try:
        if args.command == "example":
            return cmd_example(args.name, args.output)
        cfg = parse_config(args.config, args.overrides or ())
        handler = {"solve": cmd_solve, "reduce": cmd_reduce, "estimate": cmd_estimate}
        return handler[args.command](cfg)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=_sys.stderr)
        return 1
    except MemoryError as err:
        hint = "lower T or raise step, reduced_step or resolved_step"
        print(f"error: out of memory: {err}; {hint}", file=_sys.stderr)
        return 1
    except (RuntimeError, ArithmeticError, np.linalg.LinAlgError) as err:
        print(f"numerical failure: {err}", file=_sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
