import dataclasses
import io
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import modred.cli
from modred import Trajectory, make_simple_model
from modred.cli import CSV_BLOCK, main, parse_config, read_csv, write_csv


def run_cli(*args):
    return main([str(a) for a in args])


def write_config(path, text):
    path.write_text(text)
    return str(path)


def load_csv(path, dimension):
    """The trajectory in the first 1 + dimension columns of a CSV artifact."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return Trajectory(data[:, 0], data[:, 1 : dimension + 1])


def test_example_configs_parse(tmp_path, capsys):
    for name in ("simple", "lattice"):
        out = tmp_path / f"{name}.cfg"
        assert run_cli("example", name, "-o", out) == 0
        cfg = parse_config(str(out))
        assert cfg.problem == name
    # the lattice example leaves resolved_step to its default, tau/500
    assert cfg.resolved_step == pytest.approx(cfg.tau / 500.0)
    assert run_cli("example", "simple") == 0
    assert "problem = simple" in capsys.readouterr().out


def test_run_config_built_in_code_takes_the_default_resolved_step(tmp_path):
    # a library caller that leaves resolved_step out gets tau/500, as a
    # config file that leaves it out does; one given stays as given
    model, _, _ = modred.cli.reduce_run(make_simple_model(1e18), modred.cli.RunConfig(T=1.0))
    parsed = parse_config(write_config(tmp_path / "c.cfg", "problem = simple\nT = 1\n"))
    assert model.resolved_step == parsed.resolved_step == pytest.approx(1e-7 / 500.0)
    assert modred.cli.RunConfig(tau=1.0, resolved_step=0.003).resolved_step == 0.003


def test_solve_row_count(tmp_path):
    cfg = write_config(
        tmp_path / "c.cfg",
        """
        problem = simple
        kappa = 1
        T = 10
        step = 0.01
        output = {}
        """.format(tmp_path / "run"),
    )
    assert run_cli("solve", cfg) == 0
    lines = (tmp_path / "run.csv").read_text().splitlines()
    assert lines[0] == "t,u_1,u_2,u_3,u_4"
    assert len(lines) == 1 + 1001


def test_solve_short_stiff_run_oscillation_period(tmp_path):
    # resolved window of the very stiff oscillator: u2 oscillates with period
    # 2*pi*1e-9 ~ 6.3e-9
    cfg = write_config(
        tmp_path / "c.cfg",
        f"problem = simple\nkappa = 1e18\nT = 4e-7\nstep = 2e-10\noutput = {tmp_path/'fig2'}\n",
    )
    assert run_cli("solve", cfg) == 0
    traj = load_csv(tmp_path / "fig2.csv", 4)
    u2 = traj.states[:, 1]
    crossings = int(np.sum(u2[1:] * u2[:-1] < 0))
    period = 2.0 * 4e-7 / crossings
    assert abs(period - 2 * np.pi * 1e-9) <= 0.05 * 2 * np.pi * 1e-9


def test_reduce_simple_artifacts_and_report(tmp_path):
    cfg = write_config(
        tmp_path / "c.cfg",
        f"""
        problem = simple
        kappa = 1e18
        T = 100
        tau = 1e-7
        resolved_step = 2e-10
        reduced_step = 0.1
        output = {tmp_path/'red'}
        """,
    )
    assert run_cli("reduce", cfg) == 0
    csv_lines = (tmp_path / "red.csv").read_text().splitlines()
    assert len(csv_lines) == 1 + 1001  # ~1e3 reduced steps
    report = (tmp_path / "red.model.txt").read_text().splitlines()
    body = [line for line in report if not line.startswith("#")]
    assert body[1].startswith("2 inactive")
    assert body[3].startswith("4 inactive")
    g3 = float(body[2].split()[2])
    assert body[2].split()[1] == "active"
    assert abs(g3 - 0.2495) <= 0.005
    assert (tmp_path / "red.gnuplot").read_text().startswith("# gnuplot")


def test_reduce_then_estimate_simple(tmp_path):
    cfg = write_config(
        tmp_path / "c.cfg",
        f"""
        problem = simple
        kappa = 1e18
        T = 10
        tau = 1e-7
        resolved_step = 2e-10
        reduced_step = 0.05
        control_points = 3
        psi = 1
        output = {tmp_path/'est'}
        """,
    )
    assert run_cli("reduce", cfg) == 0
    assert run_cli("estimate", cfg) == 0
    report = dict(
        line.split(":", 1)
        for line in (tmp_path / "est.estimate.txt").read_text().splitlines()
    )
    total = float(report["total"])
    s0 = float(report["S0"])
    assert np.isfinite(total) and np.isfinite(s0) and total >= 0
    assert report["model_term_validated"].strip() == "yes"
    # the frozen-component residual is the 1/(sqrt(kappa) tau) attenuation
    assert 1e-3 <= float(report["inactive_residual"]) <= 3e-2
    controls = (tmp_path / "est.controls.txt").read_text()
    assert "point_3_deviation:" in controls
    # the reduced solution tracks the closed form within the bound + slack
    traj = load_csv(tmp_path / "est.csv", 4)
    measured = abs(traj.states[-1, 0] - 0.25 * (1 - np.cos(10.0)))
    assert measured <= total + 0.01


def test_estimate_resolves_every_control_window_from_local_time_zero(tmp_path, monkeypatch):
    # each control window steps on the fit's partition of [0, 2*tau], however
    # far along the reduced solve it starts
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "c.cfg"
    assert run_cli("example", "simple", "-o", cfg) == 0
    assert run_cli("reduce", cfg) == 0
    starts = []
    solve = modred.reduction.solve_cg1

    def spy(sys, part, opts=None):
        starts.append(float(part.times[0]))
        return solve(sys, part, opts)

    monkeypatch.setattr(modred.reduction, "solve_cg1", spy)
    assert run_cli("estimate", cfg) == 0
    assert starts == [0.0] * parse_config(str(cfg)).control_points


def test_estimate_requires_reduce_artifacts(tmp_path):
    cfg = write_config(
        tmp_path / "c.cfg",
        f"problem = simple\nT = 10\ntau = 1e-7\noutput = {tmp_path/'missing'}\n",
    )
    assert run_cli("estimate", cfg) == 1


def test_external_file_problem_linear_estimate(tmp_path):
    problem = tmp_path / "linear.py"
    problem.write_text(
        """
import numpy as np
from modred import DynamicalSystem

A = np.array([[0.0, 1.0], [-0.04, 0.0]])

def make_system():
    return DynamicalSystem(2, lambda u, t: A @ u, np.array([1.0, 0.0]),
                           jacobian=lambda u, t: A)
"""
    )
    cfg = write_config(
        tmp_path / "c.cfg",
        f"""
        problem = external-file
        problem_file = {problem}
        T = 20
        tau = 0.5
        reduced_step = 0.01
        control_points = 2
        output = {tmp_path/'lin'}
        """,
    )
    assert run_cli("reduce", cfg) == 0
    assert run_cli("estimate", cfg) == 0
    report = dict(
        line.split(":", 1)
        for line in (tmp_path / "lin.estimate.txt").read_text().splitlines()
    )
    assert float(report["model_term"]) <= 1e-8
    assert float(report["total"]) <= 1e-3  # pure discretization, slow system


def test_lattice_reduce_with_observables(tmp_path):
    cfg = write_config(
        tmp_path / "c.cfg",
        f"""
        problem = lattice
        p = 2
        M = 100
        m = 1e-4
        kappa = 1
        T = 10
        tau = 1
        reduced_step = 0.05
        output = {tmp_path/'lat'}
        observables = diameter,d_small
        """,
    )
    assert run_cli("reduce", cfg) == 0
    lines = (tmp_path / "lat.csv").read_text().splitlines()
    assert lines[0].endswith("diameter,d_small")
    data = np.loadtxt(lines[1:], delimiter=",", ndmin=2)
    D = data[:, -2]
    # the reduced run starts from the averaged state, so D(0) is only close
    # to sqrt(2)
    assert abs(D[0] - np.sqrt(2.0)) < 1e-4
    assert D.min() < np.sqrt(2.0) - 1e-6  # subgrid forcing contracts the cell


def test_lattice_estimate_end_to_end(tmp_path):
    cfg = write_config(
        tmp_path / "c.cfg",
        f"""
        problem = lattice
        p = 3
        m = 1e-4
        kappa = 1
        T = 20
        tau = 1
        reduced_step = 0.05
        control_points = 3
        psi = 1
        output = {tmp_path/'lat'}
        """,
    )
    assert run_cli("reduce", cfg) == 0
    assert run_cli("estimate", cfg) == 0
    report = dict(
        line.split(":", 1)
        for line in (tmp_path / "lat.estimate.txt").read_text().splitlines()
    )
    assert report["model_term_validated"].strip() == "yes"
    assert 0 < float(report["total"]) < 1.0
    # frozen small masses keep a residual average of order 1/(omega * tau)
    omega_tau = np.sqrt(2.0 / 1e-4) * 1.0
    assert 0.1 / omega_tau <= float(report["inactive_residual"]) <= 4.0 / omega_tau


def test_solve_lattice_short_run_small_mass_column(tmp_path):
    # resolved short run: the small-mass distance column oscillates at the
    # fast scale (half the mechanical period, since d is transverse-quadratic)
    cfg = write_config(
        tmp_path / "c.cfg",
        f"""
        problem = lattice
        p = 3
        m = 1e-4
        T = 0.2
        step = 0.001
        output = {tmp_path/'short'}
        observables = d_small
        """,
    )
    assert run_cli("solve", cfg) == 0
    lines = (tmp_path / "short.csv").read_text().splitlines()
    assert lines[0].endswith("d_small")
    d = np.loadtxt(lines[1:], delimiter=",", ndmin=2)[:, -1]
    assert d.max() - d.min() > 1e-6
    dc = d - np.mean(d)
    crossings = int(np.sum(dc[1:] * dc[:-1] < 0))
    period = 2.0 * 0.2 / crossings
    mechanical = 2 * np.pi * np.sqrt(1e-4 / 2.0)
    assert abs(period - 0.5 * mechanical) <= 0.15 * mechanical


def test_csv_round_trip_is_bit_exact(tmp_path, rng):
    ts = np.sort(rng.uniform(0, 1, size=40))
    traj = Trajectory(ts, rng.normal(size=(40, 3)) * np.pi)
    path = tmp_path / "t.csv"
    write_csv(str(path), traj)
    back = load_csv(path, 3)
    assert np.array_equal(back.times, traj.times)
    assert np.array_equal(back.states, traj.states)


# the shortest trajectory, a block less one row, a block, and one row past a block
@pytest.mark.parametrize("rows", [2, CSV_BLOCK - 1, CSV_BLOCK, CSV_BLOCK + 1])
@pytest.mark.parametrize("observables", [False, True], ids=["states", "observables"])
def test_write_csv_matches_savetxt(tmp_path, rng, rows, observables):
    states = rng.normal(size=(rows, 4))
    edge = [-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 3.0, -12.0, 1e22, 0.1 + 0.2]
    states.flat[: len(edge)] = edge
    traj = Trajectory(0.1 * np.arange(rows), states)
    extra = [("diameter", rng.uniform(size=rows)), ("d_small", np.full(rows, 0.1 + 0.2))] if observables else []
    path = tmp_path / "t.csv"
    write_csv(str(path), traj, extra)
    names = ["t", "u_1", "u_2", "u_3", "u_4"] + [name for name, _ in extra]
    data = np.column_stack([traj.times, traj.states, *(col for _, col in extra)])
    ref = io.StringIO()
    np.savetxt(ref, data, fmt="%.17g", delimiter=",", header=",".join(names), comments="")
    assert path.read_bytes() == ref.getvalue().encode()


def _savetxt_bytes(traj, extra=()):
    names = ["t"] + [f"u_{i + 1}" for i in range(traj.dimension)] + [name for name, _ in extra]
    ref = io.StringIO()
    data = np.column_stack([traj.times, traj.states, *(col for _, col in extra)])
    np.savetxt(ref, data, fmt="%.17g", delimiter=",", header=",".join(names), comments="")
    return ref.getvalue().encode()


def _zero_then_negative_zero(rows):
    col = np.zeros(rows)
    col[rows // 2] = -0.0
    return col


def _constant_but_last(rows):
    col = np.full(rows, 0.1 + 0.2)
    col[-1] = np.nextafter(col[-1], 1.0)
    return col


# columns that a constant-column writer could take for constant and must not,
# and columns that are constant: one state, every state, an observable
@pytest.mark.parametrize("rows", [2, CSV_BLOCK + 1])
@pytest.mark.parametrize(
    "states,extra",
    [
        (lambda rows, rng: np.column_stack([_zero_then_negative_zero(rows), rng.normal(size=rows)]), ()),
        (lambda rows, rng: np.column_stack([_constant_but_last(rows), np.full(rows, -0.0)]), ()),
        (lambda rows, rng: np.tile([53050.68, -0.0, 5e-324, 1e22], (rows, 1)), ()),
        (lambda rows, rng: rng.normal(size=(rows, 2)), (("d_small", lambda rows: np.full(rows, np.pi)),)),
    ],
    ids=["negative-zero", "constant-but-last", "all-states-constant", "constant-observable"],
)
def test_write_csv_formats_constant_columns_as_savetxt_does(tmp_path, rng, rows, states, extra):
    traj = Trajectory(0.1 * np.arange(rows), states(rows, rng))
    columns = [(name, col(rows)) for name, col in extra]
    path = tmp_path / "c.csv"
    write_csv(str(path), traj, columns)
    assert path.read_bytes() == _savetxt_bytes(traj, columns)


def test_read_csv_reads_the_second_and_last_rows_bit_for_bit(tmp_path, rng):
    # rows wider than the first 4,096 bytes read from the end, and a CSV of
    # two rows, whose second row is its last
    for rows, n in ((3, 400), (2, 3)):
        traj = Trajectory(np.sort(rng.uniform(0, 1, size=rows)), rng.normal(size=(rows, n)) * np.pi)
        path = tmp_path / f"{rows}.csv"
        write_csv(str(path), traj, [("diameter", rng.uniform(size=rows))])
        second, final, state = read_csv(str(path), n)
        assert second == traj.times[1] and final == traj.times[-1]
        assert state.tobytes() == traj.states[-1].tobytes()


def test_write_csv_formats_a_long_run_in_blocks(tmp_path):
    # the 20,001 x 5 array of simple-long's CSV holds 800 kB; one % over the
    # whole file would hold 100,005 floats and the text besides, about 5 MB
    n = 20_001
    traj = Trajectory(np.linspace(0.0, 2000.0, n), np.random.default_rng(0).normal(size=(n, 4)))
    path = str(tmp_path / "long.csv")
    tracemalloc.start()
    try:
        write_csv(path, traj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_reduce_is_deterministic(tmp_path):
    cfg_text = f"""
    problem = simple
    kappa = 1e18
    T = 5
    tau = 1e-7
    resolved_step = 2e-10
    reduced_step = 0.1
    output = {tmp_path/'det'}
    """
    cfg = write_config(tmp_path / "c.cfg", cfg_text)
    assert run_cli("reduce", cfg) == 0
    first = (tmp_path / "det.csv").read_bytes(), (tmp_path / "det.model.txt").read_bytes()
    assert run_cli("reduce", cfg) == 0
    second = (tmp_path / "det.csv").read_bytes(), (tmp_path / "det.model.txt").read_bytes()
    assert first == second


def test_exit_codes(tmp_path):
    bad = write_config(tmp_path / "bad.cfg", "problem = simple\nnonsense_key = 3\n")
    assert run_cli("solve", bad) == 1

    assert run_cli("solve", str(tmp_path / "does_not_exist.cfg")) == 1

    # unresolvable stiff solve: fixed point diverges -> numerical failure
    stiff = write_config(
        tmp_path / "stiff.cfg",
        f"problem = simple\nkappa = 1e18\nT = 0.1\nstep = 0.01\noutput = {tmp_path/'x'}\n",
    )
    assert run_cli("solve", stiff) == 2

    # override syntax errors are usage errors
    good = write_config(
        tmp_path / "good.cfg", f"problem = simple\nkappa = 1\nT = 1\noutput = {tmp_path/'y'}\n"
    )
    assert run_cli("solve", good, "--step") == 1
    assert run_cli("solve", good, "--step", "0.5") == 0


def test_out_of_memory_is_a_config_error_naming_T_and_the_steps(tmp_path, capsys, monkeypatch):
    # the simple example's step = 2e-10 over T = 100 asks for 5e11 nodes; the
    # partition is patched to fail as numpy does, so nothing is allocated
    message = "Unable to allocate 3.64 TiB for an array with shape (500000000001,) and data type float64"

    def uniform(*args):
        raise MemoryError(message)

    monkeypatch.setattr("modred.cli.TimePartition.uniform", uniform)
    cfg = tmp_path / "s.cfg"
    assert run_cli("example", "simple", "-o", cfg) == 0
    capsys.readouterr()
    assert run_cli("solve", cfg, "--output", tmp_path / "oom") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    assert message in err
    assert all(key in err for key in ("T", "step", "reduced_step", "resolved_step"))
    assert not (tmp_path / "oom.csv").exists()


def test_config_overrides_apply(tmp_path):
    cfg = write_config(
        tmp_path / "c.cfg",
        f"problem = simple\nkappa = 1\nT = 10\nstep = 0.01\noutput = {tmp_path/'o'}\n",
    )
    assert run_cli("solve", cfg, "--T", "1", "--step", "0.1") == 0
    lines = (tmp_path / "o.csv").read_text().splitlines()
    assert len(lines) == 1 + 11


def test_external_file_wrong_shape_rhs_is_a_config_error(tmp_path, capsys):
    problem = tmp_path / "scalar.py"
    problem.write_text(
        """
import numpy as np
from modred import DynamicalSystem

def make_system():
    return DynamicalSystem(2, lambda u, t: -u[0], np.array([1.0, 2.0]))
"""
    )
    cfg = write_config(
        tmp_path / "c.cfg",
        f"problem = external-file\nproblem_file = {problem}\nT = 1\nstep = 0.01\n"
        f"tau = 0.1\noutput = {tmp_path/'s'}\n",
    )
    for command in ("solve", "reduce"):
        assert run_cli(command, cfg) == 1
        assert "rhs returned shape (), expected (2,)" in capsys.readouterr().err
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize(
    "call,message",
    [
        ("np.zeros(2), final_time=1.0", "unexpected keyword argument 'final_time'"),
        ("np.zeros(2), 1.0", "takes no final time"),
        ("np.zeros(2), 1.0, lambda u, t: -np.eye(2)", "takes no final time"),
    ],
    ids=["keyword", "positional", "positional-with-jacobian"],
)
def test_old_style_problem_file_is_a_config_error(tmp_path, capsys, call, message):
    # a problem file written for the old DynamicalSystem(..., final_time, ...)
    problem = tmp_path / "old_style.py"
    problem.write_text(
        f"""
import numpy as np
from modred import DynamicalSystem

def make_system():
    return DynamicalSystem(2, lambda u, t: -u, {call})
"""
    )
    cfg = write_config(
        tmp_path / "c.cfg",
        f"problem = external-file\nproblem_file = {problem}\nT = 1\nstep = 0.01\n"
        f"tau = 0.1\noutput = {tmp_path/'s'}\n",
    )
    for command in ("solve", "reduce"):
        assert run_cli(command, cfg) == 1
        err = capsys.readouterr().err
        assert str(problem) in err and message in err
    assert not (tmp_path / "s.csv").exists()


def test_problem_file_that_raises_on_import_is_a_config_error(tmp_path, capsys):
    problem = tmp_path / "broken.py"
    problem.write_text("import numpy as np\nnp.zeros(2) + np.zeros(3)\n")
    cfg = write_config(
        tmp_path / "c.cfg",
        f"problem = external-file\nproblem_file = {problem}\nT = 1\nstep = 0.01\n",
    )
    assert run_cli("solve", cfg) == 1
    err = capsys.readouterr().err
    assert str(problem) in err and "operands could not be broadcast" in err


@pytest.mark.parametrize("value", ["inf", "nan"])
@pytest.mark.parametrize("key", ["T", "tau", "reduced_step", "resolved_step", "kappa"])
def test_nonfinite_config_value_is_a_config_error(tmp_path, capsys, key, value):
    cfg = write_config(tmp_path / "c.cfg", f"problem = simple\noutput = {tmp_path/'nf'}\n")
    assert run_cli("reduce", cfg, f"--{key}", value) == 1
    assert f"config key {key} must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("key,value", [("p", "3.0"), ("control_points", "2.5")])
def test_non_integer_value_of_an_integer_key_names_the_key(tmp_path, capsys, key, value):
    cfg = write_config(tmp_path / "c.cfg", f"problem = lattice\noutput = {tmp_path/'ni'}\n")
    assert run_cli("reduce", cfg, f"--{key}", value) == 1
    assert f"config key {key} must be an integer, got '{value}'" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0", "-1"])
def test_nonpositive_resolved_step_is_a_config_error(tmp_path, capsys, value):
    cfg = write_config(tmp_path / "c.cfg", f"problem = simple\noutput = {tmp_path/'rs'}\n")
    assert run_cli("reduce", cfg, "--resolved_step", value) == 1
    assert "config key resolved_step must be positive" in capsys.readouterr().err
    assert not (tmp_path / "rs.csv").exists()


def test_estimate_rejects_tau_other_than_the_fit(tmp_path, capsys):
    # control points must measure gbar over the window the fit used
    cfg = write_config(
        tmp_path / "c.cfg",
        f"""
        problem = simple
        kappa = 1e18
        T = 1
        tau = 1e-7
        resolved_step = 2e-10
        reduced_step = 0.05
        output = {tmp_path/'tau'}
        """,
    )
    assert run_cli("reduce", cfg) == 0
    capsys.readouterr()
    assert run_cli("estimate", cfg, "--tau", "2e-7") == 1
    err = capsys.readouterr().err
    assert "config tau = 2e-07" in err and "model's tau = 1e-07" in err
    assert not (tmp_path / "tau.estimate.txt").exists()
    assert run_cli("estimate", cfg) == 0



def test_estimate_rejects_a_reduced_step_the_reduce_did_not_take(tmp_path, capsys):
    # the dual steps on the reduce's partition: a dual step of 5, which
    # cannot resolve the slow oscillator, is refused as a config error before
    # any solve, not run into a numerical failure
    cfg = write_config(
        tmp_path / "d.cfg",
        f"""
        problem = simple
        kappa = 1e18
        T = 10
        tau = 1e-7
        resolved_step = 2e-10
        reduced_step = 0.1
        output = {tmp_path/'dual'}
        """,
    )
    assert run_cli("reduce", cfg) == 0
    capsys.readouterr()
    assert run_cli("estimate", cfg, "--reduced_step", "5") == 1
    err = capsys.readouterr().err
    assert "config reduced_step = 5.0" in err and "not at the time 0.1 in" in err
    assert not (tmp_path / "dual.estimate.txt").exists()


def _reduce_short_simple(tmp_path, name):
    cfg = write_config(
        tmp_path / "c.cfg",
        f"""
        problem = simple
        kappa = 1e18
        T = 1
        tau = 1e-7
        resolved_step = 2e-10
        reduced_step = 0.05
        output = {tmp_path/name}
        """,
    )
    assert run_cli("reduce", cfg) == 0
    return cfg


@pytest.mark.parametrize("T", ["0.5", "2"])
def test_estimate_rejects_T_other_than_the_reduced_solve(tmp_path, capsys, T):
    # control points and the dual must cover the reduced solve on disk: a
    # shorter T used to skip its tail, a longer one failed far from the cause
    cfg = _reduce_short_simple(tmp_path, "T")
    capsys.readouterr()
    assert run_cli("estimate", cfg, "--T", T) == 1
    err = capsys.readouterr().err
    assert f"config T = {float(T)!r}" in err and "final time 1.0" in err
    assert not (tmp_path / "T.estimate.txt").exists()


def test_estimate_rejects_a_csv_of_another_reduced_step(tmp_path, capsys):
    # a reduce at another step wrote the CSV: the re-solve would bound a
    # different run than the one on disk
    cfg = _reduce_short_simple(tmp_path, "rs")
    assert run_cli("reduce", cfg, "--reduced_step", "0.1") == 0
    capsys.readouterr()
    assert run_cli("estimate", cfg) == 1
    err = capsys.readouterr().err
    assert "config reduced_step = 0.05" in err and f"in {tmp_path / 'rs.csv'}" in err
    assert not (tmp_path / "rs.estimate.txt").exists()
    assert run_cli("estimate", cfg, "--reduced_step", "0.1") == 0


def _edit_last_row(csv, column, value):
    lines = csv.read_text().splitlines()
    row = lines[-1].split(",")
    row[column] = value
    csv.write_text("\n".join(lines[:-1] + [",".join(row)]) + "\n")


@pytest.mark.parametrize("column", [0, 1, 4], ids=["t", "u_1", "u_4"])
def test_estimate_rejects_an_edited_last_row(tmp_path, capsys, column):
    # the last row must be the re-solve's final node bit for bit; one ulp off
    # in any state column, or in the time, is another run
    cfg = _reduce_short_simple(tmp_path, "row")
    csv = tmp_path / "row.csv"
    value = float(csv.read_text().splitlines()[-1].split(",")[column])
    _edit_last_row(csv, column, repr(float(np.nextafter(value, np.inf))))
    capsys.readouterr()
    assert run_cli("estimate", cfg) == 1
    err = capsys.readouterr().err
    if column == 0:
        assert "config T = 1.0 differs from the final time 1.0000000000000002" in err
    else:
        assert f"{tmp_path / 'row.model.txt'}, solved again, does not end on the last row of {csv}" in err
        # a pair written on another machine is refused too; the message says so
        assert "on the platform and BLAS that estimate runs on" in err
    assert not (tmp_path / "row.estimate.txt").exists()


def test_estimate_reads_the_last_row_as_written(tmp_path):
    # the same value in other digits is the same run: only the bits count
    cfg = _reduce_short_simple(tmp_path, "same")
    assert run_cli("estimate", cfg) == 0
    expected = (tmp_path / "same.estimate.txt").read_bytes()
    csv = tmp_path / "same.csv"
    value = float(csv.read_text().splitlines()[-1].split(",")[1])
    _edit_last_row(csv, 1, f"{value:.25e}")
    (tmp_path / "same.estimate.txt").unlink()
    assert run_cli("estimate", cfg) == 0
    assert (tmp_path / "same.estimate.txt").read_bytes() == expected


def test_estimate_rejects_a_csv_cut_to_its_header(tmp_path, capsys):
    cfg = _reduce_short_simple(tmp_path, "cut")
    csv = tmp_path / "cut.csv"
    csv.write_text(csv.read_text().splitlines()[0] + "\n")
    capsys.readouterr()
    assert run_cli("estimate", cfg) == 1
    assert f"{csv}: holds no solve of dimension 4" in capsys.readouterr().err
    assert not (tmp_path / "cut.estimate.txt").exists()


def test_estimate_rejects_a_csv_whose_last_row_is_not_numbers(tmp_path, capsys):
    cfg = _reduce_short_simple(tmp_path, "text")
    csv = tmp_path / "text.csv"
    _edit_last_row(csv, 2, "abc")
    capsys.readouterr()
    assert run_cli("estimate", cfg) == 1
    assert f"error: {csv}: its second or last row is not numbers" in capsys.readouterr().err
    assert not (tmp_path / "text.estimate.txt").exists()


@pytest.mark.parametrize("step", ["0.01", "0.05"])
def test_estimate_rejects_a_csv_that_solve_wrote(tmp_path, capsys, step):
    # a full solve at another step fails the reduced_step check; at the
    # reduced step its last row is not the reduced model's
    cfg = _reduce_short_simple(tmp_path, "full")
    assert run_cli("solve", cfg, "--kappa", "1", "--step", step) == 0
    capsys.readouterr()
    assert run_cli("estimate", cfg) == 1
    err = capsys.readouterr().err
    assert ("config reduced_step" if step == "0.01" else "solved again, does not end on the last row") in err
    assert not (tmp_path / "full.estimate.txt").exists()


def test_estimate_rejects_resolved_step_other_than_the_fit(tmp_path, capsys):
    # control points must resolve their windows with the step the fit used
    cfg = _reduce_short_simple(tmp_path, "step")
    report = (tmp_path / "step.model.txt").read_text()
    assert "# resolved_step = 2.0000000000000001e-10\n" in report
    capsys.readouterr()
    assert run_cli("estimate", cfg, "--resolved_step", "1e-10") == 1
    err = capsys.readouterr().err
    assert "config resolved_step = 1e-10" in err and "model's resolved_step = 2e-10" in err
    assert not (tmp_path / "step.estimate.txt").exists()


def test_estimate_rejects_malformed_model_header(tmp_path, capsys):
    cfg = _reduce_short_simple(tmp_path, "hdr")
    model_path = tmp_path / "hdr.model.txt"
    lines = model_path.read_text().splitlines()
    model_path.write_text(
        "\n".join("# tau =" if line.startswith("# tau") else line for line in lines) + "\n"
    )
    capsys.readouterr()
    assert run_cli("estimate", cfg) == 1
    assert "'# tau' must hold one value, got 0" in capsys.readouterr().err


@pytest.mark.parametrize(
    "psi,problem",
    [("nan,0,0,0", "finite"), ("inf,0,0,0", "finite"), ("1e400,0,0,0", "finite"), ("1.5", "an integer")],
)
def test_bad_psi_fails_before_the_dual(tmp_path, capsys, psi, problem):
    # a non-finite output functional used to run the whole backward dual
    cfg = _reduce_short_simple(tmp_path, "psi")
    capsys.readouterr()
    assert run_cli("estimate", cfg, "--psi", psi) == 1
    err = capsys.readouterr().err
    assert f"config key psi must be {problem}, got '{psi.split(',')[0]}'" in err
    assert not (tmp_path / "psi.estimate.txt").exists()


def test_estimate_with_T_too_short_for_control_points_fails_before_the_dual(tmp_path, capsys, monkeypatch):
    # the control-point window is checked with the other config values, not
    # after a full backward dual solve
    cfg = tmp_path / "s.cfg"
    assert run_cli("example", "simple", "-o", cfg) == 0
    cfg.write_text(cfg.read_text().replace("output = simple_run", f"output = {tmp_path/'short'}"))
    assert run_cli("reduce", cfg, "--T", "3e-7") == 0

    def no_dual(*args):
        raise AssertionError("solve_dual called")

    monkeypatch.setattr(modred.cli, "solve_dual", no_dual)
    capsys.readouterr()
    assert run_cli("estimate", cfg, "--T", "3e-7") == 1
    assert "T too short for control points (need T > 4 * tau)" in capsys.readouterr().err
    assert not (tmp_path / "short.estimate.txt").exists()


_VECTORIZED_PROBLEM = """
import numpy as np
from modred import DynamicalSystem

def rhs(u, t):
    x, v = u[..., 0], u[..., 1]
    return np.stack([v, -x + 0.1 * np.cos({time}) * x * x], axis=-1)

def jac(u, t):
    J = np.zeros({shape})
    J[..., 0, 1] = 1.0
    J[..., 1, 0] = -1.0 + 0.2 * np.cos(t) * {x}
    return J

def make_system():
    return DynamicalSystem(2, rhs, np.array([1.0, 0.0]), jacobian=jac, vectorized=True)
"""
_STACK_KEEPING = {"time": "t", "shape": "(*u.shape[:-1], 2, 2)", "x": "u[..., 0]"}


@pytest.mark.parametrize(
    "broken,message",
    [
        # every row takes the last row's time
        ({"time": "np.max(t)"}, "vectorized rhs on a stack of 3 states differs from its per-state value at row 0 (t=0.0)"),
        # written for one state: the stack's times do not fit its one matrix
        ({"shape": "(2, 2)"}, "vectorized jacobian fails on a stack of 3 states: ValueError: could not broadcast"),
        # every row takes the first row's state
        ({"x": "u.flat[0]"}, "vectorized jacobian on a stack of 3 states differs from its per-state value at row 1 (t=0.5)"),
    ],
    ids=["rhs-drops-row-times", "jacobian-ignores-stack", "jacobian-mixes-rows"],
)
def test_external_system_that_breaks_a_stack_promise_is_a_config_error(tmp_path, capsys, broken, message):
    problem = tmp_path / "blind.py"
    problem.write_text(_VECTORIZED_PROBLEM.format(**{**_STACK_KEEPING, **broken}))
    cfg = write_config(
        tmp_path / "c.cfg",
        f"problem = external-file\nproblem_file = {problem}\nT = 1\nstep = 0.01\n"
        f"tau = 0.1\noutput = {tmp_path/'s'}\n",
    )
    for command in ("solve", "reduce"):
        assert run_cli(command, cfg) == 1
        err = capsys.readouterr().err
        assert str(problem) in err and message in err
    assert not (tmp_path / "s.csv").exists()


def test_external_system_that_keeps_its_stack_promises_runs(tmp_path):
    problem = tmp_path / "stacked.py"
    problem.write_text(_VECTORIZED_PROBLEM.format(**_STACK_KEEPING))
    cfg = write_config(
        tmp_path / "c.cfg",
        f"problem = external-file\nproblem_file = {problem}\nT = 5\ntau = 0.5\n"
        f"reduced_step = 0.01\ncontrol_points = 1\noutput = {tmp_path/'s'}\n",
    )
    assert run_cli("reduce", cfg) == 0
    assert run_cli("estimate", cfg) == 0


def test_example_config_goes_to_a_device_or_a_pipe(capfd):
    # neither can be truncated, and neither has old bytes to cut off
    assert run_cli("example", "simple", "-o", os.devnull) == 0
    read, write = os.pipe()
    try:
        assert run_cli("example", "simple", "-o", f"/dev/fd/{write}") == 0
    finally:
        os.close(write)
    with os.fdopen(read) as fh:
        assert fh.read() == modred.cli._EXAMPLE_CONFIGS["simple"]
    assert "error" not in capfd.readouterr().err


def test_artifacts_are_overwritten_in_place(tmp_path, monkeypatch):
    # a longer old file, a hard link and narrow permissions: the new content
    # replaces the old in the same inode, with nothing of the old tail left
    fresh, reused = tmp_path / "fresh", tmp_path / "reused"
    for out in (fresh, reused):
        out.mkdir()
        monkeypatch.chdir(out)
        assert run_cli("example", "simple", "-o", "simple.cfg") == 0
    names = [f"simple_run.{ext}" for ext in ("csv", "model.txt", "gnuplot", "estimate.txt", "controls.txt")]
    for name in names:
        (reused / name).write_text("old\n" * 100_000)
        (reused / name).chmod(0o600)
        (reused / f"link-{name}").hardlink_to(reused / name)
    inodes = {name: (reused / name).stat().st_ino for name in names}
    for out in (fresh, reused):
        monkeypatch.chdir(out)
        assert run_cli("reduce", "simple.cfg", "--T", "1") == 0
        assert run_cli("estimate", "simple.cfg", "--T", "1") == 0
    for name in names:
        stat = (reused / name).stat()
        assert (stat.st_ino, stat.st_mode & 0o777) == (inodes[name], 0o600)
        assert (reused / name).read_bytes() == (fresh / name).read_bytes()
        assert (reused / f"link-{name}").read_bytes() == (fresh / name).read_bytes()


@pytest.mark.parametrize(
    "text,message",
    [
        ("problem = pendulum\n", "unknown problem 'pendulum'"),
        ("problem = external-file\n", "problem = external-file requires problem_file = <path>"),
        ("problem = simple\nkappa = 0\n", "kappa must be positive"),
        ("problem = simple\ncontrol_points = 0\n", "control_points must be >= 1"),
        ("problem = simple\nobservables = diameter\n", "observable 'diameter' requires the lattice problem"),
        ("problem = lattice\nobservables = diameter, width\n", "unknown observable 'width'"),
        ("problem = simple\nT 10\n", "c.cfg:2: expected 'key = value', got 'T 10'"),
        ("problem = simple\nT = 1\n# T = 3\nT = 2\n", "c.cfg: config key T appears twice, on lines 2 and 4"),
    ],
    ids=["unknown-problem", "external-file-without-path", "kappa-zero", "no-control-points",
         "observable-off-lattice", "unknown-observable", "line-without-equals", "repeated-key"],
)
def test_invalid_config_is_a_config_error(tmp_path, capsys, text, message):
    cfg = write_config(tmp_path / "c.cfg", text + f"output = {tmp_path/'v'}\n")
    assert run_cli("solve", cfg) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "v.csv").exists()


def test_empty_config_value_keeps_the_default(tmp_path):
    cfg = write_config(tmp_path / "c.cfg", f"problem = simple\nkappa = 1\nT =\nstep = 1\noutput = {tmp_path/'e'}\n")
    assert run_cli("solve", cfg) == 0
    lines = (tmp_path / "e.csv").read_text().splitlines()
    # T keeps its default of 100
    assert len(lines) == 1 + 101 and lines[-1].startswith("100,")


@pytest.mark.parametrize(
    "name,source,message",
    [
        ("problem.txt", "def make_system():\n    pass\n", "cannot import problem file"),
        ("problem.py", "def make_system():\n    return 42\n", "make_system() must return a DynamicalSystem"),
    ],
    ids=["not-importable", "not-a-system"],
)
def test_problem_file_without_a_system_is_a_config_error(tmp_path, capsys, name, source, message):
    problem = tmp_path / name
    problem.write_text(source)
    cfg = write_config(
        tmp_path / "c.cfg",
        f"problem = external-file\nproblem_file = {problem}\nT = 1\nstep = 0.01\noutput = {tmp_path/'s'}\n",
    )
    assert run_cli("solve", cfg) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "s.csv").exists()


def test_psi_as_a_vector_gives_the_estimate_of_its_index(tmp_path):
    cfg = _reduce_short_simple(tmp_path, "vec")
    assert run_cli("estimate", cfg) == 0
    by_index = (tmp_path / "vec.estimate.txt").read_bytes()
    assert run_cli("estimate", cfg, "--psi", "1,0,0,0") == 0
    assert (tmp_path / "vec.estimate.txt").read_bytes() == by_index


@pytest.mark.parametrize(
    "psi,message",
    [
        ("1,0,0", "psi has 3 entries, system dimension is 4"),
        ("0", "psi component index 0 outside 1..4"),
        ("5", "psi component index 5 outside 1..4"),
        ("0,0,0,0", "psi must be nonzero"),
    ],
)
def test_psi_that_does_not_fit_the_system_is_a_config_error(tmp_path, capsys, monkeypatch, psi, message):
    # psi is refused before estimate solves the reduced model again
    cfg = _reduce_short_simple(tmp_path, "psi")
    capsys.readouterr()
    solves = []
    solve = modred.cli.solve_cg1
    monkeypatch.setattr(modred.cli, "solve_cg1", lambda *args: solves.append(1) or solve(*args))
    assert run_cli("estimate", cfg, "--psi", psi) == 1
    assert message in capsys.readouterr().err
    assert not solves
    assert not (tmp_path / "psi.estimate.txt").exists()


def test_estimate_rejects_a_csv_of_another_dimension(tmp_path, capsys):
    cfg = _reduce_short_simple(tmp_path, "dim")
    csv = tmp_path / "dim.csv"
    rows = csv.read_text().splitlines()[1:]
    csv.write_text("t,u_1,u_2,u_3\n" + "".join(row.rsplit(",", 1)[0] + "\n" for row in rows))
    capsys.readouterr()
    assert run_cli("estimate", cfg) == 1
    assert f"{csv}: unexpected CSV header for dimension 4" in capsys.readouterr().err
    assert not (tmp_path / "dim.estimate.txt").exists()


def _replace_line(prefix, new):
    return lambda lines: [new if line.startswith(prefix) else line for line in lines]


@pytest.mark.parametrize(
    "edit,message",
    [
        (lambda lines: lines + ["5 dormant 0"], "malformed model report line 10: '5 dormant 0'"),
        (lambda lines: [line for line in lines if line.startswith("#")], "model report contains no component lines"),
        (_replace_line("1 ", "7 active 0"), "model report component indices must be 1..N"),
        (lambda lines: [line for line in lines if not line.startswith("# u0")], "model report is missing the '# u0 = ...' header"),
        (_replace_line("# oscillation_amplitude", "# oscillation_amplitude = 0 0 0"), "model arrays must have equal length"),
        (_replace_line("3 ", "3 active nan"), "subgrid constants must be finite"),
        (_replace_line("# u0", "# u0 = 0 0 inf 0"), "reduced initial value must be finite"),
        (_replace_line("# u0", "# u0 = 0 x"), "model report header '# u0' on line 3: '0 x'"),
        (lambda lines: ["# tau = 1", "# tau = 2"] + [line for line in lines if not line.startswith("# tau")],
         "model report header '# tau' appears twice, on lines 1 and 2"),
    ],
    ids=["malformed-line", "no-components", "indices-not-1-to-N", "missing-header", "unequal-lengths",
         "non-finite-constant", "non-finite-u0", "header-not-a-number", "repeated-header"],
)
def test_estimate_rejects_a_broken_model_report(tmp_path, capsys, edit, message):
    cfg = _reduce_short_simple(tmp_path, "rep")
    report = tmp_path / "rep.model.txt"
    report.write_text("\n".join(edit(report.read_text().splitlines())) + "\n")
    capsys.readouterr()
    assert run_cli("estimate", cfg) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "rep.estimate.txt").exists()


@pytest.mark.parametrize("line", ["x active 0", "1 active abc"])
def test_estimate_names_the_report_and_line_of_a_component_that_is_not_a_number(tmp_path, capsys, line):
    cfg = _reduce_short_simple(tmp_path, "num")
    report = tmp_path / "num.model.txt"
    lines = report.read_text().splitlines()
    lineno = lines.index(next(row for row in lines if row.startswith("1 "))) + 1
    report.write_text("\n".join(_replace_line("1 ", line)(lines)) + "\n")
    capsys.readouterr()
    assert run_cli("estimate", cfg) == 1
    err = capsys.readouterr().err
    assert f"error: {report}: malformed model report line {lineno}: {line!r}" in err
    assert not (tmp_path / "num.estimate.txt").exists()


def test_blank_lines_in_the_model_report_are_skipped(tmp_path):
    cfg = _reduce_short_simple(tmp_path, "blank")
    assert run_cli("estimate", cfg) == 0
    expected = (tmp_path / "blank.estimate.txt").read_bytes()
    report = tmp_path / "blank.model.txt"
    report.write_text(report.read_text().replace("\n", "\n\n   \n"))
    assert run_cli("estimate", cfg) == 0
    assert (tmp_path / "blank.estimate.txt").read_bytes() == expected


def test_help_exits_0_and_extra_example_arguments_exit_1(capsys):
    assert run_cli("--help") == 0
    assert capsys.readouterr().out.startswith("usage: modred")
    assert run_cli("example", "simple", "extra") == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: modred example")
    assert "unrecognized arguments: extra" in err


def test_python_m_modred_runs_the_command_line():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}

    def python_m_modred(*args):
        return subprocess.run([sys.executable, "-m", "modred", *args], env=env, capture_output=True, text=True)

    done = python_m_modred("example", "simple")
    assert (done.returncode, done.stdout) == (0, modred.cli._EXAMPLE_CONFIGS["simple"])
    done = python_m_modred("example", "simple", "extra")
    assert done.returncode == 1 and "unrecognized arguments: extra" in done.stderr


@pytest.mark.parametrize("command", ["solve", "reduce", "estimate"])
def test_help_of_each_run_command_lists_every_config_key(capsys, command):
    assert run_cli(command, "--help") == 0
    out = capsys.readouterr().out
    assert all(f"--{f.name} VALUE" in out for f in dataclasses.fields(modred.cli.RunConfig))
    assert "--key=value" in out


@pytest.mark.parametrize(
    "args,message",
    [
        (["--reduced", "0.1"], "unrecognized arguments: --reduced 0.1"),
        (["--no_such_key", "1"], "unrecognized arguments: --no_such_key 1"),
        (["--T"], "argument --T: expected one argument"),
        (["extra"], "unrecognized arguments: extra"),
    ],
    ids=["abbreviated", "unknown", "no-value", "extra"],
)
def test_command_line_that_argparse_refuses_exits_1(tmp_path, capsys, args, message):
    cfg = write_config(tmp_path / "c.cfg", f"problem = simple\nkappa = 1\nT = 1\noutput = {tmp_path/'u'}\n")
    assert run_cli("solve", cfg, *args) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "u.csv").exists()


@pytest.mark.parametrize("command", ["solve", "reduce", "estimate"])
def test_unknown_option_is_reported_with_the_run_commands_usage(tmp_path, capsys, command):
    cfg = write_config(tmp_path / "c.cfg", f"problem = simple\nkappa = 1\nT = 1\noutput = {tmp_path/'u'}\n")
    assert run_cli(command, cfg, "--T", "1", "--no_such_key", "1") == 1
    err = capsys.readouterr().err
    assert err.startswith(f"usage: modred {command} [-h] [--problem VALUE]")
    assert f"modred {command}: error: unrecognized arguments: --no_such_key 1" in err


def test_every_key_takes_the_equals_form():
    parser = modred.cli._parser()
    for f in dataclasses.fields(modred.cli.RunConfig):
        spaced = parser.parse_args(["reduce", "c.cfg", f"--{f.name}", "7"])
        joined = parser.parse_args(["reduce", "c.cfg", f"--{f.name}=-7"])
        assert (spaced.overrides, joined.overrides) == ([(f.name, "7")], [(f.name, "-7")])


def test_a_value_that_starts_with_minus_takes_the_equals_form(tmp_path, capsys):
    # psi = -e1 bounds the same error as e1: the dual is linear in psi
    cfg = _reduce_short_simple(tmp_path, "neg")
    assert run_cli("estimate", cfg, "--psi", "1") == 0
    expected = (tmp_path / "neg.estimate.txt").read_bytes()
    assert run_cli("estimate", cfg, "--psi=-1,0,0,0") == 0
    assert (tmp_path / "neg.estimate.txt").read_bytes() == expected
    # a plain negative number still reads as a value
    capsys.readouterr()
    assert run_cli("estimate", cfg, "--psi", "-1") == 1
    assert "psi component index -1 outside 1..4" in capsys.readouterr().err


def test_a_command_line_value_is_read_as_the_config_file_value(tmp_path):
    text = f"problem = lattice\np = 2\nT = 0.01\nobservables = d_small\noutput = {tmp_path/'lat'}\n"
    cfg = write_config(tmp_path / "c.cfg", text)
    in_file = write_config(tmp_path / "d.cfg", text + "displacement = -1e-3\n")
    assert run_cli("solve", in_file) == 0
    expected = (tmp_path / "lat.csv").read_bytes()
    assert run_cli("solve", cfg, "--displacement=-1e-3") == 0
    assert (tmp_path / "lat.csv").read_bytes() == expected


def test_overrides_apply_in_command_line_order_and_only_to_their_command(tmp_path):
    cfg = write_config(
        tmp_path / "c.cfg", f"problem = simple\nkappa = 1\nT = 10\nstep = 0.1\noutput = {tmp_path/'o'}\n"
    )
    assert run_cli("solve", cfg, "--T", "5", "--T", "1") == 0
    assert len((tmp_path / "o.csv").read_text().splitlines()) == 1 + 11
    # the parser is built once; the next command sees the file's T again
    assert run_cli("solve", cfg) == 0
    assert len((tmp_path / "o.csv").read_text().splitlines()) == 1 + 101


_RAISING_PROBLEM = """
import numpy as np
from modred import DynamicalSystem

def rhs(u, t):
    {rhs}

def jac(u, t):
    {jac}

def make_system():
    return DynamicalSystem(2, rhs, np.array([1.0, 0.0]), jacobian=jac, vectorized={vectorized})
"""


@pytest.mark.parametrize(
    "code,message",
    [
        # the rhs of a system that is not vectorized was never called at load
        ({"rhs": "return {'x': u}['v']", "vectorized": False}, "rhs fails at 3 states near u0: KeyError: 'v'"),
        ({"jac": "raise ZeroDivisionError('no jacobian')", "vectorized": False},
         "jacobian fails at 3 states near u0: ZeroDivisionError: no jacobian"),
        # written for stacks only: one state has no second axis
        ({"rhs": "return np.stack([u[:, 1], -u[:, 0]], axis=-1)", "vectorized": True},
         "rhs fails at 3 states near u0: IndexError: too many indices"),
    ],
    ids=["rhs", "jacobian", "vectorized-rhs-per-state"],
)
def test_problem_file_kernel_that_raises_at_load_is_a_config_error(tmp_path, capsys, code, message):
    kernels = {"rhs": "return np.stack([u[..., 1], -u[..., 0]], axis=-1)",
               "jac": "return np.broadcast_to([[0.0, 1.0], [-1.0, 0.0]], (*u.shape[:-1], 2, 2)).copy()"}
    problem = tmp_path / "raising.py"
    problem.write_text(_RAISING_PROBLEM.format(**{**kernels, **code}))
    cfg = write_config(
        tmp_path / "c.cfg",
        f"problem = external-file\nproblem_file = {problem}\nT = 1\nstep = 0.01\n"
        f"tau = 0.1\noutput = {tmp_path/'s'}\n",
    )
    for command in ("solve", "reduce"):
        assert run_cli(command, cfg) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: problem file {str(problem)!r}: ") and message in err
        assert "Traceback" not in err
    assert not (tmp_path / "s.csv").exists()


def test_problem_file_load_check_takes_three_states_per_kernel(tmp_path):
    problem = tmp_path / "counted.py"
    problem.write_text(
        _RAISING_PROBLEM.format(
            rhs="CALLS.append('rhs'); return np.array([u[1], -u[0]])",
            jac="CALLS.append('jacobian'); return np.array([[0.0, 1.0], [-1.0, 0.0]])",
            vectorized=False,
        )
        + "\nCALLS = []\n"
    )
    system = modred.cli._load_external_system(str(problem))
    # and the analytic Jacobian's finite-difference check, 2N rhs rows per state
    fd_rows = 3 * 2 * system.dimension
    assert system.rhs.__globals__["CALLS"] == ["rhs"] * 3 + ["jacobian"] * 3 + ["rhs"] * fd_rows


@pytest.mark.parametrize(
    "jac,message",
    [
        ("return np.array([[-3.0, 1.0], [-1.0, -3.0]])",
         "analytic jacobian entry (0, 0) is -3.0 at state 0 of 3 near u0 (t=0.0), where central "
         "finite differences give 0.0"),
        # d f_2 / d u_1 without the quadratic term, right only near u_1 = 0
        ("return np.array([[0.0, 1.0], [-1.0, 0.0]])",
         "analytic jacobian entry (1, 0) is -1.0 at state 0 of 3 near u0 (t=0.0)"),
        ("return np.array([[0.0, -1.0 + 0.6 * u[0]], [1.0, 0.0]])", "analytic jacobian entry (0, 1)"),
    ],
    ids=["wrong-matrix", "dropped-term", "transposed"],
)
def test_problem_file_with_a_wrong_jacobian_is_a_config_error(tmp_path, capsys, jac, message):
    # u1' = u2, u2' = -u1 + 0.3 u1^2: the primal solve hides a wrong
    # Jacobian, while the dual and the bound do not
    rhs = "return np.array([u[1], -u[0] + 0.3 * u[0] ** 2])"
    problem = tmp_path / "wrong.py"
    problem.write_text(_RAISING_PROBLEM.format(rhs=rhs, jac=jac, vectorized=False))
    cfg = write_config(
        tmp_path / "c.cfg",
        f"problem = external-file\nproblem_file = {problem}\nT = 1\nstep = 0.01\n"
        f"tau = 0.1\noutput = {tmp_path/'s'}\n",
    )
    for command in ("solve", "reduce"):
        assert run_cli(command, cfg) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: problem file {str(problem)!r}: ") and message in err
        assert "Traceback" not in err
    assert list(tmp_path.glob("s.*")) == []


def test_problem_file_jacobian_check_allows_for_the_quotients_rounding(tmp_path):
    # the difference quotient of a weak coupling under a large constant
    # rounds by 1.2% of the true entry
    problem = tmp_path / "weak.py"
    problem.write_text(
        _RAISING_PROBLEM.format(
            rhs="return np.array([u[1], -9.81 + 1e-8 * u[0]])",
            jac="return np.array([[0.0, 1.0], [1e-8, 0.0]])",
            vectorized=False,
        )
    )
    modred.cli._load_external_system(str(problem))
