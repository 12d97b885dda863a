import io
import os
import tracemalloc

import numpy as np
import pytest

import modred.cli
from modred import Trajectory
from modred.cli import CSV_BLOCK, main, parse_config, read_csv, write_csv


def run_cli(*args):
    return main([str(a) for a in args])


def write_config(path, text):
    path.write_text(text)
    return str(path)


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
    traj = read_csv(str(tmp_path / "fig2.csv"), 4)
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
    traj = read_csv(str(tmp_path / "est.csv"), 4)
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
    back = read_csv(str(path), 3)
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



def test_unresolved_dual_step_is_a_numerical_failure_naming_the_dual(tmp_path, capsys):
    # the dual takes reduced_step; at 5 its (k/2) rho(J) = 2.5 cannot resolve the slow oscillator
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
    assert run_cli("estimate", cfg, "--reduced_step", "5") == 2
    err = capsys.readouterr().err
    assert "dual step ending at t=5 failed" in err and "smaller dual step than 5" in err
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
