"""Byte-identity and work-count oracle for both example configs.

Runs `modred example NAME`, then `reduce` and `estimate` on the written
config, and compares the sha256 of every deterministic artifact with pinned
values.  A refactor that is meant to leave the numerics alone must keep these
hashes.  The `.gnuplot` script is left out because it embeds the output path.

The same runs count every rhs and Jacobian evaluation of the problem system
(the reduced system calls through to it).  An rhs or Jacobian call on a stack
of states counts one evaluation per row, so batching rows into fewer calls
leaves the count as it is; the rhs calls are counted too, so that blocks
that shrink, and so take more calls for the same rows, fail the gate.  The
counts are deterministic, so they gate work: a change may lower the rhs
counts, never raise them.  The Jacobian count is exact:
one per dual step (1,000 simple, 400 lattice) plus the chord matrix's Jacobian of
each of the seven solves per pipeline (the fit window, the reduced solve, its
re-solve in `estimate` and four control-point windows), so a hidden Jacobian
refresh fails the gate.  The re-solve must cost exactly what the reduced solve
of `reduce` costs, so that the caps cannot hide growth elsewhere.

The hashes were pinned on x86_64 Linux with Python 3.11.7, numpy 2.4.6 and
OpenBLAS 0.3.31 (scipy-openblas); another platform or BLAS may round
differently and need its own values.
"""

import dataclasses
import hashlib
import math

import pytest

import modred.cli
from modred.cli import main

PINNED = {
    "simple": {
        "csv": "0e88f2de6902c5e88ccf2d217e6a0934f9be6507a1acb5912656f5e309db2c81",
        "model.txt": "5e6c5da4a8a2288191791f6e78374569731e6085a9472c54cacced1071795fd0",
        "estimate.txt": "599e1ab47b286825bdee77cab93ed7c55065daf50b99431f280cddd7acbc7277",
        "controls.txt": "cb02385764fa835a856a550d6b597cf0e25533df96eb7a9cbaadb81ddd170b54",
    },
    "lattice": {
        "csv": "afb890c8f5a0c8cf68d5d5348501fe5acd242562c3b06e1560afe568c398379f",
        "model.txt": "e5a40efe0b89e1e78e7bc0d3fc9b0baf734cff2f12588c03e9a38a4475eb02df",
        "estimate.txt": "c35f7cc197ed0e5ebe8be54538312e8c4dfad221c64eab6562ed2528fe840c29",
        "controls.txt": "bd6e7d52febee17b7dd813c0c8b7c0f74460c2946ff1a37362d9601d8e2ffee3",
    },
}

# (upper bound on rhs rows, upper bound on rhs calls, exact Jacobian calls)
# over reduce + estimate.
WORK = {
    "simple": (17_665, 192, 1_007),
    "lattice": (26_769, 18_493, 407),
}


def _counting_build_system(build_system, counts):
    def wrapped(cfg):
        system, spec = build_system(cfg)
        rhs, jac = system.rhs, system.jacobian

        def counted_rhs(u, t):
            counts["calls"] += 1
            counts["rhs"] += len(u) if u.ndim == 2 else 1
            return rhs(u, t)

        def counted_jacobian(u, t):
            counts["jacobian"] += len(u) if u.ndim == 2 else 1
            return jac(u, t)

        system = dataclasses.replace(
            system, rhs=counted_rhs, jacobian=counted_jacobian if jac is not None else None
        )
        return system, spec

    return wrapped


def _counting_solve(solve, counts, solves):
    """solve_cg1 that appends the (rhs, jacobian) counts of each call to ``solves``."""

    def wrapped(sys, part, opts=None):
        before = dict(counts)
        traj = solve(sys, part, opts)
        solves.append({key: counts[key] - before[key] for key in counts})
        return traj

    return wrapped


@pytest.fixture(scope="module", params=sorted(PINNED))
def example_run(request, tmp_path_factory):
    """(name, artifact digests, work counts, work of each CLI-level solve) of
    one example pipeline."""
    name = request.param
    out = tmp_path_factory.mktemp(name)
    counts = {"calls": 0, "rhs": 0, "jacobian": 0}
    solves = []
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(out)
        mp.setattr(
            modred.cli, "build_system", _counting_build_system(modred.cli.build_system, counts)
        )
        mp.setattr(modred.cli, "solve_cg1", _counting_solve(modred.cli.solve_cg1, counts, solves))
        cfg = f"{name}.cfg"
        assert main(["example", name, "-o", cfg]) == 0
        assert main(["reduce", cfg]) == 0
        assert main(["estimate", cfg]) == 0
    digests = {
        ext: hashlib.sha256((out / f"{name}_run.{ext}").read_bytes()).hexdigest()
        for ext in PINNED[name]
    }
    return name, digests, counts, solves


def test_example_artifacts_are_byte_identical(example_run):
    name, digests, _, _ = example_run
    assert digests == PINNED[name]


def test_example_work_counts_do_not_grow(example_run):
    name, _, counts, _ = example_run
    max_rhs, max_calls, jacobians = WORK[name]
    assert counts["rhs"] <= max_rhs
    assert counts["calls"] <= max_calls
    assert counts["jacobian"] == jacobians


def test_estimate_re_solves_at_the_cost_of_the_reduced_solve(example_run):
    # reduce's reduced solve, then estimate's re-solve of the same model: the
    # one solve estimate adds takes the same rhs rows and Jacobians
    _, _, _, solves = example_run
    assert len(solves) == 2
    assert solves[1] == solves[0]
    assert solves[0]["jacobian"] == 1


def _simple_pipeline(out, T, *estimate_args):
    """Artifact bytes of `reduce` + `estimate` on the simple example at T,
    run in ``out``."""
    assert main(["reduce", "simple.cfg", "--T", str(T)]) == 0
    assert main(["estimate", "simple.cfg", "--T", str(T), *estimate_args]) == 0
    return {ext: (out / f"simple_run.{ext}").read_bytes() for ext in PINNED["simple"]}


@pytest.mark.parametrize("T", [100, 2000])
def test_repeated_pipelines_in_one_process_are_byte_identical(T, tmp_path, monkeypatch):
    # the benchmark compares every repeat with the first in one process, so
    # nothing a solve decides, such as its block sizes, may outlive the
    # solve: a repeat writes the same bytes, and each of its CLI-level solves
    # and the whole pipeline take the same rhs rows and Jacobian states
    monkeypatch.chdir(tmp_path)
    counts = {"calls": 0, "rhs": 0, "jacobian": 0}
    solves = []
    monkeypatch.setattr(modred.cli, "build_system", _counting_build_system(modred.cli.build_system, counts))
    monkeypatch.setattr(modred.cli, "solve_cg1", _counting_solve(modred.cli.solve_cg1, counts, solves))
    assert main(["example", "simple", "-o", "simple.cfg"]) == 0
    runs = []
    for _ in range(2):
        before, first = dict(counts), len(solves)
        artifacts = _simple_pipeline(tmp_path, T)
        runs.append((artifacts, solves[first:], {key: counts[key] - before[key] for key in counts}))
    assert len(runs[0][1]) == 2 and runs[0][2]["jacobian"] > 0
    assert runs[1] == runs[0]


def test_simple_bound_holds_against_the_closed_form_at_T_2000(tmp_path, monkeypatch):
    # |(U(T) - r(T), psi)| <= total, r the closed-form reduced solution
    # (1/4 (1 - cos t), ., 1/4 sin t, .), for psi = e1 and e3 over 20,000
    # reduced steps
    monkeypatch.chdir(tmp_path)
    assert main(["example", "simple", "-o", "simple.cfg"]) == 0
    for psi, exact in (("1", lambda t: 0.25 * (1.0 - math.cos(t))), ("3", lambda t: 0.25 * math.sin(t))):
        artifacts = _simple_pipeline(tmp_path, 2000, "--psi", psi)
        last = artifacts["csv"].decode().splitlines()[-1].split(",")
        t, u = float(last[0]), float(last[int(psi)])
        assert t == 2000.0
        report = dict(line.split(": ", 1) for line in artifacts["estimate.txt"].decode().splitlines())
        assert report["model_term_validated"] == "yes"
        assert abs(u - exact(t)) <= float(report["total"])
