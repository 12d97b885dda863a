"""Byte-identity and work-count oracle for both example configs.

Runs `modred example NAME`, then `reduce` and `estimate` on the written
config, and compares the sha256 of every deterministic artifact with pinned
values.  A refactor that is meant to leave the numerics alone must keep these
hashes.  The `.gnuplot` script is left out because it embeds the output path.

The same runs count every rhs and Jacobian evaluation of the problem system
(the reduced system calls through to it).  An rhs or Jacobian call on a stack
of states counts one evaluation per row, so batching rows into fewer calls
leaves the count as it is.  The counts are deterministic, so they gate work: a
change may lower the rhs count, never raise it.  The Jacobian count is exact:
one per dual step (1,000 simple, 400 lattice) plus the chord-Newton Jacobian of
each of the six solves per pipeline (the fit window, the reduced solve and
four control-point windows), so a hidden Jacobian refresh fails the gate.

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
        "csv": "8a84b16e692e526bb072984a87ce1d22db1a715fde45447df8ed9c3f7bd8b4ac",
        "model.txt": "fcf5bced2e5aafd75ca8f8c7d92b6a3f4ddd70a0d0bbe95978c8b182c3f0e02d",
        "estimate.txt": "8a1e6e935368b8846d5da768e3cf487c52b51208dc4b7f7bfcc22a1cf8ead512",
        "controls.txt": "5a363d362b1373fc0f0fe8218c2ab79742d455dd1772a8d698207f6135eb2332",
    },
    "lattice": {
        "csv": "b0ef413caf6085fbe167de3ed1b8a06c50d1620d182df5e8c8cf894cbb5edcd6",
        "model.txt": "9ad609c7640e1d4d6f008796eb70ce91efc89f521107ebbf1c2cbbb81e0e8c5a",
        "estimate.txt": "824a75002e5eb716e3e01a37a8171a9f78df365caa455a553beded3d1fcc27a3",
        "controls.txt": "d0eca99a9e41cfbbb26cb240659b0f7e5ef7cfe72a9d5eb1b8bfe0e02d84d7df",
    },
}

# (upper bound on rhs rows, exact Jacobian calls) over reduce + estimate.
WORK = {
    "simple": (16_845, 1_006),
    "lattice": (31_352, 406),
}


def _counting_build_system(build_system, counts):
    def wrapped(cfg):
        system, spec = build_system(cfg)
        rhs, jac = system.rhs, system.jacobian

        def counted_rhs(u, t):
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


@pytest.fixture(scope="module", params=sorted(PINNED))
def example_run(request, tmp_path_factory):
    """(name, artifact digests, work counts) of one example pipeline."""
    name = request.param
    out = tmp_path_factory.mktemp(name)
    counts = {"rhs": 0, "jacobian": 0}
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(out)
        mp.setattr(
            modred.cli, "build_system", _counting_build_system(modred.cli.build_system, counts)
        )
        cfg = f"{name}.cfg"
        assert main(["example", name, "-o", cfg]) == 0
        assert main(["reduce", cfg]) == 0
        assert main(["estimate", cfg]) == 0
    digests = {
        ext: hashlib.sha256((out / f"{name}_run.{ext}").read_bytes()).hexdigest()
        for ext in PINNED[name]
    }
    return name, digests, counts


def test_example_artifacts_are_byte_identical(example_run):
    name, digests, _ = example_run
    assert digests == PINNED[name]


def test_example_work_counts_do_not_grow(example_run):
    name, _, counts = example_run
    max_rhs, jacobians = WORK[name]
    assert counts["rhs"] <= max_rhs
    assert counts["jacobian"] == jacobians


def _simple_pipeline(out, T, *estimate_args):
    """Artifact bytes of `reduce` + `estimate` on the simple example at T,
    run in ``out``."""
    assert main(["reduce", "simple.cfg", "--T", str(T)]) == 0
    assert main(["estimate", "simple.cfg", "--T", str(T), *estimate_args]) == 0
    return {ext: (out / f"simple_run.{ext}").read_bytes() for ext in PINNED["simple"]}


@pytest.mark.parametrize("T", [100, 2000])
def test_repeated_pipelines_in_one_process_are_byte_identical(T, tmp_path, monkeypatch):
    # the benchmark compares every repeat with the first in one process, so
    # nothing a solve decides, such as its block sizes, may outlive the solve
    monkeypatch.chdir(tmp_path)
    assert main(["example", "simple", "-o", "simple.cfg"]) == 0
    assert _simple_pipeline(tmp_path, T) == _simple_pipeline(tmp_path, T)


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
