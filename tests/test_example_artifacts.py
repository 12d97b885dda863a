"""Byte-identity and work-count oracle for both example configs.

Runs `modred example NAME`, then `reduce` and `estimate` on the written
config, and compares the sha256 of every deterministic artifact with pinned
values.  A refactor that is meant to leave the numerics alone must keep these
hashes.  The `.gnuplot` script is left out because it embeds the output path.

The same runs count every rhs and Jacobian evaluation of the problem system
(the reduced system calls through to it).  An rhs call on a stack of states
counts one evaluation per row, so batching rows into fewer calls leaves the
count as it is.  The counts are deterministic, so they gate work: a change
may lower the rhs count, never raise it.  The Jacobian count is exact: one
per dual step (1,000 simple, 400 lattice) plus the chord-Newton Jacobian of
each of the six solves per pipeline (the fit window, the reduced solve and
four control-point windows), so a hidden Jacobian refresh fails the gate.

The hashes were pinned on x86_64 Linux with Python 3.11.7, numpy 2.4.6 and
OpenBLAS 0.3.31 (scipy-openblas); another platform or BLAS may round
differently and need its own values.
"""

import dataclasses
import hashlib

import pytest

import modred.cli
from modred.cli import main

PINNED = {
    "simple": {
        "csv": "e92ba2054264a785153ab33faf0825c0723924b00187752f4ed8314b663166da",
        "model.txt": "56883f10c1df2e2244b171404edaed8fefe584ab257e9a938e4673dce6db3845",
        "estimate.txt": "9df3f02392ce09316768f42cd9d09ffb4134ea267d126962788a49fd8e4ffe0b",
        "controls.txt": "6a194afaa809848723c7525cd81c827d3979094ca8bbc6f90d5d595e56e0eda6",
    },
    "lattice": {
        "csv": "b0ef413caf6085fbe167de3ed1b8a06c50d1620d182df5e8c8cf894cbb5edcd6",
        "model.txt": "9ad609c7640e1d4d6f008796eb70ce91efc89f521107ebbf1c2cbbb81e0e8c5a",
        "estimate.txt": "8a3d086cd65fd84a00e197c178e155779d00fcfcde0e734f7061d2fe48386dbb",
        "controls.txt": "6414f5b60740aae633cb093bcaaafceb6bfc6b6121cd139a1b8d8e7f1cf9c317",
    },
}

# (upper bound on rhs calls, exact Jacobian calls) over reduce + estimate.
WORK = {
    "simple": (23_360, 1_006),
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
            counts["jacobian"] += 1
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
