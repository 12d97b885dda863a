"""Byte-identity and work-count oracle for both example configs.

Runs `modred example NAME`, then `reduce` and `estimate` on the written
config, and compares the sha256 of every deterministic artifact with pinned
values.  A refactor that is meant to leave the numerics alone must keep these
hashes.  The `.gnuplot` script is left out because it embeds the output path.

The same runs count every rhs and Jacobian evaluation of the problem system
(the reduced system calls through to it).  The counts are deterministic, so
they gate work: a change may lower them, never raise them.

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
        "csv": "47b2ac1755448856fee7f1033bb809616552aa67e47763f6902169d6322b7e88",
        "model.txt": "22146be3a6c904abbad320d4e0d8f1e9b1ac650c4e5d354bb657c914854fc4c6",
        "estimate.txt": "87354d581113b488c1711730af2e183b5c6ed127ca7bf717e1ad917d88baeb1f",
        "controls.txt": "e5775e052a16aced2dffb751b3da529e89e4fb2d5e6391f0d044942740803c70",
    },
    "lattice": {
        "csv": "634bcb5936fe549056f7907f4a2811b5727ba786094879d2b47e3ef23e294a7e",
        "model.txt": "84549515be62eba9bfd8abd0f74df95dc4898dee957032255528afb988d6acb7",
        "estimate.txt": "d7911f496847ad4a12a85f551852a5d401039255ce8ab6c004b2f87f531d0341",
        "controls.txt": "2fb6dbf4209022f5d7d2fd391c80171e55856fc9625f9d5a9243852a9cf6d00b",
    },
}

# Upper bounds on (rhs calls, Jacobian calls) over reduce + estimate.
MAX_WORK = {
    "simple": (112_157, 1_000),
    "lattice": (131_007, 400),
}


def _counting_build_system(build_system, counts):
    def wrapped(cfg):
        system, spec = build_system(cfg)
        rhs, jac = system.rhs, system.jacobian

        def counted_rhs(u, t):
            counts["rhs"] += 1
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
    max_rhs, max_jacobian = MAX_WORK[name]
    assert counts["rhs"] <= max_rhs
    assert counts["jacobian"] <= max_jacobian
