"""Byte-identity oracle for the artifacts of both example configs.

Runs `modred example NAME`, then `reduce` and `estimate` on the written
config, and compares the sha256 of every deterministic artifact with pinned
values.  A refactor that is meant to leave the numerics alone must keep these
hashes.  The `.gnuplot` script is left out because it embeds the output path.

The hashes were pinned on x86_64 Linux with Python 3.11.7, numpy 2.4.6 and
OpenBLAS 0.3.31 (scipy-openblas); another platform or BLAS may round
differently and need its own values.
"""

import hashlib

import pytest

from modred.cli import main

PINNED = {
    "simple": {
        "csv": "47b2ac1755448856fee7f1033bb809616552aa67e47763f6902169d6322b7e88",
        "model.txt": "03cb4ac36cd0fe057d8eb105aed9847be423c9d9af7ebcdb6cf17fca65500a90",
        "estimate.txt": "87354d581113b488c1711730af2e183b5c6ed127ca7bf717e1ad917d88baeb1f",
        "controls.txt": "e5775e052a16aced2dffb751b3da529e89e4fb2d5e6391f0d044942740803c70",
    },
    "lattice": {
        "csv": "634bcb5936fe549056f7907f4a2811b5727ba786094879d2b47e3ef23e294a7e",
        "model.txt": "dc84b013f91da51409f16cca9b03a6a39a34a6ad8706ae1b27333f7f6064d5de",
        "estimate.txt": "d7911f496847ad4a12a85f551852a5d401039255ce8ab6c004b2f87f531d0341",
        "controls.txt": "2fb6dbf4209022f5d7d2fd391c80171e55856fc9625f9d5a9243852a9cf6d00b",
    },
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_example_artifacts_are_byte_identical(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = f"{name}.cfg"
    assert main(["example", name, "-o", cfg]) == 0
    assert main(["reduce", cfg]) == 0
    assert main(["estimate", cfg]) == 0
    digests = {
        ext: hashlib.sha256((tmp_path / f"{name}_run.{ext}").read_bytes()).hexdigest()
        for ext in PINNED[name]
    }
    assert digests == PINNED[name]
