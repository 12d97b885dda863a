"""The benchmark's traced run rebinds modred module attributes by name
(perfbench/tracing.py: instrument).  Renaming or removing any of them breaks
`perfbench/run.py --trace 1` before it reports a result."""

import importlib
from pathlib import Path

import modred.cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_instrument_binds_and_restores_every_target(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    original = modred.cli.auto_model
    with tracing.instrument(tracing.Tracer()):
        assert modred.cli.auto_model is not original
    assert modred.cli.auto_model is original
