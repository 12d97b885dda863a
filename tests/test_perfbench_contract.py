"""The benchmark's traced run rebinds modred module attributes by name
(perfbench/tracing.py: instrument).  Renaming or removing any of them breaks
`perfbench/run.py --trace 1` before it reports a result.  So does a change to
the signatures its wrappers assume: `solve_cg1(sys, part, opts)`,
`solve_dual(dp, step)`, and a system that `build_system` returns taking a new
rhs through `dataclasses.replace`."""

import importlib
import math
from pathlib import Path

import pytest

import modred.cli
from modred.system import INTERPOLATE_BLOCK

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracing")


def test_instrument_binds_and_restores_every_target(tracing):
    original = modred.cli.auto_model
    with tracing.instrument(tracing.Tracer()):
        assert modred.cli.auto_model is not original
    assert modred.cli.auto_model is original


def test_traced_pipeline_records_every_wrapped_layer(tracing, tmp_path):
    # the `modred example simple` config over a short T
    cfg = tmp_path / "s.cfg"
    cfg.write_text(
        "problem = simple\nkappa = 1e18\nT = 1\ntau = 1e-7\nresolved_step = 2e-10\n"
        f"reduced_step = 0.1\ncontrol_points = 2\npsi = 1\noutput = {tmp_path / 's'}\n"
    )
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        assert modred.cli.main(["reduce", str(cfg)]) == 0
        assert modred.cli.main(["estimate", str(cfg)]) == 0
    # every stage the two commands run records its span, so a refactor that
    # routes a stage around its traced name fails here
    stages = {
        "problems.build",
        "reduction.auto_model",
        "reduction.resolve_short",
        "reduction.fit_constant_subgrid",
        "integrator.solve_cg1",
        "problems.observables",
        "cli.write_csv",
        "reduction.parse_model_report",
        "cli.read_csv",
        "reduction.assemble_reduced",
        "dual.solve_dual",
        "dual.control_points",
        "dual.measure_gbar",
        "dual.error_estimate",
        "integrator.residual_samples",
    }
    assert stages - {sp.name for sp in tracer.spans} == set()
    kinds = {sp.attrs["kind"] for sp in tracer.spans if sp.name == "integrator.solve_cg1"}
    assert kinds == {"resolved", "reduced"}
    # one gbar measurement per control point, inside the control-point stage
    (control,) = [sp for sp in tracer.spans if sp.name == "dual.control_points"]
    measures = [sp for sp in tracer.spans if sp.name == "dual.measure_gbar"]
    assert [sp.parent for sp in measures] == [control.id] * 2
    assert tracing.rhs_calls(tracer.spans) > 0
    # the small dual evaluates each block's Jacobians as one stack, through
    # the name the tracer wraps
    (dual,) = [sp for sp in tracer.spans if sp.name == "dual.solve_dual"]
    assert dual.attrs["steps"] == 10
    assert dual.jacobian_calls == math.ceil(dual.attrs["steps"] / INTERPOLATE_BLOCK) == 1
