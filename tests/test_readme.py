"""The Python examples in README.md run as written: the library quickstart,
then the vectorized problem file, whose rhs and Jacobian keep the stack
contract."""

import contextlib
import dataclasses
import io
import math
import re
from pathlib import Path

import numpy as np
import pytest

from modred import evaluate_rhs, jacobian
from modred.system import RHS_BLOCK_VALUES

README = Path(__file__).resolve().parent.parent / "README.md"


@pytest.fixture(scope="module")
def blocks():
    found = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.DOTALL)
    assert len(found) == 2
    return found


def test_readme_quickstart_prints_a_finite_positive_bound(blocks):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], str(README), "exec"), {})
    bound = float(out.getvalue().splitlines()[-1])
    assert math.isfinite(bound) and bound > 0


def test_readme_vectorized_problem_file_keeps_the_stack_contract(blocks):
    namespace = {}
    exec(compile(blocks[1], str(README), "exec"), namespace)
    sys = namespace["make_system"]()
    assert sys.vectorized
    # one row more than a call takes, so the stack crosses a boundary
    rows = RHS_BLOCK_VALUES // sys.dimension + 1
    states = np.random.default_rng(0).normal(size=(rows, sys.dimension))
    times = np.linspace(0.0, 1.0, rows)
    per_row = np.array([sys.rhs(u, t) for u, t in zip(states, times.tolist())])
    calls = []
    counted = dataclasses.replace(sys, rhs=lambda u, t: calls.append(len(u)) or sys.rhs(u, t))
    stacked = evaluate_rhs(counted, states, times)
    assert len(calls) >= 2
    np.testing.assert_array_equal(stacked.view(np.int64), per_row.view(np.int64))
    per_row = np.array([sys.jacobian(u, t) for u, t in zip(states, times.tolist())])
    np.testing.assert_array_equal(jacobian(sys, states, times).view(np.int64), per_row.view(np.int64))
