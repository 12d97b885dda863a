"""Package hygiene: modules share only public names, every name that
``modred.__all__`` exports exists, rhs values are taken through the
checked kernels only, which alone decide how they are batched and in what
block size, no module scatters with np.add.at, and only the CLI writes or
reads a CSV."""

import ast
from pathlib import Path

import modred

PACKAGE = Path(modred.__file__).resolve().parent


def test_no_private_imports_across_modules():
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and not (node.module or "").startswith("modred"):
                continue
            offenders += [
                f"{path.name}:{node.lineno} {alias.name}"
                for alias in node.names
                if alias.name.startswith("_")
            ]
    assert offenders == []


def test_every_exported_name_resolves():
    assert [name for name in modred.__all__ if not hasattr(modred, name)] == []
    assert len(set(modred.__all__)) == len(modred.__all__)


# The system's own checks and ``evaluate_rhs`` read its fields.
KERNELS = {("system.py", "DynamicalSystem"), ("system.py", "evaluate_rhs")}

# (module, top-level definition) pairs that may read a system's ``.rhs``.
# Everything else, the finite-difference Jacobian included, goes through
# ``evaluate_rhs``.
RHS_READERS = KERNELS | {("integrator.py", "solve_cg1"), ("reduction.py", "assemble_reduced")}

# Only ``evaluate_rhs`` and ``jacobian`` decide whether rows go to the rhs or
# the Jacobian one by one or in stacks; the reduced system merely passes its
# base system's flag on, and the CLI checks an external system's stacks
# against its rows when it loads one.
VECTORIZED_READERS = KERNELS | {
    ("system.py", "jacobian"),
    ("reduction.py", "assemble_reduced"),
    ("cli.py", "_check_stack_promises"),
}


def _attribute_reads(attr, allowed):
    """Reads of ``.attr`` outside the allowed pairs."""
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text(), filename=str(path)).body:
            owner = getattr(top, "name", None)
            offenders += [
                f"{path.name}:{node.lineno} in {owner}"
                for node in ast.walk(top)
                if isinstance(node, ast.Attribute)
                and node.attr == attr
                and (path.name, owner) not in allowed
            ]
    return offenders


def test_only_the_kernels_read_rhs():
    assert _attribute_reads("rhs", RHS_READERS) == []


def test_only_the_kernels_read_vectorized():
    assert _attribute_reads("vectorized", VECTORIZED_READERS) == []


def test_only_system_names_the_rhs_block():
    # the stack size is evaluate_rhs's choice; a kernel takes whatever rows it gets
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "system.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if "RHS_BLOCK_VALUES" in {getattr(node, key, None) for key in ("id", "attr", "name")}
    ]
    assert offenders == []


def test_only_cli_writes_and_reads_csv():
    # one CSV writer and one reader: cli.write_csv and cli.read_csv
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "cli.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", None)) in {"savetxt", "loadtxt"}
    ]
    assert offenders == []


def test_no_module_scatters_with_add_at():
    # np.add.at costs about twice the one np.bincount that adds in its order
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Attribute)
        and node.attr == "at"
        and isinstance(node.value, ast.Attribute)
        and node.value.attr == "add"
    ]
    assert offenders == []


def test_only_the_integrator_solves_linear_systems():
    # one midpoint stepper: every cG(1) step, the dual's included, is solve_cg1's
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "integrator.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Attribute)
        and node.attr in {"solve", "inv"}
        and isinstance(node.value, ast.Attribute)
        and node.value.attr == "linalg"
    ]
    assert offenders == []
