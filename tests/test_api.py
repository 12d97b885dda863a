"""Package hygiene: modules share only public names, every name that
``modred.__all__`` exports exists, rhs values are taken through the
checked kernels only, which alone decide how they are batched, and no module
scatters with np.add.at."""

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


# (module, top-level function) pairs that may read a system's ``.rhs``; the
# whole of system.py may.  Everything else goes through ``evaluate_rhs``.
RHS_READERS = {("integrator.py", "solve_cg1"), ("reduction.py", "assemble_reduced")}

# Only ``evaluate_rhs`` decides whether rows go to the rhs one by one or in
# stacks; the reduced system merely passes its base system's flag on.
VECTORIZED_READERS = {("reduction.py", "assemble_reduced")}


def _attribute_reads(attr, allowed):
    """Reads of ``.attr`` outside system.py and the allowed pairs."""
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "system.py":
            continue
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
