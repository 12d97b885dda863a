"""Package hygiene: modules share only public names, and every name that
``modred.__all__`` exports exists."""

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
