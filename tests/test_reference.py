"""The test-side reference stays independent of the package it checks."""

from __future__ import annotations

import ast
from pathlib import Path

REFERENCE = Path(__file__).with_name("reference.py")


def test_reference_imports_nothing_from_the_package():
    tree = ast.parse(REFERENCE.read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, f"relative import at line {node.lineno}"
            imported.append(node.module)
    assert imported, "the parse found no imports at all"
    assert [name for name in imported
            if name.split(".")[0] == "ci_invariants"] == []


def test_reference_holds_only_plain_functions():
    tree = ast.parse(REFERENCE.read_text())
    assert not [node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
