"""The oracles must stay a second opinion: ``tests/oracles.py`` shares no
code with the package, so it may import nothing from ``lhyp``."""

import ast
from pathlib import Path

ORACLES = Path(__file__).resolve().parent / "oracles.py"


def imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            # a relative import would reach into the package too
            yield "." * node.level + (node.module or "")


def test_oracles_import_nothing_from_the_package():
    modules = list(imported_modules(ast.parse(ORACLES.read_text())))
    assert modules  # the walk sees the oracles' own imports
    assert [m for m in modules if m.split(".")[0] in ("lhyp", "")] == []
