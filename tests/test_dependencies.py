"""numpy is the package's only runtime dependency; every other import is the stdlib."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

# Read as source, not imported, so that a stray import is reported, not raised.
PACKAGE = Path(__file__).parents[1] / "src" / "forecast_stability"


def absolute_imports(path: Path) -> list[tuple[int, str]]:
    """The line and top-level module of each absolute import in a module."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name.split(".")[0]) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append((node.lineno, node.module.split(".")[0]))
    return found


def test_package_imports_only_numpy_and_the_stdlib():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 1
    allowed = sys.stdlib_module_names | {"numpy"}
    stray = [
        f"{path.name}:{line}: {name}"
        for path in modules
        for line, name in absolute_imports(path)
        if name not in allowed
    ]
    assert not stray, stray
