"""No module of the package imports a name it never uses.

No linter runs on the package, so a deleted function can leave its import
behind.  Each module except ``__init__.py`` (whose imports are its exports) is
parsed with ``ast``; a module-level import whose bound name never appears as a
name in the module fails, unless its line carries ``# noqa: F401``.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "privpredict"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The module-level imported names that the module never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for stmt in tree.body:
        if not isinstance(stmt, (ast.Import, ast.ImportFrom)) or getattr(stmt, "module", None) == "__future__":
            continue
        for alias in stmt.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used and "# noqa: F401" not in lines[alias.lineno - 1]:
                unused.append(f"line {alias.lineno}: {name}")
    return unused


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_finds_an_unused_import_and_honours_noqa():
    source = ("from __future__ import annotations\n"
              "import json, math\n"
              "import os.path\n"
              "from numpy import (\n    array,\n    zeros,  # noqa: F401\n)\n"
              "print(math.pi, array)\n")
    assert unused_imports(source) == ["line 2: json", "line 3: os"]
