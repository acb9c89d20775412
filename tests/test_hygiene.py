"""Source hygiene: every imported name in the program and its tests is used.

The package `__init__.py` files re-export names and are skipped.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
FILES = sorted(p for p in (ROOT / "src" / "pmu").rglob("*.py")
               if p.name != "__init__.py") + sorted((ROOT / "tests").rglob("*.py"))


def unused_imports(source: str, filename: str = "<source>") -> list[str]:
    """Names bound by an import statement that no expression reads."""
    tree = ast.parse(source, filename)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name.partition(".")[0],
                                    node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name, node.lineno)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items()
            if name not in used]


def test_scanner_flags_only_unused_names():
    source = ("from __future__ import annotations\n"
              "import os\nimport os.path\nimport json as j\n"
              "from math import pi, tau\n"
              "def f(x: tau):\n    return os.sep + j.dumps(x)\n")
    assert unused_imports(source) == ["line 5: pi"]


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8"), str(path)) == []
