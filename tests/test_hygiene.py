"""Source hygiene: every imported name in the program and its tests is
used, and every module-level function or class of the program is named
somewhere else in the program or the benchmark.

The package `__init__.py` files re-export names and are skipped.
"""

import ast
import collections
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PROGRAM = sorted(p for p in (ROOT / "src" / "pmu").rglob("*.py")
                 if p.name != "__init__.py")
FILES = PROGRAM + sorted((ROOT / "tests").rglob("*.py"))
# where a definition may be named: the program, its re-exports, perfbench
CALLERS = sorted((ROOT / "src" / "pmu").rglob("*.py")) + sorted(
    (ROOT / "perfbench").glob("*.py"))
UNREFERENCED_ALLOWED = {
    # the sampled finite-difference oracle of acceptance criterion 2
    "finite_diff_sample",
    # per-tap unit error rates at eval will decode every CTC tap with it
    # (ROADMAP item 6)
    "greedy_decode_ctc",
}


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


def definitions(source: str) -> list[str]:
    """Names of the module-level functions and classes in `source`."""
    return [n.name for n in ast.parse(source).body
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef))]


def unreferenced(defined: list[str], corpus: str) -> list[str]:
    """Names of `defined` that occur in `corpus` no more often than they
    are defined: nothing names them but their own `def` or `class`."""
    return sorted(name for name, n in collections.Counter(defined).items()
                  if len(re.findall(rf"\b{re.escape(name)}\b", corpus)) <= n)


def test_scanner_flags_only_unreferenced_definitions():
    source = ("def used():\n    pass\n\n\ndef dead():\n    used()\n\n\n"
              "class Gone:\n    def method(self):\n        pass\n")
    assert definitions(source) == ["used", "dead", "Gone"]
    assert unreferenced(definitions(source), source) == ["Gone", "dead"]


def test_every_definition_is_referenced():
    defined = [name for p in PROGRAM
               for name in definitions(p.read_text(encoding="utf-8"))]
    corpus = "\n".join(p.read_text(encoding="utf-8") for p in CALLERS)
    assert UNREFERENCED_ALLOWED <= set(defined)
    assert [n for n in unreferenced(defined, corpus)
            if n not in UNREFERENCED_ALLOWED] == []
