"""Source hygiene: every imported name in the program and its tests is
used, every module-level function or class of the program is named
somewhere else in the program or the benchmark, every default-valued
parameter that the program or the benchmark calls is set by some call,
and text input files are read through `errors.read_lines` alone.

The package `__init__.py` files re-export names and are skipped.
"""

import ast
import collections
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "pmu").rglob("*.py"))
PROGRAM = [p for p in PACKAGE if p.name != "__init__.py"]
FILES = PROGRAM + sorted((ROOT / "tests").rglob("*.py"))
# where a definition may be named: the program, its re-exports, perfbench
CALLERS = PACKAGE + sorted((ROOT / "perfbench").glob("*.py"))
UNREFERENCED_ALLOWED = {
    # per-tap unit error rates at eval will decode every CTC tap with it
    # (ROADMAP item 6)
    "greedy_decode_ctc",
}
# default-valued parameters that no call in the program or the benchmark
# sets, each with the reason it stays
UNSET_DEFAULTS_ALLOWED = {
    "main(argv)": "tests drive the CLI through it",
    "multi_head_attention(mask)": "the batched, padded train step will pass "
                                  "length masks (ROADMAP item 3)",
    "oracle_equivalence_suite(seed)": "tests choose another seed",
    "finite_diff_grad(eps)": "gradient tests choose a smaller step",
}
# functions of the program that open files for reading in text mode, each
# with the reason; everywhere else a non-UTF-8 file must become a
# FormatError naming it, which `read_lines` does
TEXT_READS_ALLOWED = {
    "read_lines": "the one reader of text input files",
    "load_lexicon": "pronunciation dictionaries carry stray non-UTF-8 bytes "
                    "(CMU's has Latin-1 comments); errors='replace' keeps "
                    "their entries readable",
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


def defaulted_parameters(source: str) -> list[tuple[str, list[str], list[str]]]:
    """(callee name, positional parameters, default-valued parameters) of
    each module-level function and each method of a module-level class in
    `source`.  A method's positional parameters leave out `self`, and an
    `__init__` goes by its class's name, as its calls do."""
    out = []
    for node in ast.parse(source).body:
        owner = node if isinstance(node, ast.ClassDef) else None
        for f in node.body if owner else [node]:
            if not isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            a = f.args
            positional = [x.arg for x in a.posonlyargs + a.args]
            if owner and not any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                 for d in f.decorator_list):
                positional = positional[1:]
            defaulted = positional[len(positional) - len(a.defaults):]
            defaulted += [k.arg for k, d in zip(a.kwonlyargs, a.kw_defaults)
                          if d is not None]
            name = owner.name if owner and f.name == "__init__" else f.name
            out.append((name, positional, defaulted))
    return out


def unset_defaults(program: list[str], callers: list[str]) -> list[str]:
    """`name(param)` for each default-valued parameter of a `program`
    function that `callers` call while no call passes that parameter, by
    keyword or by position.  Calls match by the callee's last name; a call
    with `*` or `**` passes every parameter."""
    calls = collections.defaultdict(list)
    for source in callers:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call):
                f = node.func
                name = getattr(f, "id", None) or getattr(f, "attr", None)
                calls[name].append(node)
    out = set()
    for source in program:
        for name, positional, defaulted in defaulted_parameters(source):
            passed = set()
            for call in calls.get(name, []):
                if (any(isinstance(a, ast.Starred) for a in call.args)
                        or any(k.arg is None for k in call.keywords)):
                    passed.update(defaulted)
                passed.update(positional[:len(call.args)])
                passed.update(k.arg for k in call.keywords)
            if name in calls:
                out.update(f"{name}({p})" for p in defaulted if p not in passed)
    return sorted(out)


def test_scanner_flags_only_unset_defaults():
    program = ("def f(a, b=1, *, c=2, d=3):\n    pass\n\n\n"
               "class K:\n    def __init__(self, x=0, y=0):\n        pass\n\n"
               "    def m(self, z=0):\n        pass\n\n\n"
               "def g(p=0):\n    pass\n\n\n"
               "def uncalled(q=0):\n    pass\n")
    callers = "f(0, 5, c=1)\nf(0)\nK(1)\nk.m(**kw)\ng()\n"
    assert unset_defaults([program], [callers]) == ["K(y)", "f(d)", "g(p)"]
    assert unset_defaults([program], [callers + "g(*args)\n"]) == ["K(y)", "f(d)"]


def test_every_default_is_set_by_some_call():
    found = unset_defaults([p.read_text(encoding="utf-8") for p in PACKAGE],
                           [p.read_text(encoding="utf-8") for p in CALLERS])
    assert [d for d in found if d not in UNSET_DEFAULTS_ALLOWED] == []
    assert set(UNSET_DEFAULTS_ALLOWED) <= set(found)


def text_mode_reads(source: str) -> list[str]:
    """`function: line N` of each `open(...)` call in `source` that may read
    in text mode: its mode is missing, is not a string literal, or holds
    "r" or "+" and no "b".  Calls outside any function go by `<module>`."""
    out = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call) and getattr(child.func, "id", None) == "open":
                mode = (child.args[1] if len(child.args) > 1 else
                        next((k.value for k in child.keywords if k.arg == "mode"),
                             None))
                m = mode.value if isinstance(mode, ast.Constant) else None
                if not isinstance(m, str) or ("b" not in m and set("r+") & set(m)):
                    out.append(f"{owner}: line {child.lineno}")
            visit(child, owner)

    visit(ast.parse(source), "<module>")
    return out


def test_scanner_flags_only_text_mode_reads():
    source = ("open('x')\n\n\ndef a(p):\n    return open(p, 'r')\n\n\n"
              "def b(p, m):\n    with open(p, 'rb') as fh:\n        pass\n"
              "    open(p, 'w', encoding='utf-8')\n    open(p, mode='r+')\n"
              "    open(p, m)\n    open(p, 'wb')\n\n    def inner():\n"
              "        open(p)\n")
    assert text_mode_reads(source) == ["<module>: line 1", "a: line 5",
                                       "b: line 12", "b: line 13",
                                       "inner: line 17"]


def test_text_files_are_read_through_read_lines():
    found = [f"{p.relative_to(ROOT)}: {hit}" for p in PACKAGE
             for hit in text_mode_reads(p.read_text(encoding="utf-8"))]
    assert [h for h in found
            if h.split(": ")[1] not in TEXT_READS_ALLOWED] == []
    assert set(TEXT_READS_ALLOWED) <= {h.split(": ")[1] for h in found}
