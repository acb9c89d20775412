"""Source hygiene: every imported name in the program and its tests is
used, every module-level function or class of the program is reached by an
expression elsewhere in the program or the benchmark, every default-valued
parameter that the program or the benchmark calls is set by some call and
not always to one literal, text input files are read through
`errors.read_lines` alone, and no `InputError` is caught to be joined into
another one.

The package `__init__.py` files re-export names and are skipped.
"""

import ast
import collections
import pathlib

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
    "pmu.decode.greedy_decode_ctc",
}
# default-valued parameters that no call in the program or the benchmark
# sets, each with the reason it stays
UNSET_DEFAULTS_ALLOWED = {
    "main(argv)": "tests drive the CLI through it",
    "oracle_equivalence_suite(seed)": "tests choose another seed",
    "finite_diff_grad(eps)": "gradient tests choose a smaller step",
}
# default-valued parameters that every call in the program or the benchmark
# passes as the same literal, each with the reason it stays a parameter
CONSTANT_DEFAULTS_ALLOWED = {}
# functions of the program that open files for reading in text mode, each
# with the reason; everywhere else a non-UTF-8 file must become a
# FormatError naming it, which `read_lines` does
TEXT_READS_ALLOWED = {
    "read_lines": "the one reader of text input files",
    "load_lexicon": "pronunciation dictionaries carry stray non-UTF-8 bytes "
                    "(CMU's has Latin-1 comments); errors='replace' keeps "
                    "their entries readable",
}

# functions of the program that catch InputError, each with the reason;
# everywhere else checks return their problems as a list, which
# `errors.raise_problems` raises once
INPUT_ERROR_CATCHES_ALLOWED = {
    "main": "the CLI turns every rejected input into one `error:` line",
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


def module_name(path: pathlib.Path) -> str:
    """Dotted import name of a program or benchmark file: `pmu.nn` for
    src/pmu/nn.py, `pmu.tokenizers` for its `__init__.py`, `workloads` for
    perfbench/workloads.py (the benchmark imports its files top-level)."""
    base = ROOT / "src" if ROOT / "src" in path.parents else path.parent
    parts = path.relative_to(base).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def import_bindings(tree, module: str, is_package: bool, modules) -> dict:
    """Local name -> ("module", name) or ("name", module, name) for every
    import statement in `tree`, wherever it sits; relative imports resolve
    against `module`, and `modules` tells submodules from names."""
    package = module if is_package else module.rpartition(".")[0]
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                head = a.name.partition(".")[0]
                out[a.asname or head] = ("module", a.name if a.asname else head)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parent = package.rsplit(".", node.level - 1)[0]
                base = f"{parent}.{base}" if base else parent
            for a in node.names:
                full = f"{base}.{a.name}"
                out[a.asname or a.name] = (("module", full) if full in modules
                                           else ("name", base, a.name))
    return out


def resolve(modules: dict, module: str, name: str):
    """What `name` is in `module`: ("def", module, name) for a function or
    class defined there, ("module", dotted name) for a module, following
    imports and re-exports; None outside the scanned modules."""
    if module not in modules:
        return None
    defs, bindings = modules[module][1:]
    if name in defs:
        return ("def", module, name)
    if f"{module}.{name}" in modules:
        return ("module", f"{module}.{name}")
    bound = bindings.get(name)
    if bound is None or bound[0] == "module":
        return bound
    return resolve(modules, *bound[1:])


SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ListComp,
          ast.SetComp, ast.DictComp, ast.GeneratorExp)


def local_names(scope) -> set[str]:
    """Names a function, lambda or comprehension binds: parameters,
    assignment targets and nested definitions (those of nested scopes too,
    which only ever hides a reference), less its `global` names."""
    nodes = list(ast.walk(scope))
    names = {n.arg for n in nodes if isinstance(n, ast.arg)}
    names |= {n.id for n in nodes
              if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
    names |= {n.name for n in nodes if n is not scope and isinstance(
        n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
    return names - {g for n in nodes if isinstance(n, ast.Global) for g in n.names}


def unreferenced(sources: dict[str, tuple[str, bool]],
                 program: list[str]) -> list[str]:
    """`module.name` of each module-level function or class of a `program`
    module that no Name or Attribute expression in `sources` resolves to
    through imports, module aliases and package re-exports.  `sources` maps
    module name -> (source text, is package).  String literals, names bound
    locally and a definition's uses of itself do not count."""
    modules = {m: [ast.parse(text), set(), {}] for m, (text, _) in sources.items()}
    for m, (tree, defs, bindings) in modules.items():
        defs.update(definitions(sources[m][0]))
        bindings.update(import_bindings(tree, m, sources[m][1], modules))
    used = set()

    def target(node, module, local):
        if isinstance(node, ast.Name):
            return None if node.id in local else resolve(modules, module, node.id)
        if isinstance(node, ast.Attribute):
            owner = target(node.value, module, local)
            if owner and owner[0] == "module":
                return resolve(modules, owner[1], node.attr)
        return None

    def visit(node, module, local, owner):
        if isinstance(node, SCOPES):
            local = local | local_names(node)
        if owner is None and isinstance(node, (ast.FunctionDef,
                                               ast.AsyncFunctionDef, ast.ClassDef)):
            owner = ("def", module, node.name)
        if isinstance(node, (ast.Name, ast.Attribute)):
            found = target(node, module, local)
            if found and found[0] == "def" and found != owner:
                used.add(found)
        for child in ast.iter_child_nodes(node):
            visit(child, module, local, owner)

    for m, (tree, _, _) in modules.items():
        visit(tree, m, frozenset(), None)
    return sorted(f"{m}.{name}" for m in program for name in modules[m][1]
                  if ("def", m, name) not in used)


def test_scanner_flags_only_unreferenced_definitions():
    ops = ("import math\n\n\ndef exported():\n    pass\n\n\n"
           "def aliased():\n    pass\n\n\ndef imported():\n    pass\n\n\n"
           "def recursive():\n    return recursive()\n\n\n"
           "def log():\n    return math.log(2)\n\n\ndef sub():\n    pass\n\n\n"
           "def shadowed(sub):\n    return sub() + [log for log in ()]\n")
    user = ("import pkg\nimport pkg.ops as o\n\n\ndef main():\n"
            "    from pkg.ops import imported\n"
            "    return pkg.exported(), o.aliased(), imported(), 'log', 'sub'\n")
    sources = {"pkg": ("from .ops import exported\n", True),
               "pkg.ops": (ops, False), "user": (user, False)}
    assert unreferenced(sources, ["pkg.ops"]) == [
        "pkg.ops.log", "pkg.ops.recursive", "pkg.ops.shadowed", "pkg.ops.sub"]
    assert unreferenced(sources, ["user"]) == ["user.main"]


def test_every_definition_is_referenced():
    sources = {module_name(p): (p.read_text(encoding="utf-8"),
                                p.name == "__init__.py") for p in CALLERS}
    dead = unreferenced(sources, [module_name(p) for p in PROGRAM])
    assert UNREFERENCED_ALLOWED <= set(dead)
    assert [n for n in dead if n not in UNREFERENCED_ALLOWED] == []


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


def calls_by_name(callers: list[str]) -> dict[str, list[ast.Call]]:
    """Every call in `callers`, keyed by the callee's last name."""
    calls = collections.defaultdict(list)
    for source in callers:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call):
                f = node.func
                calls[getattr(f, "id", None) or getattr(f, "attr", None)].append(node)
    return calls


def arguments(call: ast.Call, positional: list[str]) -> dict | None:
    """Parameter -> argument expression of `call`; None when a `*` or `**`
    argument may pass any parameter."""
    if (any(isinstance(a, ast.Starred) for a in call.args)
            or any(k.arg is None for k in call.keywords)):
        return None
    return {**dict(zip(positional, call.args)),
            **{k.arg: k.value for k in call.keywords}}


def unset_defaults(program: list[str], callers: list[str]) -> list[str]:
    """`name(param)` for each default-valued parameter of a `program`
    function that `callers` call while no call passes that parameter, by
    keyword or by position.  Calls match by the callee's last name; a call
    with `*` or `**` passes every parameter."""
    calls = calls_by_name(callers)
    out = set()
    for source in program:
        for name, positional, defaulted in defaulted_parameters(source):
            passed = set()
            for call in calls.get(name, []):
                args = arguments(call, positional)
                passed.update(defaulted if args is None else args)
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


def is_literal(node: ast.expr) -> bool:
    try:
        ast.literal_eval(node)
    except (ValueError, TypeError):
        return False
    return True


def constant_defaults(program: list[str], callers: list[str]) -> list[str]:
    """`name(param)` for each default-valued parameter of a `program`
    function that every call in `callers` passes, as one and the same
    literal: a constant, not a parameter.  A function with a `*` or `**`
    call may be passed anything and is left out."""
    calls = calls_by_name(callers)
    out = set()
    for source in program:
        for name, positional, defaulted in defaulted_parameters(source):
            args = [arguments(c, positional) for c in calls.get(name, [])]
            if not args or None in args:
                continue
            for p in defaulted:
                values = {ast.dump(a[p]) if p in a and is_literal(a[p]) else None
                          for a in args}
                if None not in values and len(values) == 1:
                    out.add(f"{name}({p})")
    return sorted(out)


def test_scanner_flags_only_constant_defaults():
    program = ("def f(a, axis=-1, pad=0, b=None):\n    pass\n\n\n"
               "def g(k=1):\n    pass\n\n\ndef h(m=0):\n    pass\n\n\n"
               "class K:\n    def run(self, train=False):\n        pass\n")
    callers = ("f(x, axis=-1, pad=1, b=y)\nf(x, -1, 1, None)\n"
               "f(z, axis=-1, pad=2, b=None)\ng(k=2)\ng()\nh(m=3)\nh(*a)\n"
               "k.run(train=True)\nk.run(True)\n")
    assert constant_defaults([program], [callers]) == ["f(axis)", "run(train)"]


def test_no_default_is_always_passed_the_same_literal():
    found = constant_defaults([p.read_text(encoding="utf-8") for p in PACKAGE],
                              [p.read_text(encoding="utf-8") for p in CALLERS])
    assert [d for d in found if d not in CONSTANT_DEFAULTS_ALLOWED] == []
    assert set(CONSTANT_DEFAULTS_ALLOWED) <= set(found)


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


def input_error_catches(source: str) -> list[str]:
    """`function: line N` of each `except` clause in `source` that names
    InputError, alone or in a tuple.  Clauses outside any function go by
    `<module>`."""
    out = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.ExceptHandler) and child.type is not None:
                names = {getattr(n, "id", getattr(n, "attr", None))
                         for n in ast.walk(child.type)}
                if "InputError" in names:
                    out.append(f"{owner}: line {child.lineno}")
            visit(child, owner)

    visit(ast.parse(source), "<module>")
    return out


def test_scanner_flags_only_input_error_catches():
    source = ("try:\n    pass\nexcept InputError:\n    pass\n\n\n"
              "def f():\n    try:\n        pass\n"
              "    except (OSError, errors.InputError) as e:\n        pass\n"
              "    except ValueError:\n        pass\n"
              "    except:\n        pass\n")
    assert input_error_catches(source) == ["<module>: line 3", "f: line 10"]


def test_input_errors_are_not_caught_to_be_rejoined():
    found = [f"{p.relative_to(ROOT)}: {hit}" for p in PACKAGE
             for hit in input_error_catches(p.read_text(encoding="utf-8"))]
    assert [h for h in found
            if h.split(": ")[1] not in INPUT_ERROR_CATCHES_ALLOWED] == []
    assert set(INPUT_ERROR_CATCHES_ALLOWED) <= {h.split(": ")[1] for h in found}
