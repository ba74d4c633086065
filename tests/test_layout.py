"""Layout guard: the library keeps only code that something runs.

Every top-level function and class in ``src/cayley_greedy``, every method
that is not a dunder and every field of a dataclass must be named in
``src/`` outside its own body, or in ``perfbench/`` outside
``perfbench/tests``: by the CLI, the benchmark or another library function.
Re-exports in ``__init__.py`` and the tests do not count; code that only
tests call belongs in ``tests/oracles.py``.  A field counts as read where
its name is used, not where a constructor call passes it by keyword.

A name counts as used where it appears as a variable, an attribute or an
imported name.  A whole string constant counts only in the benchmark's
tracer, which names the functions it wraps by string; elsewhere a string,
such as a report statistic's name, calls nothing.  The scan goes by name
alone, so a method shares its uses with every other name spelled the same
way.  It repeats until nothing changes, each pass leaving out the uses
inside definitions already found unused, so code whose only callers are
unused is caught too.

Every name that a library module imports at its top level must also be
read in that module, as a variable; annotations count, since they still
parse as expressions.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = sorted(p for p in (ROOT / "src" / "cayley_greedy").glob("*.py")
                 if p.name != "__init__.py")
BENCHMARK = sorted(p for p in (ROOT / "perfbench").rglob("*.py")
                   if "tests" not in p.relative_to(ROOT / "perfbench").parts)
TRACER = ROOT / "perfbench" / "tracer.py"

#: library code that nothing runs but that stays, with what will call it
KEEP = {
    "peeling.count_containing_trees": "ROADMAP item 3: the source of the parent law",
    "stats.gaussian_lattice_distance": "ROADMAP item 14: the limits command; "
                                       "criterion 5 measures with it",
    "cli._Parser.error": "an argparse override: argparse calls it",
}


def _names(tree: ast.AST, strings: bool = False) -> Counter:
    """How often each name is used in ``tree``, whole string constants
    included when ``strings``."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.alias):
            out[node.name.rpartition(".")[2]] += 1
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            out[node.value] += 1
    return out


def _is_dataclass(node: ast.ClassDef) -> bool:
    """Whether ``node`` is decorated with ``dataclass``, called or not."""
    for d in node.decorator_list:
        d = d.func if isinstance(d, ast.Call) else d
        if getattr(d, "id", getattr(d, "attr", None)) == "dataclass":
            return True
    return False


def _definitions(path: Path, module: ast.Module):
    """(qualified name, node) of each top-level function and class of a
    library module, of each method that is not a dunder and of each field
    of a dataclass."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in module.body:
        if not isinstance(node, defs):
            continue
        yield f"{path.stem}.{node.name}", node
        if isinstance(node, ast.ClassDef):
            fields = _is_dataclass(node)
            for item in node.body:
                if isinstance(item, defs[:2]) and not (
                        item.name.startswith("__") and item.name.endswith("__")):
                    yield f"{path.stem}.{node.name}.{item.name}", item
                elif (fields and isinstance(item, ast.AnnAssign)
                        and isinstance(item.target, ast.Name)):
                    yield f"{path.stem}.{node.name}.{item.target.id}", item


def _parsed() -> dict[Path, ast.Module]:
    return {p: ast.parse(p.read_text(encoding="utf-8")) for p in LIBRARY + BENCHMARK}


def _unused(modules: dict[Path, ast.Module], library: list[Path],
            keep=KEEP, tracer: Path = TRACER) -> list[str]:
    """Definitions of ``library`` outside ``keep`` with no caller in ``modules``.

    A definition is unused when its name appears nowhere outside its own
    body; string constants count only in the module at ``tracer``.  Each
    pass leaves out the names used inside the definitions found so far, a
    method's with its class's, and the scan stops at the first pass that
    finds nothing new.
    """
    total = sum((_names(m, strings=p == tracer) for p, m in modules.items()), Counter())
    defs = [(q, node) for p in library for q, node in _definitions(p, modules[p])
            if q not in keep]
    unused: list[str] = []
    while True:
        used = total.copy()
        for qualname, node in defs:
            if qualname in unused and qualname.rpartition(".")[0] not in unused:
                used.subtract(_names(node))
        found = []
        for qualname, node in defs:
            owner, _, name = qualname.rpartition(".")
            if (qualname not in unused and owner not in unused
                    and used[name] - _names(node)[name] <= 0):
                found.append(qualname)
        if not found:
            return unused
        unused += found


def test_unused_scan_follows_unused_callers():
    # b's only caller is a, which nothing calls: the first pass finds a,
    # the second b
    path = Path("synthetic.py")
    module = ast.parse("def a():\n    return b()\n\n\ndef b():\n    return 1\n")
    assert _unused({path: module}, [path]) == ["synthetic.a", "synthetic.b"]
    caller = ast.parse("a()\n")
    assert _unused({path: module, Path("caller.py"): caller}, [path]) == []


def test_unused_scan_sees_dataclass_fields():
    # a keyword argument builds the field but does not read it, and a
    # string constant outside the tracer, such as a list of report
    # columns, names it without reading it either
    path = Path("synthetic.py")
    module = ast.parse(
        "from dataclasses import dataclass\n\n\n"
        "@dataclass(frozen=True)\nclass Out:\n    size: int\n    extra: int = 0\n\n\n"
        "def run():\n    return Out(size=1, extra=2).size\n\n\nrun()\n")
    assert _unused({path: module}, [path]) == ["synthetic.Out.extra"]
    columns = ast.parse("COLUMNS = ['extra']\n")
    assert _unused({path: module, Path("columns.py"): columns}, [path]) == [
        "synthetic.Out.extra"]


def test_unused_scan_counts_strings_only_in_the_tracer():
    # a report whose statistic is spelled like a method does not call it;
    # the tracer, which wraps functions named by string, does
    path = Path("synthetic.py")
    module = ast.parse(
        "class Law:\n    def size_variance(self):\n        return 0\n\n\n"
        "def report():\n    return dict(statistic=\"size_variance\", law=Law())\n\n\n"
        "report()\n")
    assert _unused({path: module}, [path]) == ["synthetic.Law.size_variance"]
    tracer = Path("tracer.py")
    wrapped = ast.parse("FUNCTIONS = [('synthetic', 'size_variance')]\n")
    assert _unused({path: module, tracer: wrapped}, [path], tracer=tracer) == []
    assert _unused({path: module, tracer: wrapped}, [path]) == [
        "synthetic.Law.size_variance"]


def test_library_code_has_a_caller():
    unused = _unused(_parsed(), LIBRARY)
    assert unused == [], (
        f"no caller in src/ or perfbench/: {', '.join(unused)}; move to "
        "tests/oracles.py, delete, or add to KEEP with a reason")


def test_keep_list_names_library_code():
    # each entry names library code that the scan, run without KEEP, would
    # report: an entry that names nothing, or that has gained a caller, is
    # stale
    unused = _unused(_parsed(), LIBRARY, keep={})
    assert sorted(set(KEEP) - set(unused)) == []
    assert all(reason for reason in KEEP.values())


def _unused_imports(module: ast.Module) -> list[str]:
    """Names bound by a top-level import of ``module`` that no ``ast.Name``
    in it reads; ``from __future__`` imports bind nothing."""
    bound = []
    for node in module.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {node.id for node in ast.walk(module) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


def test_unused_import_scan():
    module = ast.parse(
        "from __future__ import annotations\n"
        "import json\nimport numpy as np\nimport os.path\n"
        "from typing import Iterable, Sequence\n\n\n"
        "def f(x: Sequence[int]) -> int:\n    return np.sum(os.path.sep)\n")
    assert _unused_imports(module) == ["json", "Iterable"]


def test_library_imports_are_used():
    modules = _parsed()
    unused = [f"{p.stem}.{name}"
              for p in LIBRARY for name in _unused_imports(modules[p])]
    assert unused == [], f"imported but never read: {', '.join(unused)}"
