"""Checks on the package sources themselves."""

import ast
import importlib
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "patalg"


def test_no_assert_statements():
    # `python -O` strips assert statements, so no check in the package may
    # rest on one; failed soundness checks raise SoundnessError instead.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert len(list(SRC.glob("*.py"))) > 10
    assert found == []


def test_no_dataclasses_import():
    # Every record is a `syntax.Node`, a `syntax.Record` or a plain
    # `__slots__` class; the `dataclasses` import chain (`inspect`, `ast`,
    # `dis`, `tokenize`) and its method generation would cost every `patc`
    # run start-up time.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if (isinstance(node, ast.Import) and any(a.name == "dataclasses" for a in node.names))
        or (isinstance(node, ast.ImportFrom) and node.module == "dataclasses")
    ]
    assert found == []


def test_only_cli_sets_the_collector_policy():
    # `cli.main` freezes the heap at exit, so no other module registers
    # exit hooks or freezes objects behind its back.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "cli.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if (isinstance(node, ast.Import) and any(a.name == "atexit" for a in node.names))
        or (isinstance(node, ast.ImportFrom) and node.module == "atexit")
        or (
            isinstance(node, ast.ImportFrom)
            and node.module == "gc"
            and any(a.name in ("freeze", "unfreeze") for a in node.names)
        )
        or (
            isinstance(node, ast.Attribute)
            and node.attr in ("freeze", "unfreeze")
            and isinstance(node.value, ast.Name)
            and node.value.id == "gc"
        )
    ]
    assert len(list(SRC.glob("*.py"))) > 10
    assert found == []


def test_package_init_defines_no_function():
    # A function, class or lambda defined in `patalg/__init__.py` holds the
    # package's namespace in a cycle past shutdown, and with the heap frozen
    # at exit that costs a `patc` run about 5 ms more to exit; the package's
    # `__getattr__` lives in `_lazy.py` for this reason.
    init = SRC / "__init__.py"
    found = [
        f"{type(node).__name__} at line {node.lineno}"
        for node in ast.walk(ast.parse(init.read_text(encoding="utf-8"), str(init)))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda))
    ]
    assert found == []


# What `import patalg.cli` must not load: each would cost every `patc` start
# milliseconds, and only some commands need them.  `patc fuzz` loads the
# suites and their oracle, and the JSON printers load `json`.
_NOT_AT_START = (
    "argparse",
    "gettext",
    "json",
    "patalg.oracle",
    "patalg.suites",
)

_IMPORT_PROBE = """
import sys, patalg.cli
print(sorted(set(sys.argv[1:]) & set(sys.modules)))
import patalg
print(patalg.validate_tree.__module__, "patalg.oracle" in sys.modules)
names = {}
exec("from patalg import *", names)
print(sorted(n for n in ("enumerate_values", "gen_pattern", "validate_tree") if n in names))
"""


def _probe_cli_import(*modules: str) -> list[str]:
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run(
        [sys.executable, "-S", "-c", _IMPORT_PROBE, *modules],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return out.stdout.splitlines()


def test_cli_imports_only_what_every_command_needs():
    # The oracle's names still resolve on the package, and load it then.
    assert _probe_cli_import(*_NOT_AT_START) == [
        "[]",
        "patalg.oracle True",
        "['enumerate_values', 'gen_pattern', 'validate_tree']",
    ]


def test_cli_imports_neither_dataclasses_nor_inspect():
    assert _probe_cli_import("dataclasses", "inspect")[0] == "[]"


def test_cli_does_not_import_typing():
    # `typing` would add a few milliseconds to every `patc` start.
    assert _probe_cli_import("typing")[0] == "[]"


def _holds_dicts(value) -> bool:
    """A dict, or an object with a dict in one of its slots."""
    slots = (s for k in type(value).__mro__ for s in getattr(k, "__slots__", ()))
    return type(value) is dict or any(type(getattr(value, s, None)) is dict for s in slots)


def test_module_level_dicts_are_the_bounded_memos():
    # A module-level dict lives as long as the process, so the only ones
    # are the weak intern table, the two memos, whose generations bound
    # them, and the pairs table that rotates with the match memo.  A new
    # global cache must be one of their generations, or scoped to a call.
    # Objects that hold dicts count too: the two memos' `Generations`, the
    # diagram table, whose generations bound it, and the standard
    # declarations, whose value pools are bounded by the enumeration depth.
    modules = ["patalg"] + [f"patalg.{p.stem}" for p in SRC.glob("*.py") if p.stem != "__init__"]
    found = {
        f"{module}.{name}"
        for module in modules
        for name, value in vars(importlib.import_module(module)).items()
        if not isinstance(value, type) and _holds_dicts(value) and not name.startswith("__")
    }
    assert len(modules) > 10
    assert found == {
        "patalg.syntax._table",
        "patalg.syntax._match_cache",
        "patalg.syntax._pairs",
        "patalg.overlap._cache",
        "patalg.syntax._match_memo",
        "patalg.overlap._decided",
        "patalg.diagram.table",
        "patalg.suites.STANDARD_DECLS",
    }


def _self_recursive(path) -> list:
    """The functions of a module that reach themselves through the
    module's own call graph: calls by name resolve to the innermost
    enclosing definition of that name (nested defs included), and
    `self.name(...)` to a method of the enclosing class."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    calls: dict = {}  # qualified name -> qualified names it calls

    def defs_in(body, prefix) -> dict:
        return {n.name: prefix + n.name for n in body if isinstance(n, functions)}

    def nested_defs(fn, prefix) -> dict:
        """The defs whose innermost enclosing function is `fn`."""
        out, todo = {}, list(fn.body)
        while todo:
            node = todo.pop()
            if isinstance(node, functions):
                out[node.name] = prefix + node.name
            else:
                todo.extend(ast.iter_child_nodes(node))
        return out

    def visit(fn, name, scopes, methods):
        calls.setdefault(name, set())
        scan(fn, scopes + [nested_defs(fn, f"{name}.")], methods, name)

    def scan(node, scopes, methods, current):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                own = defs_in(child.body, f"{child.name}.")
                for item in child.body:
                    if isinstance(item, functions):
                        visit(item, own[item.name], scopes, own)
                    else:
                        scan(item, scopes, own, current)
            elif isinstance(child, functions):
                visit(child, scopes[-1][child.name], scopes, methods)
            else:
                if isinstance(child, ast.Call) and current is not None:
                    f = child.func
                    if isinstance(f, ast.Name):
                        visible = (s[f.id] for s in reversed(scopes) if f.id in s)
                        target = next(visible, None)
                    elif (
                        isinstance(f, ast.Attribute)
                        and isinstance(f.value, ast.Name)
                        and f.value.id == "self"
                    ):
                        target = methods.get(f.attr)
                    else:
                        target = None
                    if target is not None:
                        calls[current].add(target)
                scan(child, scopes, methods, current)

    scan(tree, [defs_in(tree.body, "")], {}, None)
    found = []
    for name in calls:
        reached, todo = set(), list(calls[name])
        while todo:
            f = todo.pop()
            if f not in reached:
                reached.add(f)
                todo.extend(calls.get(f, ()))
        if name in reached:
            found.append(f"{path.stem}.{name}")
    return found


# Functions that recurse on their input, so a deep enough input exhausts
# the interpreter stack.  The list may only shrink: a new walk must be a
# step function of `syntax.fold` (as pattern facts, substitution,
# compilation and the tree invariants are) or `pretty._emit`, or use an
# explicit stack (as `semantics.subterms` does).  Four entries are bounded
# by program structure; the one left, `syntax.match_both`, names the
# ROADMAP item that removes it.  ROADMAP item 5 aims at keeping only the
# walks bounded by program structure.
RECURSIVE_ALLOWED = {
    "oracle._enum",  # bounded by program structure: the enumeration depth
    "oracle.random_pattern",  # bounded by program structure: the generated size
    "parser._Parser.parse_case",  # bounded by program structure: case nesting
    "parser._Parser.parse_expr",  # bounded by program structure: case nesting
    "syntax.match_both",  # item 10
}


def test_no_new_recursive_functions(tmp_path):
    # The scan sees recursion through a nested def and through `self`.
    walks = tmp_path / "walks.py"
    walks.write_text(
        "def outer(e):\n"
        "    def go(e):\n"
        "        return [go(a) for a in e]\n"
        "    return go(e)\n"
        "\n"
        "class Walker:\n"
        "    def walk(self, e):\n"
        "        return [self.walk(a) for a in e]\n"
    )
    assert sorted(_self_recursive(walks)) == ["walks.Walker.walk", "walks.outer.go"]
    found = {f for path in sorted(SRC.glob("*.py")) for f in _self_recursive(path)}
    assert sorted(found - RECURSIVE_ALLOWED) == []
    # An entry whose function no longer recurses leaves the list.
    assert sorted(RECURSIVE_ALLOWED - found) == []


def test_validator_shares_no_code_with_the_compiler():
    # `oracle.validate_tree` checks the compiler, so of its names it may
    # read only the tree's node classes, and it reads no normal form.  Its
    # emptiness questions go to the diagram table that the compiler reads
    # too, so `differential_check_tree` is the check that shares no code
    # with the diagrams.  Its helpers are the module-level names it reaches.
    path = SRC / "oracle.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    source, top = {}, {}  # imported name -> its module; top-level name -> its node
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            source.update((a.asname or a.name, node.module) for a in node.names)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            top[node.name] = node
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                for n in ast.walk(target):
                    if isinstance(n, ast.Name):
                        top[n.id] = node
    reached, used, todo = set(), set(), ["validate_tree"]
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            ids = {n.id for n in ast.walk(top[name]) if isinstance(n, ast.Name)}
            used |= ids
            todo.extend(ids & set(top))
    assert {"_read", "_learn", "_witness", "_fault"} <= reached
    assert {n for n in used if source.get(n) == "compiler"} <= {"Leaf", "Arm", "Switch"}
    assert {n for n in used if source.get(n) == "normalize"} == set()
    assert {"compiler", "normalize"} & used == set()


def _normalize_imports(path) -> set:
    """The names a module imports from `normalize`; `*` for the module."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.ImportFrom) and node.module in ("normalize", "patalg.normalize"):
            names.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module in (None, "patalg"):
            names.update("*" for a in node.names if a.name == "normalize")
        elif isinstance(node, ast.Import):
            names.update("*" for a in node.names if a.name == "patalg.normalize")
    return names


def test_check_decides_on_source_patterns():
    # `check` builds the decision diagrams of the source patterns and never
    # normalizes: overlap and exhaustiveness read no normal form, and
    # wellformedness embeds one only where `wf_matrix` is given a matrix of
    # normal forms.
    assert _normalize_imports(SRC / "compiler.py") >= {"to_ndnf"}  # the scan sees imports
    assert _normalize_imports(SRC / "overlap.py") == set()
    assert _normalize_imports(SRC / "exhaustiveness.py") == set()
    assert _normalize_imports(SRC / "diagram.py") == set()
    assert _normalize_imports(SRC / "wellformed.py") == {"embed_ndnf"}


def _private_reaches(path) -> list:
    """The `_`-prefixed names, but dunders, that a module imports from
    another `patalg` module or reads as an attribute of one."""
    private = lambda name: name.startswith("_") and not name.endswith("__")  # noqa: E731
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    modules, found = set(), []  # names bound to patalg modules
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("patalg")):
            if node.module in (None, "patalg"):
                modules.update(a.asname or a.name for a in node.names)
            else:
                found += [f"{node.module}.{a.name}" for a in node.names if private(a.name)]
        elif isinstance(node, ast.Import):
            modules.update(a.asname for a in node.names if a.name.startswith("patalg.") and a.asname)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in modules and private(node.attr):
                found.append(f"{node.value.id}.{node.attr}")
    return [f"{path.stem}: {name}" for name in found]


def test_no_module_reaches_into_another_modules_private_names(tmp_path):
    # A module uses another through its public names, so that what a
    # module keeps to itself can change without a reader elsewhere.  The
    # scan sees both kinds of reach.
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from . import diagram\n"
        "from .syntax import _table, __name__, fold\n"
        "x = diagram._chain, diagram.table, _table._private\n"
    )
    assert _private_reaches(probe) == ["probe: syntax._table", "probe: diagram._chain"]
    found = [f for path in sorted(SRC.glob("*.py")) for f in _private_reaches(path)]
    assert found == []
