"""Deep and wide inputs through the command line, and in process.

Each run is a fresh `patc` process, so it gets the interpreter's own stack
depth, and must exit 0 with no traceback.  Its address space is capped at
1 GiB, so a run whose memory grows out of bounds fails fast.  The runs
marked xfail still recurse once per level in the named function, or write
output that grows faster than the input; the ROADMAP item that removes
the cause removes the mark.
"""

import os
import pathlib
import re
import resource
import subprocess
import sys
import time

import pytest

from patalg.compiler import compile_case, eval_tree
from patalg.normalize import to_ndnf
from patalg.oracle import Agree, validate_tree
from patalg.parser import parse, parse_pattern
from patalg.pretty import format_expr, format_ndnf, format_pattern
from patalg.semantics import ECtor, EVar, Evaluated
from patalg.syntax import CtorName, Value

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"
SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

K = 2000  # constructors of the wide enum


def _nest(n: int, inner: str) -> str:
    return "S(" * n + inner + ")" * n


def _case_program(depth: int) -> str:
    return (
        "data N = Z | S(N);\n"
        f"def f(x: N) := case x of {{ {_nest(depth, 'Z')} => Z, default => S(Z) }};\n"
    )


def _wide_program() -> str:
    # `g` maps K0..K999 to K1000..K1999 and returns every other value
    # through one clause `y & !(K0 | ... | K999)`, a 1,000-wide or-pattern.
    ctors = " | ".join(f"K{i}" for i in range(K))
    clauses = ", ".join(f"K{i} => K{i + K // 2}" for i in range(K // 2))
    alts = " | ".join(f"K{i}" for i in range(K // 2))
    return (
        f"data E = {ctors};\n"
        f"def g(x: E) := case x of {{ {clauses}, y & !({alts}) => y, default => K0 }};\n"
    )


def _complementary_program(depth: int) -> str:
    deep = _nest(depth, "Z")
    return (
        "data N = Z | S(N);\n"
        f"def f(x: N) := case x of {{ {deep} => Z, !{deep} => S(Z), default => Z }};\n"
    )


def _or_product_program(n: int) -> str:
    # `T(A | B, ..., A | B)` has 2^n conjuncts in normal form; its overlap
    # with `T(C, _, ..., _)` clashes in the first column.
    ab = ", ".join(["A | B"] * n)
    rest = ", _" * (n - 1)
    return (
        f"data AB = A | B | C;\ndata T = T({', '.join(['AB'] * n)});\n"
        f"def f(x: T) := case x of {{ T({ab}) => A, T(C{rest}) => B, default => C }};\n"
    )


PROGRAMS = {
    "deep10k.pat": _case_program(10_000),
    "complement.pat": _complementary_program(1200),
    "complement10k.pat": _complementary_program(10_000),
    "deep250.pat": _case_program(250),
    "wide.pat": _wide_program(),
    "body.pat": f"data N = Z | S(N);\ndef f(x: N) := {_nest(3000, 'x')};\nmain := f(Z);\n",
    "orprod40.pat": _or_product_program(40),
    # 3,000 definitions, each calling the one before it.
    "chain3k.pat": "data N = Z | S(N);\ndef g0(x: N) := x;\n"
    + "".join(f"def g{i}(x: N) := S(g{i - 1}(x));\n" for i in range(1, 3000)),
    "negdeep10k.pat": (
        "data N = Z | S(N);\n"
        f"def f(x: N) := case x of {{ !{_nest(10_000, 'Z')} => Z, default => S(Z) }};\n"
    ),
    # A 10,000-deep right-hand side, which matching substitutes into.
    "rhs10k.pat": (
        "data N = Z | S(N);\n"
        f"def f(x: N) := case x of {{ y => {_nest(10_000, 'y')}, default => Z }};\n"
    ),
    # Two overlapping clauses: `eval` substitutes to compare their contracta.
    "overlaprhs10k.pat": (
        "data N = Z | S(N);\n"
        f"def g(x: N) := case x of {{ y => {_nest(10_000, 'y')}, "
        f"z => {_nest(10_000, 'z')}, default => Z }};\n"
    ),
}

PATTERNS = {
    "deep-ctor": _nest(10_000, "Z"),
    "deep-neg": "!" * 3000 + "x",
    "wide-or": "y & !(" + " | ".join(f"K{i}" for i in range(K)) + ")",
}


def _xfail(reason: str):
    return pytest.mark.xfail(strict=True, reason=reason)


RUNS = [
    *(["check", "deep10k.pat", *flags] for flags in ([], ["--typed"], ["--untyped"])),
    ["check", "deep10k.pat", "--type-aware-overlap"],
    ["eval", "deep10k.pat", "--entry", "f", "--args", "Z"],
    *(
        ["norm", "--pattern", PATTERNS[name], "--stage", stage]
        for name in PATTERNS
        for stage in ("nnf", "dnf", "ndnf")
    ),
    *(
        ["check", "complement.pat", *flags]
        for flags in ([], ["--typed"], ["--untyped"], ["--type-aware-overlap"])
    ),
    ["check", "deep250.pat"],
    ["compile", "deep250.pat"],
    ["compile", "deep250.pat", "--format", "json"],
    ["eval", "deep250.pat", "--entry", "f", "--args", _nest(250, "Z")],
    ["check", "wide.pat"],
    ["check", "wide.pat", "--typed"],
    ["check", "wide.pat", "--type-aware-overlap"],
    ["compile", "wide.pat"],
    ["compile", "wide.pat", "--format", "json"],
    ["check", "body.pat"],
    ["check", "body.pat", "--typed"],
    ["compile", "body.pat"],
    ["compile", "body.pat", "--format", "json"],
    # The machine binds the argument: nothing substitutes into the body.
    ["eval", "body.pat", "--entry", "main"],
    ["eval", "body.pat", "--entry", "f", "--args", "Z"],
    ["check", str(DEMOS / "lists.pat"), "--typed"],
    ["check", "chain3k.pat", "--typed"],
    ["compile", "complement.pat"],
    *(["check", "rhs10k.pat", *flags] for flags in ([], ["--typed"])),
    ["compile", "rhs10k.pat"],
    ["compile", "rhs10k.pat", "--format", "json"],
    ["eval", "rhs10k.pat", "--entry", "f", "--args", "Z"],
    ["eval", "overlaprhs10k.pat", "--entry", "g", "--args", "Z"],
    pytest.param(
        ["compile", "deep10k.pat"],
        marks=_xfail("indented tree output is quadratic in depth (ROADMAP item 6)"),
    ),
    pytest.param(
        ["compile", "deep10k.pat", "--format", "json"],
        marks=_xfail("indented tree output is quadratic in depth (ROADMAP item 6)"),
    ),
    pytest.param(
        ["eval", "deep10k.pat", "--entry", "f", "--args", _nest(10_000, "Z")],
        marks=_xfail("syntax.match_both recurses per level (ROADMAP item 10)"),
    ),
    pytest.param(
        ["eval", "wide.pat", "--entry", "g", "--args", f"K{K - 1}"],
        marks=_xfail("syntax.match_both recurses per or-alternative (ROADMAP item 10)"),
    ),
]


def _run_id(argv) -> str:
    if argv[0] == "norm":
        name = next(n for n, p in PATTERNS.items() if p == argv[2])
        return f"norm-{name}-{argv[4]}"
    words = [pathlib.Path(a).name if a.endswith(".pat") else a for a in argv]
    return "-".join(w if len(w) < 40 else "deep-arg" for w in words)


def _ids(run) -> str:
    return _run_id(run.values[0] if hasattr(run, "values") else run)


@pytest.fixture(scope="module")
def programs(tmp_path_factory):
    root = tmp_path_factory.mktemp("deep")
    for name, text in PROGRAMS.items():
        (root / name).write_text(text)
    return root


MEMORY_CAP = 1 << 30  # bytes of address space for each run


def _cap_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))


@pytest.mark.parametrize("argv", RUNS, ids=[_ids(r) for r in RUNS])
def test_deep_or_wide_input_exits_cleanly(argv, programs):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-m", "patalg.cli", *argv],
        cwd=programs,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        preexec_fn=_cap_memory,
    )
    assert "Traceback" not in out.stderr, out.stderr[-500:]
    assert out.returncode == 0, out.stderr[-500:]
    if argv[1].endswith("lists.pat"):
        # A recursive definition is skipped by the typing, not unfolded.
        assert "def main: note: recursive definition; typing skipped" in out.stdout
        assert out.stdout.endswith("ok\n")
    if argv[0] == "eval" and "rhs10k" in argv[1]:
        assert out.stdout == _nest(10_000, "Z") + "\n"
    if argv[1] == "chain3k.pat":
        # No definition recurses, and each is typed by the `Call` rule.
        assert out.stdout.endswith("ok\n") and "typing skipped" not in out.stdout


@pytest.mark.parametrize(
    "argv", [["orprod40.pat", "--typed"], ["negdeep10k.pat"], ["complement10k.pat"]], ids=_run_id
)
def test_check_builds_no_normal_form(argv, programs):
    # `check` decides overlap and determinism on the source patterns, so it
    # builds neither the 2^40 conjuncts of the or-product's normal form nor
    # the normal form of `!S^10000(Z)`, which is quadratic in the depth.
    # The diagram of `S^10000(Z)` and its complement is one test per level.
    out = subprocess.run(
        [sys.executable, "-m", "patalg.cli", "check", *argv],
        cwd=programs,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=20,
        preexec_fn=_cap_memory,
    )
    assert "Traceback" not in out.stderr, out.stderr[-500:]
    assert out.returncode == 0, out.stderr[-500:]
    assert out.stdout.endswith("ok\n")
    if argv[0] == "orprod40.pat":
        # The witness is a T headed by A or B with a C later on.
        witness = re.search(r"handles e\.g\. T\((.*)\)\n", out.stdout).group(1).split(", ")
        assert len(witness) == 40 and witness[0] in ("A", "B") and "C" in witness[1:]


# --- in process -------------------------------------------------------------------


def _s_value(depth: int) -> Value:
    v = Value(CtorName("Z", 0), ())
    for _ in range(depth):
        v = Value(CtorName("S", 1), (v,))
    return v


@pytest.mark.parametrize("name, depth", [("deep10k.pat", 10_000), ("complement.pat", 1200)])
def test_deep_clauses_compile_to_a_valid_dag(name, depth):
    # The clause `S^depth(Z) => Z` is one switch per level.  Its tree is
    # validated and run in process: printing it is quadratic in the depth.
    case = parse(PROGRAMS[name]).defs[0].body
    tree = compile_case(case)
    start = time.process_time()
    assert validate_tree(case, tree) == Agree(depth + 3)
    assert time.process_time() - start < 1.0
    z = Value(CtorName("Z", 0), ())
    assert eval_tree(tree, {"x": _s_value(depth)}) == Evaluated(z)
    assert eval_tree(tree, {"x": _s_value(depth - 1)}) != Evaluated(z)


def test_repr_of_deep_nodes_prints_without_recursion():
    p = parse_pattern(_nest(3000, "x"))
    d = to_ndnf(p)
    e = ECtor(CtorName("S", 1), (EVar("x"),))
    for _ in range(2999):
        e = ECtor(CtorName("S", 1), (e,))
    assert repr(p) == f"Ctor({format_pattern(p)})"
    assert repr(d) == f"Ndnf({format_ndnf(d)})"
    assert repr(d.conjuncts[0]).startswith("PosConj({} & S({} & S(")
    assert repr(e) == f"ECtor({format_expr(e)})"
    assert repr(_s_value(3000)) == f"Value({_nest(3000, 'Z')})"
