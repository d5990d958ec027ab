"""Hash-consed syntax: every node is built through `syntax.Node`, equal
constructions give one object, equality and hashing are identity, and the
one table holding the nodes forgets a node once nothing else refers to it.
Result records are built through `syntax.Record`: equal constructions give
equal records, compared and hashed field by field."""

import gc
import inspect
import json
import os
import subprocess
import sys
import threading

import pytest
from helpers import cn

from patalg import syntax
from patalg.compiler import Arm, ClauseMatrix, Leaf, MatrixRow, Switch
from patalg.normalize import Ndnf, NegConj, PosConj, ndnf_wildcard
from patalg.oracle import Agree, Disagree
from patalg.parser import Def
from patalg.semantics import (
    Call,
    Clause,
    Diverged,
    ECase,
    ECtor,
    EVar,
    Evaluated,
    IsValue,
    Nondeterministic,
    Stepped,
    Stuck,
)
from patalg.syntax import (
    Absurd,
    And,
    Ctor,
    CtorName,
    Neg,
    Node,
    Or,
    Record,
    Value,
    Var,
    Wild,
)
from patalg.typecheck import Ill, Named, Ok, Typed
from patalg.wellformed import Violation

NODE_CLASSES = (
    CtorName, Var, Ctor, And, Or, Wild, Absurd, Neg, Value,
    PosConj, NegConj, Ndnf,
    EVar, ECtor, Clause, ECase, Call,
    MatrixRow, ClauseMatrix, Leaf, Arm, Switch,
    Named, Def,
)
RECORD_CLASSES = (
    Typed, Ok, Ill,
    Stepped, Stuck, IsValue, Evaluated, Diverged, Nondeterministic,
    Violation, Agree, Disagree,
)
CLASSES = NODE_CLASSES + RECORD_CLASSES


def _examples():
    """For each class, a function building one node of it from fresh parts."""
    x = lambda: Var("x")
    z = lambda: Value(cn("Z"), ())
    neg = lambda: NegConj(frozenset({"x"}), frozenset({cn("Z")}))
    return {
        CtorName: lambda: CtorName("S", 1),
        Var: x,
        Ctor: lambda: Ctor(cn("S", 1), (x(),)),
        And: lambda: And(x(), Wild()),
        Or: lambda: Or(x(), Absurd()),
        Wild: Wild,
        Absurd: Absurd,
        Neg: lambda: Neg(x()),
        Value: lambda: Value(cn("S", 1), (z(),)),
        PosConj: lambda: PosConj(frozenset({"y"}), cn("S", 1), (neg(),)),
        NegConj: neg,
        Ndnf: lambda: Ndnf((neg(), NegConj(frozenset(), frozenset()))),
        EVar: lambda: EVar("x"),
        ECtor: lambda: ECtor(cn("S", 1), (EVar("x"),)),
        Clause: lambda: Clause(x(), EVar("x")),
        ECase: lambda: ECase(EVar("x"), (Clause(x(), z()),), z()),
        Call: lambda: Call("f", (EVar("x"), z())),
        MatrixRow: lambda: MatrixRow((ndnf_wildcard(),), z()),
        ClauseMatrix: lambda: ClauseMatrix((EVar("x"),), (MatrixRow((ndnf_wildcard(),)),), z()),
        Leaf: lambda: Leaf(EVar("x")),
        Arm: lambda: Arm(cn("S", 1), ("$0_0",), Leaf(z())),
        Switch: lambda: Switch(EVar("x"), (Arm(cn("Z"), (), Leaf(z())),), Leaf(z())),
        Named: lambda: Named("N"),
        Typed: lambda: Typed((("x", Named("N")),), ()),
        Ok: lambda: Ok(Named("N")),
        Ill: lambda: Ill("no"),
        Stepped: lambda: Stepped((z(), EVar("x"))),
        Stuck: Stuck,
        IsValue: IsValue,
        Evaluated: lambda: Evaluated(z()),
        Diverged: Diverged,
        Nondeterministic: Nondeterministic,
        Violation: lambda: Violation("linear", (0, 1), "x twice"),
        Def: lambda: Def("f", (("x", Named("N")),), EVar("x")),
        Agree: lambda: Agree(3),
        Disagree: lambda: Disagree(z(), "differs"),
    }


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_equal_constructions_are_one_object(cls):
    # Only nodes are interned; equal records are equal, distinct objects.
    build = _examples()[cls]
    a, b = build(), build()
    assert type(a) is cls
    assert a == b and hash(a) == hash(b)
    assert (a is b) == (cls in NODE_CLASSES)


def test_ctor_over_values_is_the_interned_value():
    z = Value(cn("Z"), ())
    assert ECtor(cn("S", 1), (z,)) is Value(cn("S", 1), (z,))
    assert ECtor(cn("S", 1), [Value(cn("Z"), ())]) is ECtor(cn("S", 1), (z,))


def test_different_fields_give_different_nodes():
    assert Var("x") is not Var("y") and Var("x") != EVar("x")
    assert Value(cn("A"), ()) is not Value(cn("A", 1), (Value(cn("A"), ()),))
    assert Wild() is not Absurd() and CtorName("A", 0) is not CtorName("A", 1)


def test_arity_is_checked_when_a_node_is_first_built():
    with pytest.raises(ValueError, match="constructor S/1 applied to 0 subpatterns"):
        Ctor(cn("S", 1), ())
    with pytest.raises(ValueError, match="value constructor S/1 applied to 0 arguments"):
        Value(cn("S", 1), ())
    with pytest.raises(ValueError, match="constructor S/1 applied to 2 arguments"):
        ECtor(cn("S", 1), (EVar("x"), EVar("y")))
    with pytest.raises(TypeError):
        Var("x", "y")


def test_records_keep_their_checks_and_defaults():
    with pytest.raises(ValueError, match="row with 0 cells in a matrix of 1 scrutinees"):
        ClauseMatrix((EVar("x"),), (MatrixRow(()),), Value(cn("Z"), ()))
    assert MatrixRow(()) is MatrixRow((), None) and Agree() == Agree(0)
    with pytest.raises(TypeError):
        MatrixRow()


def test_nodes_are_immutable():
    with pytest.raises(AttributeError):
        Var("x").name = "y"


def test_records_compare_and_hash_field_by_field():
    z = Value(cn("Z"), ())
    assert Evaluated(z) == Evaluated(Value(cn("Z"), ())) and Evaluated(z) != Evaluated(EVar("z"))
    assert hash(Ok(Named("N"))) == hash(Ok(Named("N"))) and Ok(Named("N")) != Ill("N")
    assert Stuck() == Stuck() and Stuck() != IsValue() and Stuck() != ()
    assert Agree() == Agree(0) != Agree(1)
    assert len({Violation("linear", (0,), "m"), Violation("linear", (0,), "m")}) == 1
    assert Violation("linear", (0,), "m") != Violation("linear", (1,), "m")
    assert repr(Agree(2)) == "Agree(cases=2)"
    with pytest.raises(AttributeError):
        Agree(2).cases = 3
    with pytest.raises(TypeError):
        Disagree(z)
    with pytest.raises(TypeError):
        Agree(1, 2)


def test_the_table_forgets_dead_nodes():
    gc.collect()
    before = len(syntax._table)

    def build():
        return [Ctor(cn("T", 2), (Var(f"n{i}"), Wild())) for i in range(1000)]

    nodes = build()
    assert len(syntax._table) >= before + 2000
    del nodes
    gc.collect()
    assert len(syntax._table) == before


def test_a_key_whose_node_died_is_built_again():
    gc.collect()
    key = (Var, "ghost")
    node = Var("ghost")
    assert syntax._table[key]() is node
    del node
    gc.collect()
    assert key not in syntax._table
    node = Var("ghost")
    assert syntax._table[key]() is node and node.name == "ghost"
    del node

    # A dead entry whose removal has not run yet is replaced.
    class Gone:
        pass

    gone = Gone()
    syntax._table[key] = dead = syntax._Entry(gone)
    dead.key = key
    del gone
    node = Var("ghost")
    assert syntax._table[key]() is node and Var("ghost") is node
    del node
    gc.collect()
    assert key not in syntax._table


def test_a_late_forget_keeps_the_entry_of_a_node_built_since():
    # A node's removal can run after an equal node replaced its dead entry;
    # it must leave the new entry alone, and remove only a dead one.
    class Gone:
        pass

    gc.collect()
    key = (Var, "late")
    gone = Gone()
    syntax._table[key] = dead = syntax._Entry(gone)
    dead.key = key
    del gone
    node = Var("late")
    syntax._forget(dead)
    assert syntax._table[key]() is node
    del node
    assert key not in syntax._table
    syntax._table[key] = dead
    syntax._forget(dead)
    assert key not in syntax._table


def test_threads_building_equal_nodes_get_one_node():
    # A short switch interval makes the threads interleave inside
    # construction; a lost update would leave two equal nodes.
    results = [None] * 8

    def build(k):
        z = Value(cn("Z"), ())
        results[k] = [Ctor(cn("T", 2), (Var(f"t{i}"), z)) for i in range(3000)]

    threads = [threading.Thread(target=build, args=(k,)) for k in range(len(results))]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    for nodes in results[1:]:
        assert all(a is b for a, b in zip(nodes, results[0], strict=True))


def test_threads_building_and_dropping_equal_nodes_keep_one_live_entry():
    # Nodes die while other threads build equal ones, so `_forget` runs
    # between another thread's probe and its `setdefault`, and builders
    # meet dead entries that they replace.  A lost entry would leave two
    # equal nodes alive, and a stale one a key that outlives its node.
    gc.collect()
    before = len(syntax._table)
    held = [None] * 8

    def churn(k):
        z = Value(cn("Z"), ())
        for _ in range(100):
            nodes = [Ctor(cn("R", 2), (Var(f"r{i}"), z)) for i in range(40)]
        held[k] = nodes

    threads = [threading.Thread(target=churn, args=(k,)) for k in range(len(held))]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    gc.collect()
    # Nodes compare by identity, so equal lists hold the same nodes.
    assert all(nodes == held[0] for nodes in held)
    assert all(syntax._table[(Ctor, n.ctor, n.args)]() is n for n in held[0])
    del held
    gc.collect()
    assert len(syntax._table) == before


@pytest.mark.parametrize("base", (Node, Record), ids=lambda base: base.__name__)
def test_a_class_with_more_than_three_fields_is_refused(base):
    # Constructors are written out for up to three fields; a wider class
    # must not fall back to a slower generic path.
    maker = "_node_new" if base is Node else "_record_init"
    with pytest.raises(TypeError, match=f"Wide has 4 fields: add a 4-field case to syntax.{maker}"):

        class Wide(base):
            __slots__ = ("a", "b", "c", "d")


def test_each_class_builds_through_a_constructor_of_its_own_arity():
    for cls in CLASSES:
        build = cls._new if cls in NODE_CLASSES else cls.__init__
        code = build.__code__
        assert code.co_argcount == len(cls._fields) + 1, cls
        assert not code.co_flags & (inspect.CO_VARARGS | inspect.CO_VARKEYWORDS), cls
    assert "__new__" not in Node.__dict__ and "__init__" not in Record.__dict__


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_every_node_class_uses_identity_from_the_one_base(cls):
    # A record class takes field-wise equality from the one record base.
    base, other = (Node, Record) if cls in NODE_CLASSES else (Record, Node)
    assert issubclass(cls, base) and not issubclass(cls, other)
    assert "__eq__" not in cls.__dict__ and "__hash__" not in cls.__dict__
    assert cls.__eq__ is base.__eq__ and cls.__hash__ is base.__hash__
    assert Node.__eq__ is object.__eq__ and Node.__hash__ is object.__hash__


# --- deep and wide inputs -----------------------------------------------------


def _chains(n, bottom):
    """Chains of n levels over a leaf named `bottom`, one per kind of node."""
    s = cn("S", 1)
    ctor = alt = Var(bottom)
    value, expr = Value(cn(bottom), ()), EVar(bottom)
    conj = NegConj(frozenset(), frozenset({cn(bottom)}))
    for _ in range(n):
        ctor = Ctor(s, (ctor,))
        alt = Or(alt, Wild())
        value = Value(s, (value,))
        conj = PosConj(frozenset(), s, (conj,))
        expr = ECtor(s, (expr,))
    return ctor, alt, value, conj, expr


def test_deep_nodes_hash_and_compare_without_recursion():
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        first, again, other = _chains(10_000, "A"), _chains(10_000, "A"), _chains(10_000, "B")
        for a, b, c in zip(first, again, other):
            assert a is b and a == b and hash(a) == hash(b)
            assert a != c and not a == c
            table = {a: 1}
            assert b in table and c not in table
    finally:
        sys.setrecursionlimit(old)


def _wide_program(tmp_path, k):
    """One clause per constructor of the first half of k constructors, then
    `y & !(K0 | ... | K{k/2 - 1})`: the parser nests the k/2 alternatives
    k/2 deep."""
    names = [f"K{i}" for i in range(k)]
    clauses = [f"K{i} => K{i + k // 2}" for i in range(k // 2)]
    clauses.append(f"y & !({' | '.join(names[: k // 2])}) => y")
    path = tmp_path / "wide.pat"
    path.write_text(
        f"data E = {' | '.join(names)};\n"
        f"def g(x: E) := case x of {{ {', '.join(clauses)}, default => K0 }};\n"
    )
    return path


def _assert_runs_cleanly(path, *command):
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    out = subprocess.run(
        [sys.executable, "-m", "patalg.cli", command[0], str(path), *command[1:]],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
    )
    assert "Traceback" not in out.stderr + out.stdout, out.stderr[-500:]
    assert out.returncode == 0, command
    if command[0] == "check":
        assert "the default clause is unreachable" in out.stdout
        assert out.stdout.endswith("ok\n")


def test_wide_or_pattern_checks_and_compiles(tmp_path):
    # A structural hash of the 600-deep pattern could not survive it.
    path = _wide_program(tmp_path, 1200)
    for command in (
        ["check"],
        ["check", "--type-aware-overlap"],
        ["compile"],
        ["compile", "--format", "json"],
    ):
        _assert_runs_cleanly(path, *command)


def test_complement_of_a_thousand_alternatives_checks(tmp_path):
    # Normalization and typing (`typecheck.type_pattern`) fold the
    # 1,000-deep complement without recursing, and `compile` reads the case
    # off its diagram.
    path = _wide_program(tmp_path, 2000)
    for command in (
        ["check"],
        ["check", "--type-aware-overlap"],
        ["check", "--typed"],
        ["compile"],
        ["compile", "--format", "json"],
    ):
        _assert_runs_cleanly(path, *command)


# Runs `patc` under a hook registered before `main`: hooks run last in,
# first out, so it sees the heap as the interpreter's last collections do.
_EXIT_PROBE = """
import atexit, gc, sys
atexit.register(lambda: gc.get_freeze_count() or print("heap not frozen", file=sys.stderr))
from patalg.cli import main
sys.exit(main(sys.argv[1:]))
"""


def test_commands_exit_without_output_on_stderr(tmp_path):
    # The heap is frozen at exit, so the nodes that module-level memos hold
    # die one by one while the interpreter clears the modules, and `_forget`
    # runs for each; their table entries must go without an error printed.
    # The output is still written whole.
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    wide, written = _wide_program(tmp_path, 400), tmp_path / "out"
    failing = tmp_path / "bad.pat"
    failing.write_text("data C = A;\ndef f(x) := case x of { B => A, default => A };\n")

    def patc(*command, code=0):
        out = subprocess.run(
            [sys.executable, "-c", _EXIT_PROBE, *map(str, command)],
            env=dict(os.environ, PYTHONPATH=os.path.join(root, "src")),
            capture_output=True,
            text=True,
        )
        assert (out.returncode, out.stderr) == (code, ""), command
        return out.stdout

    patc("fuzz", "--suite", "algebra", "--cases", "50")
    patc("check", os.path.join(root, "demos", "lists.pat"))
    assert patc("check", failing, code=1).endswith("check failed\n")
    json.loads(patc("compile", "--format", "json", os.path.join(root, "demos", "lists.pat")))
    text = patc("compile", "--format", "json", wide)
    assert len(text) > 16384 and json.loads(text)
    assert patc("compile", "--format", "json", "-o", written, wide) == ""
    assert written.read_text(encoding="utf-8") == text


# Builds and memoizes nodes without `main`, so nothing freezes the heap.
_LIBRARY_EXIT = """
import atexit, gc, sys
atexit.register(lambda: gc.get_freeze_count() and print("heap frozen", file=sys.stderr))
from patalg.suites import run_suites
assert all(r.ok for r in run_suites("algebra", seed=1, depth=3, cases=50))
"""


def test_library_callers_exit_without_output_on_stderr():
    # A program that imports patalg without `cli.main` takes the unfrozen
    # path at exit: the last collections free the memos' nodes together with
    # their table entries, so no `_forget` runs, and nothing may be printed.
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    out = subprocess.run(
        [sys.executable, "-c", _LIBRARY_EXIT],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
    )
    assert (out.returncode, out.stderr) == (0, "")
