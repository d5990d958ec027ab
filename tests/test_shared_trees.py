"""Compiled trees are DAGs whose binders are named by occurrence, and
`compile --format json` streams them through `pretty._emit`.

Each distinct node of the case diagram compiles once, and equal subtrees
are one node.  The printers still expand shared subtrees, so
`format_trees_json` must write, byte for byte, what `json.dumps(...,
indent=2)` writes for the expanded tree (`helpers.tree_to_obj_by_recursion`)."""

import json
import pathlib

import pytest
from helpers import cn, format_tree_by_recursion, tree_to_obj_by_recursion
from test_deep_inputs import PROGRAMS

from patalg import compiler
from patalg.compiler import Arm, Leaf, Switch, compile_case
from patalg.oracle import gen_case
from patalg.parser import parse
from patalg.pretty import format_tree, format_trees_json
from patalg.semantics import ECase, EVar
from patalg.suites import _TAUS, STANDARD_DECLS

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"


def _orprod(n: int) -> str:
    """`T(A | B, …) => A, T(C, _, …) => B` over n arguments: the first
    clause's normal form has 2^n conjuncts, and its tree 3·2^n + 1 nodes."""
    return (
        "data AB = A | B | C;\n"
        f"data T = T({', '.join(['AB'] * n)});\n"
        f"def f(x) := case x of {{ T({', '.join(['A | B'] * n)}) => A, "
        f"T({', '.join(['C'] + ['_'] * (n - 1))}) => B, default => C }};\n"
    )


def _trees(source: str) -> list:
    prog = parse(source)
    return [
        (d.name, compile_case(d.body) if isinstance(d.body, ECase) else Leaf(d.body))
        for d in prog.defs
    ]


def _assert_json_matches(named) -> None:
    want = {"definitions": [{"name": n, "tree": tree_to_obj_by_recursion(t)} for n, t in named]}
    assert format_trees_json(named) == json.dumps(want, indent=2)


# --- the streamed JSON ----------------------------------------------------------


@pytest.mark.parametrize("path", sorted(DEMOS.glob("*.pat")), ids=lambda p: p.name)
def test_json_of_each_demo(path):
    _assert_json_matches(_trees(path.read_text()))


def test_json_of_orprod_and_of_empty_lists():
    named = _trees(_orprod(9))
    assert len(format_trees_json(named).splitlines()) > 1537
    _assert_json_matches(named)
    _assert_json_matches([])
    _assert_json_matches([("e", Switch(EVar("x"), (), Leaf(EVar("x"))))])


def test_shared_subtrees_print_as_expanded():
    # The printers print a shared subtree once per (node, indent) and copy
    # that text where the pair recurs.  `shared` recurs under two arms of
    # the root, as its default, and one indent deeper under `nested`; as
    # JSON an arm's tree and a default sit at different indents too.
    shared = Switch(EVar("$0_0"), (Arm(cn("A"), (), Leaf(EVar("x"))),), Leaf(EVar("$0_0")))
    nested = Switch(EVar("y"), (Arm(cn("A"), (), shared),), shared)
    arms = tuple(Arm(cn(k, 1), ("$0_0",), sub) for k, sub in (("P", shared), ("Q", nested), ("R", shared)))
    named = [("dag", Switch(EVar("x"), arms, shared)), ("orprod12", _trees(_orprod(12))[0][1])]
    for _, t in named:
        for indent in (0, 1):
            assert format_tree(t, indent) == format_tree_by_recursion(t, indent)
    _assert_json_matches(named)


@pytest.mark.parametrize("name", ["deep250.pat", "wide.pat"])
def test_json_of_deep_and_wide_programs(name):
    _assert_json_matches(_trees(PROGRAMS[name]))


def test_json_of_generated_cases():
    cases = [gen_case(STANDARD_DECLS, tau, seed) for tau in _TAUS for seed in range(40)]
    assert len(cases) == 200
    _assert_json_matches([(f"c{i}", compile_case(e)) for i, e in enumerate(cases)])


# --- sharing --------------------------------------------------------------------


def _nodes(root) -> list:
    """The distinct tree nodes reachable from `root`, each once."""
    seen: dict = {}
    todo = [root]
    while todo:
        t = todo.pop()
        if id(t) not in seen:
            seen[id(t)] = t
            if isinstance(t, Switch):
                todo += [a.subtree for a in t.arms] + [t.default_arm]
    return list(seen.values())


def _expanded(root) -> list:
    """Every subtree of the expanded tree, one per path from the root."""
    out, todo = [], [root]
    while todo:
        t = todo.pop()
        out.append(t)
        if isinstance(t, Switch):
            todo += [a.subtree for a in t.arms] + [t.default_arm]
    return out


def test_orprod_has_one_node_per_distinct_subtree():
    counts = {}
    for n in range(4, 10):
        root = compile_case(parse(_orprod(n)).defs[0].body)
        expanded = _expanded(root)
        assert len(expanded) == 3 * 2**n + 1
        distinct = {format_tree_by_recursion(t) for t in expanded}
        assert len(_nodes(root)) == len(distinct)
        counts[n] = len(distinct)
        for indent in (0, 1):
            assert format_tree(root, indent) == format_tree_by_recursion(root, indent)
    assert [counts[n] for n in (7, 8, 9)] == [11, 12, 13]
    assert all(counts[n + 1] == counts[n] + 1 for n in range(4, 9))


def test_each_distinct_diagram_node_is_stepped_once(monkeypatch):
    # The last fold of `compile_case` is over the case diagram: every step
    # builds one tree node, a Switch for each test, and every operand a
    # test lists is one edge of the diagram.  The or-product's diagram has
    # n + 4 nodes: a test of the root and one of each column, two clause
    # sinks and the false sink.
    stepped, edges, switches = [], [], []
    real = compiler.fold

    def spy(root, step, ctx, kids):
        stepped.clear()
        edges.clear()
        def spy_step(d, c, results):
            stepped.append(d)
            return step(d, c, results)

        def spy_kids(d, c):
            ks = kids(d, c)
            edges.extend(ks)
            return ks

        return real(root, spy_step, ctx, spy_kids)

    monkeypatch.setattr(compiler, "fold", spy)
    monkeypatch.setattr(compiler, "Switch", lambda *f: switches.append(f) or Switch(*f))
    for n in range(4, 10):
        switches.clear()
        root = compile_case(parse(_orprod(n)).defs[0].body)
        assert len(stepped) == len(set(stepped)) == len(_nodes(root)) == n + 4
        assert len(switches) == n + 1
        # Linear in n, where the expanded tree has 3 * 2^n + 1 nodes.
        assert len(edges) == 3 * n + 3
