"""The walks built on `syntax.fold`, `pretty._emit` and the iterative
pattern parser agree with the recursive references in `helpers` on
generated patterns, normal forms, expressions and decision trees."""

import json
import random

import pytest
from helpers import (
    embed_conjunct_by_recursion,
    expr_free_vars_by_recursion,
    format_expr_by_recursion,
    format_nconjunct_by_recursion,
    format_pattern_by_recursion,
    format_tree_by_recursion,
    fv_even_by_recursion,
    fv_odd_by_recursion,
    map_vars_by_recursion,
    parse_pattern_by_recursion,
    pattern_facts_by_stack,
    substitute_by_recursion,
    tree_to_obj_by_recursion,
    type_pattern_by_recursion,
)

from patalg.compiler import compile_case
from patalg.normalize import embed_conjunct, to_ndnf
from patalg.oracle import gen_case, gen_pattern
from patalg.parser import ParseError, parse_pattern
from patalg.pretty import (
    format_expr,
    format_nconjunct,
    format_pattern,
    format_tree,
    format_trees_json,
)
from patalg.semantics import Clause, ECase, EVar, expr_free_vars, substitute, subterms
from patalg.suites import _TAUS, STANDARD_DECLS
from patalg.syntax import And, CtorName, Neg, Or, Value, Var, Wild, fv_even, fv_odd, map_vars
from patalg.typecheck import Named, type_pattern
from patalg.wellformed import pattern_facts

PER_TYPE = 420  # patterns per standard type: 2,100 in all


@pytest.fixture(scope="module")
def patterns():
    return [
        (gen_pattern(STANDARD_DECLS, tau, seed % 7, seed), tau)
        for tau in _TAUS
        for seed in range(PER_TYPE)
    ]


@pytest.fixture(scope="module")
def conjuncts(patterns):
    return [k for p, _ in patterns for q in (p, Neg(p)) for k in to_ndnf(q).conjuncts]


@pytest.fixture(scope="module")
def cases():
    """Generated cases, and the same cases nested in one another, so that
    clause binders shadow the variables of enclosing clauses."""
    flat = [
        gen_case(STANDARD_DECLS, tau, seed, scrutinee="xyzs"[seed % 4])
        for tau in _TAUS
        for seed in range(200)
    ]
    nested = []
    for outer, inner in zip(flat, flat[1:] + flat[:1]):
        clauses = tuple(Clause(c.pattern, inner) for c in outer.clauses)
        nested.append(ECase(outer.scrutinee, clauses, outer.default_rhs))
    return flat + nested


def test_enough_inputs(patterns, conjuncts, cases):
    assert min(len(patterns), len(conjuncts), len(cases)) >= 2000


def test_free_variables_and_renaming(patterns):
    def rename(x):
        return Wild() if x.name == "w" else Var(x.name + "1")

    for p, _ in patterns:
        assert fv_even(p) == fv_even_by_recursion(p)
        assert fv_odd(p) == fv_odd_by_recursion(p)
        assert map_vars(p, rename) is map_vars_by_recursion(p, rename)


def test_pattern_facts(patterns):
    # Interning makes an operand repeated in a pattern one node, which the
    # fold steps once; its side conditions still count once per occurrence.
    x = Var("x")
    shared = [
        q
        for p, _ in patterns[::4]
        for q in (Or(p, p), And(p, Neg(p)), Or(And(p, x), And(Neg(p), x)))
    ]
    repeated = 0
    for p in [p for p, _ in patterns] + shared:
        facts = pattern_facts(p)
        assert facts == pattern_facts_by_stack(p)
        repeated += len(set(facts.disjoint_pairs)) < len(facts.disjoint_pairs)
    assert repeated >= 50


def test_pattern_typing(patterns):
    wrong = Named("Color")
    for p, tau in patterns:
        for at in (tau, wrong, Named("Nope")):
            assert type_pattern(p, at, STANDARD_DECLS) == type_pattern_by_recursion(
                p, at, STANDARD_DECLS
            )
        assert type_pattern(p, tau) == type_pattern_by_recursion(p, tau)


def test_pattern_printing(patterns):
    for p, _ in patterns:
        assert format_pattern(p) == format_pattern_by_recursion(p)


def test_conjunct_embedding_and_printing(conjuncts):
    for k in conjuncts:
        assert embed_conjunct(k) is embed_conjunct_by_recursion(k)
        assert format_nconjunct(k) == format_nconjunct_by_recursion(k)


def _mappings(e):
    """Three mappings of the case's free variables and clause binders: to
    values, to `$`-named variables, and each to another of those program
    variables, which the clauses that bind it must be renamed apart from."""
    binders = {x for node, _ in subterms(e) if type(node) is Clause for x in fv_even(node.pattern)}
    names = sorted(expr_free_vars(e) | binders)
    return (
        {x: Value(CtorName(f"K{i}", 0), ()) for i, x in enumerate(names)},
        {x: EVar(f"{x}$0") for x in names},
        {x: EVar(names[(i + 1) % len(names)]) for i, x in enumerate(names)},
    )


def test_expression_walks(cases):
    renamed = 0
    for e in cases:
        assert expr_free_vars(e) == expr_free_vars_by_recursion(e)
        assert format_expr(e) == format_expr_by_recursion(e)
        for mapping in _mappings(e):
            got = substitute(e, mapping)
            assert got is substitute_by_recursion(e, mapping)
            renamed += "$r" in format_expr(got)
    assert renamed >= 500


def test_tree_printing(cases):
    for e in cases:
        t = compile_case(e)
        for indent in (0, 1):
            assert format_tree(t, indent) == format_tree_by_recursion(t, indent)
        want = {"definitions": [{"name": "f", "tree": tree_to_obj_by_recursion(t)}]}
        assert format_trees_json([("f", t)]) == json.dumps(want, indent=2)


def _parse_outcome(parse, text):
    try:
        return parse(text)
    except ParseError as err:
        return (err.line, err.col, err.message)


_EDIT_TEXT = "()!&|,_#xC \n"


def _mutate(rng, text):
    """One edit: delete, insert or replace a character, or swap two
    neighbours."""
    i = rng.randrange(len(text) + 1)
    kind = rng.randrange(4)
    if kind == 0:
        return text[:i] + text[i + 1 :]
    if kind == 1:
        return text[:i] + rng.choice(_EDIT_TEXT) + text[i:]
    if kind == 2:
        return text[:i] + rng.choice(_EDIT_TEXT) + text[i + 1 :]
    return text[:i] + text[i + 1 : i + 2] + text[i : i + 1] + text[i + 2 :]


def test_pattern_parser(patterns):
    rng = random.Random(22)
    texts = [format_pattern(p) for p, _ in patterns[::2]]
    texts += [_mutate(rng, rng.choice(texts)) for _ in range(3000)]
    failures = 0
    for text in texts:
        got = _parse_outcome(parse_pattern, text)
        want = _parse_outcome(parse_pattern_by_recursion, text)
        if isinstance(want, tuple):
            failures += 1
            assert got == want, text
        else:
            assert got is want, text
    assert len(texts) >= 4000 and failures >= 1000
