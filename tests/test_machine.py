"""The environment machine (`semantics.eval`) against the step relation.

`helpers.eval_by_steps` iterates `semantics.step` from the root; the
machine must reach the same outcome for every expression, fuel,
definition table and environment, the exact fuel boundary included.
"""

import os
import subprocess
import sys

from helpers import BOOL_LIST, c, cn, eval_by_steps, v

from patalg.oracle import enumerate_values, gen_case
from patalg.parser import parse
from patalg.semantics import (
    Call,
    Clause,
    Diverged,
    ECase,
    ECtor,
    EVar,
    Evaluated,
    Nondeterministic,
    Stuck,
    eval as eval_expr,
    substitute,
)
from patalg.syntax import And, Or, Var, Wild
from patalg.typecheck import Named

WALK = (
    "data N = Z | S(N);\n"
    "data B = T | F;\n"
    "data List = Nil | Cons(B, List);\n"
    "def len(xs) := case xs of { Nil => Z, Cons(_, t) => S(len(t)), default => Z };\n"
    "def last(xs) := case xs of {\n"
    "  Cons(x, Nil) => x,\n"
    "  Cons(_, t & Cons(_, _)) => last(t),\n"
    "  default => F\n"
    "};\n"
    "def loop(x) := loop(x);\n"
)

# Definitions whose bodies the environment machine reads differently from
# substitution unless it shadows, rebinds and compares as `step` does.
SCOPES = (
    "data B = T | F;\n"
    "data List = Nil | Cons(B, List);\n"
    "def g(y) := case T of { x => y, z => T, default => F };\n"
    "def h(x) := case x of { T => Cons(x, w), default => x };\n"
    "def rev(xs, acc) := case xs of {\n"
    "  Nil => acc,\n"
    "  Cons(x, t) => rev(t, case Cons(x, acc) of { acc => acc, default => Nil }),\n"
    "  default => acc\n"
    "};\n"
    "def heads(xs, acc) := case xs of {\n"
    "  Nil => acc,\n"
    "  Cons(x, t) => heads(t, case acc of {\n"
    "    Cons(acc, _) => Cons(x, Cons(acc, Nil)),\n"
    "    default => Cons(x, acc)\n"
    "  }),\n"
    "  default => acc\n"
    "};\n"
)

PAIR = cn("Pair", 2)


def _list(n):
    xs = v("Nil")
    for i in range(n):
        xs = v("Cons", v("TF"[i % 2]), xs)
    return xs


def _agree(e, fuels, defs=None):
    """The machine and the step loop agree at every fuel; returns the
    outcomes by fuel."""
    out = []
    for fuel in fuels:
        want = eval_by_steps(e, fuel, defs)
        got = eval_expr(e, fuel, defs)
        assert got == want, (e, fuel)
        out.append(got)
    return out


def _agree_to_the_end(e, defs=None, env=None, most=500):
    """The machine under `env`, and the machine and the step loop on `e`
    with `env` substituted, agree at every fuel from 0 until the outcome
    no longer depends on it; returns that outcome."""
    closed = substitute(e, env or {})
    for fuel in range(most):
        got = eval_expr(e, fuel, defs, env)
        want = eval_by_steps(closed, fuel, defs)
        assert got == eval_expr(closed, fuel, defs) == want, (e, env, fuel)
        if got != Diverged():
            return got
    raise AssertionError(f"no outcome within {most} contractions: {e!r}")


def test_machine_matches_steps_on_recursive_programs():
    defs = parse(WALK).table()
    xs, nat = v("Nil"), v("Z")
    for n in range(25):
        if n:
            xs, nat = v("Cons", v("TF"[(n - 1) % 2]), xs), v("S", nat)
        fuels = range(3 * n + 9)
        outcomes = _agree(Call("len", (xs,)), fuels, defs)
        # len unfolds n + 1 calls and reduces n + 1 cases; the fuel must
        # cover every contraction and one more look at the value.
        assert outcomes[2 * n + 2] == Diverged()
        assert outcomes[2 * n + 3] == Evaluated(nat)
        outcomes = _agree(Call("last", (xs,)), fuels, defs)
        assert outcomes[-1] == Evaluated(v("F" if n == 0 else "T"))


def test_machine_matches_steps_on_generated_cases_in_contexts():
    tau = Named("List")
    scrutinees = enumerate_values(BOOL_LIST, tau, 3)
    fuels = range(8)
    checked = 0
    for seed in range(40):
        inner = gen_case(BOOL_LIST, tau, seed)
        outer = gen_case(BOOL_LIST, tau, seed + 1000)
        for s in scrutinees[:: max(1, len(scrutinees) // 6)]:
            here = ECase(s, inner.clauses, inner.default_rhs)
            there = ECase(scrutinees[seed % len(scrutinees)], outer.clauses, outer.default_rhs)
            for e in (
                here,
                ECase(here, outer.clauses, outer.default_rhs),
                ECtor(PAIR, (here, there)),
                ECtor(PAIR, (v("Nil"), ECtor(PAIR, (there, here)))),
                ECase(ECtor(PAIR, (here, there)), outer.clauses, outer.default_rhs),
            ):
                _agree(e, fuels)
                checked += 1
    assert checked >= 40 * 5


def test_machine_matches_steps_when_stuck():
    defs = parse(WALK).table()
    xs = _list(3)
    fuels = range(12)
    for e, table in (
        (EVar("x"), None),
        (ECtor(PAIR, (v("T"), EVar("x"))), None),
        (ECase(EVar("x"), (Clause(Wild(), v("T")),), v("F")), None),
        (Call("len", (xs,)), None),
        (Call("nope", (xs,)), defs),
        (Call("len", (xs, xs)), defs),
        (ECtor(PAIR, (Call("len", (xs,)), Call("len", (EVar("y"),)))), defs),
        (Call("len", (ECtor(cn("Cons", 2), (v("T"), EVar("z"))),)), defs),
    ):
        outcomes = _agree(e, fuels, table)
        assert outcomes[0] == Diverged()
        assert outcomes[-1] == Stuck()


def test_machine_matches_steps_when_nondeterministic():
    overlap = ECase(v("T"), (Clause(c("T"), v("T")), Clause(Wild(), v("F"))), v("F"))
    same = ECase(v("T"), (Clause(c("T"), v("T")), Clause(Var("y"), v("T"))), v("F"))
    defs = parse(WALK).table()
    fuels = range(12)
    for e in (
        overlap,
        ECtor(PAIR, (same, overlap)),
        ECase(Call("last", (_list(2),)), (Clause(Var("r"), overlap),), v("F")),
    ):
        assert _agree(e, fuels, defs)[-1] == Nondeterministic()
    # Two clauses with one contractum are a single step.
    assert _agree(same, fuels)[-1] == Evaluated(v("T"))


def test_machine_matches_steps_when_diverging():
    defs = parse(WALK).table()
    for e in (Call("loop", (v("T"),)), ECtor(PAIR, (v("F"), Call("loop", (_list(2),))))):
        assert set(_agree(e, range(30), defs)) == {Diverged()}


def test_contracta_are_compared_under_the_outer_bindings():
    # Both clauses of `g`'s case match T, with contracta `y` and `T`: equal
    # once the parameter is bound, so the step is deterministic.
    defs = parse(SCOPES).table()
    assert _agree_to_the_end(Call("g", (v("T"),)), defs) == Evaluated(v("T"))
    assert _agree_to_the_end(Call("g", (v("F"),)), defs) == Nondeterministic()
    body = defs["g"][1]
    assert _agree_to_the_end(body, defs, {"y": v("T")}) == Evaluated(v("T"))
    assert _agree_to_the_end(body, defs, {"y": v("T"), "x": v("F")}) == Evaluated(v("T"))


def test_unbound_variable_in_a_body_is_stuck_at_the_same_fuel():
    defs = parse(SCOPES).table()
    assert _agree_to_the_end(Call("h", (v("T"),)), defs) == Stuck()
    assert _agree_to_the_end(Call("h", (v("F"),)), defs) == Evaluated(v("F"))
    # The caller's bindings do not reach into a definition's body.
    assert _agree_to_the_end(Call("h", (EVar("x"),)), defs, {"x": v("T"), "w": v("F")}) == Stuck()
    # `x & F | T` matches T by one derivation that binds nothing: its `x`
    # still shadows the outer one, and is unbound in the right-hand side.
    shadowing = ECase(v("T"), (Clause(Or(And(Var("x"), c("F")), c("T")), EVar("x")),), v("F"))
    assert _agree_to_the_end(shadowing, None, {"x": v("F")}) == Stuck()


def _elements(xs) -> list:
    out = []
    while xs.args:
        out.append(xs.args[0])
        xs = xs.args[1]
    return out


def _from_elements(elems):
    xs = v("Nil")
    for x in reversed(elems):
        xs = v("Cons", x, xs)
    return xs


def test_inner_case_rebinding_a_parameter_inside_a_recursive_call():
    # `rev` and `heads` pass as their accumulator an inner case whose
    # clause rebinds `acc`; its default still sees the parameter.
    defs = parse(SCOPES).table()
    for n in range(7):
        xs = _list(n)
        backwards = _elements(xs)[::-1]
        got = _agree_to_the_end(Call("rev", (xs, v("Nil"))), defs)
        assert got == Evaluated(_from_elements(backwards))
        got = _agree_to_the_end(Call("heads", (xs, v("Nil"))), defs)
        assert got == Evaluated(_from_elements(backwards[:2]))


def test_environment_is_substitution_on_generated_cases():
    # `eval(e, fuel, env=σ)` is `eval(substitute(e, σ), fuel)` and the step
    # loop's outcome, with σ binding the scrutinee and the names the
    # generated right-hand sides rebind.
    tau = Named("List")
    values = enumerate_values(BOOL_LIST, tau, 2)
    for seed in range(1, 13):
        e = gen_case(BOOL_LIST, tau, seed)
        for i, s in enumerate(values):
            sigma = {"s": s, "x": values[(i + seed) % len(values)], "y": v("True")}
            assert isinstance(_agree_to_the_end(e, env=sigma), Evaluated)


def test_value_equality_does_not_trust_the_hash_alone():
    # Values are interned: equal values built apart are one object, and
    # equality is identity.
    a, b = _list(50), _list(50)
    assert a is b and a == b
    different = v("Cons", v("T"), a.args[1])
    assert different is not a and different != a
    assert v("T") != "T" and v("T") != ECtor(PAIR, (v("T"), EVar("x")))


def test_deep_inputs_run_without_python_recursion(tmp_path):
    # 10,000-element lists through `patc eval` (parser, machine, printer),
    # and the machine and value equality under a recursion limit far below
    # the depth of the data.
    path = tmp_path / "walk.pat"
    path.write_text(WALK)
    n = 10_000
    xs = "Nil"
    for i in range(n):
        xs = f"Cons({'TF'[i % 2]}, {xs})"
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=src)
    for entry, want in (("len", "S(" * n + "Z" + ")" * n), ("last", "T")):
        out = subprocess.run(
            [sys.executable, "-m", "patalg.cli", "eval", str(path), "--entry", entry,
             "--fuel", "30000", "--args", xs],
            env=env,
            capture_output=True,
            text=True,
        )
        assert "Traceback" not in out.stderr, out.stderr[-500:]
        assert out.returncode == 0, out.stderr[-500:]
        assert out.stdout.strip() == want
    script = (
        "import sys\n"
        "from patalg.parser import parse\n"
        "from patalg.semantics import Call, Evaluated, eval\n"
        "from patalg.syntax import CtorName, Value\n"
        "defs = parse(open(sys.argv[1]).read()).table()\n"
        "S, Z, O = CtorName('S', 1), Value(CtorName('Z', 0), ()), Value(CtorName('O', 0), ())\n"
        "def nat(n, leaf):\n"
        "    out = leaf\n"
        "    for _ in range(n):\n"
        "        out = Value(S, (out,))\n"
        "    return out\n"
        "cons, t, nil = CtorName('Cons', 2), Value(CtorName('T', 0), ()), Value(CtorName('Nil', 0), ())\n"
        "xs = nil\n"
        "for _ in range(2000):\n"
        "    xs = Value(cons, (t, xs))\n"
        "a, b, c = nat(10000, Z), nat(10000, Z), nat(10000, O)\n"
        "want = Evaluated(nat(2000, Z))\n"
        "sys.setrecursionlimit(200)\n"
        "print(a == b, a != c, eval(Call('len', (xs,)), 5000, defs) == want)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script, str(path)], env=env, capture_output=True, text=True
    )
    assert out.returncode == 0, out.stderr[-500:]
    assert out.stdout.split() == ["True", "True", "True"]
