"""Shared builders for the test suite."""

import itertools
from collections import Counter

from patalg import overlap, syntax
from patalg.compiler import Leaf, MatrixRow, default_rows, specialize_each
from patalg.exhaustiveness import SignatureError
from patalg.normalize import (
    WILDCARD_CONJ,
    Ndnf,
    NegConj,
    PosConj,
    embed_ndnf,
    ndnf_wildcard,
    neg_ctor_head,
    to_ndnf,
)
from patalg.parser import KEYWORDS, _Parser
from patalg.pretty import format_pattern
from patalg.semantics import (
    DEFAULT_FUEL,
    Diverged,
    ECase,
    ECtor,
    EVar,
    Evaluated,
    IsValue,
    Nondeterministic,
    Stuck,
    step,
)
from patalg.syntax import (
    Absurd,
    And,
    Ctor,
    CtorName,
    Mapping,
    Neg,
    Or,
    Value,
    Var,
    Wild,
    fv_even,
    fv_odd,
)
from patalg.typecheck import DataDecls, DeclError, Ill, Named, Typed, signature_of
from patalg.wellformed import PatternFacts, Violation, WfReport, pattern_facts


def cn(name, arity=0):
    return CtorName(name, arity)


def c(name, *args):
    """Constructor pattern; arity from the argument count."""
    return Ctor(CtorName(name, len(args)), tuple(args))


def v(name, *args):
    """Value; arity from the argument count."""
    return Value(CtorName(name, len(args)), tuple(args))


def var(name):
    return Var(name)


def pattern_matrix(rows):
    """Usefulness matrix from tuples of cells: rows without right-hand sides."""
    return tuple(MatrixRow(tuple(r)) for r in rows)


def eval_by_steps(e, fuel=DEFAULT_FUEL, defs=None):
    """Reference evaluator: iterate `step` from the root, one unit of fuel
    per step.  `semantics.eval` must give the same outcome."""
    cur = e
    for _ in range(fuel):
        r = step(cur, defs)
        if isinstance(r, IsValue):
            return Evaluated(cur)
        if isinstance(r, Stuck):
            return Stuck()
        if len(r.successors) > 1:
            return Nondeterministic()
        cur = r.successors[0]
    return Diverged()


COLOR = DataDecls(
    {"Color": ((cn("Red"), ()), (cn("Green"), ()), (cn("Blue"), ()))}
)

DAYS = DataDecls(
    {"Day": tuple((cn(d), ()) for d in ("Mo", "Tu", "We", "Th", "Fr", "Sa", "Su"))}
)

BOOL_LIST = DataDecls(
    {
        "B": ((cn("True"), ()), (cn("False"), ())),
        "List": ((cn("Nil"), ()), (CtorName("Cons", 2), (Named("B"), Named("List")))),
    }
)

T = v("True")
F = v("False")


# --- reference wellformedness: recursive facts, every pair of clauses ---------


def linear_pos_by_recursion(p):
    """Reference positive linearity, recomputing free variables at every
    node; `wellformed.linear_pos` must agree."""
    if isinstance(p, (Var, Wild, Absurd)):
        return True
    if isinstance(p, Or):
        return (
            linear_pos_by_recursion(p.left)
            and linear_pos_by_recursion(p.right)
            and fv_even(p.left) == fv_even(p.right)
        )
    if isinstance(p, And):
        return (
            linear_pos_by_recursion(p.left)
            and linear_pos_by_recursion(p.right)
            and not (fv_even(p.left) & fv_even(p.right))
        )
    if isinstance(p, Neg):
        return linear_neg_by_recursion(p.sub)
    if not all(linear_pos_by_recursion(a) for a in p.args):
        return False
    seen = set()
    for a in p.args:
        fv = fv_even(a)
        if seen & fv:
            return False
        seen |= fv
    return True


def linear_neg_by_recursion(p):
    """Reference negative linearity; `wellformed.linear_neg` must agree."""
    if isinstance(p, (Var, Wild, Absurd)):
        return True
    if isinstance(p, Or):
        return (
            linear_neg_by_recursion(p.left)
            and linear_neg_by_recursion(p.right)
            and not (fv_odd(p.left) & fv_odd(p.right))
        )
    if isinstance(p, And):
        return (
            linear_neg_by_recursion(p.left)
            and linear_neg_by_recursion(p.right)
            and fv_odd(p.left) == fv_odd(p.right)
        )
    if isinstance(p, Neg):
        return linear_pos_by_recursion(p.sub)
    return all(linear_neg_by_recursion(a) for a in p.args) and all(
        not fv_odd(a) for a in p.args
    )


def deterministic_by_recursion(p, decls=None):
    """Reference determinism, deciding each side condition where the
    recursion meets it; `wellformed.deterministic` must agree, and raise
    where this raises."""
    if isinstance(p, (Var, Wild, Absurd)):
        return True
    if isinstance(p, Neg):
        return deterministic_by_recursion(p.sub, decls)
    if isinstance(p, (Or, And)):
        if not (
            deterministic_by_recursion(p.left, decls)
            and deterministic_by_recursion(p.right, decls)
        ):
            return False
        if isinstance(p, Or):
            if not fv_even(p.left) and not fv_even(p.right):
                return True
            return disjoint_by_pairs(p.left, p.right, decls)
        if not fv_odd(p.left) and not fv_odd(p.right):
            return True
        return disjoint_by_pairs(Neg(p.left), Neg(p.right), decls)
    return all(deterministic_by_recursion(a, decls) for a in p.args)


_NO_VARS = frozenset()


def _union_vars(a, b):
    return a | b if a and b else a or b


def pattern_facts_by_stack(p):
    """Reference `wellformed.pattern_facts`: one post-order pass over every
    occurrence of every subpattern, on an explicit stack.  The fold must
    give the same fields, its pairs in the same order."""
    # First every node, each before its children and a later child before
    # an earlier one, so that the reverse order is a left-to-right
    # post-order.
    nodes = []
    todo = [p]
    while todo:
        node = todo.pop()
        nodes.append(node)
        kind = type(node)
        if kind is Ctor:
            todo.extend(node.args)
        elif kind is Or or kind is And:
            todo.append(node.left)
            todo.append(node.right)
        elif kind is Neg:
            todo.append(node.sub)
        elif kind is not Var and kind is not Wild and kind is not Absurd:
            raise TypeError(f"not a pattern: {node!r}")
    pairs: list = []
    done: list = []  # (fv_even, fv_odd, linear_pos, linear_neg) of finished subpatterns
    for node in reversed(nodes):
        kind = type(node)
        if kind is Ctor:
            start = len(done) - len(node.args)
            args = done[start:]
            del done[start:]
            fe = fo = _NO_VARS
            lp = ln = True
            for a_fe, a_fo, a_lp, a_ln in args:
                # Pairwise disjointness of the bindable variables; strictly
                # stronger than an n-ary intersection for three or more
                # arguments, and what properness of the produced
                # substitutions requires.
                lp = lp and a_lp and not (fe & a_fe)
                ln = ln and a_ln and not a_fo
                fe, fo = _union_vars(fe, a_fe), _union_vars(fo, a_fo)
            done.append((fe, fo, lp, ln))
        elif kind is Or:
            r_fe, r_fo, r_lp, r_ln = done.pop()
            l_fe, l_fo, l_lp, l_ln = done.pop()
            if l_fe or r_fe:
                pairs.append((node.left, node.right))
            lp = l_lp and r_lp and l_fe == r_fe
            ln = l_ln and r_ln and not (l_fo & r_fo)
            done.append((_union_vars(l_fe, r_fe), _union_vars(l_fo, r_fo), lp, ln))
        elif kind is And:
            r_fe, r_fo, r_lp, r_ln = done.pop()
            l_fe, l_fo, l_lp, l_ln = done.pop()
            if l_fo or r_fo:
                pairs.append((Neg(node.left), Neg(node.right)))
            lp = l_lp and r_lp and not (l_fe & r_fe)
            ln = l_ln and r_ln and l_fo == r_fo
            done.append((_union_vars(l_fe, r_fe), _union_vars(l_fo, r_fo), lp, ln))
        elif kind is Neg:
            fe, fo, lp, ln = done.pop()
            done.append((fo, fe, ln, lp))
        elif kind is Var:
            done.append((frozenset((node.name,)), _NO_VARS, True, True))
        else:
            done.append((_NO_VARS, _NO_VARS, True, True))
    return PatternFacts(*done.pop(), tuple(pairs))


def wf_expr_all_pairs(e, decls=None):
    """Reference `wellformed.wf_expr`: the recursive checks above, and the
    overlap check deciding every pair of clauses in (i, j) order, reporting
    a pair whose ban sets fit no declared type."""
    out = []
    _wf_all_pairs(e, (), decls, out)
    return WfReport(tuple(out))


def _wf_all_pairs(e, path, decls, out):
    if isinstance(e, (EVar, Value)):
        return
    if isinstance(e, ECase):
        _wf_all_pairs(e.scrutinee, path + (0,), decls, out)
        ndnfs = []
        for i, cl in enumerate(e.clauses):
            cpath = path + (i + 1,)
            shown = format_pattern(cl.pattern)
            if not deterministic_by_recursion(cl.pattern, decls):
                out.append(
                    Violation(
                        "nondeterministic",
                        cpath,
                        f"pattern {shown} can bind differently across derivations",
                    )
                )
            if not linear_pos_by_recursion(cl.pattern):
                out.append(
                    Violation(
                        "nonlinear", cpath, f"pattern {shown} is not positively linear"
                    )
                )
            ndnfs.append(to_ndnf(cl.pattern))
            _wf_all_pairs(cl.rhs, cpath, decls, out)
        for i in range(len(e.clauses)):
            for j in range(i + 1, len(e.clauses)):
                try:
                    if not decide_by_pairs(ndnfs[i], ndnfs[j], decls):
                        continue
                    rule, says = "overlap", "overlap"
                except overlap.OverlapTypeError as err:
                    rule, says = "overlap-type", f"cannot be compared by type: {err}"
                out.append(
                    Violation(
                        rule,
                        path + (i + 1,),
                        f"clause patterns "
                        f"{format_pattern(e.clauses[i].pattern)} and "
                        f"{format_pattern(e.clauses[j].pattern)} {says}",
                    )
                )
        _wf_all_pairs(e.default_rhs, path + (len(e.clauses) + 1,), decls, out)
        return
    for i, a in enumerate(e.args):
        _wf_all_pairs(a, path + (i,), decls, out)


def wf_matrix_all_pairs(m):
    """Reference `wellformed.wf_matrix`: the same per-row checks, and the
    overlap check deciding every pair of rows in (i, j) order."""
    out = []
    scrutinee_vars = {s.name for s in m.scrutinees if isinstance(s, EVar)}
    for r, row in enumerate(m.rows):
        fvs = []
        for col, cell in enumerate(row.cells):
            facts = pattern_facts(embed_ndnf(cell))
            if not deterministic_by_recursion(embed_ndnf(cell)):
                out.append(
                    Violation(
                        "nondeterministic", (r, col), "cell pattern is not deterministic"
                    )
                )
            if not facts.linear_pos:
                out.append(
                    Violation(
                        "nonlinear", (r, col), "cell pattern is not positively linear"
                    )
                )
            fvs.append(facts.fv_even)
        seen = set()
        for col, fv in enumerate(fvs):
            if seen & fv:
                out.append(
                    Violation(
                        "shared-variables",
                        (r, col),
                        f"variables {sorted(seen & fv)} bound in more than "
                        f"one column of the row",
                    )
                )
            seen |= fv
        if seen & scrutinee_vars:
            out.append(
                Violation(
                    "shadows-scrutinee",
                    (r,),
                    f"variables {sorted(seen & scrutinee_vars)} bound under "
                    f"the name of a scrutinee",
                )
            )
    for i in range(len(m.rows)):
        for j in range(i + 1, len(m.rows)):
            cells = zip(m.rows[i].cells, m.rows[j].cells)
            if not any(not decide_by_pairs(a, b) for a, b in cells):
                out.append(
                    Violation("overlap", (i, j), f"rows {i} and {j} overlap in every column")
                )
    return WfReport(tuple(out))


# --- reference specialization: one constructor per pass -----------------------


def specialize_rows(rows, i, ctor):
    """Rows for values whose column-i head is `ctor`, one pass per
    constructor; `compiler.specialize_each` must give the same (row, vars)
    pairs in the same order for every constructor it is asked for."""
    out = []
    for row in rows:
        rest = row.cells[:i] + row.cells[i + 1 :]
        for k in row.cells[i].conjuncts:
            if isinstance(k, PosConj) and k.ctor == ctor:
                front = tuple(Ndnf((a,)) for a in k.args)
            elif isinstance(k, NegConj) and ctor not in k.banned:
                front = tuple(ndnf_wildcard() for _ in range(ctor.arity))
            else:
                continue
            out.append((MatrixRow(front + rest, row.rhs), k.vars))
    return out


# --- reference walks: the recursive versions of the fold and printer steps ----
#
# Each recurses once per level of its input, as the package's walks did
# before they became steps of `syntax.fold` and `pretty._emit`; the rebuilt
# walks must agree with them on every input.

_OR, _AND, _NEG, _ATOM = 0, 1, 2, 3


class RecursivePatternParser(_Parser):
    """The recursive-descent pattern parser, one method per precedence
    level; `parser._Parser.parse_pattern` must agree with it."""

    def parse_pattern(self):
        p = self.parse_and_pattern()
        while self.at("|"):
            self.next()
            p = Or(p, self.parse_and_pattern())
        return p

    def parse_and_pattern(self):
        p = self.parse_neg_pattern()
        while self.at("&"):
            self.next()
            p = And(p, self.parse_neg_pattern())
        return p

    def parse_neg_pattern(self):
        if self.at("!"):
            self.next()
            return Neg(self.parse_neg_pattern())
        return self.parse_atom_pattern()

    def parse_atom_pattern(self):
        t = self.peek()
        if t.text == "_":
            self.next()
            return Wild()
        if t.text == "#":
            self.next()
            return Absurd()
        if t.text == "(":
            self.next()
            p = self.parse_pattern()
            self.expect(")")
            return p
        if t.kind == "ctor":
            self.next()
            args = []
            if self.at("("):
                self.next()
                if not self.at(")"):
                    args.append(self.parse_pattern())
                    while self.at(","):
                        self.next()
                        args.append(self.parse_pattern())
                self.expect(")")
            return Ctor(CtorName(t.text, len(args)), tuple(args))
        if t.kind == "ident" and t.text not in KEYWORDS:
            self.next()
            return Var(t.text)
        raise self.error(f"expected a pattern, found {t.text!r}", t)


def parse_pattern_by_recursion(source):
    p = RecursivePatternParser(source)
    pat = p.parse_pattern()
    if p.peek().kind != "eof":
        raise p.error("trailing input after pattern")
    return pat


def fv_even_by_recursion(p):
    if isinstance(p, Var):
        return frozenset({p.name})
    if isinstance(p, (Wild, Absurd)):
        return frozenset()
    if isinstance(p, Neg):
        return fv_odd_by_recursion(p.sub)
    if isinstance(p, (And, Or)):
        return fv_even_by_recursion(p.left) | fv_even_by_recursion(p.right)
    return frozenset().union(*(fv_even_by_recursion(a) for a in p.args))


def fv_odd_by_recursion(p):
    if isinstance(p, (Var, Wild, Absurd)):
        return frozenset()
    if isinstance(p, Neg):
        return fv_even_by_recursion(p.sub)
    if isinstance(p, (And, Or)):
        return fv_odd_by_recursion(p.left) | fv_odd_by_recursion(p.right)
    return frozenset().union(*(fv_odd_by_recursion(a) for a in p.args))


def map_vars_by_recursion(p, f):
    if isinstance(p, Var):
        return f(p)
    if isinstance(p, (Wild, Absurd)):
        return p
    if isinstance(p, Neg):
        return Neg(map_vars_by_recursion(p.sub, f))
    if isinstance(p, (And, Or)):
        return type(p)(map_vars_by_recursion(p.left, f), map_vars_by_recursion(p.right, f))
    return Ctor(p.ctor, tuple(map_vars_by_recursion(a, f) for a in p.args))


def _shown(ctx) -> str:
    return "{" + ", ".join(f"{x}: {tau.name}" for x, tau in ctx) + "}"


def type_pattern_by_recursion(p, tau, decls=None):
    if isinstance(p, Var):
        return Typed(((p.name, tau),), ())
    if isinstance(p, (Wild, Absurd)):
        return Typed((), ())
    if isinstance(p, Neg):
        r = type_pattern_by_recursion(p.sub, tau, decls)
        return r if isinstance(r, Ill) else Typed(r.delta, r.gamma)
    if isinstance(p, (And, Or)):
        r1 = type_pattern_by_recursion(p.left, tau, decls)
        r2 = type_pattern_by_recursion(p.right, tau, decls)
        for r in (r1, r2):
            if isinstance(r, Ill):
                return r
        if isinstance(p, And):
            if Counter(r1.delta) != Counter(r2.delta):
                return Ill(
                    f"conjuncts bind different negated variables: "
                    f"{_shown(r1.delta)} vs {_shown(r2.delta)}"
                )
            return Typed(r1.gamma + r2.gamma, r1.delta)
        if Counter(r1.gamma) != Counter(r2.gamma):
            return Ill(
                f"disjuncts bind different variables: {_shown(r1.gamma)} vs {_shown(r2.gamma)}"
            )
        return Typed(r1.gamma, r1.delta + r2.delta)
    try:
        sig = signature_of(tau, decls)
    except DeclError as err:
        return Ill(str(err))
    for ctor, arg_types in sig:
        if ctor == p.ctor:
            gamma, delta = (), ()
            for sub, sub_tau in zip(p.args, arg_types):
                r = type_pattern_by_recursion(sub, sub_tau, decls)
                if isinstance(r, Ill):
                    return r
                gamma += r.gamma
                delta += r.delta
            return Typed(gamma, delta)
    return Ill(f"constructor {p.ctor.name}/{p.ctor.arity} does not belong to type {tau.name}")


def embed_conjunct_by_recursion(k):
    if isinstance(k, PosConj):
        base = Ctor(k.ctor, tuple(embed_conjunct_by_recursion(a) for a in k.args))
    elif not k.banned:
        base = Wild()
    else:
        heads = [neg_ctor_head(c) for c in sorted(k.banned, key=lambda c: (c.name, c.arity))]
        base = heads[-1]
        for h in reversed(heads[:-1]):
            base = And(h, base)
    for x in sorted(k.vars, reverse=True):
        base = And(Var(x), base)
    return base


def expr_free_vars_by_recursion(e):
    if isinstance(e, Value):
        return frozenset()
    if isinstance(e, EVar):
        return frozenset({e.name})
    if isinstance(e, ECase):
        out = expr_free_vars_by_recursion(e.scrutinee) | expr_free_vars_by_recursion(
            e.default_rhs
        )
        for cl in e.clauses:
            out |= expr_free_vars_by_recursion(cl.rhs) - fv_even_by_recursion(cl.pattern)
        return out
    return frozenset().union(*(expr_free_vars_by_recursion(a) for a in e.args))


def format_pattern_by_recursion(p, _level=_OR):
    if isinstance(p, Var):
        s, level = p.name, _ATOM
    elif isinstance(p, Wild):
        s, level = "_", _ATOM
    elif isinstance(p, Absurd):
        s, level = "#", _ATOM
    elif isinstance(p, Ctor):
        s, level = p.ctor.name, _ATOM
        if p.args:
            s += "(" + ", ".join(format_pattern_by_recursion(a, _OR) for a in p.args) + ")"
    elif isinstance(p, Neg):
        s, level = f"!{format_pattern_by_recursion(p.sub, _NEG)}", _NEG
    else:
        level = _AND if isinstance(p, And) else _OR
        op = " & " if isinstance(p, And) else " | "
        s = format_pattern_by_recursion(p.left, level) + op
        s += format_pattern_by_recursion(p.right, level + 1)
    return f"({s})" if level < _level else s


def format_nconjunct_by_recursion(k):
    if isinstance(k, PosConj):
        rhs = k.ctor.name
        if k.args:
            rhs += "(" + ", ".join(format_nconjunct_by_recursion(a) for a in k.args) + ")"
    else:
        names = sorted(k.banned, key=lambda c: (c.name, c.arity))
        rhs = "!{" + ", ".join(c.name for c in names) + "}"
    return "{" + ", ".join(sorted(k.vars)) + "} & " + rhs


def format_expr_by_recursion(e):
    if isinstance(e, EVar):
        return e.name
    if isinstance(e, Value):
        if not e.args:
            return e.ctor.name
        return f"{e.ctor.name}({', '.join(format_expr_by_recursion(a) for a in e.args)})"
    if isinstance(e, ECtor):
        return f"{e.ctor.name}({', '.join(format_expr_by_recursion(a) for a in e.args)})"
    if isinstance(e, ECase):
        clauses = "".join(
            f"{format_pattern_by_recursion(cl.pattern)} => {format_expr_by_recursion(cl.rhs)}, "
            for cl in e.clauses
        )
        return (
            f"case {format_expr_by_recursion(e.scrutinee)} of "
            f"{{ {clauses}default => {format_expr_by_recursion(e.default_rhs)} }}"
        )
    return f"{e.name}({', '.join(format_expr_by_recursion(a) for a in e.args)})"


def format_tree_by_recursion(t, indent=0):
    pad = "  " * indent
    if isinstance(t, Leaf):
        return f"{pad}leaf {format_expr_by_recursion(t.rhs)}"
    lines = [f"{pad}switch {format_expr_by_recursion(t.scrutinee)} {{"]
    for arm in t.arms:
        head = arm.ctor.name
        if arm.binders:
            head += "(" + ", ".join(arm.binders) + ")"
        lines.append(f"{pad}  {head} =>")
        lines.append(format_tree_by_recursion(arm.subtree, indent + 2))
    lines.append(f"{pad}  default =>")
    lines.append(format_tree_by_recursion(t.default_arm, indent + 2))
    lines.append(f"{pad}}}")
    return "\n".join(lines)


def tree_to_obj_by_recursion(t):
    if isinstance(t, Leaf):
        return {"leaf": format_expr_by_recursion(t.rhs)}
    return {
        "switch": format_expr_by_recursion(t.scrutinee),
        "arms": [
            {
                "ctor": a.ctor.name,
                "binders": list(a.binders),
                "tree": tree_to_obj_by_recursion(a.subtree),
            }
            for a in t.arms
        ],
        "default": tree_to_obj_by_recursion(t.default_arm),
    }


# --- reference emptiness: the pairwise overlap loop and usefulness ------------
#
# The procedures the package used before overlap, exhaustiveness and typed
# overlap shared one emptiness question.  `overlap.decide` and
# `exhaustiveness.useful_witness` must agree with them.


def decide_by_pairs(a, b, decls=None):
    """Reference `overlap.decide`: true when some pair of conjuncts
    overlaps, typed by the ban sets where declarations are given."""
    return any(_conj_overlap(ka, kb, decls) for ka in a.conjuncts for kb in b.conjuncts)


def disjoint_by_pairs(p, q, decls=None):
    """Reference `overlap.disjoint`, on the normal forms of the patterns."""
    return not decide_by_pairs(to_ndnf(p), to_ndnf(q), decls)


def _conj_overlap(a, b, decls):
    if isinstance(a, NegConj) and isinstance(b, NegConj):
        if decls is None:
            return True
        banned = a.banned | b.banned
        if not banned:
            return True
        type_name = decls.owner_of_all(banned)
        if type_name is None:
            raise overlap.OverlapTypeError(
                "banned constructors "
                + ", ".join(sorted(f"{c.name}/{c.arity}" for c in banned))
                + " do not all belong to one declared type"
            )
        return banned < {c for c, _ in decls.ctors_of(type_name)}
    if isinstance(a, NegConj):
        a, b = b, a
    if isinstance(b, NegConj):
        if a.ctor in b.banned:
            return False
        return all(_conj_overlap(arg, WILDCARD_CONJ, decls) for arg in a.args)
    if a.ctor != b.ctor:
        return False
    return all(_conj_overlap(x, y, decls) for x, y in zip(a.args, b.args))


ANY = CtorName("$any", 0)


def useful_by_recursion(P, pvec, decls, col_types=None):
    """Reference usefulness (Maranget, "Warnings for pattern matching",
    JFP 2007) over rows of NDNF cells (`MatrixRow`s) and a vector of NDNF
    cells: a witness vector, or None."""
    pvec = tuple(pvec)
    if not pvec:
        return () if not P else None
    first, rest = pvec[0], pvec[1:]
    rest_types = col_types[1:] if col_types else None
    if len(first.conjuncts) != 1:
        for k in first.conjuncts:
            w = useful_by_recursion(P, (Ndnf((k,)),) + rest, decls, col_types)
            if w is not None:
                return w
        return None
    k = first.conjuncts[0]
    if isinstance(k, PosConj):
        arg_types = _arg_types_for(decls, col_types[0], k.ctor) if col_types else None
        sub = useful_by_recursion(
            tuple(row for row, _ in specialize_each(P, 0, (k.ctor,))[k.ctor]),
            tuple(Ndnf((a,)) for a in k.args) + rest,
            decls,
            (arg_types + rest_types) if arg_types is not None else None,
        )
        if sub is None:
            return None
        return (Value(k.ctor, sub[: k.ctor.arity]),) + sub[k.ctor.arity :]
    pos_heads = {k.ctor for row in P for k in row.cells[0].conjuncts if isinstance(k, PosConj)}
    neg_heads = {c for row in P for k in row.cells[0].conjuncts if isinstance(k, NegConj) for c in k.banned}
    mentioned = pos_heads | neg_heads | k.banned
    tau = col_types[0] if col_types else None
    if tau is None and mentioned:
        name = decls.owner_of_all(mentioned)
        if name is None:
            raise SignatureError(mentioned)
        tau = Named(name)
    missing_exists, signature = True, ()
    if tau is not None:
        signature = tuple(c for c, _ in signature_of(tau, decls))
        missing_exists = bool(set(signature) - mentioned)
    if not missing_exists:
        candidates = [c for c in signature if c not in k.banned]
    else:
        candidates = [c for c in _by_name(neg_heads) if c not in k.banned]
    groups = specialize_each(P, 0, candidates)
    for ctor in candidates:
        arg_types = _arg_types_for(decls, tau, ctor) if (col_types and tau) else None
        sub = useful_by_recursion(
            tuple(row for row, _ in groups.pop(ctor)),
            tuple(ndnf_wildcard() for _ in range(ctor.arity)) + rest,
            decls,
            (arg_types + rest_types) if arg_types is not None else None,
        )
        if sub is not None:
            return (Value(ctor, sub[: ctor.arity]),) + sub[ctor.arity :]
    if missing_exists:
        sub = useful_by_recursion(
            tuple(row for row, _ in default_rows(P, 0)), rest, decls, rest_types
        )
        if sub is not None:
            return (_missing_value(decls, tau, mentioned),) + sub
    return None


def _by_name(ctors):
    return sorted(ctors, key=lambda c: (c.name, c.arity))


def _arg_types_for(decls, tau, ctor):
    if isinstance(tau, Named):
        if decls is None or decls.owner(ctor) != tau.name:
            return None
        return tuple(decls.arg_types(ctor))
    for c, arg_types in signature_of(tau, decls):
        if c == ctor:
            return tuple(arg_types)
    return None


def _missing_value(decls, tau, excluded):
    if tau is None:
        return Value(ANY, ())
    for ctor, arg_types in signature_of(tau, decls):
        if ctor not in excluded:
            return Value(ctor, tuple(min_value_by_search(decls, t) for t in arg_types))
    raise AssertionError("no missing constructor despite incomplete signature")


def min_value_by_search(decls, tau, _seen=frozenset()):
    """Reference least value: the smallest value over every constructor not
    already on the path, declaration order breaking ties.  Exponential in
    the number of recursive constructors; `DataDecls.least_value` must
    agree with it."""
    best = None
    for ctor, arg_types in signature_of(tau, decls):
        if ctor in _seen:
            continue
        try:
            args = tuple(min_value_by_search(decls, t, _seen | {ctor}) for t in arg_types)
        except DeclError:
            raise
        except ValueError:
            continue
        candidate = Value(ctor, args)
        if best is None or _height(candidate) < _height(best):
            best = candidate
    if best is None:
        raise ValueError(f"type has no value: {tau!r}")
    return best


def _height(v):
    return 1 + max((_height(a) for a in v.args), default=0)


# --- reference matching: every derivation, as sets at every node ---------------


def _unions(sets):
    """The union of one substitution of each set, for every choice of them."""
    return [frozenset().union(*combo) for combo in itertools.product(*sets)]


def fresh_match_memo(monkeypatch, generation):
    """Give `syntax.match_both` an empty memo, whose young generation
    rotates at `generation` patterns, for the rest of the test."""
    monkeypatch.setattr(syntax, "GENERATION", generation)
    monkeypatch.setattr(syntax, "_match_cache", {})
    monkeypatch.setattr(syntax, "_pairs", {syntax._YES: syntax._YES, syntax._NO: syntax._NO})
    monkeypatch.setattr(syntax, "_match_memo", syntax.Generations(syntax._match_cache, syntax._pairs))


def match_both_by_recursion(p, v):
    """Reference matching with no memo: both derivation sets of every node
    are built from its operands' by the rules, read off the inference
    rules, as sets of substitutions, each a set of mappings;
    `syntax.match_both` must return the equal pair."""
    if isinstance(p, Var):
        pos, neg = [frozenset({Mapping(p.name, v)})], []
    elif isinstance(p, Wild):
        pos, neg = [frozenset()], []
    elif isinstance(p, Absurd):
        pos, neg = [], [frozenset()]
    elif isinstance(p, Neg):
        sub_pos, sub_neg = match_both_by_recursion(p.sub, v)
        pos, neg = sub_neg, sub_pos
    elif isinstance(p, (And, Or)):
        lpos, lneg = match_both_by_recursion(p.left, v)
        rpos, rneg = match_both_by_recursion(p.right, v)
        if isinstance(p, And):
            pos = _unions([lpos, rpos]) if lpos and rpos else []
            neg = list(lneg) + list(rneg)
        else:
            pos = list(lpos) + list(rpos)
            neg = _unions([lneg, rneg]) if lneg and rneg else []
    elif p.ctor != v.ctor:
        pos, neg = [], [frozenset()]
    else:
        arg_results = [match_both_by_recursion(pi, vi) for pi, vi in zip(p.args, v.args)]
        arg_pos = [r[0] for r in arg_results]
        pos = _unions(arg_pos) if all(arg_pos) else []
        neg = [s for (_, ns) in arg_results for s in ns]
    return (frozenset(pos), frozenset(neg))
