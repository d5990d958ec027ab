"""Text rendering for patterns, values, expressions, normal forms and
decision trees.

Pattern connectives print at their surface precedence (! above & above |),
with binary operators treated as left-associative, so right-nested chains
keep their grouping parentheses.  Normalized disjunctive forms print in the
``||{ {x} & Sa, ... }`` notation.
"""

from __future__ import annotations

from .compiler import DecisionTree, Leaf
from .normalize import Ndnf, NegConj, PosConj
from .semantics import ECase, ECtor, EVar
from .syntax import Absurd, And, Ctor, Neg, Or, Pattern, Value, Var, Wild

_OR, _AND, _NEG, _ATOM = 0, 1, 2, 3


def format_pattern(p: Pattern, _level: int = _OR) -> str:
    if isinstance(p, Var):
        s, level = p.name, _ATOM
    elif isinstance(p, Wild):
        s, level = "_", _ATOM
    elif isinstance(p, Absurd):
        s, level = "#", _ATOM
    elif isinstance(p, Ctor):
        if p.args:
            inner = ", ".join(format_pattern(a, _OR) for a in p.args)
            s = f"{p.ctor.name}({inner})"
        else:
            s = p.ctor.name
        level = _ATOM
    elif isinstance(p, Neg):
        s, level = f"!{format_pattern(p.sub, _NEG)}", _NEG
    elif isinstance(p, And):
        s = f"{format_pattern(p.left, _AND)} & {format_pattern(p.right, _AND + 1)}"
        level = _AND
    elif isinstance(p, Or):
        s = f"{format_pattern(p.left, _OR)} | {format_pattern(p.right, _OR + 1)}"
        level = _OR
    else:
        raise TypeError(f"not a pattern: {p!r}")
    return f"({s})" if level < _level else s


def format_value(v: Value) -> str:
    """`C(a1, ..., an)`, or `C` for a nullary constructor.  Runs on an
    explicit stack of values and literal text, so deep values print
    without recursion."""
    out = []
    todo = [v]
    while todo:
        item = todo.pop()
        if isinstance(item, str):
            out.append(item)
        elif not item.args:
            out.append(item.ctor.name)
        else:
            out.append(f"{item.ctor.name}(")
            todo.append(")")
            for i in range(len(item.args) - 1, 0, -1):
                todo += (item.args[i], ", ")
            todo.append(item.args[0])
    return "".join(out)


def format_expr(e) -> str:
    if isinstance(e, EVar):
        return e.name
    if isinstance(e, Value):
        return format_value(e)
    if isinstance(e, ECtor):
        return f"{e.ctor.name}({', '.join(format_expr(a) for a in e.args)})"
    if isinstance(e, ECase):
        clauses = "".join(
            f"{format_pattern(c.pattern)} => {format_expr(c.rhs)}, "
            for c in e.clauses
        )
        return (
            f"case {format_expr(e.scrutinee)} of "
            f"{{ {clauses}default => {format_expr(e.default_rhs)} }}"
        )
    # Surface-language extension nodes (definition calls).
    name = getattr(e, "name", None)
    args = getattr(e, "args", None)
    if name is not None and args is not None:
        return f"{name}({', '.join(format_expr(a) for a in args)})"
    raise TypeError(f"not an expression: {e!r}")


# --- normal forms -------------------------------------------------------------


def _format_var_set(vars_) -> str:
    return "{" + ", ".join(sorted(vars_)) + "}"


def format_nconjunct(k) -> str:
    if isinstance(k, PosConj):
        if k.args:
            inner = ", ".join(format_nconjunct(a) for a in k.args)
            rhs = f"{k.ctor.name}({inner})"
        else:
            rhs = k.ctor.name
    elif isinstance(k, NegConj):
        names = sorted(k.banned, key=lambda c: (c.name, c.arity))
        rhs = "!{" + ", ".join(c.name for c in names) + "}"
    else:
        raise TypeError(f"not a normalized conjunct: {k!r}")
    return f"{_format_var_set(k.vars)} & {rhs}"


def format_ndnf(d: Ndnf) -> str:
    if not d.conjuncts:
        return "||{}"
    return "||{ " + ", ".join(format_nconjunct(k) for k in d.conjuncts) + " }"


def format_dnf(conjuncts) -> str:
    """Disjunctive normal form, conjuncts still in pattern syntax."""
    if not conjuncts:
        return "||{}"
    return "||{ " + ", ".join(format_pattern(k) for k in conjuncts) + " }"


# --- programs -------------------------------------------------------------------


def format_program(prog) -> str:
    """Surface syntax of a whole program; parsing it back yields the same
    program up to whitespace."""
    from .typecheck import format_type

    lines = []
    for type_name, ctors in prog.decls.types.items():
        rendered = []
        for ctor, arg_types in ctors:
            if arg_types:
                rendered.append(
                    f"{ctor.name}({', '.join(format_type(t) for t in arg_types)})"
                )
            else:
                rendered.append(ctor.name)
        lines.append(f"data {type_name} = {' | '.join(rendered)};")
    for d in prog.defs:
        params = ", ".join(
            name if ann is None else f"{name}: {format_type(ann)}"
            for name, ann in d.params
        )
        lines.append(f"def {d.name}({params}) := {format_expr(d.body)};")
    if prog.main is not None:
        lines.append(f"main := {format_expr(prog.main)};")
    return "\n".join(lines) + "\n"


# --- trees ---------------------------------------------------------------------


def format_tree(t: DecisionTree, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(t, Leaf):
        return f"{pad}leaf {format_expr(t.rhs)}"
    lines = [f"{pad}switch {format_expr(t.scrutinee)} {{"]
    for arm in t.arms:
        head = arm.ctor.name
        if arm.binders:
            head += "(" + ", ".join(arm.binders) + ")"
        lines.append(f"{pad}  {head} =>")
        lines.append(format_tree(arm.subtree, indent + 2))
    lines.append(f"{pad}  default =>")
    lines.append(format_tree(t.default_arm, indent + 2))
    lines.append(f"{pad}}}")
    return "\n".join(lines)


def tree_to_obj(t: DecisionTree):
    """Machine form with stable field order: switch nodes carry `switch`,
    `arms` (each with `ctor`, `binders`, `tree`) and `default`; leaves carry
    `leaf`."""
    if isinstance(t, Leaf):
        return {"leaf": format_expr(t.rhs)}
    return {
        "switch": format_expr(t.scrutinee),
        "arms": [
            {
                "ctor": a.ctor.name,
                "binders": list(a.binders),
                "tree": tree_to_obj(a.subtree),
            }
            for a in t.arms
        ],
        "default": tree_to_obj(t.default_arm),
    }
