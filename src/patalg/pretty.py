"""Text rendering for patterns, values, expressions, normal forms and
decision trees.

Pattern connectives print at their surface precedence (! above & above |),
with binary operators treated as left-associative, so right-nested chains
keep their grouping parentheses.  Normalized disjunctive forms print in the
``||{ {x} & Sa, ... }`` notation.
"""

from __future__ import annotations

from .compiler import DecisionTree, Leaf, Switch
from .normalize import Ndnf, NegConj, PosConj
from .semantics import Call, ECase, ECtor, EVar
from .syntax import Absurd, And, Ctor, Neg, Or, Pattern, Value, Var, Wild, by_name

_OR, _AND, _NEG, _ATOM = 0, 1, 2, 3
_quote = None  # a string as a JSON literal; `_load_json` sets it


def _load_json() -> None:
    """Load `_quote` from `json`, which only the JSON printers import."""
    global _quote
    from json.encoder import encode_basestring_ascii as _quote


def _emit(stack: list, parts: list) -> None:
    """The one printer: pop the items of `stack` onto `parts` until it is
    empty.  An item is literal text, an index of `parts` from which the
    pieces printed so far become one JSON string literal, or a (node, ctx)
    pair that is replaced by its pieces in pre-order.  For a pattern ctx is
    the precedence level it is printed at; for a decision tree it is the
    indent level as text, or as JSON the newline and indent of the node's
    fields.  Other nodes ignore it.  Runs on the explicit stack alone, so
    deep terms print without recursion and no string outlives the text of
    its parent."""
    while stack:
        item = stack.pop()
        if type(item) is str:
            parts.append(item)
            continue
        if type(item) is int:
            parts[item:] = [_quote("".join(parts[item:]))]
            continue
        node, ctx = item
        kind = type(node)
        if kind is PosConj or kind is NegConj:
            # `{x, y} & ` and the ban set, or the head as a constructor's.
            parts.append("{" + ", ".join(sorted(node.vars)) + "} & ")
            if kind is NegConj:
                names = sorted(node.banned, key=by_name)
                parts.append("!{" + ", ".join(c.name for c in names) + "}")
                continue
        if kind is Value or kind is Ctor or kind is ECtor or kind is Call or kind is PosConj:
            # `C(a1, ..., an)`, or `C` for a nullary constructor; a call
            # always has its parentheses.
            head = node.name if kind is Call else node.ctor.name
            args = node.args
            if not args and kind is not Call:
                parts.append(head)
                continue
            parts.append(f"{head}(")
            stack.append(")")
            for i in range(len(args) - 1, 0, -1):
                stack += ((args[i], _OR), ", ")
            if args:
                stack.append((args[0], _OR))
        elif kind is Var or kind is EVar:
            parts.append(node.name)
        elif kind is Wild or kind is Absurd:
            parts.append("_" if kind is Wild else "#")
        elif kind is Neg or kind is And or kind is Or:
            level = _NEG if kind is Neg else _AND if kind is And else _OR
            if level < ctx:
                parts.append("(")
                stack.append(")")
            if kind is Neg:
                stack.append((node.sub, _NEG))
                parts.append("!")
            else:
                op = " & " if kind is And else " | "
                stack += ((node.right, level + 1), op, (node.left, level))
        elif kind is ECase:
            stack += (" }", (node.default_rhs, None), "default => ")
            for c in reversed(node.clauses):
                stack += (", ", (c.rhs, None), " => ", (c.pattern, _OR))
            stack += (" of { ", (node.scrutinee, None))
            parts.append("case ")
        elif type(ctx) is str and (kind is Leaf or kind is Switch):
            # The node's dict as `json.dumps(..., indent=2)` writes it.
            end = ctx[:-2] + "}"
            if kind is Leaf:
                parts.append(f'{{{ctx}"leaf": ')
                stack += (end, len(parts), (node.rhs, None))
                continue
            # The indents of an arm, of its fields, and of its binders and
            # its tree's fields.
            arm_pad, field_pad, inner_pad = ctx + "  ", ctx + "    ", ctx + "      "
            parts.append(f'{{{ctx}"switch": ')
            todo = [(node.scrutinee, None), len(parts), f',{ctx}"arms": [']
            for k, arm in enumerate(node.arms):
                binders = ",".join(inner_pad + _quote(b) for b in arm.binders)
                todo += (
                    f'{"," if k else ""}{arm_pad}{{{field_pad}"ctor": {_quote(arm.ctor.name)},'
                    f'{field_pad}"binders": [{binders}{field_pad if binders else ""}],'
                    f'{field_pad}"tree": ',
                    (arm.subtree, inner_pad),
                    arm_pad + "}",
                )
            pad = ctx if node.arms else ""
            todo += (f'{pad}],{ctx}"default": ', (node.default_arm, arm_pad), end)
            stack += reversed(todo)
        elif kind is Leaf:
            parts.append("  " * ctx + "leaf ")
            stack.append((node.rhs, None))
        elif kind is Switch:
            pad = "  " * ctx
            stack += (f"\n{pad}}}", (node.default_arm, ctx + 2), f"\n{pad}  default =>\n")
            for arm in reversed(node.arms):
                head = arm.ctor.name
                if arm.binders:
                    head += "(" + ", ".join(arm.binders) + ")"
                stack += ((arm.subtree, ctx + 2), f"\n{pad}  {head} =>\n")
            stack += (" {", (node.scrutinee, None))
            parts.append(f"{pad}switch ")
        else:
            raise TypeError(f"cannot print {node!r}")


def _render(node, ctx=_OR) -> str:
    parts: list = []
    _emit([(node, ctx)], parts)
    return "".join(parts)


_PRINTED = frozenset(
    (Var, Ctor, And, Or, Wild, Absurd, Neg, Value, PosConj, NegConj, EVar, ECtor, ECase, Call)
)


def format_node(node) -> str | None:
    """The text of a pattern, value, normal form or expression, which is
    its `repr`; None for any other node."""
    if type(node) is Ndnf:
        return format_ndnf(node)
    return _render(node) if type(node) in _PRINTED else None


def format_pattern(p: Pattern, _level: int = _OR) -> str:
    return _render(p, _level)


def format_value(v: Value) -> str:
    """`C(a1, ..., an)`, or `C` for a nullary constructor."""
    return _render(v)


def format_expr(e) -> str:
    return _render(e)


# --- normal forms -------------------------------------------------------------


def format_nconjunct(k) -> str:
    return _render(k)


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
    lines = []
    for type_name, ctors in prog.decls.types.items():
        rendered = []
        for ctor, arg_types in ctors:
            if arg_types:
                rendered.append(f"{ctor.name}({', '.join(t.name for t in arg_types)})")
            else:
                rendered.append(ctor.name)
        lines.append(f"data {type_name} = {' | '.join(rendered)};")
    for d in prog.defs:
        params = ", ".join(
            name if ann is None else f"{name}: {ann.name}"
            for name, ann in d.params
        )
        lines.append(f"def {d.name}({params}) := {format_expr(d.body)};")
    if prog.main is not None:
        lines.append(f"main := {format_expr(prog.main)};")
    return "\n".join(lines) + "\n"


# --- trees ---------------------------------------------------------------------


def format_tree(t: DecisionTree, indent: int = 0) -> str:
    return _render(t, indent)


def format_tree_json(t: DecisionTree) -> str:
    """The JSON of `t` as `format_trees_json` writes a definition's tree."""
    _load_json()
    return _render(t, "\n        ")


def json_definitions(printed) -> str:
    """The list of (name, JSON of the tree) pairs as `{"definitions":
    [{"name": ..., "tree": ...}, ...]}`, byte for byte as
    `json.dumps(..., indent=2)` writes it."""
    _load_json()
    parts = ['{\n  "definitions": [']
    for k, (name, text) in enumerate(printed):
        head = f'{"," if k else ""}\n    {{\n      "name": {_quote(name)},\n      "tree": '
        parts += (head, text, "\n    }")
    parts.append("\n  ]\n}" if printed else "]\n}")
    return "".join(parts)


def format_trees_json(named) -> str:
    """The (name, tree) pairs as `json_definitions` writes them: a switch
    node has `switch`, `arms` (each with `ctor`, `binders` and `tree`) and
    `default`, a leaf has `leaf`.  Shared subtrees print expanded."""
    return json_definitions([(name, format_tree_json(t)) for name, t in named])
