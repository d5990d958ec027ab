"""A small walker for the decision trees `patc compile --format json` emits.

Values are `(ctor, args)` tuples.  The walker knows only the JSON layout:
a switch node has `switch` (the scrutinee), `arms` (each with `ctor`,
`binders` and `tree`) and `default`; a leaf has `leaf`, the right-hand side
as source text.  Leaves here are constructor terms over variables.
"""

from __future__ import annotations

import re

_TOKEN = re.compile(r"\s*(?:([A-Za-z0-9_$]+)|(.))")
_BINDER = re.compile(r"\$\w+")


class TreeError(Exception):
    pass


def _tokens(text: str) -> list:
    out = []
    for m in _TOKEN.finditer(text):
        if m.group(1) or (m.group(2) and not m.group(2).isspace()):
            out.append(m.group(1) or m.group(2))
    return out


def _term(text: str, env: dict) -> tuple:
    """Read a constructor term; lowercase and $-names are variables."""
    toks = _tokens(text)
    pos = 0

    def term():
        nonlocal pos
        if pos >= len(toks):
            raise TreeError(f"truncated term {text!r}")
        tok = toks[pos]
        pos += 1
        if tok[0].islower() or tok[0] == "$":
            if tok not in env:
                raise TreeError(f"unbound variable {tok} in {text!r}")
            return env[tok]
        if not (tok[0].isupper() or tok[0].isdigit()):
            raise TreeError(f"unexpected {tok!r} in {text!r}")
        args = []
        if pos < len(toks) and toks[pos] == "(":
            pos += 1
            while True:
                args.append(term())
                if pos < len(toks) and toks[pos] == ",":
                    pos += 1
                    continue
                if pos < len(toks) and toks[pos] == ")":
                    pos += 1
                    break
                raise TreeError(f"malformed term {text!r}")
        return (tok, tuple(args))

    value = term()
    if pos != len(toks):
        raise TreeError(f"trailing input in {text!r}")
    return value


def parse_value(text: str) -> tuple:
    return _term(text, {})


def show(v: tuple) -> str:
    ctor, args = v
    return f"{ctor}({', '.join(show(a) for a in args)})" if args else ctor


def run(tree: dict, env: dict) -> tuple:
    """The value a tree returns for the given scrutinee bindings."""
    env = dict(env)
    node = tree
    while "switch" in node:
        name = node["switch"]
        if name not in env:
            raise TreeError(f"switch on unbound {name}")
        ctor, args = env[name]
        for arm in node["arms"]:
            if arm["ctor"] == ctor:
                if len(arm["binders"]) != len(args):
                    raise TreeError(f"arm {ctor} binds {len(arm['binders'])} of {len(args)}")
                env.update(zip(arm["binders"], args))
                node = arm["tree"]
                break
        else:
            node = node["default"]
    if "leaf" not in node:
        raise TreeError(f"node is neither switch nor leaf: {sorted(node)}")
    return _term(node["leaf"], env)


def _children(node: dict) -> list:
    if "switch" not in node:
        return []
    return [a["tree"] for a in node["arms"]] + [node["default"]]


def _canon(node: dict) -> str:
    """The subtree's text with compiler binders renamed in order of first
    appearance, so that subtrees equal up to binder names compare equal."""
    names: dict = {}

    def rename(text: str) -> str:
        return _BINDER.sub(lambda m: names.setdefault(m.group(0), f"${len(names)}"), text)

    parts = []
    stack = [node]
    while stack:
        n = stack.pop()
        if "switch" in n:
            arms = n["arms"]
            parts.append(f"S {rename(n['switch'])} {len(arms)}")
            for a in arms:
                parts.append(f"A {a['ctor']} " + " ".join(rename(b) for b in a["binders"]))
            stack.extend(reversed(_children(n)))
        else:
            parts.append(f"L {rename(n['leaf'])}")
    return "\n".join(parts)


def shape(trees: list) -> dict:
    """Node count, longest root-to-leaf path in nodes, and the number of
    distinct subtrees up to binder renaming, over a list of trees."""
    nodes = 0
    depth = 0
    distinct = set()
    stack = [(t, 1) for t in trees]
    while stack:
        node, d = stack.pop()
        nodes += 1
        depth = max(depth, d)
        distinct.add(_canon(node))
        stack.extend((c, d + 1) for c in _children(node))
    return {
        "compiler.tree_nodes": nodes,
        "compiler.tree_depth": depth,
        "compiler.tree_distinct_subtrees": len(distinct),
    }
