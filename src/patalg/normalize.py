"""Pattern normalization, as one fold over a pattern read under a polarity.

Negation normal form (`nnf`) pushes negations inward until they sit on
variables or bare constructor heads.  Disjunctive normal form (`dnf`)
pushes disjunctions outward, giving a set of elementary conjuncts.  The
normalized disjunctive form (`to_ndnf`) does both at once and collapses
each elementary conjunct into one of two shapes: positive (a variable set
plus a constructor application) or negative (a variable set plus a set of
banned head constructors).  A conjunct that no value matches is dropped
where it arises, so a normal form holds only satisfiable conjuncts and the
empty disjunction is the one unsatisfiable form.

The three are step functions of the one post-order pattern fold
(`syntax.fold`) over (pattern, polarity) pairs, so a negation costs
nothing and no walk recurses on the depth of a pattern.  Negation normal
forms and elementary conjuncts are plain patterns satisfying a shape
invariant (`is_nnf` / `is_conjunct`, steps of the same fold); the
normalized conjuncts get their own types below, and `embed_conjunct`
folds them back into patterns.
"""

from __future__ import annotations

import itertools

from .syntax import Absurd, And, Ctor, CtorName, Neg, Node, Or, Pattern, Var, Wild, by_name, fold

# Negation normal forms, as a pattern subset.
Nnf = Pattern


def neg_ctor_head(ctor: CtorName) -> Pattern:
    """The abbreviation !C for a negated constructor with wildcard args."""
    return Neg(Ctor(ctor, tuple(Wild() for _ in range(ctor.arity))))


def _is_neg_ctor_head(p: Pattern) -> bool:
    return (
        isinstance(p, Neg)
        and isinstance(p.sub, Ctor)
        and all(isinstance(a, Wild) for a in p.sub.args)
    )


def is_nnf(p: Pattern) -> bool:
    return fold(p, _is_nnf_step)


def is_conjunct(p: Pattern) -> bool:
    """A negation normal form without disjunctions."""
    return fold(p, _is_conjunct_step)


def _is_nnf_step(node, positive, results) -> bool:
    if type(node) is Neg:
        return type(node.sub) is Var or _is_neg_ctor_head(node)
    return all(results)


def _is_conjunct_step(node, positive, results) -> bool:
    return type(node) is not Or and _is_nnf_step(node, positive, results)


def _dedup(items) -> tuple:
    return tuple(dict.fromkeys(items))


def _right_nested(op, parts: list) -> Pattern:
    out = parts[-1]
    for part in reversed(parts[:-1]):
        out = op(part, out)
    return out


# --- negation normal form ---------------------------------------------------------


def nnf(p: Pattern) -> Nnf:
    """Negation normal form; the top level starts in positive position."""
    return fold(p, _nnf_step)


def _nnf_step(node, positive, results):
    kind = type(node)
    if kind is Neg:
        return results[0]
    if kind is And or kind is Or:
        return (And if (kind is And) == positive else Or)(*results)
    if kind is Ctor:
        if positive:
            return Ctor(node.ctor, tuple(results))
        # A value fails to match C(p1..pn) by having a different head, or by
        # having the right head with some argument failing its subpattern.
        wild = (Wild(),) * node.ctor.arity
        disjuncts = [neg_ctor_head(node.ctor)]
        for i, k in enumerate(results):
            disjuncts.append(Ctor(node.ctor, wild[:i] + (k,) + wild[i + 1 :]))
        return _right_nested(Or, disjuncts)
    if positive:
        return node
    if kind is Var:
        return Neg(node)
    return Absurd() if kind is Wild else Wild()


# --- disjunctive normal form --------------------------------------------------------


def dnf(n: Nnf) -> tuple:
    """Elementary conjuncts of a pattern in negation normal form, in
    left-to-right discovery order, deduplicated."""
    return fold(n, _dnf_step)


def _dnf_step(node, positive, results):
    if not positive:
        return None  # in negation normal form every negation is an atom
    kind = type(node)
    if kind is Or:
        return _dedup(results[0] + results[1])
    if kind is And:
        return _dedup(And(a, b) for a in results[0] for b in results[1])
    if kind is Ctor:
        return _dedup(Ctor(node.ctor, args) for args in itertools.product(*results))
    if kind is Neg and not (type(node.sub) is Var or _is_neg_ctor_head(node)):
        raise ValueError(f"input not in negation normal form: {node!r}")
    return (node,)


# --- normalized disjunctive form ------------------------------------------------------


class PosConj(Node):
    """Matches values headed by `ctor`, binding them to all of `vars`."""

    __slots__ = ("vars", "ctor", "args")  # args: tuple of NConjunct, one per ctor arity


class NegConj(Node):
    """Matches values whose head constructor is not in `banned`.  With an
    empty ban set this encodes a variable ({x} & !{}) or the wildcard."""

    __slots__ = ("vars", "banned")  # banned: frozenset of CtorName


NConjunct = "PosConj | NegConj"


class Ndnf(Node):
    """Disjunction of satisfiable normalized conjuncts; the empty
    disjunction is the unsatisfiable form and behaves like the absurd
    pattern everywhere downstream."""

    __slots__ = ("conjuncts",)  # tuple of NConjunct


_NO_VARS: frozenset = frozenset()
WILDCARD_CONJ = NegConj(_NO_VARS, _NO_VARS)


def ndnf_wildcard() -> Ndnf:
    return Ndnf((WILDCARD_CONJ,))


def combine(a: NConjunct, b: NConjunct) -> NConjunct | None:
    """Merge two satisfiable conjuncts into one, or None when no value
    matches both.  Pairs of arguments are merged on an explicit stack, and
    the first pair no value matches ends the merge."""
    done: list = []  # merged conjuncts, the last ones the pending arguments
    todo: list = [(a, b, False)]
    while todo:
        a, b, build = todo.pop()
        if build:
            start = len(done) - a.ctor.arity
            done[start:] = [PosConj(a.vars | b.vars, a.ctor, tuple(done[start:]))]
        elif b is WILDCARD_CONJ or a is b:
            done.append(a)
        elif a is WILDCARD_CONJ:
            done.append(b)
        elif type(a) is PosConj and type(b) is PosConj:
            if a.ctor is not b.ctor:
                return None
            todo.append((a, b, True))
            todo.extend(zip(reversed(a.args), reversed(b.args), itertools.repeat(False)))
        elif type(a) is NegConj and type(b) is NegConj:
            if not (b.banned <= a.banned and b.vars <= a.vars):
                a = NegConj(a.vars | b.vars, a.banned | b.banned)
            done.append(a)
        else:
            pos, neg = (a, b) if type(a) is PosConj else (b, a)
            if pos.ctor in neg.banned:
                return None
            if not neg.vars <= pos.vars:
                pos = PosConj(pos.vars | neg.vars, pos.ctor, pos.args)
            done.append(pos)
    return done[0]


def to_ndnf(p: Pattern) -> Ndnf:
    """Normalized disjunctive form: the conjuncts of `dnf(nnf(p))`,
    normalized, deduplicated and in the same order, without those no value
    matches."""
    return Ndnf(fold(p, _ndnf_step))


def _ndnf_step(node, positive, results):
    kind = type(node)
    if kind is Neg:
        return results[0]
    if kind is And or kind is Or:
        left, right = results
        if (kind is Or) == positive:
            return _dedup(left + right)
        pairs = (combine(a, b) for a in left for b in right)
        return _dedup(k for k in pairs if k is not None)
    if kind is Ctor:
        c = node.ctor
        if positive:
            # The arguments' conjuncts are distinct and satisfiable, so
            # every combination of them is too.
            return tuple(PosConj(_NO_VARS, c, args) for args in itertools.product(*results))
        wild = (WILDCARD_CONJ,) * c.arity
        out = [NegConj(_NO_VARS, frozenset((c,)))]
        for i, ks in enumerate(results):
            out.extend(PosConj(_NO_VARS, c, wild[:i] + (k,) + wild[i + 1 :]) for k in ks)
        return _dedup(out)
    if kind is Var:
        # A negated variable can never be used on a right-hand side, so it
        # contributes no conjunct.
        return (NegConj(frozenset((node.name,)), _NO_VARS),) if positive else ()
    return (WILDCARD_CONJ,) if positive == (kind is Wild) else ()


# --- embedding normal forms back into patterns --------------------------------


def _conjunct_kids(k, ctx):
    if type(k) is PosConj:
        return tuple((a, ctx) for a in k.args)
    if type(k) is NegConj:
        return ()
    raise TypeError(f"not a normalized conjunct: {k!r}")


def _embed_step(k, _, results) -> Pattern:
    if type(k) is PosConj:
        base: Pattern = Ctor(k.ctor, tuple(results))
    elif not k.banned:
        base = Wild()
    else:
        base = _right_nested(And, [neg_ctor_head(c) for c in sorted(k.banned, key=by_name)])
    for x in sorted(k.vars, reverse=True):
        base = And(Var(x), base)
    return base


def embed_conjunct(k: NConjunct) -> Pattern:
    return fold(k, _embed_step, None, _conjunct_kids)


def embed_ndnf(d: Ndnf) -> Pattern:
    """Read a normalized disjunctive normal form back as a pattern; the
    empty disjunction embeds as the absurd pattern."""
    if not d.conjuncts:
        return Absurd()
    return _right_nested(Or, [embed_conjunct(k) for k in d.conjuncts])

