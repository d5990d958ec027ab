"""Linearity and determinism checks for patterns, and wellformedness of
expressions and clause matrices.

Linearity guarantees that matching yields proper substitutions whose domain
can be read off the pattern.  Determinism guarantees that all derivations
of a match agree on the substitution; its disjointness side conditions are
decided by the overlap procedure, which is exact for the open world, so
some patterns deterministic in a closed type are rejected (never the
other way around).  Both come from one post-order pass over a pattern
(`pattern_facts`).  The clauses of a case that overlap are found by
splitting them on their heads (`exhaustiveness.overlapping_pairs`).
"""

from __future__ import annotations

import itertools
from collections import namedtuple

from . import exhaustiveness, overlap, semantics
from .normalize import embed_ndnf
from .syntax import And, Neg, Or, Pattern, Record, Var, fold, pattern_kids


_NO_VARS: frozenset = frozenset()


def _union(a: frozenset, b: frozenset) -> frozenset:
    return a | b if a and b else a or b


_FACTS = ("fv_even", "fv_odd", "linear_pos", "linear_neg", "disjoint_pairs")


class PatternFacts(namedtuple("PatternFacts", _FACTS)):
    """The facts the wellformedness checks read: the free variables at both
    negation parities (frozensets), positive and negative linearity, and
    the pattern pairs that determinism requires to be disjoint.  The pairs
    come in the order a left-to-right post-order walk meets them: for each
    Or node binding a variable its two sides, for each And node with a
    variable under a negation the negations of its two sides.  A tuple, so
    it hashes and compares in C."""

    __slots__ = ()

    def deterministic(self, decls=None) -> bool:
        """Decides the side conditions in order and stops at the first
        that fails, as the recursive definition does."""
        return all(overlap.disjoint(p, q, decls) for p, q in self.disjoint_pairs)


def pattern_facts(p: Pattern) -> PatternFacts:
    """Free variables at both negation parities, positive and negative
    linearity and the determinism side conditions of a pattern.  One step
    of `syntax.fold` builds a node's facts from its operands', or reads
    those the node keeps, so no subpattern is walked twice and no frame is
    spent per level.  A pattern keeps its facts from the second ask on,
    and the first only marks it (the admission rule of 2Q, Johnson &
    Shasha, VLDB 1994): the suites ask once about most of the patterns
    they generate, which the match memo keeps alive."""
    facts = getattr(p, "_facts", None)
    if not facts:
        asked = facts
        fe, fo, lp, ln, pairs = fold(p, _facts_step, True, _facts_kids)
        # A node's pairs are None or a list of its operands' pairs and then
        # its own pair, so that a node costs no copy of its operands' pairs;
        # they are flattened here, once per occurrence of a shared subpattern.
        out, todo = [], [pairs or []]
        while todo:
            item = todo.pop()
            if type(item) is list:
                todo += reversed(item)
            else:
                out.append(item)
        facts = PatternFacts(fe, fo, lp, ln, tuple(out))
        object.__setattr__(p, "_facts", asked is not None and facts)
    return facts


def _facts_kids(node, positive):
    # A node that keeps its facts is a leaf of the fold.
    kids = pattern_kids(node, positive)
    return () if kids and getattr(node, "_facts", None) else kids


def _facts_step(node, _, results) -> tuple:
    """(fv_even, fv_odd, linear_pos, linear_neg, pairs) of a node: the
    facts it keeps, or built from its operands'."""
    if not results and (facts := getattr(node, "_facts", None)):
        return (*facts[:4], list(facts.disjoint_pairs) or None)
    kind = type(node)
    if kind is Var:
        return frozenset((node.name,)), _NO_VARS, True, True, None
    if kind is Neg:
        fe, fo, lp, ln, pairs = results[0]
        return fo, fe, ln, lp, pairs
    pairs = [r[4] for r in results if r[4] is not None]
    if kind is Or or kind is And:
        (l_fe, l_fo, l_lp, l_ln, *_), (r_fe, r_fo, r_lp, r_ln, *_) = results
        if kind is Or:
            if l_fe or r_fe:
                pairs.append((node.left, node.right))
            lp = l_lp and r_lp and l_fe == r_fe
            ln = l_ln and r_ln and not (l_fo & r_fo)
        else:
            if l_fo or r_fo:
                pairs.append((Neg(node.left), Neg(node.right)))
            lp = l_lp and r_lp and not (l_fe & r_fe)
            ln = l_ln and r_ln and l_fo == r_fo
        return _union(l_fe, r_fe), _union(l_fo, r_fo), lp, ln, pairs or None
    # A constructor, or a leaf with no operands.
    fe = fo = _NO_VARS
    lp = ln = True
    for a_fe, a_fo, a_lp, a_ln, _ in results:
        # Pairwise disjointness of the bindable variables; strictly stronger
        # than an n-ary intersection for three or more arguments, and what
        # properness of the produced substitutions requires.
        lp = lp and a_lp and not (fe & a_fe)
        ln = ln and a_ln and not a_fo
        fe, fo = _union(fe, a_fe), _union(fo, a_fo)
    return fe, fo, lp, ln, pairs or None


def linear_pos(p: Pattern) -> bool:
    return pattern_facts(p).linear_pos


def linear_neg(p: Pattern) -> bool:
    return pattern_facts(p).linear_neg


def deterministic(p: Pattern, decls=None) -> bool:
    return pattern_facts(p).deterministic(decls)


# --- reports -------------------------------------------------------------------


class Violation(Record):
    __slots__ = ("rule", "path", "message")  # path: child indices from the root


class CaseSite(namedtuple("CaseSite", ("case", "where"))):
    """A case expression `wf_expr` checked (`case`), with the position
    `semantics.subterms` gives it (`where`)."""

    __slots__ = ()


class WfReport(Record):
    # violations: of Violation; sites: the case sites `wf_expr` checked, in
    # pre-order, empty for matrices
    __slots__ = ("violations", "sites")
    _defaults = ((),)

    @property
    def ok(self) -> bool:
        return not self.violations

    def describe(self) -> str:
        if self.ok:
            return "ok"
        return "\n".join(
            f"[{v.rule}] at {'/'.join(map(str, v.path)) or '<root>'}: {v.message}"
            for v in self.violations
        )


def _path(where) -> tuple:
    return tuple(index for _, index in semantics.steps(where))


def wf_expr(e, decls=None) -> WfReport:
    """Wellformedness of an expression: every case clause pattern must be
    deterministic and positively linear, and clause patterns must be
    pairwise disjoint.  One walk over the expression (`semantics.subterms`)
    checks every case; a case's violations follow its scrutinee's, each
    clause's come before its right-hand side's, and its overlaps come
    after the last right-hand side's and before its default's.  A case's
    overlapping clauses are found in the open world; with declarations,
    each such pair is decided again under them.  The report keeps each
    case with its position (`sites`)."""
    from .pretty import format_pattern

    out: list = []
    sites: list = []
    open_sites: list = []  # cases whose default is not reached yet, innermost last
    for node, where in semantics.subterms(e):
        if where is not None and where[1] == semantics.DEFAULT:
            _overlaps(open_sites.pop(), decls, out)
        if type(node) is semantics.ECase:
            sites.append(CaseSite(node, where))
            open_sites.append(sites[-1])
        elif type(node) is semantics.Clause:
            facts = pattern_facts(node.pattern)
            # Constructors that fit no declared type are reported at the clause.
            try:
                det_rule = (
                    "nondeterministic",
                    facts.deterministic(decls),
                    "can bind differently across derivations",
                )
            except overlap.OverlapTypeError as err:
                det_rule = ("overlap-type", False, f"cannot be compared by type: {err}")
            for rule, holds, says in (
                det_rule,
                ("nonlinear", facts.linear_pos, "is not positively linear"),
            ):
                if not holds:
                    shown = format_pattern(node.pattern)
                    out.append(Violation(rule, _path(where), f"pattern {shown} {says}"))
    return WfReport(tuple(out), tuple(sites))


def _overlaps(site: CaseSite, decls, out: list) -> None:
    from .pretty import format_pattern

    clauses = site.case.clauses
    # Only the pairs that overlap in the open world can overlap typed.
    # Constructors that fit no declared type are reported at their pair.
    for i, j in exhaustiveness.overlapping_pairs([c.pattern for c in clauses]):
        p, q = clauses[i].pattern, clauses[j].pattern
        try:
            if decls is not None and not overlap.decide(p, q, decls):
                continue
            rule, says = "overlap", "overlap"
        except overlap.OverlapTypeError as err:
            rule, says = "overlap-type", f"cannot be compared by type: {err}"
        shown = f"clause patterns {format_pattern(p)} and {format_pattern(q)} {says}"
        out.append(Violation(rule, _path(site.where) + (i + 1,), shown))


def wf_matrix(m) -> WfReport:
    """Wellformedness of a `compiler.ClauseMatrix`: per-cell determinism and positive
    linearity, pairwise row disjointness in at least one column, and
    disjoint bindable variables across the columns of each row, none of
    them named like a scrutinee variable (compilation substitutes the
    scrutinee for bound variables step by step, and a later step would
    capture it).  Cells are read as the patterns they embed as.  Every
    pair of rows is decided; with no column, every pair overlaps."""
    out: list = []
    scrutinee_vars = {s.name for s in m.scrutinees if isinstance(s, semantics.EVar)}
    cells = [[embed_ndnf(cell) for cell in row.cells] for row in m.rows]
    cell_facts = [[pattern_facts(p) for p in row] for row in cells]
    for r, row in enumerate(cell_facts):
        for c, facts in enumerate(row):
            for rule, holds, says in (
                ("nondeterministic", facts.deterministic(), "deterministic"),
                ("nonlinear", facts.linear_pos, "positively linear"),
            ):
                if not holds:
                    out.append(Violation(rule, (r, c), f"cell pattern is not {says}"))
        seen: set = set()
        for c, facts in enumerate(row):
            if shared := seen & facts.fv_even:
                says = f"variables {sorted(shared)} bound in more than one column of the row"
                out.append(Violation("shared-variables", (r, c), says))
            seen |= facts.fv_even
        if shadowed := seen & scrutinee_vars:
            says = f"variables {sorted(shadowed)} bound under the name of a scrutinee"
            out.append(Violation("shadows-scrutinee", (r,), says))
    for i, j in itertools.combinations(range(len(m.rows)), 2):
        if all(overlap.decide(a, b) for a, b in zip(cells[i], cells[j])):
            out.append(Violation("overlap", (i, j), f"rows {i} and {j} overlap in every column"))
    return WfReport(tuple(out))
