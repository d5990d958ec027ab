"""Linearity and determinism checks for patterns, and wellformedness of
expressions and clause matrices.

Linearity guarantees that matching yields proper substitutions whose domain
can be read off the pattern.  Determinism guarantees that all derivations
of a match agree on the substitution; its disjointness side conditions are
decided with the conservative overlap procedure, so some deterministic
patterns may be rejected (never the other way around).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from . import overlap, semantics
from .normalize import embed_ndnf, to_ndnf
from .syntax import (
    Absurd,
    And,
    Ctor,
    Neg,
    Or,
    Pattern,
    Var,
    Wild,
    fv_even,
    fv_odd,
)

if TYPE_CHECKING:
    from .compiler import ClauseMatrix


def linear_pos(p: Pattern) -> bool:
    if isinstance(p, (Var, Wild, Absurd)):
        return True
    if isinstance(p, Or):
        return (
            linear_pos(p.left)
            and linear_pos(p.right)
            and fv_even(p.left) == fv_even(p.right)
        )
    if isinstance(p, And):
        return (
            linear_pos(p.left)
            and linear_pos(p.right)
            and not (fv_even(p.left) & fv_even(p.right))
        )
    if isinstance(p, Neg):
        return linear_neg(p.sub)
    if isinstance(p, Ctor):
        if not all(linear_pos(a) for a in p.args):
            return False
        # Pairwise disjointness of the bindable variables; strictly stronger
        # than an n-ary intersection for three or more arguments, and what
        # properness of the produced substitutions requires.
        seen: set = set()
        for a in p.args:
            fv = fv_even(a)
            if seen & fv:
                return False
            seen |= fv
        return True
    raise TypeError(f"not a pattern: {p!r}")


def linear_neg(p: Pattern) -> bool:
    if isinstance(p, (Var, Wild, Absurd)):
        return True
    if isinstance(p, Or):
        return (
            linear_neg(p.left)
            and linear_neg(p.right)
            and not (fv_odd(p.left) & fv_odd(p.right))
        )
    if isinstance(p, And):
        return (
            linear_neg(p.left)
            and linear_neg(p.right)
            and fv_odd(p.left) == fv_odd(p.right)
        )
    if isinstance(p, Neg):
        return linear_pos(p.sub)
    if isinstance(p, Ctor):
        return all(linear_neg(a) for a in p.args) and all(
            not fv_odd(a) for a in p.args
        )
    raise TypeError(f"not a pattern: {p!r}")


def deterministic(p: Pattern, decls=None) -> bool:
    if isinstance(p, (Var, Wild, Absurd)):
        return True
    if isinstance(p, Neg):
        return deterministic(p.sub, decls)
    if isinstance(p, Or):
        if not (deterministic(p.left, decls) and deterministic(p.right, decls)):
            return False
        if not fv_even(p.left) and not fv_even(p.right):
            return True
        return overlap.disjoint(p.left, p.right, decls)
    if isinstance(p, And):
        if not (deterministic(p.left, decls) and deterministic(p.right, decls)):
            return False
        if not fv_odd(p.left) and not fv_odd(p.right):
            return True
        return overlap.disjoint(Neg(p.left), Neg(p.right), decls)
    if isinstance(p, Ctor):
        return all(deterministic(a, decls) for a in p.args)
    raise TypeError(f"not a pattern: {p!r}")


# --- reports -------------------------------------------------------------------


@dataclass(frozen=True)
class Violation:
    rule: str
    path: tuple  # child indices from the root
    message: str


@dataclass(frozen=True)
class WfReport:
    violations: tuple  # of Violation

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


def wf_expr(e, decls=None) -> WfReport:
    """Wellformedness of an expression: every case clause pattern must be
    deterministic and positively linear, and clause patterns must be
    pairwise disjoint."""
    out: list = []
    _wf_expr(e, (), decls, out)
    return WfReport(tuple(out))


def _wf_expr(e, path, decls, out) -> None:
    from .pretty import format_pattern

    if isinstance(e, semantics.EVar):
        return
    if isinstance(e, semantics.ECase):
        _wf_expr(e.scrutinee, path + (0,), decls, out)
        ndnfs = []
        for i, c in enumerate(e.clauses):
            cpath = path + (i + 1,)
            if not deterministic(c.pattern, decls):
                out.append(
                    Violation(
                        "nondeterministic",
                        cpath,
                        f"pattern {format_pattern(c.pattern)} can bind "
                        f"differently across derivations",
                    )
                )
            if not linear_pos(c.pattern):
                out.append(
                    Violation(
                        "nonlinear",
                        cpath,
                        f"pattern {format_pattern(c.pattern)} is not "
                        f"positively linear",
                    )
                )
            ndnfs.append(to_ndnf(c.pattern))
            _wf_expr(c.rhs, cpath, decls, out)
        for i in range(len(e.clauses)):
            for j in range(i + 1, len(e.clauses)):
                if overlap.decide(ndnfs[i], ndnfs[j], decls):
                    out.append(
                        Violation(
                            "overlap",
                            path + (i + 1,),
                            f"clause patterns "
                            f"{format_pattern(e.clauses[i].pattern)} and "
                            f"{format_pattern(e.clauses[j].pattern)} overlap",
                        )
                    )
        _wf_expr(e.default_rhs, path + (len(e.clauses) + 1,), decls, out)
        return
    if hasattr(e, "args"):
        for i, a in enumerate(e.args):
            _wf_expr(a, path + (i,), decls, out)
        return
    raise TypeError(f"not an expression: {e!r}")


def wf_matrix(m: "ClauseMatrix", decls=None) -> WfReport:
    """Wellformedness of a clause matrix: per-cell determinism and positive
    linearity, pairwise row disjointness in at least one column, and
    disjoint bindable variables across the columns of each row, none of
    them named like a scrutinee variable (compilation substitutes the
    scrutinee for bound variables step by step, and a later step would
    capture it)."""
    out: list = []
    scrutinee_vars = {s.name for s in m.scrutinees if isinstance(s, semantics.EVar)}
    for r, row in enumerate(m.rows):
        fvs = []
        for c, cell in enumerate(row.cells):
            p = embed_ndnf(cell)
            if not deterministic(p, decls):
                out.append(
                    Violation(
                        "nondeterministic", (r, c), "cell pattern is not deterministic"
                    )
                )
            if not linear_pos(p):
                out.append(
                    Violation(
                        "nonlinear", (r, c), "cell pattern is not positively linear"
                    )
                )
            fvs.append(fv_even(p))
        seen: set = set()
        for c, fv in enumerate(fvs):
            if seen & fv:
                out.append(
                    Violation(
                        "shared-variables",
                        (r, c),
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
            disjoint_somewhere = any(
                not overlap.decide(a, b, decls)
                for a, b in zip(m.rows[i].cells, m.rows[j].cells)
            )
            if not disjoint_somewhere:
                out.append(
                    Violation(
                        "overlap",
                        (i, j),
                        f"rows {i} and {j} overlap in every column",
                    )
                )
    return WfReport(tuple(out))
