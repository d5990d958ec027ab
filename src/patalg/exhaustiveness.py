"""Usefulness and exhaustiveness checking over normalized pattern matrices.

A pattern matrix is a tuple of `MatrixRow`s (right-hand sides unused).  A
pattern vector is useful for a matrix when some value vector matches the
vector but no row of the matrix; a matrix is exhaustive when the
all-wildcard vector is not useful.  The recursion is compilation's: it
specializes and defaults the first column with the matrix core of
`compiler`, and negative conjuncts require their banned constructors to be
examined explicitly.

Whenever usefulness holds, a concrete witness vector is reconstructed along
the recursion and checked against the definition.
"""

from __future__ import annotations

from typing import Optional

from .compiler import column_heads, default_rows, specialize_rows
from .normalize import Ndnf, PosConj, UnsatConj, embed_ndnf, ndnf_wildcard
from .syntax import CtorName, SoundnessError, Value, match_pos
from .typecheck import DataDecls, DeclError, Named, Type, signature_of

# Head for witness positions no constructor evidence constrains; it stands
# for an arbitrary value (open-world reading) and cannot collide with
# program constructors because the parser reserves the $ prefix.
ANY_CTOR = CtorName("$any", 0)


class SignatureError(ValueError):
    """Raised when a completeness check needs a type signature but the
    constructors at hand span no single declared type."""


def _specialize(P, ctor: CtorName) -> tuple:
    return tuple(row for row, _ in specialize_rows(P, 0, ctor))


def _default(P) -> tuple:
    return tuple(row for row, _ in default_rows(P, 0))


def _sorted(ctors):
    return sorted(ctors, key=lambda c: (c.name, c.arity))


def _owner_type(decls: DataDecls, ctors) -> Optional[Type]:
    if not ctors:
        return None
    name = decls.owner_of_all(ctors)
    if name is None:
        raise SignatureError(
            "constructors "
            + ", ".join(f"{c.name}/{c.arity}" for c in _sorted(ctors))
            + " span no single declared type"
        )
    return Named(name)


def _min_value(decls: DataDecls, tau: Type, _seen=frozenset()) -> Value:
    """A smallest value of a type; declaration order breaks ties."""
    best: Optional[Value] = None
    for ctor, arg_types in signature_of(tau, decls):
        if ctor in _seen:
            continue
        try:
            args = tuple(
                _min_value(decls, t, _seen | {ctor}) for t in arg_types
            )
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


def _height(v: Value) -> int:
    return 1 + max((_height(a) for a in v.args), default=0)


def _missing_value(decls, tau: Optional[Type], excluded) -> Value:
    """Some value whose head constructor is none of the excluded ones."""
    if tau is None:
        return Value(ANY_CTOR, ())
    for ctor, arg_types in signature_of(tau, decls):
        if ctor in excluded:
            continue
        return Value(ctor, tuple(_min_value(decls, t) for t in arg_types))
    raise AssertionError("no missing constructor despite incomplete signature")


def useful_witness(P, pvec, decls: DataDecls, col_types=None) -> Optional[tuple]:
    """A value vector matching `pvec` but no row of `P`, or None.  The
    witness is checked against both conditions; a failure raises
    SoundnessError."""
    pvec = tuple(pvec)
    if any(len(row.cells) != len(pvec) for row in P):
        raise ValueError("pattern vector width differs from matrix width")
    witness = _useful(P, pvec, decls, tuple(col_types) if col_types else None)
    if witness is not None:
        if not _matches_vector(pvec, witness):
            raise SoundnessError("usefulness witness fails the pattern vector")
        if _matrix_matches(P, witness):
            raise SoundnessError("usefulness witness is covered by a row")
    return witness


def useful(P, pvec, decls: DataDecls, col_types=None) -> bool:
    """Is some value vector matched by `pvec` but by no row of `P`?"""
    return useful_witness(P, pvec, decls, col_types) is not None


def exhaustive(P, decls: DataDecls, col_types=None) -> bool:
    """A matrix is exhaustive when the all-wildcard vector is not useful."""
    return non_exhaustiveness_witness(P, decls, col_types) is None


def non_exhaustiveness_witness(P, decls: DataDecls, col_types=None) -> Optional[tuple]:
    wild = tuple(ndnf_wildcard() for _ in range(len(P[0].cells) if P else 0))
    return useful_witness(P, wild, decls, col_types)


def _useful(P, pvec, decls, col_types) -> Optional[tuple]:
    if not pvec:
        return () if not P else None
    first = pvec[0]
    rest = pvec[1:]
    rest_types = col_types[1:] if col_types else None
    if len(first.conjuncts) != 1:
        # Externalize the disjunction; the empty disjunction never matches.
        for k in first.conjuncts:
            w = _useful(P, (Ndnf((k,)),) + rest, decls, col_types)
            if w is not None:
                return w
        return None
    k = first.conjuncts[0]
    if isinstance(k, UnsatConj):
        return None
    if isinstance(k, PosConj):
        arg_types = None
        if col_types:
            arg_types = _arg_types_for(decls, col_types[0], k.ctor)
        sub_types = (arg_types + rest_types) if arg_types is not None else None
        sub = _useful(
            _specialize(P, k.ctor),
            tuple(Ndnf((a,)) for a in k.args) + rest,
            decls,
            sub_types,
        )
        if sub is None:
            return None
        n = k.ctor.arity
        return (Value(k.ctor, sub[:n]),) + sub[n:]
    # Negative conjunct, which includes the plain wildcard.
    pos_heads, neg_heads = column_heads([row.cells[0] for row in P])
    mentioned = pos_heads | neg_heads | k.banned
    tau: Optional[Type] = col_types[0] if col_types else None
    if tau is None and mentioned:
        tau = _owner_type(decls, mentioned)
    missing_exists = True
    signature: tuple = ()
    if tau is not None:
        signature = tuple(c for c, _ in signature_of(tau, decls))
        missing_exists = bool(set(signature) - mentioned)
    if not missing_exists:
        # Complete signature: try every constructor the vector allows.
        candidates = [c for c in signature if c not in k.banned]
    else:
        # Banned heads behave differently across the negative rows and must
        # be examined one by one; everything else is covered by a single
        # default step on some head absent from the whole column.
        candidates = [c for c in _sorted(neg_heads) if c not in k.banned]
    for ctor in candidates:
        sub_pvec = tuple(ndnf_wildcard() for _ in range(ctor.arity)) + rest
        arg_types = (
            _arg_types_for(decls, tau, ctor) if (col_types and tau) else None
        )
        sub_types = (arg_types + rest_types) if arg_types is not None else None
        sub = _useful(_specialize(P, ctor), sub_pvec, decls, sub_types)
        if sub is not None:
            n = ctor.arity
            return (Value(ctor, sub[:n]),) + sub[n:]
    if missing_exists:
        sub = _useful(_default(P), rest, decls, rest_types)
        if sub is not None:
            return (_missing_value(decls, tau, mentioned),) + sub
    return None


def _arg_types_for(decls, tau, ctor):
    try:
        for c, arg_types in signature_of(tau, decls):
            if c == ctor:
                return tuple(arg_types)
    except DeclError:
        return None
    return None


def _matches_vector(pvec, values) -> bool:
    return all(
        bool(match_pos(embed_ndnf(cell), v)) for cell, v in zip(pvec, values)
    )


def _matrix_matches(P, values) -> bool:
    return any(_matches_vector(row.cells, values) for row in P)
