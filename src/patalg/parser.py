"""Recursive-descent parser for the surface language.

Programs consist of data declarations, definitions and an optional main
expression:

    data Day = Mo | Tu | We | Th | Fr | Sa | Su;
    def isWeekend(x) := case x of { Sa | Su => True, default => False };
    main := isWeekend(Sa);

Patterns use `_` (wildcard), `#` (absurd), `!p`, `p & p` and `p | p`, with
`!` binding tighter than `&` tighter than `|`.  Variables start lowercase;
constructors start with an uppercase letter or a digit.  Identifiers
starting with `$` are reserved for the compiler.  `--` starts a line
comment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .semantics import Call, Clause, ECase, ECtor, EVar, substitute
from .syntax import (
    Absurd,
    And,
    Ctor,
    CtorName,
    Neg,
    Or,
    Pattern,
    Value,
    Var,
    Wild,
)
from .typecheck import Bool, DataDecls, DeclError, Named, Type

KEYWORDS = {"data", "def", "main", "case", "of", "default"}


class ParseError(Exception):
    def __init__(self, line: int, col: int, message: str):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col
        self.message = message


@dataclass(frozen=True)
class Def:
    name: str
    params: tuple  # of (name, Optional[Type])
    body: object  # expression, possibly containing Call nodes


@dataclass
class Program:
    decls: DataDecls
    defs: tuple  # of Def
    main: Optional[object] = None

    def lookup(self, name: str) -> Optional[Def]:
        for d in self.defs:
            if d.name == name:
                return d
        return None

    def table(self) -> dict:
        """The definition table `semantics.step` unfolds calls with: name to
        parameter names and body, the first definition of a name winning
        as in `lookup`."""
        out: dict = {}
        for d in self.defs:
            out.setdefault(d.name, (tuple(p for p, _ in d.params), d.body))
        return out


# --- tokenizer ---------------------------------------------------------------


@dataclass(frozen=True)
class Token:
    kind: str  # "ident", "ctor", "punct", "eof"
    text: str
    line: int
    col: int


_PUNCT2 = ("=>", ":=", "--")
_PUNCT1 = "(){},;=|&!_#:"


def tokenize(source: str):
    tokens = []
    line, col, i = 1, 1, 0
    n = len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if source.startswith("--", i):
            while i < n and source[i] != "\n":
                i += 1
            continue
        if ch.isalnum() or ch == "$":
            start, start_col = i, col
            while i < n and (source[i].isalnum() or source[i] == "_" or source[i] == "$"):
                i += 1
                col += 1
            text = source[start:i]
            if "$" in text:
                raise ParseError(line, start_col, "identifiers containing $ are reserved")
            kind = "ident" if text[0].islower() else "ctor"
            tokens.append(Token(kind, text, line, start_col))
            continue
        two = source[i : i + 2]
        if two in _PUNCT2:
            tokens.append(Token("punct", two, line, col))
            i += 2
            col += 2
            continue
        if ch in _PUNCT1:
            tokens.append(Token("punct", ch, line, col))
            i += 1
            col += 1
            continue
        raise ParseError(line, col, f"unexpected character {ch!r}")
    tokens.append(Token("eof", "", line, col))
    return tokens


# --- parser ------------------------------------------------------------------


class _Parser:
    def __init__(self, source: str):
        self.tokens = tokenize(source)
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        t = self.tokens[self.pos]
        self.pos += 1
        return t

    def error(self, message: str, tok: Optional[Token] = None) -> ParseError:
        t = tok or self.peek()
        return ParseError(t.line, t.col, message)

    def expect(self, text: str) -> Token:
        t = self.peek()
        if t.text != text or t.kind == "eof":
            raise self.error(f"expected {text!r}, found {t.text!r}")
        return self.next()

    def at(self, text: str) -> bool:
        return self.peek().text == text and self.peek().kind != "eof"

    # --- programs ---

    def parse_program(self) -> Program:
        decl_table: dict = {}
        defs: list = []
        main = None
        while self.peek().kind != "eof":
            t = self.peek()
            if t.text == "data":
                name, ctors = self.parse_data()
                if name in decl_table:
                    raise self.error(f"type {name} declared twice", t)
                decl_table[name] = ctors
            elif t.text == "def":
                d = self.parse_def()
                if any(existing.name == d.name for existing in defs):
                    raise self.error(f"definition {d.name} declared twice", t)
                defs.append(d)
            elif t.text == "main":
                if main is not None:
                    raise self.error("main declared twice", t)
                self.next()
                self.expect(":=")
                main = self.parse_expr()
                self.expect(";")
            else:
                raise self.error(
                    f"expected data, def or main, found {t.text!r}", t
                )
        try:
            decls = DataDecls(decl_table)
        except DeclError as err:
            raise ParseError(1, 1, str(err)) from err
        return Program(decls, tuple(defs), main)

    def parse_data(self):
        self.expect("data")
        name_tok = self.next()
        if name_tok.kind != "ctor":
            raise self.error("type names start with an uppercase letter", name_tok)
        self.expect("=")
        ctors = [self.parse_ctor_decl()]
        while self.at("|"):
            self.next()
            ctors.append(self.parse_ctor_decl())
        self.expect(";")
        return name_tok.text, tuple(ctors)

    def parse_ctor_decl(self):
        tok = self.next()
        if tok.kind != "ctor":
            raise self.error("constructor names start uppercase or with a digit", tok)
        arg_types: list = []
        if self.at("("):
            self.next()
            arg_types.append(self.parse_type())
            while self.at(","):
                self.next()
                arg_types.append(self.parse_type())
            self.expect(")")
        return CtorName(tok.text, len(arg_types)), tuple(arg_types)

    def parse_type(self) -> Type:
        tok = self.next()
        if tok.kind != "ctor":
            raise self.error("type names start with an uppercase letter", tok)
        if tok.text == "Bool":
            return Bool()
        return Named(tok.text)

    def parse_def(self) -> Def:
        self.expect("def")
        name_tok = self.next()
        if name_tok.kind != "ident" or name_tok.text in KEYWORDS:
            raise self.error("definition names start lowercase", name_tok)
        self.expect("(")
        params: list = []
        if not self.at(")"):
            params.append(self.parse_param())
            while self.at(","):
                self.next()
                params.append(self.parse_param())
        self.expect(")")
        self.expect(":=")
        body = self.parse_expr()
        self.expect(";")
        return Def(name_tok.text, tuple(params), body)

    def parse_param(self):
        tok = self.next()
        if tok.kind != "ident" or tok.text in KEYWORDS:
            raise self.error("parameter names start lowercase", tok)
        ann = None
        if self.at(":"):
            self.next()
            ann = self.parse_type()
        return (tok.text, ann)

    # --- expressions ---

    def parse_expr(self):
        t = self.peek()
        if t.text == "case":
            return self.parse_case()
        if t.kind == "ctor":
            self.next()
            args: list = []
            if self.at("("):
                self.next()
                if not self.at(")"):
                    args.append(self.parse_expr())
                    while self.at(","):
                        self.next()
                        args.append(self.parse_expr())
                self.expect(")")
            return ECtor(CtorName(t.text, len(args)), tuple(args))
        if t.kind == "ident" and t.text not in KEYWORDS:
            self.next()
            if self.at("("):
                self.next()
                args = []
                if not self.at(")"):
                    args.append(self.parse_expr())
                    while self.at(","):
                        self.next()
                        args.append(self.parse_expr())
                self.expect(")")
                return Call(t.text, tuple(args))
            return EVar(t.text)
        raise self.error(f"expected an expression, found {t.text!r}", t)

    def parse_case(self):
        self.expect("case")
        scrutinee = self.parse_expr()
        self.expect("of")
        self.expect("{")
        clauses: list = []
        default_rhs = None
        while True:
            if self.at("default"):
                self.next()
                self.expect("=>")
                default_rhs = self.parse_expr()
                break
            if self.at("}"):
                raise self.error("every case expression needs a default clause")
            pattern = self.parse_pattern()
            self.expect("=>")
            rhs = self.parse_expr()
            clauses.append(Clause(pattern, rhs))
            self.expect(",")
        if self.at(","):
            self.next()
        self.expect("}")
        return ECase(scrutinee, tuple(clauses), default_rhs)

    # --- patterns ---

    def parse_pattern(self) -> Pattern:
        p = self.parse_and_pattern()
        while self.at("|"):
            self.next()
            p = Or(p, self.parse_and_pattern())
        return p

    def parse_and_pattern(self) -> Pattern:
        p = self.parse_neg_pattern()
        while self.at("&"):
            self.next()
            p = And(p, self.parse_neg_pattern())
        return p

    def parse_neg_pattern(self) -> Pattern:
        if self.at("!"):
            self.next()
            return Neg(self.parse_neg_pattern())
        return self.parse_atom_pattern()

    def parse_atom_pattern(self) -> Pattern:
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
            args: list = []
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


# --- entry points ----------------------------------------------------------------


def parse(source: str) -> Program:
    return _Parser(source).parse_program()


def parse_pattern(source: str) -> Pattern:
    p = _Parser(source)
    pat = p.parse_pattern()
    if p.peek().kind != "eof":
        raise p.error("trailing input after pattern")
    return pat


def parse_expr(source: str):
    p = _Parser(source)
    e = p.parse_expr()
    if p.peek().kind != "eof":
        raise p.error("trailing input after expression")
    return e


def parse_value(source: str) -> Value:
    e = parse_expr(source)
    return _expr_value(e)


def _expr_value(e) -> Value:
    if isinstance(e, ECtor):
        return Value(e.ctor, tuple(_expr_value(a) for a in e.args))
    raise ParseError(1, 1, "expected a ground constructor value")


# --- reference validation ------------------------------------------------------------


def undeclared_ctors(prog: Program):
    """Constructor occurrences not covered by the declarations (name and
    arity must both match)."""
    missing: list = []

    def walk_pattern(p):
        if isinstance(p, Ctor):
            if prog.decls.owner(p.ctor) is None:
                missing.append(p.ctor)
            for a in p.args:
                walk_pattern(a)
        elif isinstance(p, (And, Or)):
            walk_pattern(p.left)
            walk_pattern(p.right)
        elif isinstance(p, Neg):
            walk_pattern(p.sub)

    def walk_expr(e):
        if isinstance(e, ECtor):
            if prog.decls.owner(e.ctor) is None:
                missing.append(e.ctor)
            for a in e.args:
                walk_expr(a)
        elif isinstance(e, ECase):
            walk_expr(e.scrutinee)
            for c in e.clauses:
                walk_pattern(c.pattern)
                walk_expr(c.rhs)
            walk_expr(e.default_rhs)
        elif isinstance(e, Call):
            for a in e.args:
                walk_expr(a)

    for d in prog.defs:
        walk_expr(d.body)
    if prog.main is not None:
        walk_expr(prog.main)
    return tuple(dict.fromkeys(missing))


# --- definition unfolding -------------------------------------------------------------


class UnfoldLimit(RuntimeError):
    pass


def inline_calls(e, prog: Program, budget: int = 1000):
    """Statically unfold definition calls; raises UnfoldLimit when the
    budget runs out (recursive definitions)."""
    remaining = [budget]

    def go(e):
        if isinstance(e, EVar):
            return e
        if isinstance(e, Call):
            d = prog.lookup(e.name)
            if d is None:
                raise ParseError(1, 1, f"call of undefined definition {e.name}")
            if len(e.args) != len(d.params):
                raise ParseError(
                    1,
                    1,
                    f"{e.name} takes {len(d.params)} arguments, got {len(e.args)}",
                )
            if remaining[0] <= 0:
                raise UnfoldLimit(e.name)
            remaining[0] -= 1
            args = [go(a) for a in e.args]
            body = substitute(
                d.body, {name: a for (name, _), a in zip(d.params, args)}
            )
            return go(body)
        if isinstance(e, ECase):
            return ECase(
                go(e.scrutinee),
                tuple(Clause(c.pattern, go(c.rhs)) for c in e.clauses),
                go(e.default_rhs),
            )
        if isinstance(e, ECtor):
            return ECtor(e.ctor, tuple(go(a) for a in e.args))
        raise TypeError(f"not an expression: {e!r}")

    return go(e)
