"""Parser for the surface language.

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

from .semantics import Call, Clause, ECase, ECtor, EVar, subterms
from .syntax import (
    Absurd,
    And,
    Ctor,
    CtorName,
    Neg,
    Node,
    Or,
    Pattern,
    Value,
    Var,
    Wild,
)
from .typecheck import DataDecls, DeclError, Named, Type

KEYWORDS = {"data", "def", "main", "case", "of", "default"}


class ParseError(Exception):
    def __init__(self, line: int, col: int, message: str):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col
        self.message = message


class Def(Node):
    # params: tuple of (name, Type | None); body: an expression, possibly
    # containing Call nodes
    __slots__ = ("name", "params", "body")


class Program:
    __slots__ = ("decls", "defs", "main", "_named")

    def __init__(self, decls: DataDecls, named: dict, main: object | None = None):
        # named: each definition by its name, in source order
        self.decls, self.defs, self.main = decls, tuple(named.values()), main
        self._named = named

    def lookup(self, name: str) -> Def | None:
        return self._named.get(name)

    def table(self) -> dict:
        """The definition table `semantics.step` unfolds calls with: name to
        parameter names and body."""
        return {name: (tuple(p for p, _ in d.params), d.body) for name, d in self._named.items()}


# --- tokenizer ---------------------------------------------------------------


class Token:
    __slots__ = ("kind", "text", "offset")

    def __init__(self, kind: str, text: str, offset: int):
        # kind: "ident", "ctor", "punct" or "eof"; offset: of the first character
        self.kind, self.text, self.offset = kind, text, offset


def position(source: str, offset: int) -> tuple:
    """The (line, column) of `source[offset]`, both counted from 1: only a
    newline starts a line, and every other character is one column."""
    start = source.rfind("\n", 0, offset) + 1
    return source.count("\n", 0, start) + 1, offset - start + 1


_PUNCT2 = ("=>", ":=")
_PUNCT1 = "(){},;=|&!_#:"


def tokenize(source: str) -> list:
    tokens = []
    i, n = 0, len(source)
    while i < n:
        ch = source[i]
        if ch.isspace():
            i += 1
        elif ch.isalnum() or ch == "$":
            start = i
            i += 1
            while i < n and (source[i].isalnum() or source[i] in "_$"):
                i += 1
            text = source[start:i]
            if "$" in text:
                raise ParseError(*position(source, start), "identifiers containing $ are reserved")
            tokens.append(Token("ident" if text[0].islower() else "ctor", text, start))
        elif source.startswith("--", i):
            end = source.find("\n", i)
            if end < 0:
                break  # the end of the input sits where this comment starts
            i = end
        elif source[i : i + 2] in _PUNCT2:
            tokens.append(Token("punct", source[i : i + 2], i))
            i += 2
        elif ch in _PUNCT1:
            tokens.append(Token("punct", ch, i))
            i += 1
        else:
            raise ParseError(*position(source, i), f"unexpected character {ch!r}")
    tokens.append(Token("eof", "", i))
    return tokens


# --- parser ------------------------------------------------------------------


class _Parser:
    def __init__(self, source: str):
        self.source, self.tokens, self.pos = source, tokenize(source), 0
        self.type_names: list = []  # each type name token, to resolve once all is read

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        t = self.tokens[self.pos]
        self.pos += 1
        return t

    def error(self, message: str, tok: Token | None = None) -> ParseError:
        return ParseError(*position(self.source, (tok or self.peek()).offset), message)

    # `text` is never empty, so the eof token (text "") never matches it.

    def expect(self, text: str) -> Token:
        t = self.tokens[self.pos]
        if t.text != text:
            raise self.error(f"expected {text!r}, found {t.text!r}", t)
        self.pos += 1
        return t

    def at(self, text: str) -> bool:
        return self.tokens[self.pos].text == text

    # --- programs ---

    def parse_program(self) -> Program:
        decl_table: dict = {}
        defs: dict = {}
        main = None
        while (t := self.peek()).kind != "eof":
            if t.text == "data":
                name, ctors = self.parse_data()
                if name in decl_table:
                    raise self.error(f"type {name} declared twice", t)
                decl_table[name] = ctors
            elif t.text == "def":
                d = self.parse_def()
                if d.name in defs:
                    raise self.error(f"definition {d.name} declared twice", t)
                defs[d.name] = d
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
        for tok in self.type_names:
            if tok.text not in decl_table:
                raise self.error(f"unknown type {tok.text}", tok)
        try:
            decls = DataDecls(decl_table)
        except DeclError as err:
            raise ParseError(1, 1, str(err)) from err
        return Program(decls, defs, main)

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
        self.type_names.append(tok)
        return Named(tok.text)

    def parse_def(self) -> Def:
        self.expect("def")
        name_tok = self.next()
        if name_tok.kind != "ident" or name_tok.text in KEYWORDS:
            raise self.error("definition names start lowercase", name_tok)
        self.expect("(")
        params: dict = {}
        if not self.at(")"):
            self.parse_param(params)
            while self.at(","):
                self.next()
                self.parse_param(params)
        self.expect(")")
        self.expect(":=")
        body = self.parse_expr()
        self.expect(";")
        return Def(name_tok.text, tuple(params.items()), body)

    def parse_param(self, params: dict) -> None:
        """Reads one parameter into `params`, its name to its annotation or None."""
        tok = self.next()
        if tok.kind != "ident" or tok.text in KEYWORDS:
            raise self.error("parameter names start lowercase", tok)
        if tok.text in params:
            raise self.error(f"parameter {tok.text} declared twice", tok)
        ann = None
        if self.at(":"):
            self.next()
            ann = self.parse_type()
        params[tok.text] = ann

    # --- expressions ---

    def parse_expr(self):
        # Constructor and call arguments nest as deep as the data they
        # spell, so open argument lists live on an explicit stack of
        # (head token, arguments so far); case expressions recurse, as
        # their depth is program structure.
        stack: list = []
        while True:
            t = self.peek()
            if t.text == "case":
                e = self.parse_case()
            elif t.kind == "ctor" or (t.kind == "ident" and t.text not in KEYWORDS):
                self.next()
                if self.at("("):
                    self.next()
                    if not self.at(")"):
                        stack.append((t, []))
                        continue
                    self.next()
                    e = _apply(t, [])
                else:
                    e = _apply(t, []) if t.kind == "ctor" else EVar(t.text)
            else:
                raise self.error(f"expected an expression, found {t.text!r}", t)
            while stack:
                head, args = stack[-1]
                args.append(e)
                if self.at(","):
                    self.next()
                    break
                self.expect(")")
                stack.pop()
                e = _apply(head, args)
            else:
                return e

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
        # Patterns nest as deep as the data they spell, so the open
        # parentheses and constructor argument lists live on an explicit
        # stack.  A frame is (opening token, arguments so far, disjunction
        # so far, conjunction so far, pending `!`s): the token is None at
        # the top, and the arguments are None in a parenthesis.  The
        # innermost frame is held in the locals.  `!` binds tighter than
        # `&`, which binds tighter than `|`, and both nest to the left.
        stack: list = []
        head = args = disj = conj = None
        negs = 0
        while True:
            t = self.next()
            while t.text == "!":
                negs += 1
                t = self.next()
            opens = t.text == "("
            if t.kind == "ctor" and self.at("("):
                self.next()
                opens = not self.at(")")
                if not opens:
                    self.next()  # `C()` is the nullary `C`
            if opens:
                stack.append((head, args, disj, conj, negs))
                head, args = t, [] if t.kind == "ctor" else None
                disj = conj = None
                negs = 0
                continue
            if t.kind == "ctor":
                p: Pattern = Ctor(CtorName(t.text, 0), ())
            elif t.text == "_":
                p = Wild()
            elif t.text == "#":
                p = Absurd()
            elif t.kind == "ident" and t.text not in KEYWORDS:
                p = Var(t.text)
            else:
                raise self.error(f"expected a pattern, found {t.text!r}", t)
            # Close what `p` completes, up to the next operator or comma.
            while True:
                for _ in range(negs):
                    p = Neg(p)
                negs = 0
                conj = p if conj is None else And(conj, p)
                op = self.peek().text
                if op == "&":
                    break
                disj = conj if disj is None else Or(disj, conj)
                conj = None
                if op == "|":
                    break
                p, disj = disj, None
                if head is None:
                    return p
                if args is not None:
                    args.append(p)
                    if op == ",":
                        break
                    p = Ctor(CtorName(head.text, len(args)), tuple(args))
                self.expect(")")
                head, args, disj, conj, negs = stack.pop()
            self.next()  # the `&`, `|` or `,` that ends `p`


def _apply(head: Token, args: list):
    """The constructor application or call that `head` starts."""
    if head.kind == "ctor":
        return ECtor(CtorName(head.text, len(args)), tuple(args))
    return Call(head.text, tuple(args))


# --- entry points ----------------------------------------------------------------


def parse(source: str) -> Program:
    return _Parser(source).parse_program()


def _whole(source: str, rule, what: str):
    """What `rule` reads, which must be all of `source`."""
    p = _Parser(source)
    result = rule(p)
    if p.peek().kind != "eof":
        raise p.error(f"trailing input after {what}")
    return result


def parse_pattern(source: str) -> Pattern:
    return _whole(source, _Parser.parse_pattern, "pattern")


def parse_expr(source: str):
    return _whole(source, _Parser.parse_expr, "expression")


def parse_value(source: str) -> Value:
    e = parse_expr(source)
    if not isinstance(e, Value):
        raise ParseError(1, 1, "expected a ground constructor value")
    return e


# --- reference validation ------------------------------------------------------------


def undeclared_ctors(prog: Program):
    """Constructor occurrences not covered by the declarations (name and
    arity must both match), in the order one pre-order walk meets them."""
    missing: list = []
    bodies = [d.body for d in prog.defs]
    if prog.main is not None:
        bodies.append(prog.main)
    for body in bodies:
        for node, _ in subterms(body):
            if isinstance(node, (ECtor, Value)):
                if prog.decls.owner(node.ctor) is None:
                    missing.append(node.ctor)
            elif isinstance(node, Clause):
                todo = [node.pattern]
                while todo:
                    p = todo.pop()
                    if isinstance(p, Ctor):
                        if prog.decls.owner(p.ctor) is None:
                            missing.append(p.ctor)
                        todo.extend(reversed(p.args))
                    elif isinstance(p, (And, Or)):
                        todo += (p.right, p.left)
                    elif isinstance(p, Neg):
                        todo.append(p.sub)
    return tuple(dict.fromkeys(missing))

