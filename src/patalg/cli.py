"""The `patc` command line: check, compile, eval, norm and fuzz.

Exit codes: 0 on success, 1 when a check fails or a counterexample is
found, 2 on usage or parse errors, on files that cannot be read as UTF-8 or
written, and on a `fuzz --depth` too small for the suites' types.

`main` reads argv against one table, `COMMANDS`, in the forms argparse
accepts (see README), and prints the usage and `--help` from it.  A command
imports what only it runs: `fuzz` the suites, the JSON printers `json`.

`main` registers `gc.freeze` with `atexit` (once, however often it runs),
so the interpreter's last collections skip the heap that a run never
frees.  The hook acts on the whole process: in any process that has
called `main`, cyclic garbage left at exit is not collected and its
finalizers do not run.
"""

from __future__ import annotations

import atexit
import gc
import sys
from types import MappingProxyType, SimpleNamespace

from . import semantics, wellformed
from .compiler import CompileError, Leaf, compile_case
from .exhaustiveness import SignatureError, case_notes
from .normalize import dnf, nnf, to_ndnf
from .parser import (
    ParseError,
    Program,
    parse,
    parse_pattern,
    parse_value,
    undeclared_ctors,
)
from .pretty import (
    format_dnf,
    format_ndnf,
    format_pattern,
    format_tree,
    format_tree_json,
    format_value,
    json_definitions,
)
from .semantics import ECase
from .typecheck import Ill, Recursive, type_expr


def _load(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
    except UnicodeDecodeError as err:
        print(f"error: {path}: {err}", file=sys.stderr)
    return None


def _parse_file(path: str) -> Program | None:
    source = _load(path)
    if source is None:
        return None
    try:
        return parse(source)
    except ParseError as err:
        print(f"{path}:{err.line}:{err.col}: {err.message}", file=sys.stderr)
        return None


# --- check ---------------------------------------------------------------------


def _site_name(where) -> str:
    """The display path of a case site: `<body>`, or steps such as
    `/scrutinee`, `/clause0`, `/default` and `/0` (argument 0)."""
    parts = []
    for kind, i in semantics.steps(where):
        step = f"clause{i - 1}" if kind == semantics.CLAUSE else kind
        parts.append(f"/{i if kind == semantics.ARG else step}")
    return "".join(parts) or "<body>"


def cmd_check(args) -> int:
    prog = _parse_file(args.file)
    if prog is None:
        return 2
    decls = prog.decls
    failed = False
    if not args.untyped:
        missing = undeclared_ctors(prog)
        for ctor in missing:
            print(f"{args.file}: undeclared constructor {ctor.name}/{ctor.arity}")
        failed = failed or bool(missing)
    overlap_decls = decls if args.type_aware_overlap else None
    typed: dict = {}
    bodies = [(d.name, d.body, d.params) for d in prog.defs]
    if prog.main is not None:
        bodies.append(("main", prog.main, ()))
    for name, body, params in bodies:
        report = wellformed.wf_expr(body, overlap_decls)
        if not report.ok:
            failed = True
            for v in report.violations:
                loc = "/".join(map(str, v.path))
                print(f"{args.file}: def {name}: [{v.rule}] at {loc or 'root'}: {v.message}")
        if not args.untyped:
            for site in report.sites:
                _report_exhaustiveness(args.file, name, site, prog)
        if args.typed:
            failed = _check_types(args.file, name, body, params, prog, typed) or failed
    print("ok" if not failed else "check failed")
    return 0 if not failed else 1


def _report_exhaustiveness(path, def_name, site, prog: Program) -> None:
    """Exhaustiveness and dead clauses of a case site, under the scrutinee
    type that the constructors at the roots of its clauses name."""
    where = _site_name(site.where)
    patterns = [c.pattern for c in site.case.clauses]
    w, dead = case_notes(patterns, prog.decls)
    note = f"{path}: def {def_name}: note:"
    if isinstance(w, SignatureError):
        print(f"{note} cannot check exhaustiveness at {where}: {w}")
    else:
        says = (
            "exhaustive; the default clause is unreachable" if w is None
            else f"not exhaustive; the default clause handles e.g. {format_value(w)}"
        )
        print(f"{note} clauses at {where} are {says}")
    for shown in sorted(format_pattern(patterns[i]) for i in dead):
        print(f"{note} clause {shown} at {where} matches no value")


def _check_types(path, name, body, params, prog: Program, typed: dict) -> bool:
    """Returns True when a type error was reported; `typed` is the table of
    callee typings that `type_expr` fills for one `check`."""
    if any(ann is None for _, ann in params):
        print(
            f"{path}: def {name}: note: --typed needs parameter annotations "
            f"(def {name}(x: Type) := ...); skipped"
        )
        return False
    result = type_expr(params, body, prog.decls, prog, typed)
    if isinstance(result, Recursive):
        print(f"{path}: def {name}: note: recursive definition; typing skipped")
    elif isinstance(result, Ill):
        print(f"{path}: def {name}: type error: {result.message}")
        return True
    return False


# --- compile ---------------------------------------------------------------------


def cmd_compile(args) -> int:
    prog = _parse_file(args.file)
    if prog is None:
        return 2
    trees = []
    for d in prog.defs:
        if not isinstance(d.body, ECase):
            trees.append((d.name, Leaf(d.body)))
            continue
        try:
            trees.append((d.name, compile_case(d.body)))
        except CompileError as err:
            why = f"not wellformed:\n{err.report.describe()}" if err.report else err
            print(f"{args.file}: def {d.name}: cannot compile, {why}", file=sys.stderr)
            return 1
    printed = []
    for name, t in trees:
        try:
            tree = format_tree_json(t) if args.format == "json" else format_tree(t, indent=1)
        except MemoryError:
            print(f"{args.file}: def {name}: out of memory printing its tree", file=sys.stderr)
            return 1
        printed.append((name, tree))
    if args.format == "json":
        text = json_definitions(printed)
    else:
        text = "\n".join(line for n, tree in printed for line in (f"def {n}:", tree))
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as err:
            print(f"error: {err}", file=sys.stderr)
            return 2
    else:
        print(text)
    return 0


# --- eval -----------------------------------------------------------------------


def _split_args(text: str):
    """Split a value list on commas outside parentheses."""
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
            continue
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        cur.append(ch)
    if cur:
        parts.append("".join(cur))
    return parts


def cmd_eval(args) -> int:
    prog = _parse_file(args.file)
    if prog is None:
        return 2
    if args.entry == "main":
        if prog.main is None:
            print("error: program has no main expression", file=sys.stderr)
            return 2
        body = prog.main
        params: tuple = ()
    else:
        d = prog.lookup(args.entry)
        if d is None:
            print(f"error: no definition named {args.entry}", file=sys.stderr)
            return 2
        body, params = d.body, d.params
    arg_texts = [a for a in _split_args(args.args) if a.strip()]
    if len(arg_texts) != len(params):
        print(
            f"error: {args.entry} takes {len(params)} arguments, got {len(arg_texts)}",
            file=sys.stderr,
        )
        return 2
    try:
        values = [parse_value(t.strip()) for t in arg_texts]
    except ParseError as err:
        print(f"error: bad argument value: {err.message}", file=sys.stderr)
        return 2
    env = {name: v for (name, _), v in zip(params, values)}
    result = semantics.eval(body, args.fuel, prog.table(), env)
    if isinstance(result, semantics.Evaluated):
        print(format_value(result.value))
        return 0
    print(f"evaluation did not produce a value: {type(result).__name__}", file=sys.stderr)
    return 1


# --- norm -----------------------------------------------------------------------


def cmd_norm(args) -> int:
    try:
        p = parse_pattern(args.pattern)
    except ParseError as err:
        print(f"error: {err.message}", file=sys.stderr)
        return 2
    if args.stage == "nnf":
        print(format_pattern(nnf(p)))
    elif args.stage == "dnf":
        print(format_dnf(dnf(nnf(p))))
    else:
        print(format_ndnf(to_ndnf(p)))
    return 0


# --- fuzz -----------------------------------------------------------------------


def cmd_fuzz(args) -> int:
    # The suites and their oracle load here, not with every `patc` start.
    from .oracle import GenerationError
    from .suites import run_suites

    try:
        results = run_suites(args.suite, seed=args.seed, depth=args.depth, cases=args.cases)
    except GenerationError as err:
        print(f"error: --depth {args.depth} is too small: {err}", file=sys.stderr)
        return 2
    bad = 0
    for r in results:
        status = "ok" if r.ok else "FAIL"
        print(f"[{status}] {r.name} ({r.cases} cases)")
        for c in r.counterexamples:
            bad += 1
            print(f"    counterexample: {c}")
    return 0 if bad == 0 else 1


# --- entry ----------------------------------------------------------------------

# Each command's help, positional argument and options.  Its handler is
# `cmd_<command>`, looked up when it runs, so a patched handler is the one that
# runs.  An option is (its strings, its kind: int, str, the tuple of the values
# it takes, or None for a flag; its default, or _REQUIRED; its help).
_REQUIRED = object()
_HELP = ("-h/--help", None, False, "show this help and exit")
COMMANDS = MappingProxyType({
    "check": ("wellformedness, overlap and exhaustiveness", "file", (
        ("--typed", None, False, "also type-check bodies"),
        ("--type-aware-overlap", None, False, "use declarations to tighten the overlap check"),
        ("--untyped", None, False, "admit undeclared constructors and skip exhaustiveness"))),
    "compile": ("emit decision trees per definition", "file", (
        ("--format", ("text", "json"), "text", ""),
        ("-o/--output", str, None, "write it to OUTPUT"))),
    "eval": ("evaluate a definition applied to values", "file", (
        ("--entry", str, _REQUIRED, "the definition, or main"),
        ("--args", str, "", "its argument values: v1,v2"),
        ("--fuel", int, semantics.DEFAULT_FUEL, ""))),
    "norm": ("print normal forms of a pattern", None, (
        ("--pattern", str, _REQUIRED, "the pattern"),
        ("--stage", ("nnf", "dnf", "ndnf"), "ndnf", ""))),
    "fuzz": ("run the property suites", None, (
        ("--seed", int, 0, ""), ("--depth", int, 3, ""), ("--cases", int, 200, ""),
        ("--suite", ("all", "algebra", "compile", "exhaustive"), "all", ""))),
})


def _dest(strings: str) -> str:
    return strings.split("/")[-1][2:].replace("-", "_")


def _usage(command: str | None, full: bool = False) -> str:
    """The usage line of `command`, or of `patc` for None; `full` adds a
    line for each of its options and commands."""
    _, positional, options = COMMANDS[command] if command else (None, None, ())
    words, rows = ["usage: patc" + (f" {command}" if command else "")], []
    for strings, kind, default, about in (_HELP, *options):
        metavar = "" if kind is None else " " + (
            "N" if kind is int else _dest(strings).upper() if kind is str else "|".join(kind)
        )
        shown = strings.split("/")[0] + metavar
        words.append(shown if default is _REQUIRED else f"[{shown}]")
        rows.append((strings.replace("/", ", ") + metavar, about or f"default {default!r}"))
    if command is None:
        words.append("{" + ",".join(COMMANDS) + "} ...")
        rows += [(name, about) for name, (about, _, _) in COMMANDS.items()]
    words += [positional.upper()] if positional else []
    return "\n".join([" ".join(words)] + [f"  {shown:<24}  {about}" for shown, about in rows] * full)


def _fail(command: str | None, message: str):
    print(f"{_usage(command)}\npatc: error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _match(command: str | None, arg: str, table: dict):
    """Read `arg` as argparse does against the option strings in `table`:
    (the option string, the value given with it or None), None for a
    positional argument, or ("", None) for an unknown option.  A long option
    may be shortened to a prefix that names it alone; `-oVALUE` gives `-o`
    its value.  A negative number, or text with a space, is positional."""
    if arg[:1] != "-" or arg in ("-", "--"):
        return None
    if arg in table:
        return arg, None
    head, eq, value = arg.partition("=")
    if eq and head in table:
        return head, value
    if arg[1] == "-":
        hits = [(s, value if eq else None) for s in table if s.startswith(head)]
    else:
        hits = [(arg[:2], arg[2:])] if arg[:2] in table else []
    if len(hits) > 1:
        _fail(command, f"ambiguous option: {arg} could match {', '.join(s for s, _ in hits)}")
    digits, dot, fraction = arg[1:].partition(".")
    number = (not dot or fraction.isdecimal()) and (digits.isdecimal() or dot and not digits)
    return hits[0] if hits else None if number or " " in arg else ("", None)


def _read(command: str | None, args: list, extras: list):
    """The values by name of the arguments of `command`; for `patc` (None),
    the command and its arguments.  Unknown options and arguments left over
    go to `extras`.  After `--` every argument is positional, and `--` is
    dropped where the positional argument is filled next to it."""
    _, positional, options = COMMANDS[command] if command else (None, "command", ())
    table = {s: option for option in (_HELP, *options) for s in option[0].split("/")}
    cut = args.index("--") if command and "--" in args else len(args)
    hits = [_match(command, a, table) for a in args[:cut]] + ["--"] + [None] * len(args)
    values = {_dest(strings): default for strings, _, default, _ in options}
    filled, i = None, 0  # filled: the index of the positional argument
    while i < len(args):
        arg, hit = args[i], hits[i]
        i += 1
        if hit == "--":
            if not (positional and filled in (None, i - 2)):
                extras.append(arg)
        elif hit is None and command is None:
            return arg, args[i:]
        elif hit is None and positional and filled is None:
            values[positional], filled = arg, i - 1
        elif not hit or not hit[0]:
            extras.append(arg)
        else:
            strings, kind, _, _ = option = table[hit[0]]
            value = hit[1]
            if kind is None and value is not None:
                _fail(command, f"argument {strings}: ignored explicit argument {value!r}")
            if option is _HELP:
                print(_usage(command, full=True))
                raise SystemExit(0)
            if kind is not None and value is None:
                if hits[i] is not None:
                    _fail(command, f"argument {strings}: expected one argument")
                value, i = args[i], i + 1
            if kind is int:
                try:
                    value = int(value)
                except ValueError:
                    _fail(command, f"argument {strings}: invalid int value: {value!r}")
            elif type(kind) is tuple and value not in kind:
                choices = ", ".join(map(repr, kind))
                message = f"invalid choice: {value!r} (choose from {choices})"
                _fail(command, f"argument {strings}: {message}")
            values[_dest(strings)] = True if kind is None else value
    missing = [positional] if positional and filled is None else []
    missing += [s for s, _, _, _ in options if values[_dest(s)] is _REQUIRED]
    if missing:
        _fail(command, f"the following arguments are required: {', '.join(missing)}")
    return values


def main(argv=None) -> int:
    """Run the command that `argv` names with its arguments, read from the
    table as argparse reads them.  A usage error prints the usage and the
    error to stderr and returns 2; `-h` prints help to stdout and returns 0."""
    extras: list = []
    try:
        command, args = _read(None, sys.argv[1:] if argv is None else list(argv), extras)
        if command not in COMMANDS:
            choices = ", ".join(map(repr, COMMANDS))
            _fail(None, f"argument command: invalid choice: {command!r} (choose from {choices})")
        values = _read(command, args, extras)
        if extras:
            _fail(command, f"unrecognized arguments: {' '.join(extras)}")
    except SystemExit as err:
        return err.code
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)
    return globals()[f"cmd_{command}"](SimpleNamespace(**values))


if __name__ == "__main__":
    sys.exit(main())
