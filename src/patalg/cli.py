"""The `patc` command line: check, compile, eval, norm and fuzz.

Exit codes: 0 on success, 1 when a check fails or a counterexample is
found, 2 on usage or parse errors.

`main` registers `gc.freeze` with `atexit` (once, however often it runs),
so the interpreter's last collections skip the heap that a run never
frees.  The hook acts on the whole process: in any process that has
called `main`, cyclic garbage left at exit is not collected and its
finalizers do not run.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import sys

from . import semantics, wellformed
from .compiler import CompileError, Leaf, compile_case
from .exhaustiveness import SignatureError, case_notes
from .normalize import dnf, nnf, to_ndnf
from .parser import (
    ParseError,
    Program,
    UnfoldLimit,
    inline_calls,
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
from .suites import run_suites
from .typecheck import Ill, type_expr


def _load(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
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
            failed = _check_types(args.file, name, body, params, prog) or failed
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


def _check_types(path, name, body, params, prog: Program) -> bool:
    """Returns True when a type error was reported."""
    if any(ann is None for _, ann in params):
        print(
            f"{path}: def {name}: note: --typed needs parameter annotations "
            f"(def {name}(x: Type) := ...); skipped"
        )
        return False
    try:
        core = inline_calls(body, prog)
    except UnfoldLimit:
        print(f"{path}: def {name}: note: recursive definition; typing skipped")
        return False
    ctx = tuple((p, ann) for p, ann in params)
    result = type_expr(ctx, core, prog.decls)
    if isinstance(result, Ill):
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
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
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
    body = semantics.substitute(body, {name: v for (name, _), v in zip(params, values)})
    result = semantics.eval(body, args.fuel, prog.table())
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
    results = run_suites(args.suite, seed=args.seed, depth=args.depth, cases=args.cases)
    bad = 0
    for r in results:
        status = "ok" if r.ok else "FAIL"
        print(f"[{status}] {r.name} ({r.cases} cases)")
        for c in r.counterexamples:
            bad += 1
            print(f"    counterexample: {c}")
    return 0 if bad == 0 else 1


# --- entry ----------------------------------------------------------------------


def build_arg_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="patc",
        description="Checker, normalizer and decision-tree compiler for the "
        "boolean algebra of patterns.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="wellformedness, overlap and exhaustiveness")
    check.add_argument("file")
    check.add_argument("--typed", action="store_true", help="also type-check bodies")
    check.add_argument(
        "--type-aware-overlap",
        action="store_true",
        help="use declarations to tighten the overlap check",
    )
    check.add_argument(
        "--untyped",
        action="store_true",
        help="admit undeclared constructors and skip exhaustiveness",
    )
    check.set_defaults(fn=cmd_check)

    comp = sub.add_parser("compile", help="emit decision trees per definition")
    comp.add_argument("file")
    comp.add_argument("--format", choices=("text", "json"), default="text")
    comp.add_argument("-o", "--output")
    comp.set_defaults(fn=cmd_compile)

    ev = sub.add_parser("eval", help="evaluate a definition applied to values")
    ev.add_argument("file")
    ev.add_argument("--entry", required=True)
    ev.add_argument("--args", default="")
    ev.add_argument("--fuel", type=int, default=semantics.DEFAULT_FUEL)
    ev.set_defaults(fn=cmd_eval)

    norm = sub.add_parser("norm", help="print normal forms of a pattern")
    norm.add_argument("--pattern", required=True)
    norm.add_argument("--stage", choices=("nnf", "dnf", "ndnf"), default="ndnf")
    norm.set_defaults(fn=cmd_norm)

    fuzz = sub.add_parser("fuzz", help="run the property suites")
    fuzz.add_argument("--seed", type=int, default=0)
    fuzz.add_argument("--depth", type=int, default=3)
    fuzz.add_argument("--cases", type=int, default=200)
    fuzz.add_argument(
        "--suite", choices=("all", "algebra", "compile", "exhaustive"), default="all"
    )
    fuzz.set_defaults(fn=cmd_fuzz)
    return ap


def main(argv=None) -> int:
    ap = build_arg_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as err:
        return err.code if isinstance(err.code, int) else 2
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
