"""Run one `patc` command with every public patalg function wrapped in a span.

    python3 bench/tracer.py OUT.json ARG...

runs `patc ARG...` in this process, as the `patc` entry point would, and at
exit writes per-function call counts and self times, plus the size counters
below, to OUT.json.  Nothing is written while the command runs.  As in
child.py, the reference task of calib.py runs right before and right after
the command, and OUT.json holds its times too.

Each public function of the layer modules is replaced at its module
attribute and in every patalg module that imported it by name.  Every call
is counted; only the outermost call of a recursive function opens a span.
A span's self time is its duration minus the durations of the spans it
encloses, so the self times of all spans add up to the traced wall time;
each function's self time is also split by the module of the enclosing
span, its caller.

Each wrapper adds a frame to the interpreter stack.  The recursion limit is
raised by exactly the number of wrapper frames on the stack, so a traced
command fails with RecursionError where the untraced one does, no sooner.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
import traceback

from calib import calib

LAYERS = (
    "parser",
    "normalize",
    "wellformed",
    "overlap",
    "compiler",
    "pretty",
    "exhaustiveness",
    "syntax",
    "semantics",
    "typecheck",
    "oracle",
    "suites",
    "cli",
)

# Functions whose result size is itself a counter.
RESULT_SIZES = {
    "parser.tokenize": "parser.tokens",
    "normalize.dnf": "normalize.dnf_conjuncts",
}

# Module-level caches, read with len() at process end.
CACHES = {
    "overlap.cache_entries": ("overlap", "_cache"),
    "syntax.match_cache_entries": ("syntax", "_match_cache"),
}


class Tracer:
    def __init__(self):
        self.calls: dict = {}  # "module.function" -> [calls]
        self.self_s: dict = {}  # "module.function" -> {calling module: seconds}
        self.sizes: dict = {}  # counter name -> [total]
        self.open: list = []  # child time of each open span, innermost last
        self.owners: list = []  # module of each open span
        self.frames = [0]  # wrapper frames on the stack
        # Two more: this script's own main() frame, and the limit check in
        # setrecursionlimit, which counts the frame about to be pushed.
        self.base_limit = sys.getrecursionlimit() + 2

    def wrap(self, key: str, fn):
        calls = self.calls.setdefault(key, [0])
        self_s = self.self_s.setdefault(key, {})
        module = key.split(".")[0]
        size = self.sizes.setdefault(RESULT_SIZES[key], [0]) if key in RESULT_SIZES else None
        open_spans = self.open
        owners = self.owners
        frames = self.frames
        base_limit = self.base_limit
        set_limit = sys.setrecursionlimit
        clock = time.perf_counter
        active = False

        def wrapper(*args, **kwargs):
            nonlocal active
            calls[0] += 1
            outermost = not active
            if outermost:
                active = True
                open_spans.append(0.0)
                owners.append(module)
                start = clock()
            frames[0] += 1
            try:
                set_limit(base_limit + frames[0])
                result = fn(*args, **kwargs)
            finally:
                frames[0] -= 1
                try:
                    set_limit(base_limit + frames[0])
                except RecursionError:
                    pass  # too deep to lower it here; the next call resets it
                if outermost:
                    duration = clock() - start
                    owners.pop()
                    caller = owners[-1] if owners else "-"
                    self_s[caller] = self_s.get(caller, 0.0) + duration - open_spans.pop()
                    if open_spans:
                        open_spans[-1] += duration
                    active = False
            if size is not None:
                size[0] += len(result)
            return result

        return wrapper

    def install(self) -> None:
        modules = {name: importlib.import_module(f"patalg.{name}") for name in LAYERS}
        wrapped = {}
        for name, mod in modules.items():
            for attr, fn in list(vars(mod).items()):
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__
                    or inspect.isgeneratorfunction(fn)
                ):
                    continue
                wrapped[id(fn)] = (fn, self.wrap(f"{name}.{attr}", fn))
        # Re-point every patalg module's reference, aliases included.
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "patalg" and not mod_name.startswith("patalg."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])

    def report(self) -> dict:
        values = {k: v[0] for k, v in self.sizes.items()}
        for counter, (mod_name, attr) in CACHES.items():
            cache = getattr(sys.modules.get(f"patalg.{mod_name}"), attr, None)
            if cache is not None:
                values[counter] = len(cache)
        return {
            "calls": {k: v[0] for k, v in self.calls.items()},
            "self_s": {k: v for k, v in self.self_s.items() if v},
            "values": values,
        }


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    from patalg.cli import main as patc

    t0 = time.perf_counter()
    before = calib()
    t1 = time.perf_counter()
    try:
        code = patc(argv)
    except SystemExit as err:
        code = err.code if isinstance(err.code, int) else 1
    except Exception:
        # What the interpreter does with an uncaught exception.
        traceback.print_exc()
        code = 1
    t2 = time.perf_counter()
    after = calib()
    t3 = time.perf_counter()
    sys.stdout.flush()
    report = tracer.report()
    report["calib_cpu"] = [before, after]
    report["calib_wall"] = [t1 - t0, t3 - t2]
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
