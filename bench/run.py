"""The patalg benchmark: seeded `.pat` workloads run through the `patc` CLI.

    python3 bench/run.py --workload orprod --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; patalg is imported from `src/`.  This
process runs one `patc` child at a time (a closed loop with one client).
A pass runs every op of the workload once, each in a fresh process.  A
run makes a fixed number of passes, `--seconds` over the workload's
nominal pass time (workloads.PASS_S), so every run of a workload attempts
the same ops and fails the same ones.  Every op's exit code, stderr and
output are checked against the answer its generator built in (see
workloads.py).

Each child runs the reference task of calib.py right before and right
after its command.  An op's CPU time is scaled by calib.REF_S over the
mean of the two reference times, which removes most of the shared host's
speed swings; see calib.py.  With `--trace 0` the last line of output is
a JSON object with the end-to-end metrics:

  setup_s      median normalized CPU time of interpreter start plus
               `import patalg.cli` in a fresh process
  norm_cpu_s   one pass, as the sum over ops of each op's median
               normalized CPU time of its `patc` child
  peak_rss_mb  the largest peak RSS of any `patc` child

With `--trace 1` untraced and traced passes alternate and the JSON carries
the per-layer metrics (see tracer.py).  `--workload all` runs each workload
in turn.  Exits 2 without a result when the checkout holds no patalg
sources or `patc` cannot start.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass

import calib
import workloads
from tracer import CACHES, LAYERS, RESULT_SIZES

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
TRACER = os.path.join(BENCH_DIR, "tracer.py")
CHILD = os.path.join(BENCH_DIR, "child.py")
SETUP_SAMPLES_PER_PASS = 3
# A traced pass costs about 1.6 untraced ones, so a pair about 2.6.
TRACED_PAIR_PASSES = 2.6
OP_TIME_LIMIT_S = 60.0
# No new pass starts once a run has taken this many times `--seconds`.
# Only a host or program far slower than usual gets there, and then the
# run attempts fewer ops than usual rather than overrunning.
SLOW_RUN_FACTOR = 3.0
# Every op still running at this point is stopped, so that a run ends
# well inside three minutes even when the program slows down badly.
RUN_TIME_CAP_S = 150.0

COMMANDS = ("check", "compile", "eval", "fuzz")

# Per-layer call counters: metric name -> traced function.
CALL_COUNTERS = {
    "normalize.to_ndnf.calls": "normalize.to_ndnf",
    "wellformed.wf_matrix.calls": "wellformed.wf_matrix",
    "overlap.decide.calls": "overlap.decide",
    "exhaustiveness.witness.calls": "exhaustiveness.useful_witness",
    "syntax.match.calls": "syntax.match_both",
    "semantics.is_value.calls": "semantics.is_value",
    "semantics.substitute.calls": "semantics.substitute",
    "semantics.case_reductions": "semantics.case_successors",
    "parser.parse.calls": "parser.parse",
    "typecheck.type_expr.calls": "typecheck.type_expr",
    "oracle.enumerate_values.calls": "oracle.enumerate_values",
}
# Counters the tracer reads from results and module state.
TRACED_VALUES = (*RESULT_SIZES.values(), *CACHES)
# Counters read from op outputs.
OUTPUT_VALUES = (
    "compiler.tree_nodes",
    "compiler.tree_distinct_subtrees",
    "compiler.tree_depth",
    "suites.cases",
)


class SetupError(Exception):
    """The checkout cannot run patc at all."""


@dataclass
class Result:
    """One finished child process.  Times leave out the reference task."""

    wall_s: float
    cpu_s: float
    norm_cpu_s: float  # cpu_s at the reference speed
    rss_mb: float
    failure: str  # empty when the op succeeded
    verdict: object = None
    trace: dict = None


class Runner:
    def __init__(self, root: str, work: str):
        self.work = work
        self.start = time.perf_counter()
        # The caller's PYTHON* settings (bytecode writing, optimization,
        # tracemalloc, ...) would change what is measured, so none pass on.
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
        self.env["PYTHONPATH"] = os.path.join(root, "src")
        # Fixed hashing keeps set iteration, and so every counter, the same
        # from run to run.
        self.env["PYTHONHASHSEED"] = "0"
        # Reference CPU seconds of the last child that reported them, for a
        # child killed before it could.
        self.calib_s = calib.REF_S

    def spawn(self, argv: list, time_limit: float) -> tuple:
        """Run a child to completion; returns wall seconds, its rusage,
        its exit code, stdout, stderr and whether the time limit hit."""
        out_path = os.path.join(self.work, "stdout")
        err_path = os.path.join(self.work, "stderr")
        lock = threading.Lock()
        state = {"done": False, "killed": False}
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *argv],
                cwd=self.work,
                env=self.env,
                stdin=subprocess.DEVNULL,
                stdout=out,
                stderr=err,
            )

            def stop():
                with lock:
                    if not state["done"]:
                        state["killed"] = True
                        os.kill(proc.pid, signal.SIGKILL)

            timer = threading.Timer(max(time_limit, 0.0), stop)
            timer.start()
            try:
                # wait4 gives this child's own CPU time and peak RSS.
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - t0
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                with lock:
                    state["done"] = True
                timer.cancel()
                timer.join()
            proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path, encoding="utf-8", errors="replace") as fh:
            stdout = fh.read()
        with open(err_path, encoding="utf-8", errors="replace") as fh:
            stderr = fh.read()
        return wall, usage, proc.returncode, stdout, stderr, state["killed"]

    def time_left(self) -> float:
        return RUN_TIME_CAP_S - (time.perf_counter() - self.start)

    def child(self, script: str, args: list, time_limit: float) -> tuple:
        """Run child.py or tracer.py.  Returns a Result without a verdict,
        whose `trace` is what the child wrote to its output file, then the
        exit code, stdout, stderr and whether the time limit hit."""
        info_path = os.path.join(self.work, "child.json")
        wall, usage, code, stdout, stderr, killed = self.spawn([script, info_path, *args], time_limit)
        info = {}
        if os.path.exists(info_path):
            with open(info_path, encoding="utf-8") as fh:
                info = json.load(fh)
            os.remove(info_path)
        cpu = usage.ru_utime + usage.ru_stime
        if "calib_cpu" in info:
            cpu -= sum(info["calib_cpu"])
            wall -= sum(info["calib_wall"])
            self.calib_s = statistics.mean(info["calib_cpu"])
        norm = max(cpu, 0.0) * calib.REF_S / self.calib_s
        result = Result(wall, cpu, norm, usage.ru_maxrss / 1024.0, "", trace=info)
        return result, code, stdout, stderr, killed

    def setup_sample(self) -> float:
        """Normalized CPU seconds of a fresh process that imports patalg.cli."""
        result, code, _, stderr, killed = self.child(CHILD, [], OP_TIME_LIMIT_S)
        if code != 0 or killed:
            raise SetupError(f"cannot import patalg.cli: {stderr.strip()[-400:]}")
        return result.norm_cpu_s

    def run_op(self, op: workloads.Op, traced: bool) -> Result:
        limit = min(OP_TIME_LIMIT_S, self.time_left())
        result, code, stdout, stderr, killed = self.child(TRACER if traced else CHILD, op.argv, limit)
        if not traced:
            result.trace = None
        if killed:
            result.failure = f"time limit ({limit:.0f} s)"
        elif "Traceback" in stderr:
            result.failure = f"traceback: {stderr.strip().splitlines()[-1][:120]}"
        elif code != 0:
            result.failure = f"exit code {code}: {stderr.strip()[:120]}"
        else:
            try:
                result.verdict = op.check(stdout)
            except workloads.WrongOutput as err:
                result.failure = f"wrong output: {err}"
        return result


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def measure(runner: Runner, ops: list, passes: int, seconds: float, trace: bool):
    """`passes` samples of every op.  Untraced, each pass runs the ops in
    turn; traced, an untraced and a traced pass alternate.  Three set-up
    samples open each pass.  Returns the set-up samples and, per op, its
    untraced and traced results.  A run far slower than `seconds` stops
    after the pass under way, and past the run's time cap every op is
    stopped at once, so the passes still complete."""
    slow = time.perf_counter() + SLOW_RUN_FACTOR * seconds
    setup: list = []
    plain: list = [[] for _ in ops]
    traced: list = [[] for _ in ops]
    for _ in range(passes):
        setup += [runner.setup_sample() for _ in range(SETUP_SAMPLES_PER_PASS)]
        for i, op in enumerate(ops):
            plain[i].append(runner.run_op(op, False))
        if trace:
            for i, op in enumerate(ops):
                traced[i].append(runner.run_op(op, True))
        if time.perf_counter() > slow:
            break
    return setup, plain, traced


def _op_medians(samples: list, field: str) -> list:
    return [_median([getattr(r, field) for r in rs]) for rs in samples]


def end_to_end(setup: list, plain: list) -> dict:
    return {
        "setup_s": {"value": _median(setup), "unit": "s"},
        "norm_cpu_s": {"value": sum(_op_medians(plain, "norm_cpu_s")), "unit": "s"},
        "peak_rss_mb": {"value": max(r.rss_mb for rs in plain for r in rs), "unit": "MB"},
    }


def _traced_passes(traced: list) -> list:
    """The traces of each traced pass, one dict per op."""
    return [[rs[k].trace or {} for rs in traced] for k in range(len(traced[0]))]


def _module(name: str) -> str:
    return name.split(".")[0]


def _totals(dicts: list, key=lambda name: name) -> dict:
    out: dict = {}
    for d in dicts:
        for name, v in d.items():
            out[key(name)] = out.get(key(name), 0) + v
    return out


def _self_s(trace: dict) -> dict:
    """Self time per function, summed over its callers."""
    return {fn: sum(by_caller.values()) for fn, by_caller in trace.get("self_s", {}).items()}


def per_layer(ops: list, plain: list, traced: list) -> dict:
    passes = _traced_passes(traced)
    self_s = [_totals([_self_s(t) for t in p], _module) for p in passes]
    metrics = {
        f"{mod}.self_s": {"value": _median([s.get(mod, 0.0) for s in self_s]), "unit": "s"}
        for mod in LAYERS
    }
    calls = _totals([t.get("calls", {}) for t in passes[0]])
    values = _totals([t.get("values", {}) for t in passes[0]])
    for name, fn in CALL_COUNTERS.items():
        if fn in calls:  # a function that is gone reads as absent
            metrics[name] = {"value": calls[fn], "unit": "count"}
    for name in TRACED_VALUES:
        if name in values:
            metrics[name] = {"value": values[name], "unit": "count"}
    for name in OUTPUT_VALUES:
        found = [op.stats[name] for op in ops if name in op.stats]
        total = max(found, default=0) if name.endswith("depth") else sum(found)
        metrics[name] = {"value": total, "unit": "count"}
    plain_cpu = sum(_op_medians(plain, "norm_cpu_s"))
    traced_cpu = sum(_op_medians(traced, "norm_cpu_s"))
    metrics["trace.overhead"] = {"value": traced_cpu / plain_cpu, "unit": "ratio"}
    return metrics


def _digest(obj) -> str:
    return hashlib.sha1(repr(obj).encode()).hexdigest()[:16]


def print_trace_summary(ops: list, traced: list) -> None:
    """Where the traced time went, per command and per function."""
    passes = _traced_passes(traced)
    counters = [sorted(_totals([t.get("calls", {}) for t in p] + [t.get("values", {}) for t in p]).items())
                for p in passes]
    same = all(c == counters[0] for c in counters)
    print(f"   counters digest {_digest(counters[0])}"
          f"  (same in every traced pass: {'yes' if same else 'NO'})")
    for command in COMMANDS:
        mine = [_self_s(t) for t, op in zip(passes[0], ops) if op.command == command]
        if mine:
            top = sorted(_totals(mine, _module).items(), key=lambda kv: -kv[1])[:3]
            print(f"   {command} self time by module: " + ", ".join(f"{m} {v:.3f} s" for m, v in top))
    edges = _totals([
        {(fn, caller): v for fn, by_caller in t.get("self_s", {}).items() for caller, v in by_caller.items()}
        for t in passes[0]
    ])
    top = sorted(edges.items(), key=lambda kv: -kv[1])[:4]
    print("   top functions by self time: "
          + ", ".join(f"{fn} (called from {caller}) {v:.3f} s" for (fn, caller), v in top))


def report(name: str, seed: int, ops: list, setup: list, plain: list, traced: list) -> dict:
    """Prints the human-readable report; returns the result object."""
    results = [r for rs in plain + traced for r in rs]
    failures = [r.failure for r in results if r.failure]
    print(f"== workload {name}  seed {seed}  passes {len(plain[0])}"
          f"  traced passes {len(traced[0])}")
    print(f"   {'op':30} {'wall_s':>8} {'cpu_s':>8} {'norm_cpu_s':>10} {'rss_mb':>7}  status")
    wall, cpu = _op_medians(plain, "wall_s"), _op_medians(plain, "cpu_s")
    norm = _op_medians(plain, "norm_cpu_s")
    for i, op in enumerate(ops):
        rss = max(r.rss_mb for r in plain[i])
        statuses = sorted({r.failure or "ok" for r in plain[i] + traced[i]})
        print(f"   {op.name:30} {wall[i]:8.3f} {cpu[i]:8.3f} {norm[i]:10.3f} {rss:7.1f}"
              f"  {' | '.join(statuses)}")
    for command in COMMANDS:
        idx = [i for i, op in enumerate(ops) if op.command == command]
        if idx:
            print(f"   {command}_s {sum(wall[i] for i in idx):.4f} s"
                  f"  (cpu {sum(cpu[i] for i in idx):.4f} s,"
                  f" normalized cpu {sum(norm[i] for i in idx):.4f} s)")
    if any("compiler.tree_nodes" in op.stats for op in ops):
        print(f"   tree_nodes {sum(op.stats.get('compiler.tree_nodes', 0) for op in ops)} count")
    print(f"   fail_ratio {len(failures) / len(results):.4f} ({len(failures)} of {len(results)} ops)")
    verdicts = [(op.name, rs[0].failure.split(":")[0] or rs[0].verdict) for op, rs in zip(ops, plain)]
    print(f"   outputs digest {_digest(verdicts)}")
    if traced[0]:
        print_trace_summary(ops, traced)
        metrics = per_layer(ops, plain, traced)
    else:
        metrics = end_to_end(setup, plain)
    for k, v in metrics.items():
        print(f"   {k} {v['value']:.6g} {v['unit']}")
    return {
        "correct": not any(f.startswith("wrong output") for f in failures),
        "attempted": len(results),
        "failed": len(failures),
        "metrics": metrics,
    }


def run_workload(root: str, name: str, seed: int, seconds: float, trace: bool) -> dict:
    ops = workloads.WORKLOADS[name](seed)
    base = os.path.join(root, "bench", ".work")
    os.makedirs(base, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{name}-", dir=base)
    try:
        for op in ops:
            for fname, text in op.files.items():
                with open(os.path.join(work, fname), "w", encoding="utf-8") as fh:
                    fh.write(text)
        runner = Runner(root, work)
        runner.setup_sample()  # compiles bytecode once, as an installed patc has
        pass_s = workloads.PASS_S[name] * (TRACED_PAIR_PASSES if trace else 1.0)
        passes = max(1, round(seconds / pass_s))
        setup, plain, traced = measure(runner, ops, passes, seconds, trace)
        return report(name, seed, ops, setup, plain, traced)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=(*workloads.WORKLOADS, "all"), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "patalg", "cli.py")):
        print("error: run from a patalg checkout (src/patalg/cli.py not found)", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name] = run_workload(root, name, args.seed, args.seconds, bool(args.trace))
    except SetupError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
