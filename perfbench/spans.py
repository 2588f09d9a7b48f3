"""Timing and counting calls into xvliw from outside the package.

A ``Tracer`` replaces a function with a wrapper in every loaded xvliw
module that bound it (``from .x import f`` makes a binding per importer),
so callers inside the package reach the wrapper too. Untraced runs wrap
only the top-level calls the end-to-end metrics and checks need
(``peephole``, ``compile_program``, ``exec_sequential`` and ``exec_vliw``)
and keep running totals; traced runs also wrap every layer below and keep
one span per call: (name, parent span, start, end), in memory until the
run ends.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict

# the five peephole passes: name -> function in xvliw.peephole
PASSES = {"boundary_checks": "remove_boundary_checks", "zeroing": "remove_zeroing",
          "three_operand": "fuse_three_operand", "load_store_6b": "fuse_load_store_6b",
          "early_exit": "fuse_early_exit"}
# (module, attribute, span name) of every layer boundary a traced run wraps
LAYER_POINTS = (
    ("fuzz", "generate_case", "fuzz.generate"),
    ("asm", "parse_asm", "asm.parse"),
    *(("peephole", fn, f"peephole.{name}") for name, fn in PASSES.items()),
    ("analysis", "find_basic_blocks", "analysis.blocks"),
    ("analysis", "build_cfg", "analysis.dominators"),
    ("analysis", "liveness", "analysis.liveness"),
    ("analysis", "build_ddg", "analysis.ddg"),
    ("scheduler", "list_schedule", "scheduler.list_schedule"),
    ("scheduler", "code_motion", "scheduler.code_motion"),
    ("regalloc", "assign_registers", "regalloc.assign"),
    ("vliwsim", "hazard_check", "vliwsim.hazard"),
)
# called about a thousand times per compile: counted, never spanned
COUNT_POINTS = (("isa", "io_sets", "isa.io_sets"),)


class Tracer:
    """Call counts, inclusive times and (when ``keep_spans``) spans."""

    def __init__(self, keep_spans: bool):
        self.keep_spans = keep_spans
        self.spans: list[list] = []          # [name, parent index, start, end]
        self.stack: list[int] = []
        self.calls: Counter = Counter()
        self.seconds: defaultdict = defaultdict(float)
        self.facts: Counter = Counter()      # read off the returned values

    def span(self, fn, name, on_result=None):
        """``fn`` wrapped to count and time its calls under ``name``.
        ``on_result(result)`` sees every value it returns."""
        clock = time.perf_counter
        calls, seconds, spans, stack = self.calls, self.seconds, self.spans, self.stack
        keep = self.keep_spans

        def wrapper(*args, **kwargs):
            if keep:
                index = len(spans)
                spans.append([name, stack[-1] if stack else -1, 0.0, 0.0])
                stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                calls[name] += 1
                seconds[name] += end - start
                if keep:
                    stack.pop()
                    spans[index][2:] = start, end
            if on_result is not None:
                on_result(result)
            return result
        return wrapper

    def counter(self, fn, name):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def self_seconds(self) -> dict[str, float]:
        """Per span name: summed duration minus the time child spans
        cover. Calls nest on one thread, so children never overlap."""
        own = defaultdict(float)
        for name, parent, start, end in self.spans:
            own[name] += end - start
            if parent >= 0:
                own[self.spans[parent][0]] -= end - start
        return dict(own)

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "parent", "start_s", "end_s"],
                       "spans": self.spans}, fh)


def reachable_count(program) -> int:
    """Instructions reachable from entry, walked from the kinds alone."""
    seen, work, n = set(), [0], len(program)
    while work:
        i = work.pop()
        if i in seen or not 0 <= i < n:
            continue
        seen.add(i)
        ins = program[i]
        kind = ins.kind.value
        if kind in ("exit", "early_exit"):
            continue
        if kind in ("jump_always", "branch"):
            work.append(ins.target)
        if kind != "jump_always":
            work.append(i + 1)
    return len(seen)


def rebind(fn, wrapper):
    """Point every binding of ``fn`` in the loaded xvliw modules at
    ``wrapper``."""
    for name, module in list(sys.modules.items()):
        if name != "xvliw" and not name.startswith("xvliw."):
            continue
        for attr, value in list(vars(module).items()):
            if value is fn:
                setattr(module, attr, wrapper)


def install(tracer: Tracer, xv, layers: bool):
    """Wrap the top-level calls, and every layer too when ``layers``."""
    facts = tracer.facts

    reduced = []         # the latest peephole output, for on_compile

    def on_peephole(result):
        reduced[:] = [result[0]]

    def on_compile(result):
        vliw, report = result
        lanes = vliw.lane_count
        scheduled = reachable_count(reduced.pop()) if reduced else 0
        facts["source_instrs"] += report.original_count
        facts["removed"] += report.original_count - report.after_reduction_count
        facts["rows"] += vliw.row_count
        facts["slots"] += vliw.row_count * lanes
        facts["instrs"] += vliw.instruction_count
        facts["empty_rows"] += sum(1 for row in vliw.rows
                                   if all(s is None for s in row))
        facts["moved"] += report.moved_instructions
        facts["pulled"] += report.pulled_branches
        facts["renames"] += len(report.renames)
        # a row holds at most `lanes` of the reduced program's reachable
        # instructions (its unreachable ones are not scheduled)
        if vliw.row_count < -(-scheduled // lanes):
            facts["bad_schedules"] += 1

    def on_vliw(result):
        report, _state = result
        facts["cycles"] += report.cycles
        facts["rows_executed"] += report.rows_executed

    tops = ((xv.peephole, "peephole", "peephole", on_peephole),
            (xv.compiler, "compile_program", "compile", on_compile),
            (xv.vm, "exec_sequential", "vm.exec", None),
            (xv.vliwsim, "exec_vliw", "vliwsim.exec", on_vliw))
    for module, attr, name, hook in tops:
        fn = getattr(module, attr)
        rebind(fn, tracer.span(fn, name, hook))
    if not layers:
        return
    for mod, attr, name in LAYER_POINTS:
        fn = getattr(getattr(xv, mod), attr)
        rebind(fn, tracer.span(fn, name))
    for mod, attr, name in COUNT_POINTS:
        fn = getattr(getattr(xv, mod), attr)
        rebind(fn, tracer.counter(fn, name))
    store = xv.vm.MapStore
    store.snapshot = tracer.span(store.snapshot, "vm.snapshot")
