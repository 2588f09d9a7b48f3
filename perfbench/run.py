"""Benchmark of the xvliw toolchain: compile speed, schedule quality and
simulator speed on three seeded workloads.

    python3 perfbench/run.py --workload fuzz_diff --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the toolchain is imported from ``src``.
An untraced run (``--trace 0``) prints the end-to-end metrics, a traced
run (``--trace 1``) the per-layer ones. The last line of standard output
is one JSON object: correct, attempted, failed and metrics. Results and
span files go to ``perfbench/results``. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
sys.path.insert(0, str(HERE))

import models  # noqa: E402
from spans import PASSES, Tracer, install  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MODULES = ("errors", "isa", "asm", "analysis", "peephole", "schedule",
           "scheduler", "regalloc", "compiler", "vm", "vliwsim", "fuzz",
           "corpus")


REFERENCE_S = 0.001  # models.reference_work's time on the reference host
TICK_S = 0.05        # least time between two samples of the host's speed


class HostSpeed:
    """How slow the host runs now, against the reference host. Between the
    operations of a round, at most once per TICK_S, it times
    ``models.reference_work``; the round's factor is the median sample over
    REFERENCE_S. The speed of one host drifts by a third within minutes
    when other machines load it, so host-time metrics are reported at the
    reference speed: rates times the factor, times divided by it."""

    def __init__(self):
        self.samples: list[float] = []
        self.last = float("-inf")

    def tick(self):
        start = time.perf_counter()
        if start - self.last < TICK_S:
            return
        models.reference_work()
        self.last = time.perf_counter()
        self.samples.append(self.last - start)

    def factor(self) -> float:
        return statistics.median(self.samples) / REFERENCE_S


def load_xvliw() -> SimpleNamespace:
    """Import the toolchain afresh, dropping any earlier import, so each
    set-up pays the import as a new process would."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "xvliw" or n.startswith("xvliw.")]:
        del sys.modules[name]
    return SimpleNamespace(**{m: importlib.import_module(f"xvliw.{m}")
                              for m in MODULES})


def prepare(workload, seed: int, layers: bool):
    """One set-up: import, wrap, build the inputs. Returns (xv, tracer,
    state, a record of the set-up: its seconds outside the wrapping, and
    its compile seconds and facts)."""
    t0 = time.perf_counter()
    xv = load_xvliw()
    t1 = time.perf_counter()
    tracer = Tracer(keep_spans=layers)
    install(tracer, xv, layers)
    t2 = time.perf_counter()
    state = workload.setup(xv, seed)
    t3 = time.perf_counter()
    record = {"seconds": (t1 - t0) + (t3 - t2),
              "compile_s": tracer.seconds["compile"], "facts": dict(tracer.facts)}
    return xv, tracer, state, record


def play(workload, xv, state, tracer) -> dict:
    """One round: its wall time (the speed samples left out), host speed
    factor, operations, failures and the change of the tracer's counts,
    times and facts."""
    calls, secs, facts = dict(tracer.calls), dict(tracer.seconds), dict(tracer.facts)
    speed = HostSpeed()
    t0 = time.perf_counter()
    attempted, failures = workload.run_round(xv, state, tracer.facts, speed.tick)
    wall = time.perf_counter() - t0 - sum(speed.samples)
    return {
        "wall": wall, "speed": speed.factor(), "attempted": attempted, "failures": failures,
        "calls": {k: v - calls.get(k, 0) for k, v in tracer.calls.items()},
        "seconds": {k: v - secs.get(k, 0.0) for k, v in tracer.seconds.items()},
        "facts": {k: v - facts.get(k, 0) for k, v in tracer.facts.items()},
    }


def measure_untraced(workload, seed: int, seconds: float):
    """A fresh set-up before every round, whole rounds until ``seconds``
    have passed (at least one). Spreading the set-ups over the run keeps
    setup_s from resting on one moment of the host's speed."""
    setups, rounds = [], []
    start = time.perf_counter()
    while True:
        xv, tracer, state, record = prepare(workload, seed, layers=False)
        setups.append(record)
        rounds.append(play(workload, xv, state, tracer))
        if time.perf_counter() - start >= seconds:
            return setups, rounds


def repeat(workload, xv, state, tracer, seconds: float) -> list[dict]:
    """Whole rounds on one set-up until ``seconds`` have passed."""
    rounds = []
    start = time.perf_counter()
    while True:
        rounds.append(play(workload, xv, state, tracer))
        if time.perf_counter() - start >= seconds:
            return rounds


def _ratio(a, b):
    return a / b if b else 0.0


def _same_every_round(rounds) -> bool:
    """Rounds repeat the same operations on a deterministic toolchain, so
    the facts read off its results, and its failures, must repeat."""
    keys = [(r["facts"], r["failures"]) for r in rounds]
    return all(k == keys[0] for k in keys)


def end_to_end(rounds, setups) -> dict[str, float]:
    """Host-time metrics at the reference speed, median over rounds; each
    set-up is scaled by the factor of the round that follows it."""
    med = lambda f: statistics.median(f(r) * r["speed"] for r in rounds)
    if rounds[0]["calls"].get("compile", 0):
        compile_rate = med(lambda r: _ratio(r["facts"]["source_instrs"],
                                            r["seconds"]["compile"]))
        rows = rounds[0]["facts"]["rows"]
    else:   # the workload compiles only in set-up
        compile_rate = statistics.median(
            _ratio(s["facts"]["source_instrs"], s["compile_s"]) * r["speed"]
            for s, r in zip(setups, rounds))
        rows = setups[0]["facts"]["rows"]
    return {
        "setup_s": statistics.median(s["seconds"] / r["speed"]
                                     for s, r in zip(setups, rounds)),
        "cases_per_s": med(lambda r: r["attempted"] / r["wall"]),
        "compile_instr_per_s": compile_rate,
        "vliw_rows": rows,
        "cycles_per_packet": _ratio(rounds[0]["facts"]["cycles"],
                                    rounds[0]["calls"]["vliwsim.exec"]),
        "oracle_pkts_per_s": med(lambda r: _ratio(r["calls"]["vm.exec"],
                                                  r["seconds"]["vm.exec"])),
        "vliw_pkts_per_s": med(lambda r: _ratio(r["calls"]["vliwsim.exec"],
                                                r["seconds"]["vliwsim.exec"])),
    }


def per_layer(tracer, plain_rounds, traced_rounds) -> dict[str, float]:
    """Per compile, per call or per packet, over the traced phase (its
    set-up included, so the firewall's one compile is counted)."""
    calls, facts = tracer.calls, tracer.facts
    own = tracer.self_seconds()
    ms = lambda name, per: 1e3 * _ratio(own.get(name, 0.0), per)
    compiles = calls["compile"]
    oracle, vliw = calls["vm.exec"], calls["vliwsim.exec"]
    rate = lambda rounds: statistics.median(r["attempted"] / r["wall"] * r["speed"]
                                            for r in rounds)
    return {
        "fuzz.generate_ms": ms("fuzz.generate", calls["fuzz.generate"]),
        "asm.parse_ms": ms("asm.parse", calls["asm.parse"]),
        "compile.ms": 1e3 * _ratio(tracer.seconds["compile"], compiles),
        "peephole.ms": 1e3 * _ratio(tracer.seconds["peephole"], compiles),
        **{f"peephole.{p}_ms": ms(f"peephole.{p}", compiles) for p in PASSES},
        "peephole.pass_calls": _ratio(sum(calls[f"peephole.{p}"] for p in PASSES),
                                      compiles),
        "peephole.removed": _ratio(facts["removed"], compiles),
        "analysis.cfg_calls": _ratio(calls["analysis.blocks"], compiles),
        "analysis.cfg_ms": ms("analysis.blocks", compiles) + ms("analysis.dominators", compiles),
        "analysis.liveness_calls": _ratio(calls["analysis.liveness"], compiles),
        "analysis.liveness_ms": ms("analysis.liveness", compiles),
        "analysis.ddg_ms": ms("analysis.ddg", compiles),
        "isa.io_sets_calls": _ratio(calls["isa.io_sets"], compiles),
        "scheduler.list_schedule_ms": ms("scheduler.list_schedule", compiles),
        "scheduler.code_motion_ms": ms("scheduler.code_motion", compiles),
        "scheduler.moved": _ratio(facts["moved"], compiles),
        "scheduler.pulled_branches": _ratio(facts["pulled"], compiles),
        "regalloc.assign_ms": ms("regalloc.assign", compiles),
        "regalloc.renames": _ratio(facts["renames"], compiles),
        "regalloc.empty_rows": _ratio(facts["empty_rows"], compiles),
        "schedule.lane_util": _ratio(facts["instrs"], facts["slots"]),
        "vliwsim.hazard_ms": ms("vliwsim.hazard", calls["vliwsim.hazard"]),
        "vliwsim.exec_ms": ms("vliwsim.exec", vliw),
        "vliwsim.rows_executed": _ratio(facts["rows_executed"], vliw),
        "vm.exec_ms": ms("vm.exec", oracle),
        "vm.snapshot_calls": _ratio(calls["vm.snapshot"], oracle + vliw),
        "vm.snapshot_ms": ms("vm.snapshot", oracle + vliw),
        "trace.overhead_pct": 100.0 * (_ratio(rate(plain_rounds), rate(traced_rounds)) - 1),
    }


def run(workload, seed: int, seconds: float, trace: bool) -> dict:
    """Set up and measure one workload; returns the result object with the
    metrics, units and order BENCHMARK.json gives."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not trace:
        setups, rounds = measure_untraced(workload, seed, seconds)
        metrics, names = end_to_end(rounds, setups), spec["end_to_end"]
        steady = _same_every_round(rounds)
    else:
        xv, tracer, state, _ = prepare(workload, seed, layers=False)
        plain = repeat(workload, xv, state, tracer, seconds / 2)
        xv, tracer, state, _ = prepare(workload, seed, layers=True)
        traced = repeat(workload, xv, state, tracer, seconds / 2)
        metrics, names = per_layer(tracer, plain, traced), spec["per_layer"]
        RESULTS.mkdir(exist_ok=True)
        tracer.write(RESULTS / f"spans-{workload.name}-seed{seed}.json")
        steady = _same_every_round(plain) and _same_every_round(traced)
        rounds = plain + traced
    failures = [f for r in rounds for f in r["failures"]]
    return {
        "correct": not failures and steady,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": len(failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in names},
        "failures": failures,
        "speed": [r["speed"] for r in rounds],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "xvliw" / "__init__.py").is_file():
        print(f"no xvliw sources under {SRC}: run from the root of a checkout",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    result = run(workload, args.seed, args.seconds, bool(args.trace))
    report(workload, result, f"{workload.name}-seed{args.seed}-trace{args.trace}")
    return 0


def report(workload, result, tag):
    """Print the failures, a readable summary and, last, the result line;
    keep a copy of the line in the results directory."""
    failures = result.pop("failures")
    speed = result.pop("speed")
    for line in failures[:10]:
        print(f"FAILED {line}", file=sys.stderr)
    print(f"{workload.name}: attempted {result['attempted']} {workload.op}, "
          f"failed {result['failed']}, correct {result['correct']}")
    print(f"host speed factor per round: median {statistics.median(speed):.3f}, "
          f"range {min(speed):.3f}-{max(speed):.3f}; host-time metrics are "
          f"at the reference speed")
    for name, m in result["metrics"].items():
        print(f"  {name:28s} {m['value']:14.6g} {m['unit']}")
    line = json.dumps(result)
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{tag}.json").write_text(line + "\n")
    print(line)


if __name__ == "__main__":
    sys.exit(main())
