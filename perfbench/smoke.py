"""Smoke test of the benchmark: every workload at a tiny size, untraced
and traced, must print every metric BENCHMARK.json names, with its unit,
and a clean result line; without the toolchain's sources the benchmark
must fail without printing a result.

    python3 perfbench/smoke.py
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import FirewallFlows, FuzzDiff, LargeBlocks  # noqa: E402

TINY = (FuzzDiff(cases=3), LargeBlocks(sizes=(30, 60), packets=1),
        FirewallFlows(packets=40))


def check_workload(workload, trace: int, spec: dict):
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}
    result = run.run(workload, seed=7, seconds=0, trace=bool(trace))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        run.report(workload, result, f"smoke-{workload.name}-trace{trace}")
    text = out.getvalue()
    line = json.loads(text.strip().splitlines()[-1])
    where = f"{workload.name} --trace {trace}"
    assert set(line) == {"correct", "attempted", "failed", "metrics"}, where
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1, where
    assert list(line["metrics"]) == list(want), where
    for name, unit in want.items():
        metric = line["metrics"][name]
        assert metric["unit"] == unit, (where, name)
        assert math.isfinite(metric["value"]), (where, name)
        assert any(l.split()[:1] == [name] and l.split()[-1] == unit
                   for l in text.splitlines()), (where, name)
    if not trace:
        for name in want:
            assert line["metrics"][name]["value"] > 0, (where, name)


def check_refuses_without_sources():
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / HERE.name,
                        ignore=shutil.ignore_patterns("results", "__pycache__"))
        done = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "fuzz_diff",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0 and not done.stdout.strip(), done


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)
    for workload in TINY:
        for trace in (0, 1):
            check_workload(workload, trace, spec)
            print(f"ok {workload.name} --trace {trace}")
    check_refuses_without_sources()
    print("ok refuses to run without the toolchain's sources")


if __name__ == "__main__":
    main()
