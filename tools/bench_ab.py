"""Benchmark a base commit against the working tree, pair by pair.

    python3 tools/bench_ab.py --out BENCH_8.json
    python3 tools/bench_ab.py --out /tmp/ab.json --base HEAD~1 --seeds 1 2 3 4 5 --seconds 30
    python3 tools/bench_ab.py --out /tmp/ab.json --workloads fuzz_diff firewall_flows

Each side runs from its own copy under a temporary directory: the base
commit exported with ``git archive``, and the working tree's tracked and
untracked files (those ``.gitignore`` does not exclude). Neither run writes
into the checkout. For every workload and seed, ``perfbench/run.py`` runs
once on each side, alternating which side runs first from one pair to the
next. ``--workloads`` runs only the named workloads, in BENCHMARK.json's
order; the default is all of them. Traced pairs (``--trace 1``) on the first three seeds show where time
moved between layers: one traced pair cannot place a layer change under
about 20%, so each side's per-layer metrics are also summarised by their
median over the three.

The output's header names the base commit, the Python version and the
platform, since the same code times differently under another CPython.
It holds, per workload, every run's end-to-end metrics, failed count and
correctness, and per metric each side's median and quartiles with the
number of pairs the working tree won, lost and tied (the direction comes
from BENCHMARK.json). Only the standard library is used.
"""

from __future__ import annotations

import argparse
import io
import json
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True).stdout


def export_commit(rev: str, dest: Path):
    with tarfile.open(fileobj=io.BytesIO(git("archive", rev))) as tar:
        tar.extractall(dest)


def export_working_tree(dest: Path):
    listed = git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for name in filter(None, listed.decode().split("\0")):
        src = ROOT / name
        if src.is_file():                      # skips files deleted, not staged
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)


def perfbench(side: Path, workload: str, seed: int, seconds: float,
              trace: bool) -> dict:
    """One perfbench run; its result line (the last line of its output)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(int(trace))]
    proc = subprocess.run(cmd, cwd=side, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed in {side}:\n{proc.stderr}")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"correct": line["correct"], "attempted": line["attempted"],
            "failed": line["failed"],
            "metrics": {k: v["value"] for k, v in line["metrics"].items()}}


def run_pair(dirs: dict, workload: str, seed: int, seconds: float,
             trace: bool, change_first: bool) -> dict:
    order = SIDES[::-1] if change_first else SIDES
    pair = {"seed": seed, "first": order[0]}
    for side in order:
        print(f"  {workload} seed {seed} trace {int(trace)}: {side}",
              file=sys.stderr, flush=True)
        pair[side] = perfbench(dirs[side], workload, seed, seconds, trace)
    return pair


def summarize(pairs: list[dict], end_to_end: list[dict]) -> dict:
    out = {}
    for spec in end_to_end:
        name = spec["name"]
        sign = 1 if spec["better"] == "higher" else -1
        entry = {"unit": spec["unit"], "better": spec["better"]}
        for side in SIDES:
            values = [p[side]["metrics"][name] for p in pairs]
            q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
            entry[side] = {"median": median, "q1": q1, "q3": q3}
        diffs = [sign * (p["change"]["metrics"][name] - p["parent"]["metrics"][name])
                 for p in pairs]
        entry["change_wins"] = sum(d > 0 for d in diffs)
        entry["change_losses"] = sum(d < 0 for d in diffs)
        entry["ties"] = sum(d == 0 for d in diffs)
        out[name] = entry
    return out


def layer_medians(traced: list[dict]) -> dict:
    """Per per-layer metric, each side's median over the traced pairs."""
    names = traced[0]["parent"]["metrics"]
    return {name: {side: statistics.median(p[side]["metrics"][name]
                                           for p in traced)
                   for side in SIDES}
            for name in names}


def parse_args(argv=None):
    """The parsed options and BENCHMARK.json; ``workloads`` holds the names
    to run, in BENCHMARK.json's order. A name it lacks is an error."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--base", default="HEAD",
                        help="commit to compare the working tree against")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3, 4, 5])
    parser.add_argument("--seconds", type=float,
                        help="seconds per run (default: BENCHMARK.json's)")
    parser.add_argument("--workloads", nargs="+", metavar="NAME",
                        help="workloads to run (default: all)")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if len(args.seeds) < 2:
        parser.error("--seeds needs at least two seeds to give quartiles")
    known = [w["name"] for w in spec["workloads"]]
    unknown = [name for name in args.workloads or () if name not in known]
    if unknown:
        parser.error(f"--workloads: BENCHMARK.json has no {', '.join(unknown)}")
    args.workloads = [name for name in known
                      if args.workloads is None or name in args.workloads]
    return args, spec


def main(argv=None) -> int:
    args, spec = parse_args(argv)
    seconds = args.seconds or spec["run_seconds"]
    base = git("rev-parse", args.base).decode().strip()

    with tempfile.TemporaryDirectory(prefix="bench_ab-") as tmp:
        dirs = {side: Path(tmp) / side for side in SIDES}
        export_commit(base, dirs["parent"])
        export_working_tree(dirs["change"])
        result = {"base": base, "change": f"working tree over {base}",
                  "python": sys.version, "platform": platform.platform(),
                  "seconds": seconds, "seeds": args.seeds, "workloads": {}}
        k = 0
        for workload in args.workloads:
            pairs = []
            for seed in args.seeds:
                pairs.append(run_pair(dirs, workload, seed, seconds, False,
                                      change_first=k % 2 == 1))
                k += 1
            traced = []
            for seed in args.seeds[:3]:
                traced.append(run_pair(dirs, workload, seed, seconds, True,
                                       change_first=k % 2 == 1))
                k += 1
            result["workloads"][workload] = {
                "pairs": pairs,
                "summary": summarize(pairs, spec["end_to_end"]),
                "traced_pairs": traced,
                "layer_medians": layer_medians(traced),
            }
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    for workload, res in result["workloads"].items():
        for name, m in res["summary"].items():
            print(f"{workload:15s} {name:20s} parent {m['parent']['median']:12.6g} "
                  f"change {m['change']['median']:12.6g}  wins "
                  f"{m['change_wins']}/{len(args.seeds)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
