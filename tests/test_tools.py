"""The listing comparison of ``tools/same_listings.py`` and the options of
``tools/bench_ab.py``, with no benchmark run."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import bench_ab  # noqa: E402  -- a script directory, not a package
import same_listings  # noqa: E402

BASE = ["corpus/a 11", "corpus/b 22", "fuzz/0 AsmSyntaxError: line 3: bad",
        "fuzz/1 33"]


def test_same_entries_in_the_same_order_are_identical():
    assert same_listings.compare(BASE, list(BASE)) == \
        {"changed": [], "removed": [], "added": []}


def test_entries_are_matched_by_name():
    new = ["corpus/b 22", "loops/x 44", "corpus/a 11",
           "fuzz/0 AsmSyntaxError: line 3: worse", "loops/y 55"]
    assert same_listings.compare(BASE, new) == {
        "changed": ["fuzz/0"], "removed": ["fuzz/1"],
        "added": ["loops/x", "loops/y"]}


def test_a_name_listed_twice_is_refused():
    with pytest.raises(SystemExit, match="corpus/a is listed twice"):
        same_listings.compare(BASE + ["corpus/a 12"], BASE)


def test_workloads_run_in_benchmark_order():
    args, _ = bench_ab.parse_args(["--out", "ab.json", "--workloads",
                                   "firewall_flows", "fuzz_diff"])
    assert args.workloads == ["fuzz_diff", "firewall_flows"]


def test_workloads_default_to_all_of_them():
    args, spec = bench_ab.parse_args(["--out", "ab.json"])
    assert args.workloads == [w["name"] for w in spec["workloads"]]
    assert len(args.workloads) == 3


def test_an_unknown_workload_is_refused_before_any_run(monkeypatch, capsys):
    def no_run(*args, **kwargs):
        raise AssertionError("a run started")
    for name in ("git", "export_commit", "export_working_tree", "perfbench"):
        monkeypatch.setattr(bench_ab, name, no_run)
    with pytest.raises(SystemExit) as exc:
        bench_ab.main(["--out", "ab.json", "--workloads", "fuzz_diff", "nope"])
    assert exc.value.code == 2
    assert "--workloads: BENCHMARK.json has no nope" in capsys.readouterr().err
