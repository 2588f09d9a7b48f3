"""Reduction and lane-sweep reporting over the corpus."""

from __future__ import annotations

from dataclasses import dataclass, field

from .asm import parse_asm
from .compiler import compile_program
from .corpus import CORPUS, CorpusEntry, entry as corpus_entry
from .peephole import PASS_NAMES
from .schedule import LaneConstraints

LANE_SWEEP = tuple(range(2, 9))


@dataclass
class ReductionRow:
    name: str
    original: int
    reduced: int
    per_pass_pct: dict[str, float]
    vliw_rows: int
    static_ipc: float
    lane_rows: dict[int, int] = field(default_factory=dict)

    @property
    def total_pct(self):
        return 100.0 * (self.original - self.reduced) / self.original


def analyze_entry(entry: CorpusEntry, lanes: int = 4,
                  sweep: bool = True) -> ReductionRow:
    program = parse_asm(entry.source)
    _, base = compile_program(program, LaneConstraints(lanes=lanes))
    per_pass = {}
    for name in PASS_NAMES:
        per_pass[name] = 100.0 * base.pass_deltas.get(name, 0) / \
            base.original_count
    lane_rows = {}
    if sweep:
        for n in LANE_SWEEP:
            _, rep = compile_program(program, LaneConstraints(lanes=n))
            lane_rows[n] = rep.vliw_rows
    return ReductionRow(entry.name, base.original_count,
                        base.after_reduction_count, per_pass,
                        base.vliw_rows, base.static_ipc, lane_rows)


def report_reduction(names=None, lanes: int = 4, sweep: bool = True):
    """Per-program, per-pass reduction percentages and the lane sweep."""
    names = names or sorted(CORPUS)
    return [analyze_entry(corpus_entry(n), lanes, sweep) for n in names]


def reduction_table_text(rows: list[ReductionRow]) -> str:
    head = (f"{'program':18s} {'instr':>5s} {'red%':>6s} "
            + " ".join(f"{p[:6]:>7s}" for p in PASS_NAMES)
            + f" {'rows':>5s} {'sIPC':>5s}")
    lines = [head, "-" * len(head)]
    for r in rows:
        lines.append(
            f"{r.name:18s} {r.original:5d} {r.total_pct:6.1f} "
            + " ".join(f"{r.per_pass_pct[p]:7.1f}" for p in PASS_NAMES)
            + f" {r.vliw_rows:5d} {r.static_ipc:5.2f}")
    if any(r.lane_rows for r in rows):
        lines.append("")
        lines.append(f"{'lane sweep':18s} " +
                     " ".join(f"{n:>5d}" for n in LANE_SWEEP))
        for r in rows:
            marks = []
            best_gain_lane = None
            prev = None
            gains = {}
            for n in LANE_SWEEP:
                if prev is not None:
                    gains[n] = prev - r.lane_rows[n]
                prev = r.lane_rows[n]
            if gains:
                best_gain_lane = max(gains, key=lambda n: (gains[n], -n))
            for n in LANE_SWEEP:
                tag = "*" if n == best_gain_lane and gains.get(n, 0) > 0 else " "
                marks.append(f"{r.lane_rows[n]:4d}{tag}")
            lines.append(f"{r.name:18s} " + " ".join(marks))
        lines.append("(* largest marginal gain; gains concentrate at low "
                     "lane counts)")
    return "\n".join(lines) + "\n"


def reduction_table_json(rows: list[ReductionRow]) -> list[dict]:
    return [{
        "name": r.name,
        "original": r.original,
        "reduced": r.reduced,
        "reduction_pct": round(r.total_pct, 2),
        "per_pass_pct": {k: round(v, 2) for k, v in r.per_pass_pct.items()},
        "vliw_rows": r.vliw_rows,
        "static_ipc": round(r.static_ipc, 4),
        "lane_rows": dict(sorted(r.lane_rows.items())),
    } for r in rows]
