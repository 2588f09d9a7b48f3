"""The five-step compilation pipeline.

peephole reduction -> per-block data-dependence graphs -> list scheduling
-> upward code motion -> program-wide lane assignment, producing the
final multi-lane program plus a per-pass report. Registers stay as the
source wrote them: code motion never renames, and judges a speculative
move by the liveness of the schedules as it has transformed them so far.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .analysis import build_ddg, program_cfg
from .isa import Kind, Program, analysis_of
from .peephole import PASS_NAMES, peephole
from .regalloc import assign_registers
from .schedule import LaneConstraints
from .scheduler import code_motion, list_schedule


@dataclass
class CompileReport:
    original_count: int
    after_reduction_count: int      # reachable instructions of the reduced program
    vliw_rows: int
    static_ipc: float
    pass_deltas: dict[str, int] = field(default_factory=dict)
    moved_instructions: int = 0
    pulled_branches: int = 0
    # always empty: nothing is renamed, but external readers of the
    # report (the benchmark's compile hook) still count this list
    renames: list = field(default_factory=list)
    padding_rows: int = 0           # leading empty rows lane assignment added
    unreachable_dropped: list = field(default_factory=list)
    lanes: int = 4

    def as_dict(self):
        return {
            "original_count": self.original_count,
            "after_reduction_count": self.after_reduction_count,
            "vliw_rows": self.vliw_rows,
            "static_ipc": round(self.static_ipc, 4),
            "lanes": self.lanes,
            "pass_deltas": dict(self.pass_deltas),
            "moved_instructions": self.moved_instructions,
            "pulled_branches": self.pulled_branches,
            "renames": [list(r) for r in self.renames],
            "padding_rows": self.padding_rows,
            "unreachable_dropped": list(self.unreachable_dropped),
        }

    def text(self) -> str:
        lines = [
            f"instructions: {self.original_count} -> "
            f"{self.after_reduction_count} after reduction",
        ]
        for name in PASS_NAMES:
            lines.append(f"  {name}: -{self.pass_deltas.get(name, 0)}")
        lines.append(f"fused: {self.pass_deltas.get('three_operand', 0)} "
                     f"three-operand, {self.pass_deltas.get('early_exit', 0)} "
                     f"early-exit, {self.pass_deltas.get('load_store_6b', 0) // 2} "
                     f"6-byte pairs")
        lines.append(f"code motion: {self.moved_instructions} moved "
                     f"({self.pulled_branches} parallel branches)")
        lines.append(f"rows: {self.vliw_rows} at {self.lanes} lanes "
                     f"({self.padding_rows} padding), "
                     f"static IPC {self.static_ipc:.2f}")
        if self.unreachable_dropped:
            lines.append(f"dropped unreachable instructions: "
                         f"{self.unreachable_dropped}")
        return "\n".join(lines)


def compile_program(program: Program,
                    constraints: LaneConstraints | None = None,
                    passes: dict[str, bool] | None = None,
                    enable_code_motion: bool = True):
    """Run the whole pipeline. Returns (VliwProgram, CompileReport)."""
    constraints = constraints or LaneConstraints()
    original_count = len(program)
    unreachable = sorted(set(range(len(program))) -
                         analysis_of(program).reachable)

    reduced, stats = peephole(program, passes)

    cfg = program_cfg(reduced)
    ddgs = {blk.id: build_ddg(blk, reduced) for blk in cfg.blocks}
    schedules = {blk.id: list_schedule(blk, ddgs[blk.id], constraints, reduced)
                 for blk in cfg.blocks}

    moved_log: list = []
    if enable_code_motion:
        schedules, moved_log = code_motion(schedules, cfg, constraints,
                                           reduced, ddgs)

    vliw, padding = assign_registers(schedules, cfg, constraints.lanes,
                                     reduced.maps)

    pulled = sum(1 for (idx, _frm, _to) in moved_log
                 if reduced[idx].kind is Kind.BRANCH)
    report = CompileReport(
        original_count=original_count,
        after_reduction_count=len(analysis_of(reduced).reachable),
        vliw_rows=vliw.row_count,
        static_ipc=vliw.static_ipc,
        pass_deltas=stats.as_dict(),
        moved_instructions=len(moved_log),
        pulled_branches=pulled,
        padding_rows=padding,
        unreachable_dropped=unreachable,
        lanes=constraints.lanes,
    )
    return vliw, report
