"""Row-by-row simulator of the 4-lane, 4-stage soft processor.

Within a row every lane reads the pre-row machine state (simultaneous
issue); writes commit after the row. When several branch slots are taken
the lowest lane index wins (lane order is taken-branch priority). An exit
slot ends execution after its row commits.

Cycle accounting: one row per cycle in steady state plus the pipeline
drain (depth - 1 cycles) at exit. The drain is waived when the
terminating instruction is a parametrized exit, or a bare exit whose
action register was not written in the previous in-flight rows - those
are the cases the fetch stage can recognise and stop early, saving the
three remaining cycles.

Per-row trace lines are built only when a caller asks for them
(``exec_vliw(..., trace=True)``); formatting them costs more than
executing the row.
"""

from __future__ import annotations

from dataclasses import dataclass

from .analysis import bernstein_ok
from .asm import format_instruction
from .errors import RowConflict, VmTrap
from .isa import Kind
from .schedule import VliwProgram, cross_lane_violations
from .vm import (
    Limits,
    MachineState,
    MapStore,
    PacketContext,
    XDP_ABORTED,
    XdpResult,
    apply_effects,
    eval_instruction,
    result_action,
)


PIPELINE_DEPTH = 4                   # fetch, decode, execute, commit


@dataclass
class RunReport:
    result: XdpResult
    rows_executed: int
    instructions_executed: int
    cycles: int
    dynamic_ipc: float
    trace_lines: list[str] | None = None    # one line per row, when asked for

    def as_dict(self):
        return {
            **self.result.summary(),
            "rows_executed": self.rows_executed,
            "instructions_executed": self.instructions_executed,
            "cycles": self.cycles,
            "dynamic_ipc": round(self.dynamic_ipc, 4),
        }


def hazard_check(vliw: VliwProgram) -> list[str]:
    """Static validation of every row invariant; empty for valid compiler
    output. Reports same-row Bernstein violations, helper-slot overflows,
    branch ordering problems and cross-lane back-to-back dependences."""
    out = []
    for r, row in enumerate(vliw.rows):
        if len(row) != vliw.lane_count:
            out.append(f"row {r}: has {len(row)} lanes, expected "
                       f"{vliw.lane_count}")
        slots = [(lane, s) for lane, s in enumerate(row) if s is not None]
        for i, (la, sa) in enumerate(slots):
            for lb, sb in slots[i + 1:]:
                if not bernstein_ok(sa.instr, sb.instr):
                    out.append(f"row {r}: lanes {la}/{lb} violate the "
                               f"parallelizability conditions")
        helpers = [lane for lane, s in slots if s.instr.kind is Kind.CALL]
        if len(helpers) > 1:
            out.append(f"row {r}: {len(helpers)} helper calls in one row")
        branches = [(lane, s) for lane, s in slots
                    if s.instr.kind in (Kind.BRANCH, Kind.JUMP_ALWAYS)]
        known = [(lane, s.src_index) for lane, s in branches if s.src_index >= 0]
        if len(known) > 1:
            idxs = [i for _, i in known]
            if idxs != sorted(idxs):
                out.append(f"row {r}: branch lanes not in original order")
            elif any(b - a != 1 for a, b in zip(idxs, idxs[1:])):
                out.append(f"row {r}: branches not consecutive in original "
                           f"program order")
        for lane, s in branches:
            if s.instr.target is None or not 0 <= s.instr.target < len(vliw.rows):
                out.append(f"row {r}: lane {lane} branch target out of range")
    for frm, to, reader, lane_n, lane_r in cross_lane_violations(vliw):
        out.append(f"rows {frm}->{to}: cross-lane back-to-back dependence "
                   f"(write on lane {lane_r}, read on lane {lane_n})")
    return out


def exec_vliw(vliw: VliwProgram, packet: PacketContext, maps: MapStore,
              limits: Limits | None = None, *, trace: bool = False):
    """Execute a program. Returns (RunReport, MachineState); the report
    holds per-row trace lines only when ``trace`` is set."""
    limits = limits or Limits()
    state = MachineState(packet=packet, maps=maps)
    rows = vliw.rows
    budget = limits.max_instructions
    rows_executed = 0
    instructions = 0
    last_r0_row = -PIPELINE_DEPTH           # last executed row that wrote r0
    lines: list[str] | None = [] if trace else None
    rp = 0
    finished = False
    savings = False

    def final_result(trapped=False, trap=None):
        code = state.regs[0]
        action = XDP_ABORTED if trapped else result_action(code)
        return XdpResult(action, 0 if trapped else code, packet.visible(),
                         maps.snapshot(), redirect_target=state.redirect_target,
                         trapped=trapped, trap=trap)

    try:
        while not finished:
            if rows_executed >= budget or instructions >= budget:
                raise VmTrap(f"row budget {budget} exhausted")
            if not 0 <= rp < len(rows):
                raise VmTrap(f"row pointer {rp} outside program")
            row = rows[rp]
            effects = [(lane, s, eval_instruction(state, s.instr, rp))
                       for lane, s in enumerate(row) if s is not None]

            writes: set[int] = set()
            mem_spans: list[tuple[int, int]] = []
            for _, _, e in effects:
                if e.reg is not None:
                    if e.reg in writes:
                        raise RowConflict(
                            f"row {rp}: two lanes write r{e.reg}")
                    writes.add(e.reg)
                if e.mem is not None:
                    addr, data = e.mem
                    for lo, hi in mem_spans:
                        if addr < hi and lo < addr + len(data):
                            raise RowConflict(
                                f"row {rp}: overlapping memory writes")
                    mem_spans.append((addr, addr + len(data)))
            for _, _, e in effects:
                apply_effects(state, e, rp)

            rows_executed += 1
            instructions += len(effects)
            if 0 in writes:
                last_r0_row = rows_executed

            # lanes run in index order, so the first control wins
            taken_lane = None
            next_rp = rp + 1
            for lane, s, e in effects:
                if e.control is None:
                    continue
                taken_lane = lane
                if e.control[0] == "exit":
                    finished = True
                    savings = (s.instr.kind is Kind.EARLY_EXIT
                               or rows_executed - last_r0_row >= PIPELINE_DEPTH)
                else:
                    next_rp = e.control[1]
                break
            if lines is not None:
                lines.append(_trace_line(rows_executed, rp, row, taken_lane))
            rp = next_rp
    except VmTrap as exc:
        rows_executed = max(rows_executed, 1)
        cycles = rows_executed + PIPELINE_DEPTH - 1
        report = RunReport(final_result(trapped=True, trap=str(exc)),
                           rows_executed, instructions, cycles,
                           instructions / rows_executed, lines)
        return report, state

    cycles = rows_executed
    if not savings:
        cycles += PIPELINE_DEPTH - 1
    report = RunReport(final_result(), rows_executed, instructions, cycles,
                       instructions / rows_executed if rows_executed else 0.0,
                       lines)
    return report, state


def _trace_line(cycle, row_index, row, taken_lane):
    cells = [format_instruction(s.instr) if s is not None else "---"
             for s in row]
    taken = f" taken=lane{taken_lane}" if taken_lane is not None else ""
    return f"cycle {cycle:4d} row {row_index:4d}: {' | '.join(cells)}{taken}"
