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

Each row is decoded once, on its first execution, into its lanes' steps
(``vm.decode_step``, shared with the oracle wherever the instruction
objects are shared) and its static facts: whether two lanes write one
register, whether it holds two or more stores (only such rows run the
overlap test), whether it writes r0, and where its controls sit. The
cache is the program's declared ``VliwProgram.decoded`` field. Every
dynamic check remains: both ``RowConflict``s, raised when the row
executes and in lane order; the bounds guard on every access and again on
every store at commit; the row budget and the row-pointer trap.

Per-row trace lines are built only when a caller asks for them
(``exec_vliw(..., trace=True)``); formatting them costs more than
executing the row.
"""

from __future__ import annotations

from dataclasses import dataclass

from .analysis import bernstein_ok
from .asm import format_instruction
from .errors import RowConflict, VmTrap
from .isa import JUMP_KINDS, Kind
from .schedule import VliwProgram, cross_lane_violations
from .vm import (
    Limits,
    MachineState,
    MapStore,
    PacketContext,
    STEP_EXIT,
    STEP_STORE,
    STEP_WRITE,
    XDP_ABORTED,
    XdpResult,
    decode_step,
    result_action,
    write_mem,
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
        branches = [(lane, s) for lane, s in slots if s.instr.kind in JUMP_KINDS]
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


def _decode_row(row) -> tuple:
    """Decode one row into its lanes' steps and the row's static facts:
    (lanes, stores, controls, check, writes_r0).

    ``lanes`` holds (handler, instruction, k, reg) per occupied lane, in
    lane order, ``reg`` the register the lane writes or None. ``stores``
    holds the positions in ``lanes`` of the stores, ``controls`` (position,
    exits, early exit) of each branch, jump or exit. ``check`` is true
    only where a conflict is possible: two lanes write one register (which
    one an instruction writes never depends on the state), or two or more
    stores must be tested for overlap. ``writes_r0`` is whether a lane
    writes r0."""
    lanes = []
    stores = controls = ()
    written = 0                             # bit r: some lane writes r
    check = False
    for s in row:
        if s is None:
            continue
        ins = s.instr
        handler, form, reg, k = ins.step or decode_step(ins)
        if reg is not None:
            if written >> reg & 1:
                check = True
            written |= 1 << reg
        if form == STEP_STORE:
            stores += (len(lanes),)
        elif form != STEP_WRITE:
            controls += ((len(lanes), form == STEP_EXIT,
                          ins.kind is Kind.EARLY_EXIT),)
        lanes.append((handler, ins, k, reg))
    return tuple(lanes), stores, controls, check or len(stores) > 1, written & 1


def _check_row(lanes, stores, values, rp):
    """Raise the row's first ``RowConflict`` in lane order, if any: a
    register two lanes write, or a store overlapping an earlier one."""
    writes: set[int] = set()
    spans: list[tuple[int, int]] = []
    for i, (_, _, _, reg) in enumerate(lanes):
        if reg is not None:
            if reg in writes:
                raise RowConflict(f"row {rp}: two lanes write r{reg}")
            writes.add(reg)
        elif i in stores:
            addr, data, _ = values[i]
            for lo, hi in spans:
                if addr < hi and lo < addr + len(data):
                    raise RowConflict(f"row {rp}: overlapping memory writes")
            spans.append((addr, addr + len(data)))


def exec_vliw(vliw: VliwProgram, packet: PacketContext, maps: MapStore,
              limits: Limits | None = None, *, trace: bool = False):
    """Execute a program. Returns (RunReport, MachineState); the report
    holds per-row trace lines only when ``trace`` is set."""
    limits = limits or Limits()
    state = MachineState(packet=packet, maps=maps)
    regs = state.regs
    rows = vliw.rows
    row_count = len(rows)
    decoded = vliw.decoded
    if decoded is None:
        decoded = vliw.decoded = [None] * row_count
    budget = limits.max_instructions
    rows_executed = 0
    instructions = 0
    last_r0_row = -PIPELINE_DEPTH           # last executed row that wrote r0
    lines: list[str] | None = [] if trace else None
    rp = 0
    finished = False
    savings = False

    def final_result(trapped=False, trap=None):
        code = regs[0]
        action = XDP_ABORTED if trapped else result_action(code)
        return XdpResult(action, 0 if trapped else code, packet.visible(),
                         maps.snapshot(), redirect_target=state.redirect_target,
                         trapped=trapped, trap=trap)

    try:
        while not finished:
            if rows_executed >= budget or instructions >= budget:
                raise VmTrap(f"row budget {budget} exhausted")
            if not 0 <= rp < row_count:
                raise VmTrap(f"row pointer {rp} outside program")
            row = decoded[rp]
            if row is None:
                row = decoded[rp] = _decode_row(rows[rp])
            lanes, stores, controls, check, writes_r0 = row
            # every lane reads the pre-row state; writes commit after the row
            values = []
            for handler, ins, k, _ in lanes:
                values.append(handler(state, regs, ins, k, rp))
            if check:
                _check_row(lanes, stores, values, rp)
            for i, (_, _, _, reg) in enumerate(lanes):
                if reg is not None:
                    regs[reg] = values[i]
                elif i in stores:
                    # guarded again: a helper on another lane (adjust_head,
                    # map_delete) may have moved the bounds since
                    addr, data, _ = values[i]
                    write_mem(state, addr, data, rp)

            rows_executed += 1
            instructions += len(lanes)
            if writes_r0:
                last_r0_row = rows_executed

            # lanes run in index order, so the first control wins
            taken = None                    # position in ``lanes``
            next_rp = rp + 1
            for i, exits, early in controls:
                if exits:
                    finished = True
                    savings = (early
                               or rows_executed - last_r0_row >= PIPELINE_DEPTH)
                elif values[i] is None:
                    continue
                else:
                    next_rp = values[i]
                taken = i
                break
            if lines is not None:
                lines.append(_trace_line(rows_executed, rp, rows[rp], taken))
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


def _trace_line(cycle, row_index, row, taken):
    """One trace line; ``taken`` is the position, among the row's occupied
    slots, of the control that was taken, or None."""
    cells = [format_instruction(s.instr) if s is not None else "---"
             for s in row]
    line = f"cycle {cycle:4d} row {row_index:4d}: {' | '.join(cells)}"
    if taken is None:
        return line
    lanes = [lane for lane, s in enumerate(row) if s is not None]
    return f"{line} taken=lane{lanes[taken]}"
