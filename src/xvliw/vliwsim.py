"""Row-by-row simulator of the 4-lane, 4-stage soft processor.

Within a row every lane reads the pre-row registers and memory
(simultaneous issue) and its writes commit after the row; only a helper
acts as its lane is evaluated, in lane order, so later lanes of the row
read the maps, packet and bounds it left. When several branch slots are
taken the lowest lane index wins (lane order is taken-branch priority).
An exit slot ends execution after its row commits.

Cycle accounting: one row per cycle in steady state plus the pipeline
drain (depth - 1 cycles) at exit. The drain is waived when the
terminating instruction is a parametrized exit, or a bare exit whose
action register was not written in the previous in-flight rows - those
are the cases the fetch stage can recognise and stop early, saving the
three remaining cycles. A ``RunReport`` also gives the lane utilisation
(instructions over rows times lanes) and the drain cycles.

Each row is decoded once, on its first execution, into its lanes' steps
(``vm.decode_step``, shared with the oracle wherever the instruction
objects are shared), kept in the program's ``VliwProgram.decoded`` field.
The decode also settles, from the row's own facts and never its region
annotations, whether the row may commit each lane as it runs, in lane
order; no lane can tell that from the hardware order below when
  (a) no lane reads a register an earlier lane writes (the registers among
      its ``io_sets`` reads; a call reads its helper's arguments),
  (b) no two lanes write one register,
  (c) no load, store or call follows a store, except disjoint frame
      stores (``vm.frame_offset``); any lane may follow a call,
  (d) and where a lane that can trap (``vm.TRAPPING``) follows a register
      write, the row saves the registers and restores them on a ``VmTrap``.
Any other row runs as the hardware implies: every lane is evaluated, the
first ``RowConflict`` in lane order is raised, then the lanes commit; in a
row that holds a call each store is located again at commit (the helper
may have moved the bounds), and a trap there restores the registers as
in (d). Both keep the bounds guard, row budget and row-pointer trap.

Per-row trace lines are built only when a caller asks for them
(``exec_vliw(..., trace=True)``); formatting them costs more than
executing the row.
"""

from __future__ import annotations

from dataclasses import dataclass

from .analysis import bernstein_ok
from .asm import format_instruction
from .errors import RowConflict, VmTrap
from .isa import FRAME_REG, JUMP_KINDS, MEMORY, Kind, extent, io_sets
from .schedule import VliwProgram, cross_lane_violations
from .vm import (
    Limits,
    MachineState,
    MapStore,
    PacketContext,
    STEP_BRANCH,
    STEP_STORE,
    STEP_WRITE,
    XDP_ABORTED,
    XdpResult,
    TRAPPING,
    commit_store,
    decode_step,
    frame_offset,
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
    lane_utilisation: float     # instructions / (rows x lanes)
    drain_cycles: int           # cycles past one per row: the pipeline drain
    empty_rows: int             # rows executed that hold no instruction
    trace_lines: list[str] | None = None    # one line per row, when asked for

    def as_dict(self):
        return {
            **self.result.summary(),
            "rows_executed": self.rows_executed,
            "instructions_executed": self.instructions_executed,
            "cycles": self.cycles,
            "dynamic_ipc": round(self.dynamic_ipc, 4),
            "lane_utilisation": round(self.lane_utilisation, 4),
            "drain_cycles": self.drain_cycles,
            "empty_rows": self.empty_rows,
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
    (lanes, undo, writes_r0, guard).

    ``lanes`` holds (handler, instruction, k, reg, form, position) per
    occupied lane, in lane order, ``reg`` the register the lane writes or
    None. ``guard`` is None when the lanes may commit as they run (rules
    (a)-(c) of the module docstring), and ``undo`` then is rule (d); else
    ``guard`` says the row holds a call and ``undo`` a non-frame store too."""
    lanes = []
    written = 0                 # the registers earlier lanes write
    stored = 0                  # the atoms earlier stores may write: their
                                # frame bytes, or all memory
    in_order = True
    undo = False
    for s in row:
        if s is None:
            continue
        ins = s.instr
        handler, form, reg, k = ins.step or decode_step(ins)
        if written:
            if written & (ins.io or io_sets(ins)).reads or \
                    reg is not None and written >> reg & 1:     # (a), (b)
                in_order = False
            if handler in TRAPPING:                             # (d)
                undo = True
        if form == STEP_STORE:
            off = frame_offset(ins) if ins.dst == FRAME_REG else None
            span = MEMORY if off is None else \
                extent(("stack", off, off + ins.width))
            if stored & span:                                   # (c)
                in_order = False
            stored |= span
        elif stored and ins.kind in _LOAD_OR_CALL:              # (c)
            in_order = False
        if reg is not None:
            written |= 1 << reg
        lanes.append((handler, ins, k, reg, form, len(lanes)))
    guard = None if in_order else any(
        lane[1].kind is Kind.CALL for lane in lanes)
    undo = undo if in_order else guard and stored == MEMORY
    return lanes, undo, bool(written & 1), guard


_LOAD_OR_CALL = frozenset((Kind.LOAD, Kind.LOAD48, Kind.CALL))


def _check_row(lanes, values, rp):
    """Raise the row's first ``RowConflict`` in lane order, if any: a
    register two lanes write, or a store overlapping an earlier one."""
    writes: set[int] = set()
    spans: list[tuple[int, int]] = []
    for _, _, _, reg, form, i in lanes:
        if reg is not None:
            if reg in writes:
                raise RowConflict(f"row {rp}: two lanes write r{reg}")
            writes.add(reg)
        elif form == STEP_STORE:
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
    empty_rows = 0
    last_r0_row = -PIPELINE_DEPTH           # last executed row that wrote r0
    lines: list[str] | None = [] if trace else None
    rp = 0
    finished = False
    savings = False
    saved = None

    try:
        while not finished:
            if rows_executed >= budget or instructions >= budget:
                raise VmTrap(f"row budget {budget} exhausted")
            if not 0 <= rp < row_count:
                raise VmTrap(f"row pointer {rp} outside program")
            row = decoded[rp]
            if row is None:
                row = decoded[rp] = _decode_row(rows[rp])
            lanes, undo, writes_r0, guard = row
            taken = None                    # position in ``lanes``
            next_rp = rp + 1
            values = None
            if guard is not None:
                # every lane reads the pre-row state; nothing commits
                # before the whole row has run
                values = [handler(state, regs, ins, k, rp)
                          for handler, ins, k, _, _, _ in lanes]
                _check_row(lanes, values, rp)
            if undo:
                saved = regs.copy()
            try:
                # lanes commit in index order, so the first control wins
                for handler, ins, k, reg, form, i in lanes:
                    value = (handler(state, regs, ins, k, rp) if values is None
                             else values[i])
                    if form == STEP_WRITE:
                        regs[reg] = value
                    elif form == STEP_STORE:
                        if guard:
                            # located again: the row's helper (adjust_head,
                            # map_delete) may have moved the bounds since
                            write_mem(state, value[0], value[1], rp)
                        else:
                            commit_store(value[1], *value[2])
                    elif form == STEP_BRANCH:
                        if value is not None and taken is None:
                            taken, next_rp = i, value
                    else:
                        if reg is not None:
                            regs[reg] = value
                        if taken is None:
                            taken, finished = i, True
            except VmTrap:
                if undo:
                    regs[:] = saved
                raise

            rows_executed += 1
            instructions += len(lanes)
            if not lanes:
                empty_rows += 1
            if writes_r0:
                last_r0_row = rows_executed
            if finished:
                savings = (lanes[taken][1].kind is Kind.EARLY_EXIT
                           or rows_executed - last_r0_row >= PIPELINE_DEPTH)
            if lines is not None:
                lines.append(_trace_line(rows_executed, rp, rows[rp], taken))
            rp = next_rp
    except VmTrap as exc:
        rows_executed = max(rows_executed, 1)
        result = XdpResult(XDP_ABORTED, 0, packet.visible(), maps.snapshot(),
                           redirect_target=state.redirect_target,
                           trapped=True, trap=str(exc))
        cycles = rows_executed + PIPELINE_DEPTH - 1
    else:
        code = regs[0]
        result = XdpResult(result_action(code), code, packet.visible(),
                           maps.snapshot(), redirect_target=state.redirect_target)
        cycles = rows_executed if savings else rows_executed + PIPELINE_DEPTH - 1
    return RunReport(result, rows_executed, instructions, cycles,
                     instructions / rows_executed,
                     instructions / (rows_executed * vliw.lane_count),
                     cycles - rows_executed, empty_rows, lines), state


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
