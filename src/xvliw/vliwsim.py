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
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


@dataclass(frozen=True)
class CycleModel:
    pipeline_depth: int = 4          # fetch, decode, execute, commit


@dataclass
class RunReport:
    result: XdpResult
    rows_executed: int
    instructions_executed: int
    cycles: int
    dynamic_ipc: float
    trace_lines: list = field(default_factory=list)

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
              limits: Limits | None = None, cycle_model: CycleModel | None = None):
    """Execute a program. Returns (RunReport, MachineState)."""
    limits = limits or Limits()
    model = cycle_model or CycleModel()
    state = MachineState(packet=packet, maps=maps)
    rows_executed = 0
    instructions = 0
    recent_writes: list[set] = []           # per executed row, registers written
    trace: list[str] = []
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
            if rows_executed >= limits.max_instructions or \
                    instructions >= limits.max_instructions:
                raise VmTrap(f"row budget {limits.max_instructions} exhausted")
            if not 0 <= rp < len(vliw.rows):
                raise VmTrap(f"row pointer {rp} outside program")
            row = vliw.rows[rp]
            slots = [(lane, s) for lane, s in enumerate(row) if s is not None]

            effects = []
            for lane, s in slots:
                effects.append((lane, s, eval_instruction(state, s.instr, rp)))

            writes: dict[int, int] = {}
            mem_spans: list[tuple[int, int]] = []
            for lane, s, e in effects:
                for r_i in e.reg_writes:
                    if r_i in writes:
                        raise RowConflict(
                            f"row {rp}: two lanes write r{r_i}")
                    writes[r_i] = lane
                for addr, data in e.mem_writes:
                    for lo, hi in mem_spans:
                        if addr < hi and lo < addr + len(data):
                            raise RowConflict(
                                f"row {rp}: overlapping memory writes")
                    mem_spans.append((addr, addr + len(data)))
            for lane, s, e in effects:
                apply_effects(state, e, rp)

            rows_executed += 1
            instructions += len(slots)
            recent_writes.append({r_i for _, _, e in effects
                                  for r_i in e.reg_writes})

            controls = [(lane, s, e.control) for lane, s, e in effects
                        if e.control is not None]
            controls.sort(key=lambda t: t[0])
            taken_lane = None
            next_rp = rp + 1
            for lane, s, ctl in controls:
                if ctl[0] == "exit":
                    finished = True
                    taken_lane = lane
                    term = s.instr
                    if term.kind is Kind.EARLY_EXIT:
                        savings = True
                    else:
                        window = recent_writes[-model.pipeline_depth:]
                        savings = not any(0 in w for w in window)
                else:
                    taken_lane = lane
                    next_rp = ctl[1]
                break
            trace.append(_trace_line(rows_executed, rp, row, taken_lane))
            rp = next_rp
    except VmTrap as exc:
        rows_executed = max(rows_executed, 1)
        cycles = rows_executed + model.pipeline_depth - 1
        report = RunReport(final_result(trapped=True, trap=str(exc)),
                           rows_executed, instructions, cycles,
                           instructions / rows_executed, trace)
        return report, state

    cycles = rows_executed
    if not savings:
        cycles += model.pipeline_depth - 1
    report = RunReport(final_result(), rows_executed, instructions, cycles,
                       instructions / rows_executed if rows_executed else 0.0,
                       trace)
    return report, state


def _trace_line(cycle, row_index, row, taken_lane):
    cells = [format_instruction(s.instr) if s is not None else "---"
             for s in row]
    taken = f" taken=lane{taken_lane}" if taken_lane is not None else ""
    return f"cycle {cycle:4d} row {row_index:4d}: {' | '.join(cells)}{taken}"


def measure_ipc(vliw: VliwProgram, workload, maps: MapStore | None = None,
                head_room: int = 64, limits: Limits | None = None):
    """(static_ipc, mean dynamic_ipc) over a packet workload. Maps persist
    across the workload's packets, as they do across real executions."""
    maps = maps if maps is not None else MapStore(vliw.maps)
    dyn: list[float] = []
    for item in workload:
        if isinstance(item, PacketContext):
            pkt = item
        elif isinstance(item, tuple):
            data, port = item
            pkt = PacketContext(data, head_room=head_room, ingress_port=port)
        else:
            pkt = PacketContext(item, head_room=head_room)
        report, _ = exec_vliw(vliw, pkt, maps, limits)
        dyn.append(report.dynamic_ipc)
    dynamic = sum(dyn) / len(dyn) if dyn else 0.0
    return vliw.static_ipc, dynamic
