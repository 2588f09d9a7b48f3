"""Physical register assignment: fixed-register discipline, same-row
output-conflict detection, and renaming with propagation.

Registers arrive physical (the source ISA's), and the fixed-semantic ones
keep their roles: r0 exit code, r1-r5 helper arguments, r10 frame
pointer. What remains is enforcing the third parallelizability condition
per row: after code motion two instructions in one row may write the same
register; one of them (the moved one) is renamed to a free register and
the rename is propagated to every dependent use - within the block for
temporaries, across blocks when the value is live beyond it.

Propagation follows CFG successors until a redefinition. Read-modify-
write consumers become renamed definitions themselves and propagation
continues through them; a use also reachable by an unrelated definition
of the same register makes the rename infeasible. The rename pool is
r6-r9 first, then any lower caller-style register.

The region of a rename is the new home block plus every block on a path
from it to a renamed use or definition. A candidate register is picked
only if it is free there on three counts: no slot in the region's rows
reads or writes it; it is not live into a successor outside the region;
and no earlier rename of the same compilation put its value in that
register across an overlapping region. Liveness is computed once, on the
program before any rename, so the third count is what keeps two renames
from sharing a register; every rename of one compilation, during code
motion and after it, goes through a single ``RenameContext``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .analysis import ControlFlowGraph, LivenessInfo, walk_blocks
from .errors import CompileError, RegisterPressureExceeded
from .isa import (Instruction, Kind, Program, io_sets, reg,
                  sets_conflict, written_register)
from .schedule import (BlockSchedule, LaneConstraints, Slot, VliwProgram,
                       cross_lane_violations)
from .scheduler import assign_lanes

RENAME_POOL = (6, 7, 8, 9, 5, 4, 3, 2)
ENTRY_DEF = -1


def _reads_reg(ins: Instruction, r: int) -> bool:
    return reg(r) in io_sets(ins).inputs


def _reaching_defs(program: Program, cfg: ControlFlowGraph, r: int):
    """Per-use reaching definitions of register r. Returns a dict mapping
    each reading instruction index to the set of def positions (ENTRY_DEF
    stands for the zero-initialised value)."""
    gen: dict[int, int | None] = {}
    for blk in cfg.blocks:
        last = None
        for i in blk.indices():
            if written_register(program[i]) == r:
                last = i
        gen[blk.id] = last

    live_in_defs = {b.id: set() for b in cfg.blocks}
    live_in_defs[0] = {ENTRY_DEF}
    changed = True
    while changed:
        changed = False
        for blk in cfg.blocks:
            out = {gen[blk.id]} if gen[blk.id] is not None else live_in_defs[blk.id]
            for s in blk.successors:
                if not out <= live_in_defs[s]:
                    live_in_defs[s] |= out
                    changed = True

    reach: dict[int, frozenset] = {}
    for blk in cfg.blocks:
        cur = set(live_in_defs[blk.id])
        for i in blk.indices():
            if _reads_reg(program[i], r):
                reach[i] = frozenset(cur)
            if written_register(program[i]) == r:
                cur = {i}
    return reach


@dataclass
class RenamePlan:
    old_reg: int
    new_reg: int
    def_index: int
    rmw_defs: frozenset          # read-modify-write consumers, renamed through
    use_indices: frozenset
    region: frozenset            # blocks the renamed value flows through


class RenameContext:
    """The renames applied during one compilation, in order.

    Liveness is computed on the pre-rename program, so a register that an
    earlier rename made live through a block is invisible to it, and the
    block's rows show the register only where it is read or written.
    Recording (register, region) pairs keeps later picks off values
    already flowing through a block. ``log`` holds one
    (src_index, old_reg, new_reg) tuple per rename."""

    def __init__(self):
        self.taken: list[tuple[int, frozenset]] = []
        self.log: list[tuple[int, int, int]] = []

    def conflicts(self, reg_no: int, region: frozenset) -> bool:
        return any(reg_no == r and (blocks & region)
                   for r, blocks in self.taken)

    def record(self, plan: RenamePlan):
        self.taken.append((plan.new_reg, plan.region))
        self.log.append((plan.def_index, plan.old_reg, plan.new_reg))

    def rename(self, program: Program, cfg: ControlFlowGraph,
               live: LivenessInfo, schedules: dict[int, BlockSchedule],
               slot: Slot, home_block: int) -> RenamePlan | None:
        """Plan, apply and record the renaming of ``slot``'s output.
        None (and nothing changed) if no rename is feasible."""
        plan = plan_rename(program, cfg, live, schedules, slot, home_block,
                           self)
        if plan is not None:
            _apply_rename(plan, {s.src_index: s for bs in schedules.values()
                                 for row in bs.rows for s in row})
            self.record(plan)
        return plan


def plan_rename(program: Program, cfg: ControlFlowGraph, live: LivenessInfo,
                schedules: dict[int, BlockSchedule], slot: Slot,
                home_block: int, ctx: RenameContext | None = None
                ) -> RenamePlan | None:
    """Plan renaming the output register of ``slot`` (definition originally
    at slot.src_index, now homed in ``home_block``), keeping clear of the
    renames already recorded in ``ctx``. None if infeasible."""
    d = written_register(slot.instr)
    if d is None or d in (0, 1, 10):
        return None
    if slot.instr.kind in (Kind.ALU_BINARY, Kind.ALU_UNARY):
        return None       # reads its own destination: not a pure definition
    reach = _reaching_defs(program, cfg, d)

    renamed_defs = {slot.src_index}
    renamed_uses: set[int] = set()
    while True:
        grew = False
        for u, defs in reach.items():
            if defs & renamed_defs:
                if not defs <= renamed_defs:
                    return None              # merges with an unrelated value
                if u not in renamed_uses:
                    renamed_uses.add(u)
                    grew = True
                if written_register(program[u]) == d and u not in renamed_defs:
                    renamed_defs.add(u)
                    grew = True
        if not grew:
            break
    for u in renamed_uses:
        if program[u].kind in (Kind.CALL, Kind.EXIT):
            return None                      # fixed-register consumers

    region = {home_block}
    for pos in renamed_uses | renamed_defs:
        ub = cfg.block_of(pos)
        if ub is None:
            return None
        region |= _path_blocks(cfg, home_block, ub)

    region = frozenset(region)
    new_reg = _pick_free_register(d, region, cfg, live, schedules, ctx)
    if new_reg is None:
        return None
    return RenamePlan(d, new_reg, slot.src_index,
                      frozenset(renamed_defs - {slot.src_index}),
                      frozenset(renamed_uses), region)


def _path_blocks(cfg, a, b):
    """Blocks on some path a -> b, both endpoints included. Unlike
    ``scheduler._blocks_between`` the forward walk goes on past b, so a
    loop through b is in the result: a renamed value read in b may stay
    live round that loop, and its register must be free there too. That
    is conservative, and the rename region needs it."""
    return (walk_blocks(cfg, a) & walk_blocks(cfg, b, forward=False)) | {a, b}


def _pick_free_register(d: int, region: frozenset, cfg, live, schedules,
                        ctx: RenameContext | None):
    for cand in RENAME_POOL:
        if cand == d or (ctx is not None and ctx.conflicts(cand, region)):
            continue
        sym = reg(cand)
        busy = False
        for bid in region:
            for row in schedules[bid].rows:
                for s in row:
                    io = io_sets(s.instr)
                    if sets_conflict(io.inputs | io.outputs, {sym}):
                        busy = True
                        break
                if busy:
                    break
            if busy:
                break
        if busy:
            continue
        for bid in region:
            for t in cfg.blocks[bid].successors:
                if t not in region and sym in live.live_in[t]:
                    busy = True
        if not busy:
            return cand
    return None


def _apply_rename(plan: RenamePlan, registry: dict[int, Slot]):
    old, new = plan.old_reg, plan.new_reg
    def_slot = registry[plan.def_index]
    def_slot.instr = replace(def_slot.instr, dst=new)
    for u in plan.use_indices:
        s = registry.get(u)
        if s is None:
            continue
        s.instr = _rename_reads(s.instr, old, new,
                                rename_def=u in plan.rmw_defs)


def _rename_reads(ins: Instruction, old: int, new: int,
                  rename_def: bool = False) -> Instruction:
    kw = {}
    k = ins.kind
    if k in (Kind.MOV_REG, Kind.ALU_BINARY, Kind.ALU_THREE_OP, Kind.LOAD,
             Kind.LOAD48) and ins.src == old:
        kw["src"] = new
    if k is Kind.ALU_THREE_OP and ins.src2 == old:
        kw["src2"] = new
    if k in (Kind.STORE, Kind.STORE48):
        if ins.src == old:
            kw["src"] = new
        if ins.dst == old:
            kw["dst"] = new
    if k is Kind.BRANCH:
        if ins.dst == old:
            kw["dst"] = new
        if ins.src == old:
            kw["src"] = new
    if rename_def and k in (Kind.ALU_BINARY, Kind.ALU_UNARY):
        kw["dst"] = new
    return replace(ins, **kw) if kw else ins


# ---------------------------------------------------------------------------
# assembly with cross-block lane fixups
# ---------------------------------------------------------------------------

def _lane_rows(schedules, cfg, constraints, entry_pins):
    laned = {}
    for blk in cfg.blocks:
        rows = schedules[blk.id].rows
        res = assign_lanes(rows, constraints.lanes, entry_pins.get(blk.id))
        if res is None and entry_pins.get(blk.id):
            return None, blk.id
        if res is None:
            raise CompileError(f"block {blk.id}: no valid lane assignment")
        laned[blk.id] = res
    return laned, None


def _row_layout(schedules, cfg):
    start_row = {}
    total = 0
    for blk in cfg.blocks:
        start_row[blk.id] = total
        total += len(schedules[blk.id].rows)
    return start_row, total


def _assemble(laned, schedules, cfg, constraints, program, maps):
    start_row, _ = _row_layout(schedules, cfg)

    def target_row(instr_index):
        bid = cfg.block_of(instr_index)
        return start_row[bid]

    rows: list[list[Slot | None]] = []
    row_block: list[int] = []
    for blk in cfg.blocks:
        for row in laned[blk.id]:
            out_row: list[Slot | None] = []
            for s in row:
                if s is None:
                    out_row.append(None)
                    continue
                ins = s.instr
                if ins.kind in (Kind.BRANCH, Kind.JUMP_ALWAYS):
                    ins = replace(ins, target=target_row(ins.target))
                out_row.append(Slot(ins, s.src_block, s.src_index, s.moved))
            rows.append(out_row)
            row_block.append(blk.id)
    return VliwProgram(lane_count=constraints.lanes, rows=rows,
                       row_block=row_block, maps=maps)


def assign_registers(schedules: dict[int, BlockSchedule], live: LivenessInfo,
                     constraints: LaneConstraints, program: Program,
                     cfg: ControlFlowGraph, ctx: RenameContext, maps=()):
    """Fix any residual same-row output conflict by renaming through
    ``ctx`` (which already holds the renames code motion applied), then
    assemble the final program with globally consistent lanes."""
    for blk in cfg.blocks:
        for row in schedules[blk.id].rows:
            for i, a in enumerate(row):
                for b in row[i + 1:]:
                    ra = written_register(a.instr)
                    rb = written_register(b.instr)
                    if ra is None or ra != rb:
                        continue
                    victim = b if b.moved else a
                    if not victim.moved:
                        raise CompileError(
                            f"block {blk.id}: unexpected same-row output "
                            f"conflict between unmoved instructions")
                    if ctx.rename(program, cfg, live, schedules, victim,
                                  blk.id) is None:
                        raise RegisterPressureExceeded(
                            f"no free register to rename r{ra} "
                            f"in block {blk.id}")

    # lanes: intra-block first, then iterate cross-edge forwarding fixups by
    # pinning edge readers to their producers' lanes; unresolvable blocks get
    # an empty leading row, which breaks the back-to-back adjacency for good
    entry_pins: dict[int, dict[int, int]] = {}
    padded: set[int] = set()
    for _ in range(8):
        laned, failed_block = _lane_rows(schedules, cfg, constraints, entry_pins)
        if laned is None:
            _pad_block(schedules, entry_pins, padded, failed_block)
            continue
        vliw = _assemble(laned, schedules, cfg, constraints, program, maps)
        violations = cross_lane_violations(vliw)
        if not violations:
            return vliw
        for _, to_row, reader, _, prod_lane in violations:
            bid = vliw.row_block[to_row]
            target_slot = _find_home_slot(schedules[bid], reader)
            if target_slot is None or bid in padded:
                continue
            pins = entry_pins.setdefault(bid, {})
            if pins.get(id(target_slot), prod_lane) != prod_lane:
                _pad_block(schedules, entry_pins, padded, bid)
            else:
                pins[id(target_slot)] = prod_lane
    # guaranteed fallback: pad every remaining violation target
    for _ in range(len(cfg.blocks) + 1):
        laned, failed_block = _lane_rows(schedules, cfg, constraints, entry_pins)
        if laned is None:
            _pad_block(schedules, entry_pins, padded, failed_block)
            continue
        vliw = _assemble(laned, schedules, cfg, constraints, program, maps)
        violations = cross_lane_violations(vliw)
        if not violations:
            return vliw
        for _, to_row, _, _, _ in violations:
            _pad_block(schedules, entry_pins, padded, vliw.row_block[to_row])
    raise CompileError("could not establish per-lane forwarding discipline")


def _pad_block(schedules, entry_pins, padded, bid):
    if bid not in padded:
        schedules[bid].rows.insert(0, [])
        padded.add(bid)
    entry_pins.pop(bid, None)


def _find_home_slot(bs: BlockSchedule, slot: Slot):
    for row in bs.rows:
        for s in row:
            if s.src_index == slot.src_index and s.src_block == slot.src_block:
                return s
    return None
