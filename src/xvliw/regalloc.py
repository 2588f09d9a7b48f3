"""Register renaming with propagation, and program-wide lane assignment.

Registers arrive physical (the source ISA's), and the fixed-semantic ones
keep their roles: r0 exit code, r1-r5 helper arguments, r10 frame
pointer. What remains is the third parallelizability condition per row:
no two instructions of one row write the same register. The DDG's
write-after-write edges keep a block's own writers of one register in
different rows, so only code motion can break it. When code motion
would put a mover in a row with such a writer, or with a reader of its
output, it renames the mover to a free register through this module's
``RenameContext``, and the rename is propagated to every dependent use -
within the block for temporaries, across blocks when the value is live
beyond it.

Propagation follows CFG successors until a redefinition. Read-modify-
write consumers become renamed definitions themselves and propagation
continues through them; a use also reachable by an unrelated definition
of the same register makes the rename infeasible. The rename pool is
r6-r9 first, then any lower caller-style register.

The region of a rename is the new home block plus every block on a path
from it to a renamed use or definition. A candidate register is picked
only if it is free there on three counts: no slot in the region's rows
reads or writes it; it is not live into a successor outside the region;
and no earlier rename or unrenamed code-motion move of the same
compilation put its value in that register across an overlapping region.
Liveness is computed once, on the program before any motion, so the third
count is what keeps a rename off a value moved or renamed earlier. Every
rename of one compilation goes through a single ``RenameContext``, which
also records every unrenamed move.

Lanes are assigned last, in one pass over the whole program: blocks' rows
are laid out in block order, and each slot is pinned to the lane of its
producer in every runtime predecessor row already laid out (the core
forwards a result only along the lane that produced it). A back edge
cannot be pinned ahead of time; when one forwards across lanes, or a
row's pins cannot all be met, the block gets one leading empty row and
the pass runs again.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .analysis import ControlFlowGraph, LivenessInfo, walk_blocks
from .errors import CompileError
from .isa import (Instruction, Kind, Program, io_sets, reg,
                  sets_conflict, written_register)
from .schedule import (BlockSchedule, Slot, VliwProgram, cross_lane_violations,
                       row_successors)
from .scheduler import lane_row

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
    """The renames applied during one compilation, in order, and the
    registers code motion carried across blocks without a rename.

    Liveness is computed on the pre-motion program, so a register that an
    earlier rename or move made live through a block is invisible to it,
    and the block's rows show the register only where it is read or
    written. Recording (register, region) pairs keeps later picks off
    values already flowing through a block. ``log`` holds one
    (src_index, old_reg, new_reg) tuple per rename."""

    def __init__(self):
        self.taken: list[tuple[int, frozenset]] = []
        self.log: list[tuple[int, int, int]] = []

    def conflicts(self, reg_no: int, region: frozenset) -> bool:
        return any(reg_no == r and (blocks & region)
                   for r, blocks in self.taken)

    def hold(self, reg_no: int, region: frozenset):
        """Keep later picks off ``reg_no`` over ``region``, the blocks a
        value moved by code motion without a rename now flows through."""
        self.taken.append((reg_no, region))

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
# assembly with program-wide lane assignment
# ---------------------------------------------------------------------------

def _lay_out(schedules, cfg, lanes, maps):
    """One lane-assignment pass over the assembled program. Blocks' rows
    are laid out in block order with branch targets as row indices, and
    rows are laned in layout order, each slot pinned to the lane of its
    producer in every runtime predecessor row laid out before it. Returns
    the program and the blocks that need a leading empty row: the block
    of the first row with no valid assignment under its pins, or else
    every block whose first row a back edge reaches across lanes."""
    start: dict[int, int] = {}
    row_block: list[int] = []
    for blk in cfg.blocks:
        start[blk.id] = len(row_block)
        row_block += [blk.id] * len(schedules[blk.id].rows)

    def placed(s: Slot) -> Slot:
        ins = s.instr
        if ins.kind in (Kind.BRANCH, Kind.JUMP_ALWAYS):
            ins = replace(ins, target=start[cfg.block_of(ins.target)])
        return Slot(ins, s.src_block, s.src_index, s.moved)

    vliw = VliwProgram(lane_count=lanes, rows=[[None] * lanes for _ in row_block],
                       row_block=row_block, maps=maps)
    preds: list[list[int]] = [[] for _ in row_block]
    slot_rows = (row for blk in cfg.blocks for row in schedules[blk.id].rows)
    for r, slots in enumerate(slot_rows):
        row = lane_row([placed(s) for s in slots],
                       [vliw.rows[p] for p in preds[r]], lanes)
        if row is None:
            return vliw, {row_block[r]}
        vliw.rows[r] = row
        for n in row_successors(vliw, r):
            if n > r:
                preds[n].append(r)
    return vliw, {row_block[to] for _, to, *_ in cross_lane_violations(vliw)}


def assign_registers(schedules: dict[int, BlockSchedule],
                     cfg: ControlFlowGraph, lanes: int, maps=()):
    """Assemble the final program with globally consistent lanes. Returns
    (program, padding rows). A block gets one leading empty row, which no
    value forwards across, only where ``_lay_out`` finds it needs one;
    every retry pads a block not padded before.

    Registers need no work here: code motion renames every mover that
    would share a row with another writer of its register, and the DDG
    keeps a block's own writers of one register in different rows."""
    padded: set[int] = set()
    while True:
        vliw, pad = _lay_out(schedules, cfg, lanes, maps)
        if not pad:
            return vliw, len(padded)
        if pad <= padded:
            raise CompileError(f"blocks {sorted(pad)}: no valid lane "
                               f"assignment")
        for bid in pad - padded:
            schedules[bid].rows.insert(0, [])
        padded |= pad
