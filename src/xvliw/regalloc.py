"""Lane choice: the per-row step, a block on its own, and the program.

Registers arrive physical (the source ISA's) and stay so: nothing is
renamed. The third parallelizability condition per row - no two
instructions of one row write the same register - holds by construction.
The DDG's last-writer edges, from each writer of a register to the next,
keep a block's own writers of one register in different rows, and code
motion places a mover only after every slot of its new block that it
conflicts with.

The core forwards a result only along the lane that produced it, and a
row's branches take ascending lanes in program order (lane index is
taken-branch priority). ``lane_row`` lanes one row under both rules.
Code motion checks the first on the rows a change touched
(``forwarding_ok``), and lays out a block with pulled branches on its
own (``assign_lanes``). The final lanes come from one pass over the
whole program: blocks' rows are laid out in block order, and each slot is
pinned to the lane of its producer in every runtime predecessor row
already laid out. A back edge cannot be pinned ahead of time; when one
forwards across lanes, or a row's pins cannot all be met, the block gets
one leading empty row and the pass runs again.
"""

from __future__ import annotations

from itertools import permutations

from .analysis import ControlFlowGraph
from .errors import CompileError
from .isa import JUMP_KINDS, io_sets, rebuilt
from .schedule import (BlockSchedule, Slot, VliwProgram, cross_lane_violations,
                       row_successors)


def lane_row(slots: list[Slot], pred_rows, lanes: int):
    """Lane-indexed row for ``slots``, or None when no assignment exists.
    ``pred_rows`` are the lane-indexed rows that can run right before this
    one; each slot is pinned to the lane of its read-after-write producer
    in every one of them (two producers on different lanes cannot both
    forward to it). The first valid permutation is taken, branches tried
    lowest-lane first, so a lone unpinned branch lands on lane 0 and
    pulled branch groups come out ascending in original order."""
    if len(slots) > lanes:
        return None
    order = sorted(slots, key=lambda s: (s.instr.kind not in JUMP_KINDS,
                                         s.src_index))
    producers = [(lane, io_sets(p.instr).writes) for prev in pred_rows
                 for lane, p in enumerate(prev) if p is not None]
    pins = []
    for s in order:
        reads = io_sets(s.instr).reads
        wanted = {lane for lane, writes in producers if writes & reads}
        if len(wanted) > 1:
            return None
        pins.append(wanted.pop() if wanted else None)
    branches = sum(s.instr.kind in JUMP_KINDS for s in slots)
    for perm in permutations(range(lanes), len(order)):
        if all(pin is None or pin == lane for pin, lane in zip(pins, perm)) \
                and list(perm[:branches]) == sorted(perm[:branches]):
            placed = dict(zip(perm, order))
            return [placed.get(lane) for lane in range(lanes)]
    return None


def assign_lanes(rows: list[list[Slot]], lanes: int):
    """Lane-indexed rows for one block on its own, each row's only
    predecessor being the row before it; None when some row has no valid
    assignment."""
    out: list[list[Slot | None]] = []
    for slots in rows:
        row = lane_row(slots, out[-1:], lanes)
        if row is None:
            return None
        out.append(row)
    return out


def forwarding_ok(prev: list[Slot], row: list[Slot]) -> bool:
    """Whether ``row`` keeps the forwarding rule after ``prev``: each slot
    reads from at most one slot of ``prev``, and no two from the same one.
    Rows of at most ``lanes`` slots and one jump each pass ``assign_lanes``
    exactly when every two consecutive ones keep it."""
    writes = [io_sets(p.instr).writes for p in prev]
    read = set()
    for s in row:
        reads = io_sets(s.instr).reads
        hit = {i for i, w in enumerate(writes) if w & reads}
        if len(hit) > 1 or hit & read:
            return False
        read |= hit
    return True


def _lay_out(schedules, cfg, lanes, maps):
    """One lane-assignment pass over the assembled program. Blocks' rows
    are laid out in block order with branch targets as row indices, and
    rows are laned in layout order, each slot pinned to the lane of its
    producer in every runtime predecessor row laid out before it. Returns
    the program and the blocks that need a leading empty row: the block
    of the first row with no valid assignment under its pins, or else
    every block whose first row a back edge reaches across lanes (a
    forward transition ``lane_row`` has pinned, by the same test)."""
    start: dict[int, int] = {}
    row_block: list[int] = []
    for blk in cfg.blocks:
        start[blk.id] = len(row_block)
        row_block += [blk.id] * len(schedules[blk.id].rows)

    def placed(s: Slot) -> Slot:
        ins = s.instr
        if ins.kind in JUMP_KINDS:
            ins = rebuilt(ins, target=start[cfg.block_of(ins.target)])
        return Slot(ins, s.src_block, s.src_index, s.moved)

    vliw = VliwProgram(lane_count=lanes, rows=[[None] * lanes for _ in row_block],
                       row_block=row_block, maps=maps)
    preds: list[list[int]] = [[] for _ in row_block]
    back = []                        # (row, earlier or same row it can reach)
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
            else:
                back.append((r, n))
    return vliw, {row_block[to] for _, to, *_ in cross_lane_violations(vliw, back)}


def assign_registers(schedules: dict[int, BlockSchedule],
                     cfg: ControlFlowGraph, lanes: int, maps=()):
    """Assemble the final program with globally consistent lanes. Returns
    (program, padding rows). A block gets one leading empty row, which no
    value forwards across, only where ``_lay_out`` finds it needs one;
    every retry pads a block not padded before.

    Only lanes are assigned; the name is kept for the callers that wrap
    it. Registers need no work: no row holds two writers of a register
    (see the module docstring)."""
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
