"""Program-wide lane assignment.

Registers arrive physical (the source ISA's) and stay so: nothing is
renamed. The third parallelizability condition per row - no two
instructions of one row write the same register - holds by construction.
The DDG's write-after-write edges keep a block's own writers of one
register in different rows, and code motion places a mover only after
every slot of its new block that it conflicts with.

Lanes are assigned last, in one pass over the whole program: blocks' rows
are laid out in block order, and each slot is pinned to the lane of its
producer in every runtime predecessor row already laid out (the core
forwards a result only along the lane that produced it). A back edge
cannot be pinned ahead of time; when one forwards across lanes, or a
row's pins cannot all be met, the block gets one leading empty row and
the pass runs again.
"""

from __future__ import annotations

from dataclasses import replace

from .analysis import ControlFlowGraph
from .errors import CompileError
from .isa import Kind
from .schedule import (BlockSchedule, Slot, VliwProgram, cross_lane_violations,
                       row_successors)
from .scheduler import lane_row


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
