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
taken-branch priority). ``lane_row`` lanes one row under both rules;
code motion checks the first on the rows a move touched
(``forwarding_ok``). The final lanes come from one pass over the blocks
in order, each block laned with the rows that can run right before it
pinning its first row. A block whose pins cannot all be met gets one
leading empty row, which no value forwards across. Branches are pulled
here too, the parallel branching: a pull is taken only when ``lane_row``
lanes the grown row after the rows that run right before it. A back edge
cannot be pinned ahead of time; when one forwards across lanes into the
row it lands on (the first row at or after its target block, which code
motion may have emptied), that row's block gets the empty row in place,
which leaves every lane chosen so far valid.
"""

from __future__ import annotations

from itertools import accumulate, permutations

from .analysis import ControlFlowGraph, bernstein_ok
from .errors import CompileError
from .isa import JUMP_KINDS, NO_FALL_THROUGH, Kind, io_sets, rebuilt
from .schedule import BlockSchedule, Slot, VliwProgram, crossings


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


def assign_lanes(rows: list[list[Slot]], lanes: int, entry=()):
    """Lane-indexed rows for one block, or None when some row has no
    valid assignment. The ``entry`` rows, the lane-indexed rows that can
    run right before the block, pin its first row; each later row is
    pinned by the row before it."""
    out: list[list[Slot | None]] = []
    for slots in rows:
        row = lane_row(slots, out[-1:] or entry, lanes)
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


def _pull_branches(out: list, b: int, schedules, cfg: ControlFlowGraph,
                   lanes: int, entry: list):
    """Pull blocks b + 1, b + 2, ... into the last row of ``out``, the
    laid rows of block b, whose last row falls through, and yield each
    block pulled. A block is pulled while it is one branch reached only by
    falling through from the block before (a jump to it from the row would
    skip it), its schedule is that branch alone, the branch passes the
    pairwise test against the row, and ``lane_row`` lanes the grown row
    after the laid row before it, or after ``entry`` for a one-row block."""
    row = [s for s in out[-1] if s]
    preds = out[-2:-1] or entry
    for fb in range(b + 1, len(cfg.blocks)):
        fblk, rows = cfg.blocks[fb], schedules[fb].rows
        if fblk.predecessors != (fb - 1,) or len(fblk) != 1 or \
                [len(r) for r in rows] != [1] or \
                rows[0][0].instr.kind is not Kind.BRANCH or \
                any(s.instr.target == fblk.start for s in row):
            return
        slot = rows[0][0]
        if not all(bernstein_ok(s.instr, slot.instr) for s in row):
            return
        row.append(Slot(slot.instr, slot.src_block, slot.src_index, True))
        laned = lane_row(row, preds, lanes)
        if laned is None:
            return
        out[-1] = laned
        yield fb


def assign_registers(schedules: dict[int, BlockSchedule],
                     cfg: ControlFlowGraph, lanes: int, maps=(),
                     pull_branches: bool = True):
    """Assemble the final program with globally consistent lanes. Returns
    (program, padding rows, branches pulled). A block's entry rows are
    forward jumps into it and the previous row when that row falls
    through; a block pulled into an earlier row passes them on. With
    ``pull_branches``, each block laid out pulls branches into its last
    row (``_pull_branches``). Jump targets become row indices once every
    block is laid out.

    Only lanes are assigned; the name is kept for the callers that wrap
    it. Registers need no work: no row holds two writers of a register
    (see the module docstring)."""
    laid: dict[int, list] = {}
    jumps_into: dict[int, list] = {blk.id: [] for blk in cfg.blocks}
    entry: list = []
    padding = pulled = 0
    for blk in cfg.blocks:
        entry += jumps_into[blk.id]
        if blk.id in laid:                  # pulled into an earlier row
            continue
        rows = schedules[blk.id].rows
        out = assign_lanes(rows, lanes, entry)
        if out is None:
            padding += 1
            out = assign_lanes([[], *rows], lanes)
            if out is None:
                raise CompileError(f"block {blk.id}: no valid lane assignment")
        laid[blk.id] = out
        if not out:
            continue
        ends = any(s and s.instr.kind in NO_FALL_THROUGH for s in out[-1])
        if pull_branches and not ends:
            for fb in _pull_branches(out, blk.id, schedules, cfg, lanes, entry):
                laid[fb] = []
                pulled += 1
        last = out[-1]
        for target in {cfg.block_of(s.instr.target) for s in last
                       if s and s.instr.kind in JUMP_KINDS}:
            if target > blk.id:
                jumps_into[target].append(last)
                continue
            # the jump lands on the first row at or after its target block
            first = next(laid[b] for b in range(target, blk.id + 1) if laid[b])
            if crossings(last, first[0]):
                first.insert(0, [None] * lanes)
                padding += 1
        entry = [] if ends else [last]

    start = dict(zip(laid, accumulate(map(len, laid.values()), initial=0)))
    row_block = [bid for bid, out in laid.items() for _ in out]

    def placed(s: Slot) -> Slot:
        ins = s.instr
        if ins.kind in JUMP_KINDS:
            ins = rebuilt(ins, target=start[cfg.block_of(ins.target)])
        return Slot(ins, s.src_block, s.src_index, s.moved)

    rows = [[s and placed(s) for s in row] for out in laid.values() for row in out]
    return VliwProgram(lane_count=lanes, rows=rows, row_block=row_block,
                       maps=maps), padding, pulled
