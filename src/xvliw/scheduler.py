"""List scheduling and upward code motion.

Scheduling is structural first (which instructions share a row). A row
takes its lanes in ``lane_row``, a small permutation search that honours
the two hardware rules: back-to-back dependents share a lane, and a
row's branches occupy ascending lanes in original program order (lane
index is taken-branch priority). Code motion checks a block on its own
with ``assign_lanes``; the final lanes come from one pass over the whole
program (``regalloc.assign_registers``), with the same per-row step.

Structural scheduling runs once per block, at the full lane width. It
keeps a ready list (Gibbons & Muchnick, SIGPLAN '86): a count of unplaced
DDG predecessors per instruction, and the instructions whose count is
zero, ordered by critical path. Each row is one pass over that list. Row
feasibility mirrors the hardware's forwarding check: every instruction
has at most one producer in the immediately previous row (two producers
would demand two lanes at once), and two consumers of the same
previous-row producer cannot share a row either. No dependence edge can
join two instructions of one row, because an instruction is ready only
once all its predecessors sit in earlier rows; that alone keeps helper
calls one per row, since every call writes r0. When nothing fits, a new
row is opened.

Upward code motion then fills empty slots from later blocks. A mover keeps
its registers: it goes into the earliest row of its new block that
follows every slot it fails the pairwise Bernstein test against, so no
row ever holds two writers of one register and nothing is renamed. A
speculative mover (one from a block that does not always run when its new
block does) must write nothing that is live into a block where control
leaves the path to its source, judged by the liveness of the schedules as
code motion has transformed them so far.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from itertools import permutations

from .analysis import (
    ControlFlowGraph,
    DataDependenceGraph,
    bernstein_ok,
    candidate_blocks,
    control_equivalent,
    liveness,
    walk_blocks,
)
from .isa import Instruction, Kind, Program, io_sets, sets_conflict
from .schedule import BlockSchedule, LaneConstraints, Slot

MOVABLE_PURE = (Kind.ALU_BINARY, Kind.ALU_UNARY, Kind.MOV_IMM, Kind.MOV_REG,
                Kind.LOAD_IMM64, Kind.ALU_THREE_OP)
MOVABLE_LOADS = (Kind.LOAD, Kind.LOAD48)


# ---------------------------------------------------------------------------
# structural list scheduling
# ---------------------------------------------------------------------------

def _critical_path(ddg: DataDependenceGraph) -> dict[int, int]:
    cp: dict[int, int] = {}
    for n in sorted(ddg.nodes, reverse=True):
        succs = ddg.succs[n]
        cp[n] = 1 + max((cp[s] for s in succs), default=0)
    return cp


def _schedule_structural(ddg, cp, program, budget):
    """Greedy row construction at a given lane budget. Returns row lists of
    node indices. Critical-path priority, original order breaking ties.

    Row r is one pass over the ready list, taking each node that fits.
    Nodes made ready by row r's placements join the list from row r + 1.
    One pass is enough: a node is turned away for a full row, a previous-row
    producer already forwarding to this row, or two producers in the
    previous row, and none of these can lift as the row fills. The block's
    control instruction, its last, then joins or follows the last row."""
    preds, succs, raw = ddg.preds, ddg.succs, ddg.raw_preds
    control = [n for n in ddg.nodes if program[n].is_control]
    unplaced = {n: len(preds[n]) for n in ddg.nodes}
    ready = [(-cp[n], n) for n in ddg.nodes
             if not unplaced[n] and not program[n].is_control]
    heapify(ready)
    placed_row: dict[int, int] = {}
    rows: list[list[int]] = []
    remaining = len(ddg.nodes) - len(control)

    while remaining:
        r = len(rows)
        row: list[int] = []
        used_producers: set[int] = set()
        turned_away = []
        while ready and len(row) < budget:
            entry = heappop(ready)
            n = entry[1]
            prev_raw = {p for p in raw[n] if placed_row[p] == r - 1}
            if len(prev_raw) > 1 or (prev_raw & used_producers):
                turned_away.append(entry)
                continue
            row.append(n)
            used_producers |= prev_raw
            placed_row[n] = r
        for entry in turned_away:
            heappush(ready, entry)
        for n in row:
            for s in succs[n]:
                unplaced[s] -= 1
                if not unplaced[s] and not program[s].is_control:
                    heappush(ready, (-cp[s], s))
        remaining -= len(row)
        rows.append(row)     # may be empty when all ready nodes need distance 2

    # control instruction joins or follows the last row; it has no
    # successor in the block and its predecessors sit before ``earliest``
    for n in control:
        earliest = max((placed_row[p] + 1 for p in preds[n]), default=0)
        target = max(earliest, len(rows) - 1 if rows else 0)
        while True:
            if target == len(rows):
                rows.append([])
            row = rows[target]
            producers = {p for p in raw[n] if placed_row[p] == target - 1}
            taken = {p for m in row for p in raw[m]
                     if placed_row[p] == target - 1}
            if len(row) >= budget or len(producers) > 1 or (producers & taken):
                target += 1
                continue
            row.append(n)
            placed_row[n] = target
            break
    while rows and not rows[-1]:
        rows.pop()
    return rows


def list_schedule(block, ddg: DataDependenceGraph, constraints: LaneConstraints,
                  program: Program) -> BlockSchedule:
    """Schedule one block at the full lane width.

    No narrower budget is tried: a narrower one gave fewer rows on none
    of 1,424 program blocks (the corpus, fuzz cases 0-299 and two
    straight-line seeds) at 2, 3, 4 and 8 lanes, and on only 2 of 20,000
    random dense synthetic dependence graphs (3-24 nodes, 2-8 lanes). So
    row counts can, rarely, grow when lanes are added."""
    if not ddg.nodes:
        return BlockSchedule(block.id, [])
    rows = _schedule_structural(ddg, _critical_path(ddg), program,
                                constraints.lanes)
    return BlockSchedule(block.id, [[Slot(program[n], block.id, n) for n in row]
                                    for row in rows])


# ---------------------------------------------------------------------------
# lane assignment
# ---------------------------------------------------------------------------

def _slot_io(slot: Slot):
    return io_sets(slot.instr)


def _raw_sources(slot: Slot, prev_slots):
    """Previous-row slots whose outputs feed this slot (register or memory)."""
    ins = _slot_io(slot).inputs
    return [p for p in prev_slots if sets_conflict(_slot_io(p).outputs, ins)]


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
    branch = (Kind.BRANCH, Kind.JUMP_ALWAYS)
    order = sorted(slots, key=lambda s: (s.instr.kind not in branch,
                                         s.src_index))
    branches = sum(s.instr.kind in branch for s in slots)
    pins = []
    for s in order:
        inputs = _slot_io(s).inputs
        wanted = {lane for prev in pred_rows for lane, p in enumerate(prev)
                  if p is not None
                  and sets_conflict(_slot_io(p).outputs, inputs)}
        if len(wanted) > 1:
            return None
        pins.append(wanted.pop() if wanted else None)
    for perm in permutations(range(lanes), len(order)):
        if all(pin is None or pin == lane for pin, lane in zip(pins, perm)) \
                and list(perm[:branches]) == sorted(perm[:branches]):
            row: list[Slot | None] = [None] * lanes
            for s, lane in zip(order, perm):
                row[lane] = s
            return row
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


# ---------------------------------------------------------------------------
# upward code motion
# ---------------------------------------------------------------------------

def _blocks_between(cfg: ControlFlowGraph, b: int, s: int) -> set[int]:
    """Blocks an instruction moved from s up into b crosses: those on a
    path b -> s, both endpoints excluded. The forward walk does not go on
    past s. When b and s share a loop, a block reached only that way (s ->
    ... -> b) runs before the instruction both before and after the move,
    so it is not crossed."""
    return (walk_blocks(cfg, b, stop={s}) & walk_blocks(cfg, s, forward=False)) \
        - {b, s}


class CodeMotion:
    """Moves ready instructions from candidate blocks into empty slots."""

    def __init__(self, schedules, cfg, constraints, program, ddgs):
        self.schedules: dict[int, BlockSchedule] = schedules
        self.cfg = cfg
        self.constraints = constraints
        self.program = program
        self.ddgs = ddgs
        self.moved_log: list[tuple[int, int, int]] = []   # (src_index, from, to)
        self._live_in = None       # of the current schedules; None when stale

    def run(self):
        for blk in self.cfg.blocks:
            self._pull_into(blk.id)
            self._pull_branches(blk.id)
        return self.schedules

    # -- general motion ----------------------------------------------------

    def _pull_into(self, b: int):
        bs = self.schedules[b]
        if not bs.rows:
            return
        ctrl_eq = control_equivalent(self.cfg, b)
        for cand in sorted(candidate_blocks(self.cfg, b)):
            # anticipation only: the source must lie below b, or the "move"
            # would sink a definition past its uses
            if not self.cfg.dominates(b, cand):
                continue
            if not self.schedules[cand].rows:
                continue
            # neither b nor the source may sit in a loop the other is not
            # in, or the moved instruction would run more or fewer times
            if cand in walk_blocks(self.cfg, cand, stop={b}) or \
                    b in walk_blocks(self.cfg, b, stop={cand}):
                continue
            between = _blocks_between(self.cfg, b, cand)
            self._move_from(b, cand, cand in ctrl_eq, between)

    def _move_from(self, b, cand, is_ctrl_eq, between):
        bs = self.schedules[b]
        cs = self.schedules[cand]
        ddg = self.ddgs[cand]
        moved_nodes: set[int] = set()
        progressed = True
        while progressed:
            progressed = False
            for row in list(cs.rows):
                for slot in list(row):
                    if slot.src_block != cand:     # already migrated once
                        continue
                    if not self._movable_kind(slot.instr, is_ctrl_eq):
                        continue
                    node = slot.src_index
                    if any(p not in moved_nodes for p in ddg.preds[node]):
                        continue
                    if not self._interference_free(slot, b, cand, between,
                                                   is_ctrl_eq):
                        continue
                    r = self._find_slot(bs, slot)
                    if r is None:
                        continue
                    bs.rows[r].append(slot)
                    if assign_lanes(bs.rows, self.constraints.lanes) is None:
                        bs.rows[r].remove(slot)
                        continue
                    row.remove(slot)
                    slot.moved = True
                    self._live_in = None
                    moved_nodes.add(node)
                    self.moved_log.append((node, cand, b))
                    progressed = True
        self._compact(cs)

    def _compact(self, bs: BlockSchedule):
        """Drop empty rows where the forwarding distances still work out
        (an empty row keeping two same-row producers away from a common
        consumer must stay)."""
        changed = True
        while changed:
            changed = False
            for k, row in enumerate(bs.rows):
                if row:
                    continue
                trial = bs.rows[:k] + bs.rows[k + 1:]
                if assign_lanes(trial, self.constraints.lanes) is not None:
                    bs.rows = trial
                    changed = True
                    break

    def _movable_kind(self, ins: Instruction, is_ctrl_eq: bool) -> bool:
        if ins.kind in MOVABLE_PURE:
            return True
        # speculative loads could trap on paths that never reach the source
        return ins.kind in MOVABLE_LOADS and is_ctrl_eq

    def _interference_free(self, slot, b, cand, between, is_ctrl_eq):
        io = _slot_io(slot)
        for t in between:
            t_in, t_out = self._current_block_io(t)
            if sets_conflict(t_out, io.inputs):
                return False
            if sets_conflict(t_out, io.outputs) or sets_conflict(t_in, io.outputs):
                return False
        # instructions still in the source block ahead of the mover are its
        # DDG predecessors (already required to have moved); nothing to check.
        if not is_ctrl_eq:
            # a speculative mover's output must be dead on every path that
            # leaves the region without reaching the source, in the program
            # as transformed so far (Bernstein & Rodeh, PLDI 1991)
            live_in = self._current_live_in()
            region = set(between) | {b}
            inside = region | {cand}
            for e in region:
                for t in self.cfg.blocks[e].successors:
                    if t not in inside and sets_conflict(io.outputs, live_in[t]):
                        return False
        return True

    def _current_live_in(self):
        """Live-in sets of the current schedules, each block's rows
        flattened in order, recomputed after a move or branch pull."""
        if self._live_in is None:
            code = {bid: [s.instr for row in bs.rows for s in row]
                    for bid, bs in self.schedules.items()}
            self._live_in = liveness(self.cfg, code).live_in
        return self._live_in

    def _current_block_io(self, bid):
        ins_syms: set = set()
        out_syms: set = set()
        for row in self.schedules[bid].rows:
            for s in row:
                io = _slot_io(s)
                ins_syms |= io.inputs
                out_syms |= io.outputs
        return ins_syms, out_syms

    def _find_slot(self, bs: BlockSchedule, slot: Slot):
        """Earliest row of b with capacity and feasible forwarding that
        follows every slot of b the mover conflicts with, no later than
        b's control instruction; None if there is none."""
        lanes = self.constraints.lanes
        earliest = 0
        last_control = None
        for r, row in enumerate(bs.rows):
            for other in row:
                if not bernstein_ok(other.instr, slot.instr):
                    earliest = r + 1
                if other.instr.is_control:
                    last_control = r
        limit = last_control if last_control is not None else len(bs.rows) - 1
        for r in range(earliest, limit + 1):
            row = bs.rows[r]
            if len(row) < lanes and self._forwarding_feasible(bs, r, row, slot):
                return r
        return None

    def _forwarding_feasible(self, bs, r, row, slot):
        prev = bs.rows[r - 1] if r > 0 else []
        producers = _raw_sources(slot, prev)
        if len(producers) > 1:
            return False
        if producers:
            p = producers[0]
            for other in row:
                if p in _raw_sources(other, prev):
                    return False
        return True

    # -- parallel branching -------------------------------------------------

    def _pull_branches(self, b: int):
        bs = self.schedules[b]
        if not bs.rows:
            return
        lanes = self.constraints.lanes
        prev_block = b
        while True:
            last = bs.rows[-1]
            branches = [s for s in last if s.instr.kind is Kind.BRANCH]
            if len(last) >= lanes:
                return
            if branches:
                tail = max(branches, key=lambda s: s.src_index)
                fall_index = tail.src_index + 1
                prev_block = self.cfg.block_of(tail.src_index) \
                    if tail.moved else prev_block
            else:
                blk = self.cfg.blocks[b]
                if self.program[blk.end].is_control:
                    return
                fall_index = blk.end + 1
            fb = self.cfg.block_of(fall_index)
            if fb is None:
                return
            fblk = self.cfg.blocks[fb]
            if fblk.predecessors != (prev_block,) or len(fblk) != 1 or \
                    self.program[fblk.start].kind is not Kind.BRANCH or \
                    not self.schedules[fb].rows:
                return
            fslot = None
            for s in self.schedules[fb].rows[0]:
                if s.src_index == fblk.start:
                    fslot = s
            if fslot is None:
                return
            io = _slot_io(fslot)
            for other in last:
                oio = _slot_io(other)
                if sets_conflict(oio.outputs, io.inputs) or \
                   sets_conflict(oio.inputs, io.outputs):
                    return
            if not self._forwarding_feasible(bs, len(bs.rows) - 1, last, fslot):
                return
            last.append(fslot)
            if assign_lanes(bs.rows, lanes) is None:
                last.pop()
                return
            fslot.moved = True
            self.schedules[fb].rows = []
            self._live_in = None
            self.moved_log.append((fslot.src_index, fb, b))


def code_motion(schedules, cfg, constraints: LaneConstraints,
                program: Program, ddgs):
    """Move ready instructions upward from candidate blocks; pull trailing
    single-branch blocks up for parallel branching. Returns (schedules,
    moved_log)."""
    cm = CodeMotion(schedules, cfg, constraints, program, ddgs)
    cm.run()
    return schedules, cm.moved_log
