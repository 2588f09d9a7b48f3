"""List scheduling and upward code motion.

Scheduling is structural: it says which instructions share a row, and
``regalloc`` chooses their lanes and pulls branches into shared rows.

Structural scheduling runs once per block, at the full lane width. It
keeps a ready list (Gibbons & Muchnick, SIGPLAN '86): a count of unplaced
DDG predecessors per instruction, and the instructions whose count is
zero, ordered by critical path. The count is over the edges ``build_ddg``
keeps; they have the pairwise conflicts' closure, so each instruction
becomes ready in the row it would under every conflict. Each row is one
pass over that list. Row feasibility mirrors the hardware's forwarding
check: every instruction has at most one producer in the immediately
previous row (two producers would demand two lanes at once), and two
consumers of the same previous-row producer cannot share a row either.
No dependence edge can join two instructions of one row, because an
instruction is ready only once all its predecessors sit in earlier rows;
that alone keeps helper calls one per row, since every call writes r0.
When nothing fits, a new row is opened.

Upward code motion then fills empty slots from later blocks. One
generator, ``motion_sources``, says where a block may take instructions
from: the blocks control-equivalent to it below it and their dominated
successors, none in a loop the block is not in or the reverse, each with
the blocks a move from it crosses. A mover passes the pairwise Bernstein
test against every slot of those crossed blocks. It keeps its registers:
it goes into the earliest row of its new block that follows every slot it
fails that test against, has a free lane and keeps the forwarding rule
with its neighbour rows, so no row ever holds two writers of one register
and nothing is renamed. A speculative mover (one from a block that does
not always run when its new block does) must write nothing that is live
into a block where control leaves the path to its source, judged by the
liveness of the schedules as code motion has transformed them so far.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush

from .analysis import (
    ControlFlowGraph,
    DataDependenceGraph,
    bernstein_ok,
    liveness,
    walk_blocks,
)
from .isa import Kind, Program, io_sets
from .regalloc import forwarding_ok
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

    Every node is placed through one test, ``fits(n, r)``: row r has room
    and keeps the forwarding rule of the module docstring. Row r is one
    pass over the ready list; nodes made ready by its placements join the
    list from row r + 1. One pass is enough: no reason to turn a node away
    lifts as the row fills. The block's control instruction, its last,
    then takes the first row from the last one on that fits it."""
    preds, succs, raw = ddg.preds, ddg.succs, ddg.raw_preds
    last = ddg.nodes[-1]
    control = last if program[last].is_control else None
    unplaced = {n: len(preds[n]) for n in ddg.nodes}
    ready = [(-cp[n], n) for n in ddg.nodes if not unplaced[n] and n != control]
    heapify(ready)
    placed_row: dict[int, int] = {}
    rows: list[list[int]] = []

    def fits(n, r):
        prev = {p for p in raw[n] if placed_row[p] == r - 1}
        return len(rows[r]) < budget and (not prev or len(prev) == 1 and
                                          not any(prev & raw[m] for m in rows[r]))

    remaining = len(ddg.nodes) - (control is not None)
    while remaining:
        r = len(rows)
        rows.append([])
        turned_away = []
        while ready and len(rows[r]) < budget:
            entry = heappop(ready)
            if fits(entry[1], r):
                rows[r].append(entry[1])
                placed_row[entry[1]] = r
            else:
                turned_away.append(entry)
        for entry in turned_away:
            heappush(ready, entry)
        for n in rows[r]:
            for s in succs[n]:
                unplaced[s] -= 1
                if not unplaced[s] and s != control:
                    heappush(ready, (-cp[s], s))
        # empty when every ready node reads two producers of the row before
        remaining -= len(rows[r])

    if control is not None:
        # its predecessors sit before ``r``, and it has no successor in the block
        r = max([0, len(rows) - 1] + [placed_row[p] + 1 for p in preds[control]])
        while True:
            if r == len(rows):
                rows.append([])
            if fits(control, r):
                break
            r += 1
        rows[r].append(control)
    return rows


def list_schedule(block, ddg: DataDependenceGraph, constraints: LaneConstraints,
                  program: Program) -> BlockSchedule:
    """Schedule one block at the full lane width.

    No narrower budget is tried: a narrower one gave fewer rows on none
    of 1,424 program blocks (the corpus, fuzz cases 0-299 and two
    straight-line seeds) at 2, 3, 4 and 8 lanes, and on only 2 of 20,000
    random dense synthetic dependence graphs (3-24 nodes, 2-8 lanes). So
    row counts can, rarely, grow when lanes are added."""
    rows = _schedule_structural(ddg, _critical_path(ddg), program,
                                constraints.lanes)
    return BlockSchedule([[Slot(program[n], block.id, n) for n in row]
                          for row in rows])


# ---------------------------------------------------------------------------
# upward code motion
# ---------------------------------------------------------------------------

def motion_sources(cfg: ControlFlowGraph, b: int):
    """The blocks upward code motion may take instructions from into block
    ``b``, in block order, each as ``(source, control_equivalent,
    crossed)`` (Bernstein & Rodeh, PLDI 1991).

    The sources lie below ``b``, or a move would sink definitions past
    their uses: the blocks ``b`` dominates that post-dominate it (the
    control-equivalent ones, run exactly when ``b`` is) and each such
    block's successors that it dominates. A source in a loop ``b`` is not
    in, or the reverse, is left out, or its movers would run more or fewer
    times. ``crossed`` holds the blocks on a path from ``b`` to the source,
    both excluded: those a walk forward from ``b`` and one back from the
    source reach, neither going on past the other. When ``b`` and
    the source share a loop, a block reached only that way (source -> ...
    -> ``b``) runs before the instruction both before and after the move,
    so it is not crossed."""
    equivalent = {c for c in range(len(cfg.blocks))
                  if c != b and cfg.postdominates(c, b) and cfg.dominates(b, c)}
    sources = equivalent | {s for c in equivalent
                            for s in cfg.blocks[c].successors
                            if cfg.dominates(c, s)}
    for s in sorted(sources):
        ahead = walk_blocks(cfg, b, stop={s})
        behind = walk_blocks(cfg, s, forward=False, stop={b})
        if b in ahead or s in behind:
            continue
        crossed = (ahead & behind) - {b, s}
        yield s, s in equivalent, crossed


class CodeMotion:
    """Fills each block's empty slots from its ``motion_sources``, a mover
    checked against every slot of the blocks it crosses and, if it is
    speculative, for liveness where control leaves the path to its source."""

    def __init__(self, schedules, cfg, constraints, ddgs):
        self.schedules: dict[int, BlockSchedule] = schedules
        self.cfg = cfg
        self.constraints = constraints
        self.ddgs = ddgs
        self.moved_log: list[tuple[int, int, int]] = []   # (src_index, from, to)
        self._live_in = None       # of the current schedules; None when stale

    # -- general motion ----------------------------------------------------

    def _pull_into(self, b: int):
        if not self.schedules[b].rows:
            return
        for cand, is_ctrl_eq, crossed in motion_sources(self.cfg, b):
            self._move_from(b, cand, is_ctrl_eq, crossed)

    def _move_from(self, b, cand, is_ctrl_eq, crossed):
        """One scan of ``cand``'s rows in order, so a mover's DDG
        predecessors are tried before it."""
        bs = self.schedules[b]
        ddg = self.ddgs[cand]
        moved_nodes: set[int] = set()
        for row in self.schedules[cand].rows:
            for slot in list(row):
                if slot.src_block != cand:     # already migrated once
                    continue
                # a speculative load could trap where the source never runs
                kind = slot.instr.kind
                if not (kind in MOVABLE_PURE or
                        is_ctrl_eq and kind in MOVABLE_LOADS):
                    continue
                node = slot.src_index
                if any(p not in moved_nodes for p in ddg.preds[node]):
                    continue
                if not self._interference_free(slot, b, cand, crossed,
                                               is_ctrl_eq):
                    continue
                if not self._place(bs, slot):
                    continue
                row.remove(slot)
                moved_nodes.add(node)
                slot.moved = True
                self._live_in = None
                self.moved_log.append((node, cand, b))
        self._compact(self.schedules[cand])

    def _compact(self, bs: BlockSchedule):
        """Drop, in one sweep, each empty row whose removal keeps the
        forwarding rule (an empty row keeping two same-row producers away
        from a common consumer must stay)."""
        rows = bs.rows
        k = 0
        while k < len(rows):
            if not rows[k]:
                del rows[k]
                if self._keeps_lanes(rows, k):
                    continue
                rows.insert(k, [])
            k += 1

    def _interference_free(self, slot, b, cand, crossed, is_ctrl_eq):
        if not all(bernstein_ok(other.instr, slot.instr) for t in crossed
                   for row in self.schedules[t].rows for other in row):
            return False
        # instructions still in the source block ahead of the mover are its
        # DDG predecessors (already required to have moved); nothing to check.
        if not is_ctrl_eq:
            # a speculative mover's output must be dead on every path that
            # leaves the region without reaching the source, in the program
            # as transformed so far (Bernstein & Rodeh, PLDI 1991)
            writes = io_sets(slot.instr).writes
            live_in = self._current_live_in()
            region = crossed | {b}
            inside = region | {cand}
            for e in region:
                for t in self.cfg.blocks[e].successors:
                    if t not in inside and writes & live_in[t]:
                        return False
        return True

    def _current_live_in(self):
        """Live-in sets of the current schedules, each block's rows
        flattened in order, recomputed after a move."""
        if self._live_in is None:
            code = {bid: [s.instr for row in bs.rows for s in row]
                    for bid, bs in self.schedules.items()}
            self._live_in = liveness(self.cfg, code).live_in
        return self._live_in

    def _place(self, bs: BlockSchedule, slot: Slot) -> bool:
        """Add ``slot`` to the earliest row of b that follows every slot of
        b it conflicts with, has room, and keeps b's lanes assignable
        (``_keeps_lanes``); False, with b unchanged, if there is none. No
        row is added, so b's control instruction stays in its last row."""
        lanes = self.constraints.lanes
        earliest = 0
        for r, row in enumerate(bs.rows):
            for other in row:
                if not bernstein_ok(other.instr, slot.instr):
                    earliest = r + 1
        for r, row in enumerate(bs.rows[earliest:], earliest):
            if len(row) < lanes:
                row.append(slot)
                if self._keeps_lanes(bs.rows, r):
                    return True
                row.pop()
        return False

    def _keeps_lanes(self, rows, r: int) -> bool:
        """Whether a block's ``rows``, assignable before row ``r`` changed,
        still are: the forwarding rule on row ``r`` and the row after it.
        Branches are pulled only in the lane pass, so every row code motion
        sees holds at most one jump and the rule is exact."""
        return all(forwarding_ok(rows[t - 1], rows[t])
                   for t in (r, r + 1) if 0 < t < len(rows))


def code_motion(schedules, cfg, constraints: LaneConstraints, ddgs):
    """Move ready instructions upward from each block's ``motion_sources``.
    Returns (schedules, moved_log)."""
    cm = CodeMotion(schedules, cfg, constraints, ddgs)
    for blk in cfg.blocks:
        cm._pull_into(blk.id)
    return schedules, cm.moved_log
