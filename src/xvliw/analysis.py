"""Control and data flow analysis.

Basic blocks, the CFG with dominator/post-dominator sets, backward
liveness over register and memory-region symbols, per-block data
dependence graphs, the pairwise parallelizability predicate and the
quadratic check-count formula a runtime scheduler would need.

Post-dominance uses a virtual exit node joining every block without
successors; blocks that cannot reach an exit keep conservative (full)
post-dominator sets.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

from .asm import format_instruction
from .errors import ProgramError
from .isa import (Instruction, Program, io_sets, reachable_instructions,
                  sets_conflict, successors, symbols_overlap)

_EXITV = -1


@dataclass(frozen=True)
class BasicBlock:
    id: int
    start: int                      # leader instruction index
    end: int                        # last instruction index, inclusive
    successors: tuple[int, ...]
    predecessors: tuple[int, ...]

    def indices(self):
        return range(self.start, self.end + 1)

    def __len__(self):
        return self.end - self.start + 1


def find_basic_blocks(program: Program) -> list[BasicBlock]:
    """Partition the reachable instructions into maximal blocks.

    Leaders are the entry, every branch target and every instruction
    following a control transfer. Unreachable code is dropped (the
    caller can diff against ``reachable_instructions`` for diagnostics).
    """
    reach = reachable_instructions(program)
    leaders = {0}
    for i in sorted(reach):
        if program[i].is_control:
            leaders.update(successors(program[i], i))
            leaders.add(i + 1)
    leaders = sorted(x for x in leaders if x in reach)

    spans = []
    for bi, start in enumerate(leaders):
        end = start
        nxt = leaders[bi + 1] if bi + 1 < len(leaders) else len(program)
        while end + 1 < nxt and end + 1 in reach and not program[end].is_control:
            end += 1
        spans.append((start, end))

    id_of_leader = {s: i for i, (s, _) in enumerate(spans)}
    succs: list[list[int]] = [[] for _ in spans]
    preds: list[list[int]] = [[] for _ in spans]
    for bid, (start, end) in enumerate(spans):
        for t in successors(program[end], end):
            if t not in id_of_leader:
                raise ProgramError(f"block {bid}: control flows to non-leader {t}")
            succs[bid].append(id_of_leader[t])
    for bid, ss in enumerate(succs):
        for s in ss:
            preds[s].append(bid)

    return [BasicBlock(bid, start, end, tuple(succs[bid]), tuple(sorted(set(preds[bid]))))
            for bid, (start, end) in enumerate(spans)]


@dataclass
class ControlFlowGraph:
    blocks: list[BasicBlock]
    entry: int
    dom: dict[int, frozenset]
    pdom: dict[int, frozenset]

    def block_of(self, instr_index: int) -> int | None:
        for b in self.blocks:
            if b.start <= instr_index <= b.end:
                return b.id
        return None

    def dominates(self, a: int, b: int) -> bool:
        return a in self.dom[b]

    def postdominates(self, a: int, b: int) -> bool:
        return a in self.pdom[b]


def build_cfg(blocks: list[BasicBlock]) -> ControlFlowGraph:
    """Attach dominator and post-dominator sets (iterative dataflow)."""
    ids = [b.id for b in blocks]
    preds = {b.id: list(b.predecessors) for b in blocks}
    succs = {b.id: list(b.successors) for b in blocks}

    dom = {b: set(ids) for b in ids}
    dom[0] = {0}
    changed = True
    while changed:
        changed = False
        for b in ids:
            if b == 0:
                continue
            new = set(ids)
            for p in preds[b]:
                new &= dom[p]
            new |= {b}
            if new != dom[b]:
                dom[b] = new
                changed = True

    rsuccs = {b: (succs[b] or [_EXITV]) for b in ids}
    universe = set(ids) | {_EXITV}
    pdom = {b: set(universe) for b in ids}
    pdom[_EXITV] = {_EXITV}
    changed = True
    while changed:
        changed = False
        for b in ids:
            new = set(universe)
            for s in rsuccs[b]:
                new &= pdom[s]
            new |= {b}
            if new != pdom[b]:
                pdom[b] = new
                changed = True

    return ControlFlowGraph(
        blocks=list(blocks), entry=0,
        dom={b: frozenset(dom[b]) for b in ids},
        pdom={b: frozenset(pdom[b] - {_EXITV}) for b in ids})


def build_program_cfg(program: Program) -> ControlFlowGraph:
    return build_cfg(find_basic_blocks(program))


def walk_blocks(cfg: ControlFlowGraph, start: int, forward: bool = True,
                stop=()) -> set[int]:
    """Blocks reached from ``start`` in one or more steps along CFG
    successors (predecessors when ``forward`` is false). A block in
    ``stop`` is reached but not walked through. ``start`` itself is in the
    result only if a cycle avoiding ``stop`` leads back to it."""
    seen: set[int] = set()
    work = [start]
    while work:
        x = work.pop()
        blk = cfg.blocks[x]
        for t in blk.successors if forward else blk.predecessors:
            if t not in seen:
                seen.add(t)
                if t not in stop:
                    work.append(t)
    return seen


def control_equivalent(cfg: ControlFlowGraph, b: int) -> set[int]:
    """Blocks executed iff ``b`` executes: two-sided dom/post-dom."""
    out = {b}
    for c in (blk.id for blk in cfg.blocks):
        if c == b:
            continue
        if (cfg.dominates(b, c) and cfg.postdominates(c, b)) or \
           (cfg.dominates(c, b) and cfg.postdominates(b, c)):
            out.add(c)
    return out


def candidate_blocks(cfg: ControlFlowGraph, b: int) -> set[int]:
    """Code-motion sources: control-equivalent blocks plus their dominated
    successors; ``b`` itself is never a source."""
    ce = control_equivalent(cfg, b) - {b}
    out = set(ce)
    for x in ce:
        for s in cfg.blocks[x].successors:
            if s != b and cfg.dominates(x, s):
                out.add(s)
    return out


# ---------------------------------------------------------------------------
# liveness
# ---------------------------------------------------------------------------

def _covers(d, k) -> bool:
    """True when a write of symbol d definitely overwrites all of k."""
    if d == k and d[0] in ("reg",):
        return True
    if d[0] == "stack" and k[0] == "stack" and len(d) == 3 and len(k) == 3:
        return d[1] <= k[1] and k[2] <= d[2]
    return False


def _kill(live: set, defs) -> set:
    return {s for s in live if not any(_covers(d, s) for d in defs)}


@dataclass
class LivenessInfo:
    cfg: ControlFlowGraph
    use: dict[int, frozenset]
    defs: dict[int, frozenset]
    live_in: dict[int, frozenset]
    live_out: dict[int, frozenset]


def block_code(cfg: ControlFlowGraph, program: Program) -> dict[int, list]:
    """Each block's instructions in program order, as ``liveness`` takes
    them."""
    return {blk.id: [program[i] for i in blk.indices()] for blk in cfg.blocks}


def liveness(cfg: ControlFlowGraph,
             code: dict[int, Sequence[Instruction]]) -> LivenessInfo:
    """Backward dataflow to the least fixed point over ``code``, each
    block's instructions in execution order: a program's (``block_code``)
    or a schedule's rows flattened in order. Instructions sharing a row
    pass the pairwise Bernstein test, so their order within the row does
    not matter. Memory-region symbols participate like registers; only
    register writes and exact stack ranges kill (anything else is an
    over-approximation kept live)."""
    use: dict[int, set] = {}
    defs: dict[int, set] = {}
    for blk in cfg.blocks:
        u: set = set()
        d: set = set()
        for ins in code[blk.id]:
            io = io_sets(ins)
            u |= {s for s in io.inputs if not any(_covers(x, s) for x in d)}
            d |= io.outputs
        use[blk.id] = u
        defs[blk.id] = d

    live_in = {b.id: set() for b in cfg.blocks}
    live_out = {b.id: set() for b in cfg.blocks}
    changed = True
    while changed:
        changed = False
        for blk in reversed(cfg.blocks):
            out: set = set()
            for s in blk.successors:
                out |= live_in[s]
            new_in = use[blk.id] | _kill(out, defs[blk.id])
            if out != live_out[blk.id] or new_in != live_in[blk.id]:
                live_out[blk.id] = out
                live_in[blk.id] = new_in
                changed = True

    return LivenessInfo(cfg,
                        {b: frozenset(use[b]) for b in use},
                        {b: frozenset(defs[b]) for b in defs},
                        {b: frozenset(live_in[b]) for b in live_in},
                        {b: frozenset(live_out[b]) for b in live_out})


def _live_across(live, ins: Instruction) -> frozenset:
    """Symbols live before ``ins``, given those live after it."""
    io = io_sets(ins)
    return frozenset(_kill(live, io.outputs) | io.inputs)


def live_after(info: LivenessInfo, program: Program,
               block_id: int) -> dict[int, frozenset]:
    """Symbols live immediately after each instruction of a block, from
    one backward walk."""
    blk = info.cfg.blocks[block_id]
    out = {blk.end: info.live_out[block_id]}
    for i in range(blk.end, blk.start, -1):
        out[i - 1] = _live_across(out[i], program[i])
    return out


def live_before(info: LivenessInfo, program: Program, block_id: int,
                index: int) -> frozenset:
    """Symbols live immediately before instruction ``index`` of a block."""
    return _live_across(live_after(info, program, block_id)[index],
                        program[index])


# ---------------------------------------------------------------------------
# data dependence
# ---------------------------------------------------------------------------

@dataclass
class DataDependenceGraph:
    block_id: int
    nodes: list[int]                              # absolute instruction indices
    edges: dict[tuple[int, int], frozenset]       # (from, to) -> {RAW, WAR, WAW}
    preds: dict[int, set] = field(init=False)
    succs: dict[int, set] = field(init=False)
    raw_preds: dict[int, set] = field(init=False)  # RAW predecessors only

    def __post_init__(self):
        self.preds = {n: set() for n in self.nodes}
        self.succs = {n: set() for n in self.nodes}
        self.raw_preds = {n: set() for n in self.nodes}
        for (i, j), kinds in self.edges.items():
            self.succs[i].add(j)
            self.preds[j].add(i)
            if "RAW" in kinds:
                self.raw_preds[j].add(i)


def _earlier(index: dict, memory: list, sym) -> list:
    """Nodes in ``index`` under a symbol overlapping ``sym``: a register
    overlaps only itself, a memory symbol is tested against each distinct
    memory symbol seen so far."""
    if sym[0] == "reg":
        return index.get(sym, [])
    found = []
    for m in memory:
        if m in index and symbols_overlap(m, sym):
            found += index[m]
    return found


def build_ddg(block: BasicBlock, program: Program) -> DataDependenceGraph:
    """RAW/WAR/WAW edges between a block's instructions, in program order.

    The edges equal the pairwise Bernstein conflicts: (i, j), i before j,
    carries RAW when an output of i overlaps an input of j (``sets_conflict``),
    WAR for inputs of i against outputs of j and WAW for outputs against
    outputs, and the dict holds them in sorted (i, j) order. They are found
    through an index from each symbol to the earlier nodes reading or
    writing it, so the work follows the edges rather than the pairs."""
    nodes = list(block.indices())
    readers: dict = {}                  # symbol -> earlier nodes reading it
    writers: dict = {}                  # symbol -> earlier nodes writing it
    memory: list = []                   # distinct non-register symbols seen
    out: dict[int, list] = {i: [] for i in nodes}   # i -> [(j, kinds)]
    for j in nodes:
        io = io_sets(program[j])
        kinds: dict[int, set] = {}
        for sym in io.inputs:
            for i in _earlier(writers, memory, sym):
                kinds.setdefault(i, set()).add("RAW")
        for sym in io.outputs:
            for i in _earlier(readers, memory, sym):
                kinds.setdefault(i, set()).add("WAR")
            for i in _earlier(writers, memory, sym):
                kinds.setdefault(i, set()).add("WAW")
        for i, k in kinds.items():
            out[i].append((j, frozenset(k)))
        for index, syms in ((readers, io.inputs), (writers, io.outputs)):
            for sym in syms:
                if sym[0] != "reg" and sym not in readers and sym not in writers:
                    memory.append(sym)
                index.setdefault(sym, []).append(j)
    edges = {(i, j): k for i in nodes for j, k in out[i]}
    return DataDependenceGraph(block.id, nodes, edges)


def bernstein_ok(i: Instruction, j: Instruction) -> bool:
    """True iff the two instructions may execute in parallel: both
    input/output crossings and the output/output intersection are empty."""
    a, b = io_sets(i), io_sets(j)
    return not (sets_conflict(a.inputs, b.outputs)
                or sets_conflict(a.outputs, b.inputs)
                or sets_conflict(a.outputs, b.outputs))


def n_checks(n: int) -> int:
    """Pairwise-check count a runtime scheduler needs for n instructions:
    three set tests per unordered pair."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return 3 * n * (n - 1) // 2


# ---------------------------------------------------------------------------
# dot export
# ---------------------------------------------------------------------------

def cfg_to_dot(cfg: ControlFlowGraph, program: Program) -> str:
    lines = ["digraph cfg {", "  node [shape=box, fontname=monospace];"]
    for blk in cfg.blocks:
        body = "\\l".join(
            f"{i}: {format_instruction(program[i])}" for i in blk.indices())
        lines.append(f'  b{blk.id} [label="B{blk.id}\\l{body}\\l"];')
        for s in blk.successors:
            lines.append(f"  b{blk.id} -> b{s};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def ddg_to_dot(ddg: DataDependenceGraph, program: Program) -> str:
    lines = ["digraph ddg {", "  node [shape=box, fontname=monospace];"]
    for n in ddg.nodes:
        lines.append(f'  n{n} [label="{n}: {format_instruction(program[n])}"];')
    for (i, j), kinds in sorted(ddg.edges.items()):
        lines.append(f'  n{i} -> n{j} [label="{",".join(sorted(kinds))}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
