"""Control and data flow analysis.

Basic blocks, the CFG with dominator/post-dominator sets and the block
walk (``walk_blocks``), backward liveness over register and memory-region
symbols, per-block data dependence graphs and the pairwise
parallelizability predicate. Which blocks code motion may take
instructions from is the scheduler's question (``scheduler.motion_sources``),
answered from these dominator sets and walks.

Post-dominators are the dominators (``_dominators``) of the reversed
graph, rooted at a virtual exit node joining every block without
successors; blocks that cannot reach an exit keep full sets.

A program's CFG and its liveness over ``block_code`` are memoised in its
``isa.ProgramAnalysis`` record (``program_cfg``, ``program_liveness``), so
the peephole passes and compile stages that read one ``Program`` build
them once; readers must not mutate them. A record need not hold a fresh
CFG: a peephole rewrite that keeps control flow gives its program the
parent's, with each block's span remapped (``peephole._apply``).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

from .asm import format_instruction
from .errors import ProgramError
from .isa import (CONTROL_KINDS, Instruction, Program, analysis_of, io_sets,
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
    caller can diff against the record's ``reachable`` for diagnostics).
    """
    instrs = program.instructions
    reach = analysis_of(program).reachable
    leaders = {0}
    for i in reach:
        ins = instrs[i]
        if ins.kind in CONTROL_KINDS:
            leaders.update(successors(ins, i))
            leaders.add(i + 1)
    leaders = sorted(x for x in leaders if x in reach)

    spans = []
    for bi, start in enumerate(leaders):
        end = start
        nxt = leaders[bi + 1] if bi + 1 < len(leaders) else len(instrs)
        while end + 1 < nxt and end + 1 in reach and \
                instrs[end].kind not in CONTROL_KINDS:
            end += 1
        spans.append((start, end))

    id_of_leader = {s: i for i, (s, _) in enumerate(spans)}
    succs: list[list[int]] = [[] for _ in spans]
    preds: list[list[int]] = [[] for _ in spans]
    for bid, (start, end) in enumerate(spans):
        for t in successors(instrs[end], end):
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
    dom: dict[int, frozenset]
    pdom: dict[int, frozenset]
    # instruction index -> id of the block holding it, built once
    block_index: dict[int, int] = field(init=False, repr=False)

    def __post_init__(self):
        self.block_index = {i: b.id for b in self.blocks for i in b.indices()}

    def block_of(self, instr_index: int) -> int | None:
        return self.block_index.get(instr_index)

    def dominates(self, a: int, b: int) -> bool:
        return a in self.dom[b]

    def postdominates(self, a: int, b: int) -> bool:
        return a in self.pdom[b]


def _dominators(nodes, into, root) -> dict[int, set]:
    """Each node's dominators from ``root``, given the nodes ``into[n]``
    with an edge into each node n: the greatest fixed point of dom(n) =
    {n} | the intersection of dom(p) over p in ``into[n]``."""
    dom = {n: set(nodes) for n in nodes}
    dom[root] = {root}
    changed = True
    while changed:
        changed = False
        for n in nodes:
            if n == root:
                continue
            new = set(nodes)
            for p in into[n]:
                new &= dom[p]
            new.add(n)
            if new != dom[n]:
                dom[n] = new
                changed = True
    return dom


def build_cfg(blocks: list[BasicBlock]) -> ControlFlowGraph:
    """Attach dominator and post-dominator sets. Post-dominators are the
    dominators of the reversed graph, rooted at the virtual exit."""
    ids = [b.id for b in blocks]
    dom = _dominators(ids, {b.id: b.predecessors for b in blocks}, 0)
    pdom = _dominators(ids + [_EXITV],
                       {b.id: b.successors or (_EXITV,) for b in blocks}, _EXITV)
    return ControlFlowGraph(
        blocks=list(blocks),
        dom={b: frozenset(dom[b]) for b in ids},
        pdom={b: frozenset(pdom[b] - {_EXITV}) for b in ids})


def build_program_cfg(program: Program) -> ControlFlowGraph:
    return build_cfg(find_basic_blocks(program))


def program_cfg(program: Program) -> ControlFlowGraph:
    """``build_program_cfg(program)``, built once per program."""
    record = analysis_of(program)
    if record.cfg is None:
        record.cfg = build_program_cfg(program)
    return record.cfg


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


# ---------------------------------------------------------------------------
# liveness
# ---------------------------------------------------------------------------

def _kill(live, defs, stack_defs) -> set:
    """``live`` less the symbols a write of all of ``defs`` definitely
    overwrites: a register only by itself, an exact stack range by a
    range in ``stack_defs`` (the exact stack ranges of ``defs``) that
    covers it. Anything else stays live."""
    out = set()
    for s in live:
        if s[0] == "reg":
            if s in defs:
                continue
        elif len(s) == 3 and s[0] == "stack" and \
                any(d[1] <= s[1] and s[2] <= d[2] for d in stack_defs):
            continue
        out.add(s)
    return out


def stack_ranges(syms) -> list:
    """The exact stack ranges ``("stack", lo, hi)`` among ``syms``."""
    return [s for s in syms if len(s) == 3 and s[0] == "stack"]


@dataclass
class LivenessInfo:
    live_in: dict[int, frozenset]
    live_out: dict[int, frozenset]


def block_code(cfg: ControlFlowGraph, program: Program) -> dict[int, list]:
    """Each block's instructions in program order, as ``liveness`` takes
    them."""
    instrs = program.instructions
    return {blk.id: list(instrs[blk.start:blk.end + 1]) for blk in cfg.blocks}


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
    stack_defs: dict[int, list] = {}
    for blk in cfg.blocks:
        u: set = set()
        d: set = set()
        sd: list = []                   # the stack ranges in d
        for ins in code[blk.id]:
            io = io_sets(ins)
            u |= _kill(io.inputs, d, sd)
            sd += stack_ranges(io.outputs - d)
            d |= io.outputs
        use[blk.id] = u
        defs[blk.id] = d
        stack_defs[blk.id] = sd

    live_in = {b.id: set() for b in cfg.blocks}
    live_out = {b.id: set() for b in cfg.blocks}
    changed = True
    while changed:
        changed = False
        for blk in reversed(cfg.blocks):
            out: set = set()
            for s in blk.successors:
                out |= live_in[s]
            new_in = use[blk.id] | _kill(out, defs[blk.id], stack_defs[blk.id])
            if out != live_out[blk.id] or new_in != live_in[blk.id]:
                live_out[blk.id] = out
                live_in[blk.id] = new_in
                changed = True

    return LivenessInfo({b: frozenset(live_in[b]) for b in live_in},
                        {b: frozenset(live_out[b]) for b in live_out})


def program_liveness(program: Program) -> LivenessInfo:
    """``liveness`` over ``block_code`` of the program's CFG, computed once
    per program."""
    record = analysis_of(program)
    if record.liveness is None:
        cfg = program_cfg(program)
        record.liveness = liveness(cfg, block_code(cfg, program))
    return record.liveness


def live_after(program: Program, blk: BasicBlock, i: int, sym) -> bool:
    """Whether ``sym``, a register or an exact stack range, is live right
    after instruction ``i`` of ``blk``: some path from there reads a symbol
    overlapping it before a write kills that symbol (``_kill``'s rule). The
    scan runs forward; a register is dead once written. Only past the end
    of a block with successors does the program's liveness decide."""
    instrs = program.instructions
    defs: set = set()
    stack_defs: list = []               # the stack ranges in defs
    for k in range(i + 1, blk.end + 1):
        io = io_sets(instrs[k])
        if sym[0] == "reg":             # read, live; written, dead
            if sym in io.inputs:
                return True
            if sym in io.outputs:
                return False
        elif sets_conflict({sym}, _kill(io.inputs, defs, stack_defs)):
            return True
        else:
            stack_defs += stack_ranges(io.outputs - defs)
            defs |= io.outputs
    return bool(blk.successors) and sets_conflict(
        {sym}, _kill(program_liveness(program).live_out[blk.id], defs, stack_defs))


# ---------------------------------------------------------------------------
# data dependence
# ---------------------------------------------------------------------------

@dataclass
class DataDependenceGraph:
    """A block's dependence edges as adjacency sets over absolute
    instruction indices; ``raw_preds`` keeps the read-after-write ones.

    The edges are those ``build_ddg`` keeps, not every pairwise conflict:
    their transitive closure is the pairwise conflicts', and each kept
    edge carries the pairwise RAW label."""
    block_id: int
    nodes: list[int]
    preds: dict[int, set]
    succs: dict[int, set]
    raw_preds: dict[int, set]


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
    """Dependence edges between a block's instructions, in program order,
    keeping only those that order something.

    i before j conflicts when an output of i overlaps an input or an
    output of j, or an input of i overlaps an output of j
    (``sets_conflict``); the conflict is RAW when an output of i overlaps
    an input of j. An index holds, for each exact symbol, its last writer
    and the nodes that have read it since; a write of the symbol replaces
    both. j gets an edge from every node indexed under a symbol that
    overlaps one of its own, so the work follows the kept edges.

    A conflict i -> j is dropped only when a later writer k of one of i's
    exact symbols, i < k < j, comes first. Every symbol overlaps itself,
    so i -> k is a conflict and k -> j a kept edge, and by induction the
    transitive closure equals the pairwise conflicts' closure: critical
    paths and the row each node becomes ready in do not change. A
    dropped RAW producer sits at least two rows before its reader, where
    no forwarding check looks. A kept edge is RAW exactly when the
    pairwise test says so."""
    nodes = list(block.indices())
    preds: dict[int, set] = {i: set() for i in nodes}
    succs: dict[int, set] = {i: set() for i in nodes}
    raw_preds: dict[int, set] = {i: set() for i in nodes}
    readers: dict = {}                  # each symbol seen -> its readers
                                        # since its last write
    writers: dict = {}                  # symbol -> [its last writer]
    memory: list = []                   # distinct non-register symbols seen
    outputs: dict = {}                  # node -> its output symbols
    instrs = program.instructions
    for j in nodes:
        io = io_sets(instrs[j])
        outputs[j] = io.outputs
        raw = raw_preds[j]
        for sym in io.inputs:
            raw.update(_earlier(writers, memory, sym))
        pred = preds[j]
        pred |= raw
        for sym in io.outputs:
            pred.update(_earlier(readers, memory, sym))
            pred.update(_earlier(writers, memory, sym))
        for i in pred:
            succs[i].add(j)
            if i not in raw and sets_conflict(outputs[i], io.inputs):
                raw.add(i)              # its RAW symbol has a later writer
        for sym in io.inputs:
            if sym not in readers and sym[0] != "reg":
                memory.append(sym)
            readers.setdefault(sym, []).append(j)
        for sym in io.outputs:
            if sym not in readers and sym[0] != "reg":
                memory.append(sym)
            writers[sym] = [j]
            readers[sym] = []
    return DataDependenceGraph(block.id, nodes, preds, succs, raw_preds)


def bernstein_ok(i: Instruction, j: Instruction) -> bool:
    """True iff the two instructions may execute in parallel: both
    input/output crossings and the output/output intersection are empty."""
    a, b = io_sets(i), io_sets(j)
    return not (sets_conflict(a.inputs, b.outputs)
                or sets_conflict(a.outputs, b.inputs)
                or sets_conflict(a.outputs, b.outputs))


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

