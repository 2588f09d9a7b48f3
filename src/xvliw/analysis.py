"""Control and data flow analysis.

Basic blocks, the CFG with dominator/post-dominator sets and the block
walk (``walk_blocks``), backward liveness over ``isa``'s atom masks,
per-block data dependence graphs and the pairwise parallelizability
predicate. Which blocks code motion may take instructions from is the
scheduler's question (``scheduler.motion_sources``), answered from these
dominator sets and walks.

Liveness is byte-precise. A live set is a mask of atoms, and only what
an instruction surely overwrites (``io_sets``'s ``kills``: the registers
it writes and the bytes of an exact frame store) ends a live range, one
byte at a time, also inside a live ``mem`` extent. That is sound because
an exact frame store writes every byte its region names; a store through
any other pointer kills nothing.

Dominators, post-dominators, liveness and the peephole's touched-before
set (``peephole._zero_writes``) are one mask dataflow, ``solve``. Each is
monotone over a finite lattice, so from its top (every block for a
must-analysis, nothing for a may-analysis) the loop reaches the unique
extremal fixed point in whatever order it visits the blocks (Kildall,
POPL 1973; Kam & Ullman, Acta Informatica 1977); the order only sets the
number of passes. A block that reaches no exit keeps every block as
post-dominators.

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
from .isa import (CONTROL_KINDS, MEMORY, REGISTERS, Instruction, Program,
                  analysis_of, io_sets, successors)


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


def solve(blocks: list[BasicBlock], gen: list[int], boundary: dict[int, int],
          forward: bool, must: bool = False, kill: list[int] | None = None):
    """The extremal fixed point of value[b] = gen[b] | (met[b] & ~kill[b])
    over ``blocks`` (ids are indices), as the lists (met, value). met[b]
    is the union, or when ``must`` the intersection, of ``boundary[b]`` if
    given and the values of b's predecessors (successors unless
    ``forward``). A ``kill`` of None kills nothing."""
    top = (1 << len(blocks)) - 1 if must else 0
    met, value = [0] * len(blocks), [top] * len(blocks)
    changed = True
    while changed:
        changed = False
        for b in blocks if forward else reversed(blocks):
            i = b.id
            m = boundary.get(i, top)
            for p in b.predecessors if forward else b.successors:
                m = m & value[p] if must else m | value[p]
            met[i] = m
            v = gen[i] | (m & ~kill[i] if kill else m)
            if v != value[i]:
                value[i], changed = v, True
    return met, value


@dataclass
class ControlFlowGraph:
    blocks: list[BasicBlock]
    dom: list[int]                  # by block id: the mask of its dominators
    pdom: list[int]                 # and of its post-dominators
    # instruction index -> id of the block holding it, built once
    block_index: dict[int, int] = field(init=False, repr=False)

    def __post_init__(self):
        self.block_index = {i: b.id for b in self.blocks for i in b.indices()}

    def block_of(self, instr_index: int) -> int | None:
        return self.block_index.get(instr_index)

    def dominates(self, a: int, b: int) -> bool:
        return self.dom[b] >> a & 1 == 1

    def postdominates(self, a: int, b: int) -> bool:
        return self.pdom[b] >> a & 1 == 1


def build_cfg(blocks: list[BasicBlock]) -> ControlFlowGraph:
    """Attach dominators, a must-analysis over predecessors with nothing
    flowing into the entry, and post-dominators, the same over successors
    with nothing flowing into a block without successors."""
    own = [1 << b.id for b in blocks]
    _, dom = solve(blocks, own, {0: 0}, forward=True, must=True)
    _, pdom = solve(blocks, own, {b.id: 0 for b in blocks if not b.successors},
                    forward=False, must=True)
    return ControlFlowGraph(list(blocks), dom, pdom)


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

@dataclass
class LivenessInfo:
    live_in: list[int]              # by block id
    live_out: list[int]


def block_code(cfg: ControlFlowGraph, program: Program) -> dict[int, list]:
    """Each block's instructions in program order, as ``liveness`` takes
    them."""
    instrs = program.instructions
    return {blk.id: list(instrs[blk.start:blk.end + 1]) for blk in cfg.blocks}


def liveness(cfg: ControlFlowGraph,
             code: dict[int, Sequence[Instruction]]) -> LivenessInfo:
    """Backward may-analysis (``solve``) over ``code``, each
    block's instructions in execution order: a program's (``block_code``)
    or a schedule's rows flattened in order. Instructions sharing a row
    pass the pairwise Bernstein test, so their order within the row does
    not matter. Over masks of atoms, live_in = use | (live_out & ~kills),
    byte-precise as the module docstring says."""
    use, kills = [], []
    for blk in cfg.blocks:
        u = d = 0
        for ins in code[blk.id]:
            io = io_sets(ins)
            u |= io.reads & ~d
            d |= io.kills
        use.append(u)
        kills.append(d)
    live_out, live_in = solve(cfg.blocks, use, {}, forward=False, kill=kills)
    return LivenessInfo(live_in, live_out)


def program_liveness(program: Program) -> LivenessInfo:
    """``liveness`` over ``block_code`` of the program's CFG, computed once
    per program."""
    record = analysis_of(program)
    if record.liveness is None:
        cfg = program_cfg(program)
        record.liveness = liveness(cfg, block_code(cfg, program))
    return record.liveness


def live_after(program: Program, blk: BasicBlock, i: int, mask: int) -> bool:
    """Whether any atom of ``mask`` is live right after instruction ``i``
    of ``blk``: some path from there reads it before a write kills it, by
    ``liveness``'s rule. The scan runs forward, dropping each atom once
    killed; only past the end of a block with successors does the
    program's liveness decide."""
    instrs = program.instructions
    for k in range(i + 1, blk.end + 1):
        io = io_sets(instrs[k])
        if io.reads & mask:
            return True
        mask &= ~io.kills
        if not mask:
            return False
    return bool(blk.successors) and \
        bool(program_liveness(program).live_out[blk.id] & mask)


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
    nodes: list[int]
    preds: dict[int, set]
    succs: dict[int, set]
    raw_preds: dict[int, set]


def _keys(mask: int) -> list:
    """The DDG index keys of an io mask: one per register bit, then its
    memory atoms as one extent."""
    keys = []
    regs = mask & REGISTERS
    while regs:
        low = regs & -regs
        keys.append(low)
        regs ^= low
    if mask > REGISTERS:
        keys.append(mask & MEMORY)
    return keys


def _earlier(index: dict, memory: list, key: int) -> list:
    """Nodes in ``index`` under a key overlapping ``key``: a register
    overlaps only itself, a memory extent is tested against each distinct
    extent seen so far."""
    if key <= REGISTERS:
        return index.get(key, [])
    found = []
    for m in memory:
        if m & key and m in index:
            found += index[m]
    return found


def build_ddg(block: BasicBlock, program: Program) -> DataDependenceGraph:
    """Dependence edges between a block's instructions, in program order,
    keeping only those that order something.

    i before j conflicts when the writes of i overlap the reads or the
    writes of j, or the reads of i overlap the writes of j; the conflict
    is RAW when the writes of i overlap the reads of j. An index holds,
    for each key (a register, or one exact memory extent), its last writer
    and the nodes that have read it since; a write of the key replaces
    both. j gets an edge from every node indexed under a key that
    overlaps one of its own, so the work follows the kept edges.

    A conflict i -> j is dropped only when a later writer k of one of i's
    exact keys, i < k < j, comes first. Every key overlaps itself, so
    i -> k is a conflict and k -> j a kept edge, and by induction the
    transitive closure equals the pairwise conflicts' closure: critical
    paths and the row each node becomes ready in do not change. A
    dropped RAW producer sits at least two rows before its reader, where
    no forwarding check looks. A kept edge is RAW exactly when the
    pairwise test says so."""
    nodes = list(block.indices())
    preds: dict[int, set] = {i: set() for i in nodes}
    succs: dict[int, set] = {i: set() for i in nodes}
    raw_preds: dict[int, set] = {i: set() for i in nodes}
    readers: dict = {}                  # each key seen -> its readers
                                        # since its last write
    writers: dict = {}                  # key -> [its last writer]
    memory: list = []                   # distinct memory extents seen
    writes: dict = {}                   # node -> its write mask
    instrs = program.instructions
    for j in nodes:
        io = io_sets(instrs[j])
        writes[j] = io.writes
        read_keys, write_keys = _keys(io.reads), _keys(io.writes)
        raw = raw_preds[j]
        for key in read_keys:
            raw.update(_earlier(writers, memory, key))
        pred = preds[j]
        pred |= raw
        for key in write_keys:
            pred.update(_earlier(readers, memory, key))
            pred.update(_earlier(writers, memory, key))
        for i in pred:
            succs[i].add(j)
            if i not in raw and writes[i] & io.reads:
                raw.add(i)              # its RAW key has a later writer
        for key in read_keys:
            if key not in readers and key > REGISTERS:
                memory.append(key)
            readers.setdefault(key, []).append(j)
        for key in write_keys:
            if key not in readers and key > REGISTERS:
                memory.append(key)
            writers[key] = [j]
            readers[key] = []
    return DataDependenceGraph(nodes, preds, succs, raw_preds)


def bernstein_ok(i: Instruction, j: Instruction) -> bool:
    """True iff the two instructions may execute in parallel: both
    read/write crossings and the write/write intersection are empty."""
    a, b = io_sets(i), io_sets(j)
    return not (a.reads & b.writes or a.writes & (b.reads | b.writes))


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

