"""Instruction reduction and compressed-opcode rewrites.

Five per-block passes, each individually toggleable, iterated to a fixed
point by the :func:`peephole` driver:

* boundary-check removal - the three-instruction packet bounds idiom
  (cursor copy, cursor += header size, compare against packet end and jump
  to an abort block) is deleted; the simulator's hardware bounds trap
  keeps out-of-bounds accesses safe.
* zeroing removal - register/stack-slot writes of immediate zero that are
  either still-virgin initialisation (state self-reset makes them no-ops)
  or plain dead stores.
* three-operand fusion - (mov; alu) pairs into one extended ALU op.
* 6-byte load/store fusion - the MAC-copy idiom (adjacent 4B+2B load pair
  plus the matching adjacent store pair) into load48 + store48.
* early-exit fusion - (mov r0, imm; exit) into one parametrized exit.

Every liveness question a pass asks is one call of ``analysis.live_after``.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

from .analysis import (BasicBlock, ControlFlowGraph, live_after, program_cfg,
                       solve)
from .isa import (
    ALU3_OPS,
    CONTROL_KINDS,
    FRAME_REG,
    JUMP_KINDS,
    Instruction,
    Kind,
    Program,
    _transfer,
    analysis_of,
    annotate_regions,
    build_program,
    io_sets,
    jumps_forward,
    rebuilt,
    successors,
)

COMMUTATIVE = ("add", "mul", "and", "or", "xor")
MAX_ROUNDS = 10
# Each pass as program -> program, in the order ``peephole`` runs them.
# The lambdas look the pass functions up by module global at call time,
# so a wrapper bound over one is reached.
_PASSES = {
    "boundary_checks": lambda p: remove_boundary_checks(p)[0],
    "zeroing": lambda p: remove_zeroing(p)[0],
    "three_operand": lambda p: fuse_three_operand(p),
    "load_store_6b": lambda p: fuse_load_store_6b(p),
    "early_exit": lambda p: fuse_early_exit(p),
}
PASS_NAMES = tuple(_PASSES)


def _apply(program: Program, rewrites: dict[int, Instruction | None]) -> Program:
    """``program`` with ``rewrites`` applied: each index maps to its
    replacement instruction, or to None for a deletion. Branch targets are
    remapped; a deleted old index maps to the next surviving one. With no
    rewrites, ``program`` itself comes back, analysis record and all.

    The new program's record takes ``program``'s CFG, remapped, when the
    rewrite keeps control flow (``_carried_cfg``); else its CFG is built
    afresh on first use. With the CFG it takes ``program``'s provenance
    states when ``_carried_states`` carries them: survivors keep their
    states and regions, only new instructions are annotated, and
    ``build_program`` skips its scan but none of its checks."""
    if not rewrites:
        return program
    instrs = program.instructions
    anchors = [i for i, ins in enumerate(instrs)
               if rewrites.get(i, ins) is not None]
    cfg = _carried_cfg(program, rewrites, anchors)
    states = cfg and _carried_states(program, rewrites, anchors)
    out = []
    for k, i in enumerate(anchors):
        ins = rewrites.get(i, instrs[i])
        if ins.kind in JUMP_KINDS:
            target = min(bisect_left(anchors, ins.target), len(anchors) - 1)
            if target != ins.target:
                ins = rebuilt(ins, target=target)
        if states and i in rewrites and states[k] is not None:
            ins = annotate_regions([ins], [states[k]], program.maps)[0]
        out.append(ins)
    rewritten = build_program(out, program.maps, states)
    rewritten.analysis.cfg = cfg
    return rewritten


def _carried_states(program: Program, rewrites, anchors) -> list | None:
    """``program``'s provenance states at the surviving old indices
    ``anchors``, for the rewrite whose CFG ``_carried_cfg`` carries; None
    when a fresh scan might differ. The scan (``isa.provenance_states``)
    visits the lowest pending index first. A program with a loop is
    rescanned, since the scan can visit an instruction with a state that is
    not its final one. Else it visits each instruction once, after all its
    predecessors, and each run of consecutive rewritten indices in one block
    is replayed from the old state before it through the old and the new
    instructions (``isa._transfer``). Both must agree before each new
    instruction, which takes its index's state, and after the run unless it
    ends in an exit; then every state after the run is the old one too."""
    record = analysis_of(program)
    cfg = record.cfg
    if not record.annotated or not jumps_forward(program.instructions):
        return None
    instrs, old = program.instructions, record.provenance
    block_of = cfg.block_index.get
    for i in sorted(rewrites):
        if old[i] is None:                      # unreachable: stays so
            continue
        if i - 1 not in rewrites or block_of(i - 1) != block_of(i):
            a, b = list(old[i]), list(old[i])   # a run starts here
        new = rewrites[i]
        if new is not None:
            if a != b:
                return None
            _transfer(new, b)
        _transfer(instrs[i], a)
        if a != b and (i + 1 not in rewrites or block_of(i + 1) != block_of(i)) \
                and successors(instrs[i], i):
            return None
    return [old[i] for i in anchors]


def _carried_cfg(program: Program, rewrites, anchors) -> ControlFlowGraph | None:
    """``program``'s CFG, if it has one, as the CFG of the rewritten
    program whose surviving old indices are ``anchors``; None when the
    rewrite may change control flow.

    Control flow stays when every block the rewrite touches keeps an
    instruction, no survivor but its last transfers control, and that last
    one leaves the block as the old last one did: the same branch or jump,
    not rewritten; an exit of either kind for an exit of either kind; or a
    fall-through for a fall-through. Then the blocks, their ids and edges,
    ``dom`` and ``pdom`` stay, and each block's span moves to its first and
    last survivors. A removed boundary check deletes a branch, so it never
    carries."""
    cfg = program.analysis.cfg
    if cfg is None:
        return None
    instrs = program.instructions
    for bid in {cfg.block_index.get(i) for i in rewrites}:
        if bid is None:                          # unreachable code
            continue
        blk = cfg.blocks[bid]
        body = [rewrites.get(i, instrs[i]) for i in blk.indices()]
        body = [ins for ins in body if ins is not None]
        if not body or any(ins.kind in CONTROL_KINDS for ins in body[:-1]):
            return None
        old, last = instrs[blk.end], body[-1]
        if last is not old and (old.kind in JUMP_KINDS or last.kind in JUMP_KINDS
                                or (old.kind in CONTROL_KINDS) !=
                                (last.kind in CONTROL_KINDS)):
            return None
    return ControlFlowGraph(
        [BasicBlock(blk.id, bisect_left(anchors, blk.start),
                    bisect_left(anchors, blk.end + 1) - 1,
                    blk.successors, blk.predecessors) for blk in cfg.blocks],
        cfg.dom, cfg.pdom)


def _fuse_pairs(program: Program, fuse) -> Program:
    """Rewrite each adjacent pair (a, b) of one block, scanning forward,
    to ``fuse(a, b)`` where that is an instruction and not None. Fused
    pairs do not overlap; unreachable code, in no block, is left alone."""
    block_of = program_cfg(program).block_index.get
    instrs = program.instructions
    rewrites: dict[int, Instruction | None] = {}
    i = 0
    while i + 1 < len(instrs):
        fused = None
        blk = block_of(i)
        if blk is not None and blk == block_of(i + 1):
            fused = fuse(instrs[i], instrs[i + 1])
        if fused is None:
            i += 1
        else:
            rewrites[i], rewrites[i + 1] = fused, None
            i += 2
    return _apply(program, rewrites)


# ---------------------------------------------------------------------------
# boundary checks
# ---------------------------------------------------------------------------

def _is_abort_block(program: Program, block) -> bool:
    body = program.instructions[block.start:block.end + 1]
    if len(body) == 1:
        return body[0].kind in (Kind.EXIT, Kind.EARLY_EXIT)
    if len(body) == 2:
        return body[0].kind is Kind.MOV_IMM and body[0].dst == 0 and \
            body[1].kind is Kind.EXIT
    return False


def remove_boundary_checks(program: Program):
    """Delete matched packet-bounds checks. Returns (program, removed).

    A match is (1) a copy of a packet-data cursor, (2) adding a constant,
    (3) an unsigned compare against the packet-end value jumping to a
    block that only aborts - with the scratch register dead afterwards.
    The pre-fused two-instruction form (three-operand add, compare) is
    matched too.
    """
    cfg = program_cfg(program)
    states = analysis_of(program).provenance
    instrs = program.instructions

    removed: list[tuple[int, ...]] = []
    consumed: set[int] = set()
    for blk in cfg.blocks:
        i = blk.start
        while i + 1 <= blk.end:
            window = _match_check(instrs, states, blk, i)
            if window is None:
                i += 1
                continue
            branch_idx = window[-1]
            br = instrs[branch_idx]
            if not _is_abort_block(program, cfg.blocks[cfg.block_of(br.target)]) \
                    or live_after(program, blk, branch_idx, 1 << br.dst):
                i += 1
                continue
            consumed.update(window)
            removed.append(window)
            i = branch_idx + 1
    return _apply(program, dict.fromkeys(consumed)), removed


def _match_check(instrs, states, blk, i):
    def tag(idx, r):
        st = states[idx]
        return st[r][0] if st else None

    a = instrs[i]
    # mov T, P ; T += C ; if T > E goto abort
    if a.kind is Kind.MOV_REG and a.width == 64 and i + 2 <= blk.end:
        b, c = instrs[i + 1], instrs[i + 2]
        if (b.kind is Kind.ALU_BINARY and b.op == "add" and b.width == 64
                and b.dst == a.dst and b.src is None and b.imm > 0
                and c.kind is Kind.BRANCH and c.op == "jgt"
                and c.dst == a.dst and c.src is not None
                and tag(i, a.src) == "pkt"
                and tag(i + 2, c.src) == "pkt_end"):
            return (i, i + 1, i + 2)
    # T = P + C ; if T > E goto abort
    if a.kind is Kind.ALU_THREE_OP and a.op == "add" and a.src2 is None \
            and a.imm > 0 and i + 1 <= blk.end:
        c = instrs[i + 1]
        if (c.kind is Kind.BRANCH and c.op == "jgt" and c.dst == a.dst
                and c.src is not None
                and tag(i, a.src) == "pkt"
                and tag(i + 1, c.src) == "pkt_end"):
            return (i, i + 1)
    return None


# ---------------------------------------------------------------------------
# zeroing
# ---------------------------------------------------------------------------

def remove_zeroing(program: Program):
    """Delete writes of immediate zero that are initialisation of still
    zero-initialised state (never read or written before on any path) or
    dead stores (target not live afterwards). Returns (program, removed)."""
    if not any(map(_zeroing_target, program.instructions)):
        return program, []
    removed = []
    for blk, writes in _zero_writes(program, program_cfg(program)):
        for i, target, virgin in writes:
            if virgin or not live_after(program, blk, i, target):
                removed.append(i)
    return _apply(program, dict.fromkeys(removed)), removed


def _zeroing_target(ins: Instruction) -> int:
    """The atoms a write of immediate zero surely overwrites, a register
    or the bytes of an exact frame store; 0 for any other instruction."""
    if ins.imm == 0 and (ins.kind is Kind.MOV_IMM or
                         ins.kind is Kind.STORE and ins.src is None):
        return io_sets(ins).kills
    return 0


def _zero_writes(program: Program, cfg):
    """Each block with its writes of immediate zero, as (index, target,
    virgin): virgin when no path from the entry reads or writes the target
    before the write. r1/r10 are live-in, so touched at the entry.

    One forward walk of each block finds the atoms its body touches and,
    for each zero write, whether the block touched the target before it. A
    forward may-analysis over blocks (``analysis.solve``) then finds the
    atoms touched on some path to each block's entry; a write is virgin
    when neither touched its target."""
    instrs = program.instructions
    touched = []                     # by block id: the atoms its body touches
    writes = []                      # by block id: [(index, target, touched in block)]
    for blk in cfg.blocks:
        t = 0
        found = []
        for i in blk.indices():
            ins = instrs[i]
            target = _zeroing_target(ins)
            if target:
                found.append((i, target, bool(target & t)))
            io = io_sets(ins)
            t |= io.reads | io.writes
        touched.append(t)
        writes.append(found)
    block_in, _ = solve(cfg.blocks, touched, {0: 1 << 1 | 1 << FRAME_REG},
                        forward=True)
    for blk, entry in zip(cfg.blocks, block_in):
        yield blk, [(i, target, not inside and not target & entry)
                    for i, target, inside in writes[blk.id]]


# ---------------------------------------------------------------------------
# three-operand fusion
# ---------------------------------------------------------------------------

def fuse_three_operand(program: Program) -> Program:
    """(mov d, s ; alu d, x) and commutative (mov d, imm ; alu d, x)
    rewrite to one three-operand instruction."""
    return _fuse_pairs(program, _three_operand_of)


def _three_operand_of(a: Instruction, b: Instruction):
    if b.kind is not Kind.ALU_BINARY or b.width != 64 \
            or b.op not in ALU3_OPS or b.dst is None:
        return None
    if a.kind is Kind.MOV_REG and a.width == 64 and b.dst == a.dst:
        if b.src is None:
            return Instruction(Kind.ALU_THREE_OP, op=b.op, width=64,
                               dst=a.dst, src=a.src, imm=b.imm)
        src2 = a.src if b.src == a.dst else b.src
        return Instruction(Kind.ALU_THREE_OP, op=b.op, width=64,
                           dst=a.dst, src=a.src, src2=src2)
    if a.kind is Kind.MOV_IMM and a.width == 64 and b.dst == a.dst \
            and b.src is not None and b.src != a.dst and b.op in COMMUTATIVE:
        return Instruction(Kind.ALU_THREE_OP, op=b.op, width=64,
                           dst=a.dst, src=b.src, imm=a.imm)
    return None


# ---------------------------------------------------------------------------
# 6-byte load/store fusion
# ---------------------------------------------------------------------------

def fuse_load_store_6b(program: Program) -> Program:
    """MAC-copy idiom: an adjacent load pair covering 6 contiguous bytes
    (4B+2B or 2B+4B) plus the matching adjacent store pair rewrite to
    load48 + store48, eliminating the second scratch register."""
    cfg = program_cfg(program)
    instrs = program.instructions
    rewrites: dict[int, Instruction | None] = {}

    for blk in cfg.blocks:
        for i in blk.indices():
            if i in rewrites or i + 1 > blk.end:
                continue
            lp = _match_load_pair(instrs, i)
            if lp is None:
                continue
            a_reg, c_reg, base, off = lp
            match = _find_store_pair(instrs, blk, i, a_reg, c_reg)
            if match is None:
                continue
            j, d_base, p_off = match
            # the fused form changes both scratch registers' contents
            if live_after(program, blk, j + 1, 1 << a_reg | 1 << c_reg):
                continue
            rewrites[i] = Instruction(Kind.LOAD48, width=6, dst=a_reg,
                                      src=base, offset=off)
            rewrites[j] = Instruction(Kind.STORE48, width=6, dst=d_base,
                                      src=a_reg, offset=p_off)
            rewrites[i + 1] = rewrites[j + 1] = None
    return _apply(program, rewrites)


def _match_load_pair(instrs, i):
    a, b = instrs[i], instrs[i + 1]
    if a.kind is not Kind.LOAD or b.kind is not Kind.LOAD:
        return None
    if a.src != b.src or a.dst == b.dst or b.dst == b.src or a.dst == a.src:
        return None
    if {a.width, b.width} != {4, 2}:
        return None
    if b.offset != a.offset + a.width:
        return None
    return a.dst, b.dst, a.src, a.offset


def _find_store_pair(instrs, blk, load_idx, a_reg, c_reg):
    """Scan forward for the adjacent stores of (a_reg, c_reg) with matching
    widths and contiguous offsets. Any intervening instruction touching
    either scratch register rejects the idiom; the caller also rejects it
    when a scratch is live past the stores."""
    a_w = instrs[load_idx].width
    c_w = instrs[load_idx + 1].width
    for j in range(load_idx + 2, blk.end):      # j+1 must stay inside the block
        s1, s2 = instrs[j], instrs[j + 1]
        if (_is_store_of(s1, a_reg) and _is_store_of(s2, c_reg)
                and s1.width == a_w and s2.width == c_w
                and s1.dst == s2.dst and s1.dst not in (a_reg, c_reg)
                and s2.offset == s1.offset + a_w):
            return j, s1.dst, s1.offset
        io = io_sets(s1)
        if (io.reads | io.writes) & (1 << a_reg | 1 << c_reg):
            return None
    return None


def _is_store_of(ins, r):
    return ins.kind is Kind.STORE and ins.src == r


# ---------------------------------------------------------------------------
# early exit fusion
# ---------------------------------------------------------------------------

def fuse_early_exit(program: Program) -> Program:
    """(mov r0, imm ; exit) pairs rewrite to a parametrized exit."""
    return _fuse_pairs(program, _early_exit_of)


def _early_exit_of(a: Instruction, b: Instruction):
    if a.kind is Kind.MOV_IMM and a.dst == 0 and (a.width == 64 or a.imm >= 0) \
            and b.kind is Kind.EXIT:
        return Instruction(Kind.EARLY_EXIT, imm=a.imm)
    return None


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

@dataclass
class PeepholeStats:
    boundary_checks: int = 0       # instructions removed
    zeroing: int = 0
    three_operand: int = 0         # pairs fused
    load_store_6b: int = 0         # instructions saved
    early_exit: int = 0            # pairs fused

    def as_dict(self):
        return {name: getattr(self, name) for name in PASS_NAMES}


def peephole(program: Program, enabled: dict[str, bool] | None = None):
    """Run all enabled passes to a fixed point. Returns (program, stats)."""
    on = {name: True for name in PASS_NAMES}
    if enabled:
        on.update(enabled)
    stats = PeepholeStats()
    for _ in range(MAX_ROUNDS):
        before_round = len(program)
        for name in PASS_NAMES:
            if on[name]:
                n = len(program)
                program = _PASSES[name](program)
                setattr(stats, name, getattr(stats, name) + n - len(program))
        if len(program) == before_round:
            break
    return program, stats
