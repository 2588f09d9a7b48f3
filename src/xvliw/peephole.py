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
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, replace

from .analysis import (
    block_code,
    build_program_cfg,
    find_basic_blocks,
    live_after,
    liveness,
)
from .isa import (
    ALU3_OPS,
    FRAME_REG,
    Instruction,
    Kind,
    Program,
    STACK_SIZE,
    build_program,
    io_sets,
    provenance_states,
    reg,
    sets_conflict,
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
    remapped; a deleted old index maps to the next surviving one."""
    if not rewrites:
        return program
    items = [(i, rewrites.get(i, ins)) for i, ins in enumerate(program.instructions)]
    items = [(i, ins) for i, ins in items if ins is not None]
    anchors = [i for i, _ in items]

    def new_of(old: int) -> int:
        return min(bisect_left(anchors, old), len(items) - 1)

    out = []
    for _, ins in items:
        if ins.kind in (Kind.BRANCH, Kind.JUMP_ALWAYS):
            ins = replace(ins, target=new_of(ins.target))
        out.append(ins)
    return build_program(out, program.maps)


def _fuse_pairs(program: Program, fuse) -> Program:
    """Rewrite each adjacent pair (a, b) of one block, scanning forward,
    to ``fuse(a, b)`` where that is an instruction and not None. Fused
    pairs do not overlap."""
    block_of = {i: b.id for b in find_basic_blocks(program) for i in b.indices()}
    rewrites: dict[int, Instruction | None] = {}
    i = 0
    while i + 1 < len(program):
        fused = None
        if block_of.get(i) == block_of.get(i + 1):
            fused = fuse(program[i], program[i + 1])
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
    body = [program[i] for i in block.indices()]
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
    cfg = build_program_cfg(program)
    states = provenance_states(program.instructions)
    live = liveness(cfg, block_code(cfg, program))
    block_of = {i: b for b in cfg.blocks for i in b.indices()}

    removed: list[tuple[int, ...]] = []
    consumed: set[int] = set()
    for blk in cfg.blocks:
        i = blk.start
        while i + 1 <= blk.end:
            if i in consumed:
                i += 1
                continue
            window = _match_check(program, states, blk, i)
            if window is None:
                i += 1
                continue
            branch_idx = window[-1]
            br = program[branch_idx]
            tgt_block = block_of[br.target]
            fall_block = block_of.get(branch_idx + 1)
            if not _is_abort_block(program, tgt_block) or fall_block is None:
                i += 1
                continue
            scratch = reg(br.dst)
            if scratch in live.live_in[tgt_block.id] or \
               scratch in live.live_in[fall_block.id]:
                i += 1
                continue
            consumed.update(window)
            removed.append(window)
            i = branch_idx + 1
    return _apply(program, dict.fromkeys(consumed)), removed


def _match_check(program, states, blk, i):
    def prov(idx, r):
        st = states[idx]
        return st.get(r) if st else None

    a = program[i]
    # mov T, P ; T += C ; if T > E goto abort
    if a.kind is Kind.MOV_REG and a.width == 64 and i + 2 <= blk.end:
        b, c = program[i + 1], program[i + 2]
        if (b.kind is Kind.ALU_BINARY and b.op == "add" and b.width == 64
                and b.dst == a.dst and b.src is None and b.imm > 0
                and c.kind is Kind.BRANCH and c.op == "jgt"
                and c.dst == a.dst and c.src is not None
                and prov(i, a.src) == ("pkt",)
                and prov(i + 2, c.src) == ("pkt_end",)):
            return (i, i + 1, i + 2)
    # T = P + C ; if T > E goto abort
    if a.kind is Kind.ALU_THREE_OP and a.op == "add" and a.src2 is None \
            and a.imm > 0 and i + 1 <= blk.end:
        c = program[i + 1]
        if (c.kind is Kind.BRANCH and c.op == "jgt" and c.dst == a.dst
                and c.src is not None
                and prov(i, a.src) == ("pkt",)
                and prov(i + 1, c.src) == ("pkt_end",)):
            return (i, i + 1)
    return None


# ---------------------------------------------------------------------------
# zeroing
# ---------------------------------------------------------------------------

def remove_zeroing(program: Program):
    """Delete writes of immediate zero that are initialisation of still
    zero-initialised state (never read or written before on any path) or
    dead stores (target not live afterwards). Returns (program, removed)."""
    cfg = build_program_cfg(program)
    live = liveness(cfg, block_code(cfg, program))
    touched = _touched_before(program, cfg)

    removed = []
    for blk in cfg.blocks:
        after = None                 # live after each instruction, on demand
        for i in blk.indices():
            ins = program[i]
            target = _zeroing_target(ins)
            if target is None:
                continue
            virgin = touched[i] is not None and \
                not sets_conflict({target}, touched[i])
            if not virgin:
                after = after or live_after(live, program, blk.id)
                if sets_conflict({target}, after[i]):
                    continue
            removed.append(i)
    return _apply(program, dict.fromkeys(removed)), removed


def _zeroing_target(ins: Instruction):
    if ins.kind is Kind.MOV_IMM and ins.imm == 0:
        return reg(ins.dst)
    if ins.kind is Kind.STORE and ins.src is None and ins.imm == 0 \
            and ins.addr_space == "stack":
        if ins.stack_slot is not None:
            return ("stack", ins.stack_slot[0], ins.stack_slot[1])
        if ins.dst == FRAME_REG:
            lo = STACK_SIZE + ins.offset
            return ("stack", lo, lo + ins.width)
    return None


def _touched_before(program: Program, cfg):
    """May-analysis: symbols read or written on some path from entry to each
    instruction (None for unreachable). r1/r10 are live-in, so touched."""
    n = len(program)
    entry_touched = frozenset({reg(1), reg(FRAME_REG)})
    block_in: dict[int, frozenset | None] = {b.id: None for b in cfg.blocks}
    block_in[0] = entry_touched
    order = [b.id for b in cfg.blocks]
    result: list[frozenset | None] = [None] * n
    changed = True
    while changed:
        changed = False
        for bid in order:
            cur = block_in[bid]
            if cur is None:
                continue
            blk = cfg.blocks[bid]
            t = set(cur)
            for i in blk.indices():
                result[i] = frozenset(t)
                io = io_sets(program[i])
                t |= io.inputs | io.outputs
            for s in blk.successors:
                merged = t if block_in[s] is None else (block_in[s] | t)
                merged = frozenset(merged)
                if merged != block_in[s]:
                    block_in[s] = merged
                    changed = True
    return result


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
    cfg = build_program_cfg(program)
    live = liveness(cfg, block_code(cfg, program))
    rewrites: dict[int, Instruction | None] = {}

    for blk in cfg.blocks:
        after = None                 # live after each instruction, on demand
        for i in blk.indices():
            if i in rewrites or i + 1 > blk.end:
                continue
            lp = _match_load_pair(program, blk, i)
            if lp is None:
                continue
            a_reg, c_reg, base, off = lp
            match = _find_store_pair(program, blk, i, a_reg, c_reg)
            if match is None:
                continue
            j, d_base, p_off = match
            # the fused form changes both scratch registers' contents
            after = after or live_after(live, program, blk.id)
            if sets_conflict({reg(a_reg), reg(c_reg)}, after[j + 1]):
                continue
            rewrites[i] = Instruction(Kind.LOAD48, width=6, dst=a_reg,
                                      src=base, offset=off)
            rewrites[j] = Instruction(Kind.STORE48, width=6, dst=d_base,
                                      src=a_reg, offset=p_off)
            rewrites[i + 1] = rewrites[j + 1] = None
    return _apply(program, rewrites)


def _match_load_pair(program, blk, i):
    a, b = program[i], program[i + 1]
    if a.kind is not Kind.LOAD or b.kind is not Kind.LOAD:
        return None
    if a.src != b.src or a.dst == b.dst or b.dst == b.src or a.dst == a.src:
        return None
    if {a.width, b.width} != {4, 2}:
        return None
    if b.offset != a.offset + a.width:
        return None
    return a.dst, b.dst, a.src, a.offset


def _find_store_pair(program, blk, load_idx, a_reg, c_reg):
    """Scan forward for the adjacent stores of (a_reg, c_reg) with matching
    widths and contiguous offsets. Any intervening instruction touching
    either scratch register rejects the idiom; the caller also rejects it
    when a scratch is live past the stores."""
    a_w = program[load_idx].width
    c_w = program[load_idx + 1].width
    for j in range(load_idx + 2, blk.end):      # j+1 must stay inside the block
        s1, s2 = program[j], program[j + 1]
        if (_is_store_of(s1, a_reg) and _is_store_of(s2, c_reg)
                and s1.width == a_w and s2.width == c_w
                and s1.dst == s2.dst and s1.dst not in (a_reg, c_reg)
                and s2.offset == s1.offset + a_w):
            return j, s1.dst, s1.offset
        if _touches_regs(program[j], {a_reg, c_reg}):
            return None
    return None


def _is_store_of(ins, r):
    return ins.kind is Kind.STORE and ins.src == r


def _touches_regs(ins, regs_set):
    io = io_sets(ins)
    syms = {reg(r) for r in regs_set}
    return sets_conflict(io.inputs | io.outputs, syms)


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

    @property
    def total_removed(self):
        return sum(self.as_dict().values())


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
