"""Shared test oracles, deliberately independent of the code they check."""

from __future__ import annotations

import random
from collections import deque
from copy import deepcopy

import pytest

from xvliw.helpers import HELPERS
from xvliw.isa import (FRAME_REG, NUM_REGS, Instruction, Kind, MapDef,
                       _alu_prov, _join, extent, io_sets, successors)
from xvliw.vm import (
    MapStore,
    PacketContext,
    MachineState,
    PKT_BASE,
    STACK_BASE,
    STEP_STORE,
    decode_step,
    write_mem,
)


def reachable_instructions(instrs) -> set[int]:
    """Indices of the instructions reachable from the entry, by a plain
    walk of ``successors``."""
    seen: set[int] = set()
    work = [0]
    n = len(instrs)
    while work:
        i = work.pop()
        if i in seen or not 0 <= i < n:
            continue
        seen.add(i)
        work.extend(successors(instrs[i], i))
    return seen


def provenance_states_dicts(instrs) -> list:
    """The provenance scan with each state a dict from register to
    provenance, copied and compared whole at every step: the reference
    ``isa.provenance_states`` must agree with, state for state. It shares
    only the lattice's join and ALU rules with ``isa``. The visit order is
    the same, since the transfer is not monotone: a sweep in index order
    when every jump goes forward, else a last-in first-out worklist."""
    n = len(instrs)
    entry = {r: ("num",) for r in range(NUM_REGS)}
    entry[1] = ("ctx",)
    entry[FRAME_REG] = ("stack", 0)
    state_in = {0: entry}
    out_cache: dict[int, dict] = {}
    sweep = all(ins.target > i for i, ins in enumerate(instrs)
                if ins.kind in (Kind.BRANCH, Kind.JUMP_ALWAYS))
    work = list(reversed(range(n))) if sweep else [0]
    while work:
        i = work.pop()
        st = state_in.get(i)
        if st is None:
            continue
        out = _transfer_dict(instrs[i], dict(st))
        if out_cache.get(i) == out:
            continue
        out_cache[i] = out
        for s in successors(instrs[i], i):
            if s >= n:
                continue
            cur = state_in.get(s)
            if cur is None:
                state_in[s] = dict(out)
            else:
                merged = {r: _join(cur.get(r), out.get(r)) for r in range(NUM_REGS)}
                if merged == cur:
                    continue
                state_in[s] = merged
            if not sweep:
                work.append(s)
    return [state_in.get(i) for i in range(n)]


def _transfer_dict(ins: Instruction, st: dict) -> dict:
    num, k = ("num",), ins.kind
    if k is Kind.MOV_REG:
        st[ins.dst] = st.get(ins.src, ("any",)) if ins.width == 64 else num
    elif k in (Kind.MOV_IMM, Kind.ALU_UNARY):
        st[ins.dst] = num
    elif k is Kind.LOAD_IMM64:
        st[ins.dst] = ("mapfd", ins.imm) if ins.is_map_ref else num
    elif k is Kind.ALU_BINARY:
        st[ins.dst] = _alu_prov(ins.op, ins.width, st.get(ins.dst),
                                st.get(ins.src) if ins.src is not None else num,
                                ins.imm if ins.src is None else None)
    elif k is Kind.ALU_THREE_OP:
        st[ins.dst] = _alu_prov(ins.op, 64, st.get(ins.src),
                                st.get(ins.src2) if ins.src2 is not None else num,
                                ins.imm if ins.src2 is None else None)
    elif k in (Kind.LOAD, Kind.LOAD48):
        if st.get(ins.src) == ("ctx",) and ins.width == 4 and k is Kind.LOAD:
            st[ins.dst] = {0: ("pkt", 0), 4: ("pkt_end",), 8: ("pkt", 0)}.get(
                ins.offset, num)
        else:
            st[ins.dst] = num
    elif k is Kind.CALL:
        helper = HELPERS.get(ins.imm)
        p = st.get(1)
        if helper is not None and helper.returns == "value_ptr":
            st[0] = ("mapval", p[1] if p and p[0] == "mapfd" else None)
        else:
            st[0] = num
    return st


def symbols_overlap(a, b) -> bool:
    """Whether two io symbols share an atom, by case analysis over their
    tuple form: a register ``("reg", i)`` or an ``Instruction.region``. The
    oracle that ``isa.extent``'s masks are checked against."""
    if a[0] == "reg" or b[0] == "reg":
        return a == b
    if a[0] == "mem" or b[0] == "mem":
        return True
    if a[0] == "stack" and b[0] == "stack":
        return a[1] < b[2] and b[1] < a[2]
    if a[0] in ("map", "maps") and b[0] in ("map", "maps"):
        if a[0] == "maps" or b[0] == "maps":
            return True
        return a[1] == b[1]
    return a[0] == b[0]


def atoms(symbol) -> int:
    """The mask of an io symbol: a register's bit, or a region's extent."""
    return 1 << symbol[1] if symbol[0] == "reg" else extent(symbol)


def touched_before(program, cfg) -> list:
    """Per instruction, the atoms read or written on some path from the
    entry to it (None if unreachable), by an instruction-level walk of
    every block at every round; r1 and r10 are touched at the entry."""
    n = len(program)
    block_in: dict = {b.id: None for b in cfg.blocks}
    block_in[0] = 1 << 1 | 1 << FRAME_REG
    result: list = [None] * n
    changed = True
    while changed:
        changed = False
        for blk in cfg.blocks:
            cur = block_in[blk.id]
            if cur is None:
                continue
            t = cur
            for i in blk.indices():
                result[i] = t
                io = io_sets(program[i])
                t |= io.reads | io.writes
            for s in blk.successors:
                merged = t if block_in[s] is None else block_in[s] | t
                if merged != block_in[s]:
                    block_in[s] = merged
                    changed = True
    return result


def dependence_sets(nodes, edges: dict):
    """``(preds, succs, raw_preds)`` adjacency sets over ``nodes`` of an
    edge dict mapping (i, j), i before j, to a set of kinds."""
    preds = {n: set() for n in nodes}
    succs = {n: set() for n in nodes}
    raw_preds = {n: set() for n in nodes}
    for (i, j), kinds in edges.items():
        preds[j].add(i)
        succs[i].add(j)
        if "RAW" in kinds:
            raw_preds[j].add(i)
    return preds, succs, raw_preds


def run_step(state: MachineState, ins: Instruction, pc: int = 0):
    """Run ``ins``'s decoded step on ``state`` and commit its result: the
    register it writes, or its store through ``write_mem`` (guarded again).
    A branch commits nothing."""
    handler, form, reg, k = ins.step or decode_step(ins)
    value = handler(state, state.regs, ins, k, pc)
    if form == STEP_STORE:
        write_mem(state, value[0], value[1], pc)
    elif reg is not None:
        state.regs[reg] = value


def expand_extended(ins: Instruction, scratch: int | None = None):
    """Pure-eBPF expansion of one extended instruction.

    Returns (instructions, clobbered_regs). ``scratch`` is required for
    load48/store48 (and for the alu3 corner case src2 == dst); it must be
    a register that is dead at this point. The 4-byte and 2-byte parts of
    a 6-byte access each get the region of the bytes they touch.
    """
    k = ins.kind
    low = high = ins.region
    if low is not None and len(low) == 3:          # an exact stack range
        low, high = ("stack", low[1], low[1] + 4), ("stack", low[1] + 4, low[2])
    if k is Kind.ALU_THREE_OP:
        if ins.src2 is not None and ins.src2 == ins.dst:
            if scratch is None:
                raise ValueError("alu3 with src2 == dst needs a scratch register")
            return ([Instruction(Kind.MOV_REG, width=64, dst=scratch, src=ins.src2),
                     Instruction(Kind.MOV_REG, width=64, dst=ins.dst, src=ins.src),
                     Instruction(Kind.ALU_BINARY, op=ins.op, width=64,
                                 dst=ins.dst, src=scratch)], [scratch])
        mov = (Instruction(Kind.MOV_REG, width=64, dst=ins.dst, src=ins.src)
               if ins.dst != ins.src else None)
        alu = (Instruction(Kind.ALU_BINARY, op=ins.op, width=64, dst=ins.dst,
                           src=ins.src2) if ins.src2 is not None else
               Instruction(Kind.ALU_BINARY, op=ins.op, width=64, dst=ins.dst,
                           imm=ins.imm))
        return ([mov, alu] if mov else [alu]), []
    if k is Kind.LOAD48:
        if scratch is None or scratch in (ins.dst, ins.src):
            raise ValueError("load48 expansion needs a distinct scratch register")
        return ([Instruction(Kind.LOAD, width=4, dst=ins.dst, src=ins.src,
                             offset=ins.offset, region=low),
                 Instruction(Kind.LOAD, width=2, dst=scratch, src=ins.src,
                             offset=ins.offset + 4, region=high),
                 Instruction(Kind.ALU_BINARY, op="lsh", width=64, dst=scratch, imm=32),
                 Instruction(Kind.ALU_BINARY, op="or", width=64, dst=ins.dst,
                             src=scratch)], [scratch])
    if k is Kind.STORE48:
        if scratch is None or scratch in (ins.dst, ins.src):
            raise ValueError("store48 expansion needs a distinct scratch register")
        return ([Instruction(Kind.MOV_REG, width=64, dst=scratch, src=ins.src),
                 Instruction(Kind.ALU_BINARY, op="rsh", width=64, dst=scratch, imm=32),
                 Instruction(Kind.STORE, width=4, dst=ins.dst, src=ins.src,
                             offset=ins.offset, region=low),
                 Instruction(Kind.STORE, width=2, dst=ins.dst, src=scratch,
                             offset=ins.offset + 4, region=high)],
                [scratch])
    if k is Kind.EARLY_EXIT:
        return ([Instruction(Kind.MOV_IMM, width=64, dst=0, imm=ins.imm),
                 Instruction(Kind.EXIT)], [])
    raise ValueError(f"{k} is not an extended instruction")


def n_checks(n: int) -> int:
    """Pairwise-check count a runtime scheduler needs for n instructions:
    three set tests per unordered pair."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return 3 * n * (n - 1) // 2


def corpus_stores(entry, program, count: int) -> list:
    """``count`` fresh map stores for a corpus entry's program, each
    holding the entry's initial map entries."""
    inits = [(mid, bytes.fromhex(k), bytes.fromhex(v))
             for mid, k, v in entry.map_init]
    return [MapStore(program.maps, inits) for _ in range(count)]


def brute_force_min_rows(n: int, edges: dict, lanes: int) -> int:
    """Exhaustive minimum row count for scheduling a dependence graph.

    ``edges`` maps (i, j) with i < j to a set of kinds. A row is a set of
    pairwise-independent ready nodes, at most ``lanes`` wide; a node whose
    RAW producer sits in the immediately previous row must take that
    producer's lane, so two nodes sharing one previous-row RAW producer
    cannot coexist and a node with two such producers must wait. BFS over
    (done, previous row), empty rows allowed.
    """
    all_nodes = frozenset(range(n))
    preds, _, raw_preds = dependence_sets(range(n), edges)

    def independent(cand):
        return not any((i, j) in edges for i in cand for j in cand if i < j)

    start = (frozenset(), frozenset())
    seen = {start}
    frontier = deque([start])
    depth = 0
    while frontier:
        depth += 1
        for _ in range(len(frontier)):
            done, prev = frontier.popleft()
            ready = [x for x in all_nodes - done if preds[x] <= done]
            feasible = []
            for x in ready:
                pins = raw_preds[x] & prev
                if len(pins) > 1:
                    continue
                feasible.append((x, next(iter(pins)) if pins else None))
            for row in _subsets(feasible, lanes):
                nodes = frozenset(x for x, _ in row)
                if not independent(nodes):
                    continue
                pinned = [p for _, p in row if p is not None]
                if len(pinned) != len(set(pinned)):
                    continue
                nd = done | nodes
                state = (nd, nodes)
                if nd == all_nodes:
                    return depth
                if state not in seen:
                    seen.add(state)
                    frontier.append(state)
            empty = (done, frozenset())
            if empty not in seen:
                seen.add(empty)
                frontier.append(empty)
    return 0 if n else 0


def _subsets(items, limit):
    out = [[]]
    for it in items:
        out += [s + [it] for s in out if len(s) < limit]
    return [s for s in out if s]


_BLOCK_REGS = (0, 3, 4, 5, 7, 8, 9)     # r6 holds the packet, r1/r2 args
_BLOCK_ALU = ("+=", "-=", "*=", "&=", "|=", "^=", "<<=", ">>=", "s>>=")


def straight_line_source(rng: random.Random, size: int) -> str:
    """Assembly of one basic block of exactly ``size`` instructions with
    register ALU work and packet, stack and map accesses (two maps, helper
    calls, loads and stores through a looked-up value pointer)."""
    head = [".map 1 hash 8 8 64", ".map 2 array 4 8 16",
            "  r6 = *(u32 *)(r1 + 0)"]
    tail = ["  r0 = 2", "  exit"]
    body: list[str] = []
    slots: list[int] = []
    while len(body) < size - 3:
        d = rng.choice(_BLOCK_REGS)
        s = rng.choice(_BLOCK_REGS)
        roll = rng.random()
        if roll < 0.10:
            body.append(f"  r{d} = {rng.randint(-2**31, 2**31 - 1)}")
        elif roll < 0.18:
            body.append(f"  r{d} = r{s}")
        elif roll < 0.45:
            w = "w" if rng.random() < 0.25 else "r"
            op = rng.choice(_BLOCK_ALU)
            arg = rng.randrange(32) if "<" in op or ">" in op else \
                (f"{w}{s}" if rng.random() < 0.5 else rng.randint(-512, 511))
            body.append(f"  {w}{d} {op} {arg}")
        elif roll < 0.57:
            width = rng.choice((8, 16, 32, 64))
            body.append(f"  r{d} = *(u{width} *)(r6 + {rng.randrange(0, 56)})")
        elif roll < 0.65:
            width = rng.choice((8, 16, 32, 64))
            body.append(f"  *(u{width} *)(r6 + {rng.randrange(0, 56)}) = r{s}")
        elif roll < 0.75:
            off = 8 * rng.randint(1, 24)
            body.append(f"  *(u64 *)(r10 - {off}) = r{s}")
            slots.append(off)
        elif roll < 0.82 and slots:
            body.append(f"  r{d} = *(u64 *)(r10 - {rng.choice(slots)})")
        elif roll < 0.85:
            body += [f"  r{d} = r10", f"  r{d} += -{8 * rng.randint(1, 24)}",
                     f"  r{s} = *(u64 *)(r{d} + 0)"]
        elif roll < 0.92:
            m = rng.randint(1, 2)
            body += [f"  r1 = map[{m}]", "  r2 = r10",
                     f"  r2 += -{8 * rng.randint(1, 24)}", "  call map_lookup"]
            if rng.random() < 0.5:
                body.append(f"  r{rng.choice(_BLOCK_REGS[1:])} = *(u64 *)(r0 + 0)")
            else:
                body.append(f"  *(u64 *)(r0 + 0) = r{rng.choice(_BLOCK_REGS[1:])}")
        elif roll < 0.95:
            body += ["  r1 = map[1]", "  r2 = r10", "  r2 += -8", "  r3 = r10",
                     "  r3 += -16", "  r4 = 0", "  call map_update"]
        else:                                  # fusable mov + add pair
            body += [f"  r{d} = r{s}", f"  r{d} += {rng.randint(1, 255)}"]
    return "\n".join(head + body[:size - 3] + tail) + "\n"


_PULL_REGS = (0, 2, 3, 4, 5, 6, 7, 8, 9)    # r1 holds the context
_PULL_ALU = ("+=", "-=", "&=", "|=", "^=")


def pull_family_source(rng: random.Random) -> str:
    """Assembly of one program shaped for branch pulling. Block C holds 1-7
    ALU ops and then a chain of 2-4 ``if rX == k`` exits, each branch after
    the first its own one-branch block, which C may pull into its last row.
    C is placed before B, which dominates it: the entry sets a few
    registers and jumps to B, whose 0-4 ALU ops run first and which jumps
    to C, so code motion may move C's ops up into B. Exit i adds i + 1 to
    r0, so the path taken shows in the result."""
    def alu():
        d, s = rng.choice(_PULL_REGS), rng.choice(_PULL_REGS)
        roll = rng.random()
        if roll < 0.3:
            return f"r{d} = {rng.randint(0, 4)}"
        if roll < 0.5:
            return f"r{d} = r{s}"
        op = rng.choice(_PULL_ALU)
        return f"r{d} {op} " + (f"r{s}" if rng.random() < 0.5
                                else str(rng.randint(0, 4)))

    exits = rng.randint(2, 4)
    lines = [f"r{r} = {rng.randint(0, 3)}"
             for r in rng.sample(_PULL_REGS[1:], rng.randint(2, 6))]
    lines += ["goto B", "C:"] + [alu() for _ in range(rng.randint(1, 7))]
    lines += [f"if r{rng.choice(_PULL_REGS)} == {rng.randint(0, 3)} goto X{i}"
              for i in range(exits)]
    for i in range(exits):
        lines += [f"X{i}:", f"r0 += {i + 1}", "exit"]
    lines += ["B:"] + [alu() for _ in range(rng.randint(0, 4))] + ["goto C"]
    return "\n".join(lines) + "\n"


def dispatch_chain_source(rng: random.Random) -> str:
    """Assembly of one protocol-dispatch program: a packet bounds check
    that drops short packets, a byte loaded from the packet into rX, and
    a chain of 2-6 ``if rX == k goto Ci`` cases on it, each after the
    first its own one-branch block, which the block before may pull into
    its last row. Case i returns an action from 1-3, as does the
    fall-through, so the case taken shows in the result."""
    reg = rng.choice((3, 5, 7, 8, 9))
    offset = rng.randint(0, 13)
    cases = rng.sample(range(8), rng.randint(2, 6))
    lines = ["r6 = r1", "r2 = *(u32 *)(r6 + 0)", "r4 = *(u32 *)(r6 + 4)",
             "r1 = r2", f"r1 += {offset + 1}", "if r1 > r4 goto drop",
             f"r{reg} = *(u8 *)(r2 + {offset})"]
    lines += [f"if r{reg} == {k} goto C{i}" for i, k in enumerate(cases)]
    lines += [f"r0 = {rng.randint(1, 3)}", "exit"]
    for i in range(len(cases)):
        lines += [f"C{i}:", f"r0 = {rng.randint(1, 3)}", "exit"]
    lines += ["drop:", "r0 = 1", "exit"]
    return "\n".join(lines) + "\n"


def rfc1071_sum16(data: bytes, seed: int = 0) -> int:
    """Reference internet checksum accumulator (16-bit ones' complement)."""
    if len(data) % 2:
        data += b"\x00"
    s = seed
    for i in range(0, len(data), 2):
        s += int.from_bytes(data[i:i + 2], "little")
    while s >> 16:
        s = (s & 0xFFFF) + (s >> 16)
    return s


def fold16(v: int) -> int:
    while v >> 16:
        v = (v & 0xFFFF) + (v >> 16)
    return v


def make_state(rng: random.Random, *, pkt_len: int = 128) -> MachineState:
    maps = MapStore([MapDef(1, "hash", 4, 8, 8)],
                    [(1, rng.randbytes(4), rng.randbytes(8)) for _ in range(3)])
    pkt = PacketContext(rng.randbytes(pkt_len), head_room=64,
                        ingress_port=rng.randint(0, 3))
    state = MachineState(packet=pkt, maps=maps)
    for r in range(10):
        if r in (1,):
            continue
        state.regs[r] = rng.getrandbits(64)
    state.stack[:] = rng.randbytes(len(state.stack))
    return state


def clone_state(state: MachineState) -> MachineState:
    return deepcopy(state)


def point_into_stack(state, reg, rng, span=16):
    state.regs[reg] = STACK_BASE + rng.randrange(span, 512 - span)


def point_into_packet(state, reg, rng, span=16):
    lo = state.packet.start
    hi = state.packet.end - span
    state.regs[reg] = PKT_BASE + rng.randrange(lo, hi)


@pytest.fixture
def rng():
    return random.Random(20260810)
