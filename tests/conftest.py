"""Shared test oracles, deliberately independent of the code they check."""

from __future__ import annotations

import random
from collections import deque
from copy import deepcopy

import pytest

from xvliw.isa import Instruction, MapDef
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
