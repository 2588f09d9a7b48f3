"""Inputs and independent reference computations for the benchmark.

Nothing here imports xvliw: the straight-line evaluator and the firewall
model are written from the documented semantics (eBPF wrapping
arithmetic, little-endian memory, the firewall's source in
``xvliw.corpus``), so a compiler or simulator fault cannot leak into the
expected outputs, and the host-speed reference stays the same work
whatever xvliw becomes.
"""

from __future__ import annotations

import random
import struct

MASK64 = (1 << 64) - 1
MASK32 = (1 << 32) - 1

# --- straight-line blocks -------------------------------------------------

BLOCK_PKT_LEN = 128      # loads and mid-block stores use bytes 0..63,
TAIL_BASE = 64           # the closing stores of live registers 64..127
SCRATCH = (0, 3, 4, 5, 6, 7, 8, 9)   # r1 is the context, r2 the packet
ALU_SYMS = {"add": "+=", "sub": "-=", "mul": "*=", "and": "&=", "or": "|=",
            "xor": "^=", "lsh": "<<=", "rsh": ">>=", "arsh": "s>>="}
SHIFTS = ("lsh", "rsh", "arsh")
WIDTH_NAMES = {1: "u8", 2: "u16", 4: "u32", 8: "u64"}


def _sx32(v: int) -> int:
    v &= MASK32
    return (v - (1 << 32) if v >> 31 else v) & MASK64


def gen_block(rng: random.Random, size: int) -> list[tuple]:
    """A straight-line program of exactly ``size`` instructions as op
    tuples. The body draws from a restricted op set (moves, 64/32-bit
    ALU with register or immediate, packet and stack loads and stores);
    the tail stores every scratch register into the packet and passes."""
    head = [("ctx",)]                               # r2 = packet start
    tail = [("stp", 8, TAIL_BASE + 8 * k, r) for k, r in enumerate(SCRATCH)]
    tail += [("movi", 0, 2), ("exit",)]
    body: list[tuple] = []
    stack_slots: list[int] = []
    while len(body) < size - len(head) - len(tail):
        d = rng.choice(SCRATCH)
        roll = rng.random()
        if roll < 0.12:
            body.append(("movi", d, rng.randint(-2**31, 2**31 - 1)))
        elif roll < 0.20:
            body.append(("mov", d, rng.choice(SCRATCH)))
        elif roll < 0.50:
            op = rng.choice(tuple(ALU_SYMS))
            width = 32 if rng.random() < 0.25 else 64
            if op in SHIFTS:
                src, imm = None, rng.randrange(width)
            elif rng.random() < 0.5:
                src, imm = rng.choice(SCRATCH), 0
            else:
                src, imm = None, rng.randint(-2048, 2047)
            body.append(("alu", op, width, d, src, imm))
        elif roll < 0.62:
            w = rng.choice((1, 2, 4, 8))
            body.append(("ldp", d, w, rng.randrange(0, TAIL_BASE - w + 1)))
        elif roll < 0.70:
            w = rng.choice((1, 2, 4, 8))
            body.append(("stp", w, rng.randrange(0, TAIL_BASE - w + 1),
                         rng.choice(SCRATCH)))
        elif roll < 0.80:
            off = 8 * rng.randint(1, 32)
            body.append(("sts", off, rng.choice(SCRATCH)))
            stack_slots.append(off)
        elif roll < 0.86 and stack_slots:
            body.append(("lds", d, rng.choice(stack_slots)))
        else:                                       # mov + alu: fusable pair
            s = rng.choice([r for r in SCRATCH if r != d])
            body.append(("mov", d, s))
            body.append(("alu", "add", 64, d, None, rng.randint(1, 255)))
    body = body[:size - len(head) - len(tail)]
    return head + body + tail


def block_asm(ops: list[tuple]) -> str:
    lines = []
    for op in ops:
        tag = op[0]
        if tag == "ctx":
            lines.append("r2 = *(u32 *)(r1 + 0)")
        elif tag == "movi":
            lines.append(f"r{op[1]} = {op[2]}")
        elif tag == "mov":
            lines.append(f"r{op[1]} = r{op[2]}")
        elif tag == "alu":
            _, name, width, d, src, imm = op
            r = "w" if width == 32 else "r"
            rhs = f"{r}{src}" if src is not None else str(imm)
            lines.append(f"{r}{d} {ALU_SYMS[name]} {rhs}")
        elif tag == "ldp":
            lines.append(f"r{op[1]} = *({WIDTH_NAMES[op[2]]} *)(r2 + {op[3]})")
        elif tag == "stp":
            lines.append(f"*({WIDTH_NAMES[op[1]]} *)(r2 + {op[2]}) = r{op[3]}")
        elif tag == "sts":
            lines.append(f"*(u64 *)(r10 - {op[1]}) = r{op[2]}")
        elif tag == "lds":
            lines.append(f"r{op[1]} = *(u64 *)(r10 - {op[2]})")
        elif tag == "exit":
            lines.append("exit")
    return "\n".join(lines) + "\n"


def _alu(name: str, width: int, a: int, b: int) -> int:
    mask = MASK64 if width == 64 else MASK32
    a &= mask
    b &= mask
    if name == "add":
        return (a + b) & mask
    if name == "sub":
        return (a - b) & mask
    if name == "mul":
        return (a * b) & mask
    if name == "and":
        return a & b
    if name == "or":
        return a | b
    if name == "xor":
        return a ^ b
    sh = b % width
    if name == "lsh":
        return (a << sh) & mask
    if name == "rsh":
        return a >> sh
    signed = a - (1 << width) if a >> (width - 1) else a
    return (signed >> sh) & mask                    # arsh


def eval_block(ops: list[tuple], packet: bytes) -> tuple[int, bytes]:
    """Run a straight-line block on ``packet``; returns (r0, packet out)."""
    regs = [0] * 11
    pkt = bytearray(packet)
    stack = bytearray(512)
    for op in ops:
        tag = op[0]
        if tag == "movi":
            regs[op[1]] = _sx32(op[2])
        elif tag == "mov":
            regs[op[1]] = regs[op[2]]
        elif tag == "alu":
            _, name, width, d, src, imm = op
            b = regs[src] if src is not None else _sx32(imm)
            regs[d] = _alu(name, width, regs[d], b)
        elif tag == "ldp":
            _, d, w, off = op
            regs[d] = int.from_bytes(pkt[off:off + w], "little")
        elif tag == "stp":
            _, w, off, s = op
            pkt[off:off + w] = (regs[s] & ((1 << 8 * w) - 1)).to_bytes(w, "little")
        elif tag == "sts":
            stack[512 - op[1]:520 - op[1]] = regs[op[2]].to_bytes(8, "little")
        elif tag == "lds":
            regs[op[1]] = int.from_bytes(stack[512 - op[2]:520 - op[2]], "little")
    return regs[0], bytes(pkt)


# --- the host-speed reference ------------------------------------------

REFERENCE_OPS = gen_block(random.Random(0), 300)
REFERENCE_PKT = bytes(range(BLOCK_PKT_LEN))


def reference_work():
    """A fixed computation in plain Python, about 1 ms on the reference
    host, whose time tracks the host's speed. It runs the evaluator above,
    which no change to xvliw touches."""
    for _ in range(6):
        eval_block(REFERENCE_OPS, REFERENCE_PKT)


# --- the simple_firewall corpus program -----------------------------------

FLOW_TABLE_SIZE = 256          # `.map 1 hash 16 8 256` in the firewall source
PORT_INTERNAL = 1              # the firewall treats ingress port 1 as inside
PASS, DROP = "PASS", "DROP"


def _ip(rng):
    return bytes(rng.randrange(256) for _ in range(4))


def _eth_ipv4(src: bytes, dst: bytes, proto: int, sport: int, dport: int) -> bytes:
    eth = bytes.fromhex("02ffeeddccbb02aabbccddee0800")
    ip = struct.pack("!BBHHHBBH4s4s", 0x45, 0, 54, 0, 0, 64, proto, 0, src, dst)
    return eth + ip + struct.pack("!HHI", sport, dport, 0) + bytes(26)


def firewall_stream(rng: random.Random, n: int) -> list[tuple[bytes, int]]:
    """``n`` (packet, ingress port) pairs in fixed shares: 40% internal
    opens of new flows (a fifth of them UDP), 30% replies to an opened
    flow, 10% internal repeats, 10% unknown external flows, 10% non-IPv4.
    The opens outnumber the 256-entry flow table once n > 640."""
    kinds = (["open"] * (4 * n // 10) + ["reply"] * (3 * n // 10)
             + ["repeat"] * (n // 10) + ["unknown"] * (n // 10))
    kinds += ["other"] * (n - len(kinds))
    rng.shuffle(kinds)
    opened: list[tuple] = []
    out = []
    for kind in kinds:
        if kind in ("reply", "repeat") and not opened:
            kind = "unknown"
        if kind == "open":
            proto = 17 if rng.random() < 0.2 else 6
            flow = (_ip(rng), _ip(rng), proto, rng.randrange(1024, 65536),
                    rng.choice((53, 80, 443, 8080)))
            opened.append(flow)
            out.append((_eth_ipv4(*flow), PORT_INTERNAL))
        elif kind == "repeat":
            out.append((_eth_ipv4(*rng.choice(opened)), PORT_INTERNAL))
        elif kind == "reply":
            src, dst, proto, sport, dport = rng.choice(opened)
            out.append((_eth_ipv4(dst, src, proto, dport, sport), 0))
        elif kind == "unknown":
            out.append((_eth_ipv4(_ip(rng), _ip(rng), 6,
                                  rng.randrange(1024, 65536), 22), 0))
        else:
            arp = bytes.fromhex("02ffeeddccbb02aabbccddee0806") + \
                bytes(rng.randrange(256) for _ in range(50))
            out.append((arp, rng.randrange(2)))
    return out


def firewall_key(pkt: bytes) -> bytes | None:
    """The flow-table key the firewall builds, or None when it drops the
    packet before the lookup. Addresses and ports are read as
    little-endian words, as the program's loads read them, and the pair
    with the smaller source word (u32 compare) comes first."""
    if len(pkt) < 38 or pkt[12:14] != b"\x08\x00" or pkt[23] not in (6, 17):
        return None
    saddr, daddr = pkt[26:30], pkt[30:34]
    sport, dport = pkt[34:36], pkt[36:38]
    if int.from_bytes(saddr, "little") > int.from_bytes(daddr, "little"):
        saddr, daddr, sport, dport = daddr, saddr, dport, sport
    return saddr + daddr + sport + dport + bytes((pkt[23], 0, 0, 0))


class FirewallModel:
    """Flow table of the firewall: key -> packet counter. Internal packets
    open a flow (counter 1) or count on a hit; the insert is refused once
    the table is full. External packets pass only on a hit."""

    def __init__(self):
        self.flows: dict[bytes, int] = {}

    def step(self, pkt: bytes, port: int) -> str:
        key = firewall_key(pkt)
        if key is None:
            return DROP
        if key in self.flows:
            self.flows[key] += 1
            return PASS
        if port != PORT_INTERNAL:
            return DROP
        if len(self.flows) < FLOW_TABLE_SIZE:
            self.flows[key] = 1
        return PASS

    def table(self) -> dict[bytes, bytes]:
        return {k: v.to_bytes(8, "little") for k, v in self.flows.items()}
