"""Sequential interpreter and the shared execution substrate.

The machine model is the 11-register, 512-byte-stack virtual machine with
exact wrapping 32/64-bit arithmetic. Registers and stack are zeroed before
every run (program state self-reset); r1 receives the context pointer and
r10 the frame base.

Program-visible memory is a flat 32-bit address space so that the 4-byte
context-record loads real XDP bytecode performs yield working pointers:

    0x1000_0000  context record (16B, read-only):
                 data u32 | data_end u32 | data_meta u32 | ingress u32
    0x2000_0000  packet buffer (head room + payload)
    0x3000_0000  stack (r10 = base + 512)
    0x4000_0000  map handles (one per map id, not dereferenceable)
    0x5000_0000  map value areas, 4 MiB stride per map id

Every access runs through ``hardware_bounds_guard``; the guard is what
makes boundary-check removal in the optimizer sound. Division and modulo
by zero yield 0 and continue. Helpers modify only r0 plus their declared
memory regions; r1-r5 and r6-r9 are preserved.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

from .errors import (
    BadHelperArgs,
    InstructionLimitExceeded,
    MemoryTrap,
    ProgramError,
    UnknownHelper,
    VmTrap,
)
from .helpers import HELPERS
from .isa import FRAME_REG, Instruction, Kind, MapDef, NUM_REGS, STACK_SIZE, Program

MASK64 = (1 << 64) - 1
MASK32 = (1 << 32) - 1

CTX_BASE = 0x1000_0000
CTX_SIZE = 16
PKT_BASE = 0x2000_0000
STACK_BASE = 0x3000_0000
MAPFD_BASE = 0x4000_0000
MAPVAL_BASE = 0x5000_0000
MAP_STRIDE = 0x40_0000

XDP_ABORTED, XDP_DROP, XDP_PASS, XDP_TX, XDP_REDIRECT = range(5)
ACTION_NAMES = {XDP_ABORTED: "ABORTED", XDP_DROP: "DROP", XDP_PASS: "PASS",
                XDP_TX: "TX", XDP_REDIRECT: "REDIRECT"}

FNV_SEED = 0x811C9DC5    # documented seed for the hash-map hash function


def fnv1a32(data: bytes, seed: int = FNV_SEED) -> int:
    h = seed
    for b in data:
        h ^= b
        h = (h * 0x01000193) & MASK32
    return h


def s64(v: int) -> int:
    return v - (1 << 64) if v >= (1 << 63) else v


def sx32(v: int) -> int:
    """Sign-extend a 32-bit immediate to 64 bits (unsigned representation)."""
    v &= MASK32
    if v >= (1 << 31):
        v -= 1 << 32
    return v & MASK64


# ---------------------------------------------------------------------------
# machine state
# ---------------------------------------------------------------------------

@dataclass
class PacketContext:
    """Packet buffer with head room for adjust_head."""
    data: bytes
    head_room: int = 64
    ingress_port: int = 0

    def __post_init__(self):
        if self.head_room < 0:
            raise ProgramError(f"head room {self.head_room} is negative")
        self.buf = bytearray(self.head_room) + bytearray(self.data)
        self.start = self.head_room
        self.end = len(self.buf)

    @property
    def data_addr(self):
        return PKT_BASE + self.start

    @property
    def data_end_addr(self):
        return PKT_BASE + self.end

    def visible(self) -> bytes:
        return bytes(self.buf[self.start:self.end])

    def ctx_bytes(self) -> bytes:
        out = bytearray()
        for v in (self.data_addr, self.data_end_addr, self.data_addr,
                  self.ingress_port):
            out += (v & MASK32).to_bytes(4, "little")
        return bytes(out)


class Map:
    """One map instance: backing storage plus key->slot directory."""

    def __init__(self, mdef: MapDef):
        self.mdef = mdef
        self.storage = bytearray(mdef.max_entries * mdef.value_size)
        if mdef.kind == "array":
            self.entries = None
        else:
            self.entries: OrderedDict[bytes, int] = OrderedDict()
            self.free = list(range(mdef.max_entries - 1, -1, -1))

    def base_addr(self) -> int:
        return MAPVAL_BASE + self.mdef.id * MAP_STRIDE

    def slot_addr(self, slot: int) -> int:
        return self.base_addr() + slot * self.mdef.value_size

    def lookup(self, key: bytes) -> int | None:
        """Return the value address or None."""
        if self.mdef.kind == "array":
            idx = int.from_bytes(key, "little")
            if idx >= self.mdef.max_entries:
                return None
            return self.slot_addr(idx)
        slot = self.entries.get(key)
        if slot is None:
            return None
        if self.mdef.kind == "lru_hash":
            self.entries.move_to_end(key)
        return self.slot_addr(slot)

    def update(self, key: bytes, value: bytes, flags: int) -> int:
        kind = self.mdef.kind
        if kind == "array":
            idx = int.from_bytes(key, "little")
            if idx >= self.mdef.max_entries or flags == 1:
                return -1
            off = idx * self.mdef.value_size
            self.storage[off:off + self.mdef.value_size] = value
            return 0
        exists = key in self.entries
        if (flags == 1 and exists) or (flags == 2 and not exists):
            return -1
        if not exists:
            if not self.free:
                if kind != "lru_hash":
                    return -1
                oldest, slot = self.entries.popitem(last=False)
                self.free.append(slot)
            slot = self.free.pop()
            self.entries[key] = slot
        else:
            slot = self.entries[key]
            if kind == "lru_hash":
                self.entries.move_to_end(key)
        off = slot * self.mdef.value_size
        self.storage[off:off + self.mdef.value_size] = value
        return 0

    def delete(self, key: bytes) -> int:
        if self.mdef.kind == "array":
            return -1
        slot = self.entries.pop(key, None)
        if slot is None:
            return -1
        off = slot * self.mdef.value_size
        self.storage[off:off + self.mdef.value_size] = bytes(self.mdef.value_size)
        self.free.append(slot)
        return 0

    def slot_allocated(self, slot: int) -> bool:
        if self.mdef.kind == "array":
            return slot < self.mdef.max_entries
        return slot in self.entries.values()

    def snapshot(self) -> dict[bytes, bytes]:
        vs = self.mdef.value_size
        if self.mdef.kind == "array":
            return {i.to_bytes(4, "little"): bytes(self.storage[i * vs:(i + 1) * vs])
                    for i in range(self.mdef.max_entries)}
        items = sorted(self.entries.items(), key=lambda kv: (fnv1a32(kv[0]), kv[0]))
        return {k: bytes(self.storage[s * vs:(s + 1) * vs]) for k, s in items}


class MapStore:
    def __init__(self, defs=()):
        self.maps: dict[int, Map] = {m.id: Map(m) for m in defs}

    def get(self, map_id: int) -> Map | None:
        return self.maps.get(map_id)

    def by_handle(self, handle: int) -> Map | None:
        if not MAPFD_BASE <= handle < MAPVAL_BASE:
            return None
        return self.maps.get(handle - MAPFD_BASE)

    def init_entry(self, map_id: int, key: bytes, value: bytes):
        m = self.maps.get(map_id)
        if m is None:
            raise ProgramError(f"init entry for map {map_id}, which no map "
                               f"defines")
        if len(key) != m.mdef.key_size or len(value) != m.mdef.value_size:
            raise ProgramError(
                f"map {map_id}: init entry has a {len(key)}-byte key and a "
                f"{len(value)}-byte value, the map takes {m.mdef.key_size} "
                f"and {m.mdef.value_size}")
        m.update(key, value, 0)

    def snapshot(self) -> dict[int, dict[bytes, bytes]]:
        return {mid: m.snapshot() for mid, m in sorted(self.maps.items())}


@dataclass
class Limits:
    max_instructions: int = 1_000_000


@dataclass
class MachineState:
    packet: PacketContext
    maps: MapStore
    regs: list[int] = field(default_factory=lambda: [0] * NUM_REGS)
    stack: bytearray = field(default_factory=lambda: bytearray(STACK_SIZE))
    pc: int = 0
    redirect_target: int | None = None

    def __post_init__(self):
        # zero-initialised state, then the two live-in registers
        self.regs[1] = CTX_BASE
        self.regs[FRAME_REG] = STACK_BASE + STACK_SIZE

    def set_reg(self, i: int, v: int):
        self.regs[i] = v & MASK64


# ---------------------------------------------------------------------------
# memory access
# ---------------------------------------------------------------------------

def hardware_bounds_guard(state: MachineState, addr: int, width: int,
                          write: bool = False, pc: int = -1) -> str:
    """Classify an access and trap on anything out of bounds.

    Returns the region name ('ctx', 'pkt', 'stack', 'map'). The in-hardware
    equivalent of the boundary checks the optimizer removes.
    """
    if CTX_BASE <= addr < CTX_BASE + CTX_SIZE:
        if write:
            raise MemoryTrap(pc, addr, width, "context record is read-only")
        if addr + width > CTX_BASE + CTX_SIZE:
            raise MemoryTrap(pc, addr, width, "context record overrun")
        return "ctx"
    if PKT_BASE <= addr < STACK_BASE:
        pkt = state.packet
        idx = addr - PKT_BASE
        if idx < pkt.start or idx + width > pkt.end:
            raise MemoryTrap(pc, addr, width, "outside packet bounds")
        return "pkt"
    if STACK_BASE <= addr < MAPFD_BASE:
        off = addr - STACK_BASE
        if off + width > STACK_SIZE:
            raise MemoryTrap(pc, addr, width, "outside stack window")
        return "stack"
    if addr >= MAPVAL_BASE:
        rel = addr - MAPVAL_BASE
        m = state.maps.get(rel // MAP_STRIDE)
        if m is None:
            raise MemoryTrap(pc, addr, width, "no such map")
        inner = rel % MAP_STRIDE
        vs = m.mdef.value_size
        slot, off = divmod(inner, vs)
        if off + width > vs:
            raise MemoryTrap(pc, addr, width, "crosses map value boundary")
        if not m.slot_allocated(slot):
            raise MemoryTrap(pc, addr, width, "unallocated map entry")
        return "map"
    raise MemoryTrap(pc, addr, width, "unmapped address")


def read_mem(state: MachineState, addr: int, width: int, pc: int = -1) -> bytes:
    region = hardware_bounds_guard(state, addr, width, write=False, pc=pc)
    if region == "ctx":
        off = addr - CTX_BASE
        return state.packet.ctx_bytes()[off:off + width]
    if region == "pkt":
        idx = addr - PKT_BASE
        return bytes(state.packet.buf[idx:idx + width])
    if region == "stack":
        off = addr - STACK_BASE
        return bytes(state.stack[off:off + width])
    rel = addr - MAPVAL_BASE
    m = state.maps.get(rel // MAP_STRIDE)
    inner = rel % MAP_STRIDE
    return bytes(m.storage[inner:inner + width])


def write_mem(state: MachineState, addr: int, data: bytes, pc: int = -1):
    region = hardware_bounds_guard(state, addr, len(data), write=True, pc=pc)
    if region == "pkt":
        idx = addr - PKT_BASE
        state.packet.buf[idx:idx + len(data)] = data
    elif region == "stack":
        off = addr - STACK_BASE
        state.stack[off:off + len(data)] = data
    else:
        rel = addr - MAPVAL_BASE
        m = state.maps.get(rel // MAP_STRIDE)
        inner = rel % MAP_STRIDE
        m.storage[inner:inner + len(data)] = data


# ---------------------------------------------------------------------------
# ALU / branch semantics
# ---------------------------------------------------------------------------

def alu_compute(op: str, width: int, a: int, b: int) -> int:
    mask = MASK64 if width == 64 else MASK32
    bits = 64 if width == 64 else 32
    a &= mask
    b &= mask
    if op == "add":
        return (a + b) & mask
    if op == "sub":
        return (a - b) & mask
    if op == "mul":
        return (a * b) & mask
    if op == "div":
        return (a // b) & mask if b else 0
    if op == "mod":
        return (a % b) & mask if b else 0
    if op == "or":
        return a | b
    if op == "and":
        return a & b
    if op == "xor":
        return a ^ b
    if op == "lsh":
        return (a << (b & (bits - 1))) & mask
    if op == "rsh":
        return a >> (b & (bits - 1))
    if op == "arsh":
        sa = a - (1 << bits) if a >= (1 << (bits - 1)) else a
        return (sa >> (b & (bits - 1))) & mask
    raise AssertionError(f"bad alu op {op}")


def _bswap(v: int, bits: int) -> int:
    return int.from_bytes((v & ((1 << bits) - 1)).to_bytes(bits // 8, "little"),
                          "big")


def branch_taken(op: str, a: int, b: int) -> bool:
    if op == "jeq":
        return a == b
    if op == "jne":
        return a != b
    if op == "jgt":
        return a > b
    if op == "jge":
        return a >= b
    if op == "jlt":
        return a < b
    if op == "jle":
        return a <= b
    if op == "jset":
        return (a & b) != 0
    sa, sb = s64(a), s64(b)
    if op == "jsgt":
        return sa > sb
    if op == "jsge":
        return sa >= sb
    if op == "jslt":
        return sa < sb
    if op == "jsle":
        return sa <= sb
    raise AssertionError(f"bad branch op {op}")


# ---------------------------------------------------------------------------
# instruction evaluation
# ---------------------------------------------------------------------------

@dataclass
class Effects:
    """Buffered result of evaluating one instruction against a state.

    ``control`` is None (fall through), ('jump', target) for a taken
    branch, or ('exit',). Helper calls apply their map/packet side effects
    immediately; register results still commit through ``reg_writes``.
    """
    reg_writes: dict[int, int] = field(default_factory=dict)
    mem_writes: list[tuple[int, bytes]] = field(default_factory=list)
    control: tuple | None = None


def eval_instruction(state: MachineState, ins: Instruction, pc: int = -1) -> Effects:
    """Evaluate ``ins`` reading the current state; no register/memory commit."""
    e = Effects()
    k = ins.kind
    regs = state.regs

    if k is Kind.ALU_BINARY:
        b = regs[ins.src] if ins.src is not None else sx32(ins.imm)
        e.reg_writes[ins.dst] = alu_compute(ins.op, ins.width, regs[ins.dst], b)
    elif k is Kind.ALU_UNARY:
        v = regs[ins.dst]
        if ins.op == "neg":
            mask = MASK64 if ins.width == 64 else MASK32
            e.reg_writes[ins.dst] = (-v) & mask
        elif ins.op == "be":
            e.reg_writes[ins.dst] = _bswap(v, ins.imm)
        else:                                   # le: truncate on this model
            e.reg_writes[ins.dst] = v & ((1 << ins.imm) - 1)
    elif k is Kind.MOV_IMM:
        e.reg_writes[ins.dst] = sx32(ins.imm) if ins.width == 64 else ins.imm & MASK32
    elif k is Kind.MOV_REG:
        v = regs[ins.src]
        e.reg_writes[ins.dst] = v if ins.width == 64 else v & MASK32
    elif k is Kind.LOAD_IMM64:
        if ins.is_map_ref:
            e.reg_writes[ins.dst] = MAPFD_BASE + ins.imm
        else:
            e.reg_writes[ins.dst] = ins.imm & MASK64
    elif k is Kind.ALU_THREE_OP:
        b = regs[ins.src2] if ins.src2 is not None else sx32(ins.imm)
        e.reg_writes[ins.dst] = alu_compute(ins.op, 64, regs[ins.src], b)
    elif k in (Kind.LOAD, Kind.LOAD48):
        addr = (regs[ins.src] + ins.offset) & MASK64
        e.reg_writes[ins.dst] = int.from_bytes(
            read_mem(state, addr, ins.width, pc), "little")
    elif k in (Kind.STORE, Kind.STORE48):
        addr = (regs[ins.dst] + ins.offset) & MASK64
        v = regs[ins.src] if ins.src is not None else sx32(ins.imm)
        data = (v & ((1 << (ins.width * 8)) - 1)).to_bytes(ins.width, "little")
        hardware_bounds_guard(state, addr, ins.width, write=True, pc=pc)
        e.mem_writes.append((addr, data))
    elif k is Kind.BRANCH:
        b = regs[ins.src] if ins.src is not None else sx32(ins.imm)
        if branch_taken(ins.op, regs[ins.dst], b):
            e.control = ("jump", ins.target)
    elif k is Kind.JUMP_ALWAYS:
        e.control = ("jump", ins.target)
    elif k is Kind.EXIT:
        e.control = ("exit",)
    elif k is Kind.EARLY_EXIT:
        e.reg_writes[0] = sx32(ins.imm)
        e.control = ("exit",)
    elif k is Kind.CALL:
        helper_call(ins.imm, state, pc=pc, effects=e)
    else:
        raise AssertionError(f"unhandled kind {k}")
    return e


def apply_effects(state: MachineState, e: Effects, pc: int = -1):
    for r, v in e.reg_writes.items():
        state.set_reg(r, v)
    for addr, data in e.mem_writes:
        write_mem(state, addr, data, pc)


# ---------------------------------------------------------------------------
# helper functions
# ---------------------------------------------------------------------------

def helper_call(helper_id: int, state: MachineState, pc: int = -1,
                effects: Effects | None = None) -> MachineState:
    """Run one helper. Map/packet side effects apply immediately; the r0
    result goes through ``effects`` when given (row semantics), else
    directly. r1-r5 and r6-r9 are never modified."""
    helper = HELPERS.get(helper_id)
    if helper is None:
        raise UnknownHelper(helper_id)
    impl = _HELPER_IMPLS[helper.name]
    r0 = impl(state, pc)
    if effects is None:
        state.set_reg(0, r0)
    else:
        effects.reg_writes[0] = r0 & MASK64
    return state


def _need_map(state, handle, name):
    m = state.maps.by_handle(handle)
    if m is None:
        raise BadHelperArgs(name, f"r1 (0x{handle:x}) is not a map handle")
    return m


def _read_key(state, m, addr, pc, name):
    try:
        return read_mem(state, addr, m.mdef.key_size, pc)
    except MemoryTrap as exc:
        raise BadHelperArgs(name, f"bad key pointer: {exc}") from exc


def _h_map_lookup(state, pc):
    m = _need_map(state, state.regs[1], "map_lookup")
    key = _read_key(state, m, state.regs[2], pc, "map_lookup")
    addr = m.lookup(key)
    return 0 if addr is None else addr


def _h_map_update(state, pc):
    m = _need_map(state, state.regs[1], "map_update")
    key = _read_key(state, m, state.regs[2], pc, "map_update")
    try:
        value = read_mem(state, state.regs[3], m.mdef.value_size, pc)
    except MemoryTrap as exc:
        raise BadHelperArgs("map_update", f"bad value pointer: {exc}") from exc
    return m.update(key, value, state.regs[4] & 0xF) & MASK64


def _h_map_delete(state, pc):
    m = _need_map(state, state.regs[1], "map_delete")
    key = _read_key(state, m, state.regs[2], pc, "map_delete")
    return m.delete(key) & MASK64


def _h_csum_diff(state, pc):
    """Incremental internet checksum over 4-byte words (RFC 1071 style):
    fold ~old words and new words into a 32-bit ones'-complement sum."""
    frm, fsize = state.regs[1], state.regs[2]
    to, tsize = state.regs[3], state.regs[4]
    seed = state.regs[5] & MASK32
    if fsize % 4 or tsize % 4 or fsize > 512 or tsize > 512:
        raise BadHelperArgs("csum_diff", "sizes must be multiples of 4 (<= 512)")
    total = seed
    if fsize:
        data = read_mem(state, frm, fsize, pc)
        for i in range(0, fsize, 4):
            w = int.from_bytes(data[i:i + 4], "little")
            total = _csum_add(total, (~w) & MASK32)
    if tsize:
        data = read_mem(state, to, tsize, pc)
        for i in range(0, tsize, 4):
            total = _csum_add(total, int.from_bytes(data[i:i + 4], "little"))
    return total


def _csum_add(a: int, b: int) -> int:
    s = a + b
    while s >> 32:
        s = (s & MASK32) + (s >> 32)
    return s


def _h_adjust_head(state, pc):
    if state.regs[1] != CTX_BASE:
        raise BadHelperArgs("adjust_head", "r1 must be the context pointer")
    delta = s64(state.regs[2])
    pkt = state.packet
    new_start = pkt.start + delta
    if not 0 <= new_start <= pkt.end:
        return (-1) & MASK64
    pkt.start = new_start
    return 0


def _h_redirect_map(state, pc):
    m = _need_map(state, state.regs[1], "redirect_map")
    if m.mdef.kind != "array":
        raise BadHelperArgs("redirect_map", "redirect maps must be array maps")
    idx = state.regs[2] & MASK32
    flags = state.regs[3]
    if idx >= m.mdef.max_entries:
        return flags & 0xF
    off = idx * m.mdef.value_size
    state.redirect_target = int.from_bytes(m.storage[off:off + 4], "little")
    return XDP_REDIRECT


_HELPER_IMPLS = {
    "map_lookup": _h_map_lookup,
    "map_update": _h_map_update,
    "map_delete": _h_map_delete,
    "csum_diff": _h_csum_diff,
    "adjust_head": _h_adjust_head,
    "redirect_map": _h_redirect_map,
}


# ---------------------------------------------------------------------------
# sequential execution (the differential oracle)
# ---------------------------------------------------------------------------

@dataclass
class XdpResult:
    action: int
    code: int
    packet_out: bytes
    maps_out: dict
    redirect_target: int | None = None
    trace: list[int] = field(default_factory=list)
    trapped: bool = False
    trap: str | None = None

    @property
    def action_name(self) -> str:
        return ACTION_NAMES.get(self.action, "ABORTED")

    def summary(self) -> dict:
        return {"action": self.action_name, "code": self.code,
                "redirect_target": self.redirect_target,
                "trapped": self.trapped, "trap": self.trap}


def result_action(code: int) -> int:
    return code if code in ACTION_NAMES else XDP_ABORTED


def exec_sequential(program: Program, packet: PacketContext, maps: MapStore,
                    limits: Limits | None = None):
    """Interpret the program in order. Returns (XdpResult, MachineState)."""
    limits = limits or Limits()
    state = MachineState(packet=packet, maps=maps)
    trace: list[int] = []
    executed = 0
    try:
        while True:
            if executed >= limits.max_instructions:
                raise InstructionLimitExceeded(
                    f"instruction budget {limits.max_instructions} exhausted")
            pc = state.pc
            if not 0 <= pc < len(program):
                raise VmTrap(f"pc {pc} outside program")
            ins = program[pc]
            trace.append(pc)
            executed += 1
            e = eval_instruction(state, ins, pc)
            apply_effects(state, e, pc)
            if e.control is None:
                state.pc = pc + 1
            elif e.control[0] == "jump":
                state.pc = e.control[1]
            else:
                code = state.regs[0]
                return XdpResult(result_action(code), code, packet.visible(),
                                 maps.snapshot(),
                                 redirect_target=state.redirect_target,
                                 trace=trace), state
    except VmTrap as exc:
        return XdpResult(XDP_ABORTED, 0, packet.visible(), maps.snapshot(),
                         redirect_target=state.redirect_target, trace=trace,
                         trapped=True, trap=str(exc)), state
