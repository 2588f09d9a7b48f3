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

``hardware_bounds_guard`` is the one statement of the bounds rule: every
read, load and store finds its bytes through it (a buffer, an offset and,
for a map value, the map), and it raises every memory trap. The guard is
what makes boundary-check removal in the optimizer sound. Division and
modulo by zero yield 0 and continue. Helpers modify only r0 plus their
declared memory regions; r1-r5 and r6-r9 are preserved.

Each instruction is decoded once, on its first execution
(``decode_step``), into a step: a module-level handler chosen by kind,
width and operand form, with the operands it needs decoded once (a
sign-extended immediate, a constant result, a helper). The step is kept
in the instruction's declared ``step`` field, so every later run of the
program reuses it, and so does the VLIW simulator wherever it runs the
same instruction objects. The handlers are the one definition of the
instruction semantics. Decoding first checks the instruction's own fields
(``isa.field_problem``), also in a program built past ``build_program``,
and raises ``ProgramError`` on a bad one. So no engine runs a write to
r10, which holds the frame base all run long, and a load or store
addressed from r10 whose bytes lie inside the stack window
(``frame_offset``) never traps: it decodes to a handler that indexes the
stack at a constant offset. Every other load and store is located by the
guard when it is evaluated; a load then reads through a precompiled
``struct``. The instruction budget and the pc trap are as before. A store
step returns the location it was given; the oracle writes there at once,
as nothing runs between a step and its commit. Only a helper can move
the bounds, so the VLIW simulator locates a store again only in a row
that holds a call.

A result's map snapshot (``MapStore.snapshot``) holds, per map id, each
allocated key's value bytes: every index of an array map, every live key
of a hash or LRU map. Each map keeps that table current as its storage is
written, so a snapshot is a copy of it. Its order is unspecified; compare
snapshots by equality.
"""

from __future__ import annotations

import operator
import struct
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
from .isa import (FRAME_REG, PACKET_BUFFER, Instruction, Kind, MapDef, NUM_REGS,
                  STACK_SIZE, Program, _keep_step, field_problem)

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
    """Packet buffer with head room for adjust_head. It holds at most
    ``PACKET_BUFFER`` bytes, so an access the compiler gives the packet's
    region (``isa._region``) cannot reach the context or the stack."""
    data: bytes
    head_room: int = 64
    ingress_port: int = 0

    def __post_init__(self):
        if self.head_room < 0:
            raise ProgramError(f"head room {self.head_room} is negative")
        if not 0 <= self.ingress_port <= MASK32:
            raise ProgramError(f"ingress port {self.ingress_port} is not a u32")
        if self.head_room + len(self.data) > PACKET_BUFFER:
            raise ProgramError(f"head room {self.head_room} and a "
                               f"{len(self.data)}-byte packet exceed "
                               f"{PACKET_BUFFER} bytes")
        self.buf = bytearray(self.head_room) + bytearray(self.data)
        self.start = self.head_room
        self.end = len(self.buf)
        self._ctx = (None, b"")     # (key: start, end, ingress_port; record)

    @property
    def data_addr(self):
        return PKT_BASE + self.start

    @property
    def data_end_addr(self):
        return PKT_BASE + self.end

    def visible(self) -> bytes:
        return bytes(self.buf[self.start:self.end])

    def ctx_record(self) -> bytes:
        """The context record: data, data_end, data_meta (equal to data)
        and ingress port, each a little-endian u32, packed once per key."""
        key = (self.start, self.end, self.ingress_port)
        if self._ctx[0] != key:
            data = self.data_addr & MASK32
            self._ctx = key, _CTX_RECORD(data, self.data_end_addr & MASK32,
                                         data, self.ingress_port)
        return self._ctx[1]


_CTX_RECORD = struct.Struct("<4I").pack
_array_key = struct.Struct("<I").pack      # array index -> its 4-byte key


class Map:
    """One map instance: backing storage, the key->slot directory of a hash
    map with its slot->key table, and the key->value table that
    ``snapshot`` copies. Every write to storage refreshes the value table."""

    def __init__(self, mdef: MapDef):
        self.mdef = mdef
        self.storage = bytearray(mdef.max_entries * mdef.value_size)
        if mdef.kind == "array":
            self.entries = None
            self.values = dict.fromkeys(
                map(_array_key, range(mdef.max_entries)), bytes(mdef.value_size))
        else:
            self.entries: OrderedDict[bytes, int] = OrderedDict()
            self.slot_keys: dict[int, bytes] = {}
            self.values: dict[bytes, bytes] = {}
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
        vs = self.mdef.value_size
        if kind == "array":
            idx = int.from_bytes(key, "little")
            if idx >= self.mdef.max_entries or flags == 1:
                return -1
            self.write(idx * vs, value)
            return 0
        exists = key in self.entries
        if (flags == 1 and exists) or (flags == 2 and not exists):
            return -1
        if not exists:
            if not self.free:
                if kind != "lru_hash":
                    return -1
                oldest, slot = self.entries.popitem(last=False)
                self._release(oldest, slot)
            slot = self.free.pop()
            self.entries[key] = slot
            self.slot_keys[slot] = key
        else:
            slot = self.entries[key]
            if kind == "lru_hash":
                self.entries.move_to_end(key)
        self.write(slot * vs, value)
        return 0

    def delete(self, key: bytes) -> int:
        if self.mdef.kind == "array":
            return -1
        slot = self.entries.pop(key, None)
        if slot is None:
            return -1
        vs = self.mdef.value_size
        self.storage[slot * vs:(slot + 1) * vs] = bytes(vs)
        self._release(key, slot)
        return 0

    def write(self, offset: int, data: bytes):
        """Store ``data`` at ``offset`` of storage, inside one allocated
        value."""
        self.storage[offset:offset + len(data)] = data
        self._refresh(offset // self.mdef.value_size)

    def _refresh(self, slot: int):
        vs = self.mdef.value_size
        key = _array_key(slot) if self.entries is None else self.slot_keys[slot]
        self.values[key] = bytes(self.storage[slot * vs:(slot + 1) * vs])

    def _release(self, key: bytes, slot: int):
        """Forget a deleted or evicted entry and free its slot."""
        del self.slot_keys[slot]
        del self.values[key]
        self.free.append(slot)

    def slot_allocated(self, slot: int) -> bool:
        if self.entries is None:
            return slot < self.mdef.max_entries
        return slot in self.slot_keys

    def snapshot(self) -> dict[bytes, bytes]:
        return dict(self.values)


class MapStore:
    """The maps of ``defs``, then the ``(map id, key, value)`` entries of
    ``inits`` stored in order (``init_entry``)."""

    def __init__(self, defs=(), inits=()):
        self.maps: dict[int, Map] = {m.id: Map(m) for m in defs}
        for map_id, key, value in inits:
            self.init_entry(map_id, key, value)

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
        return {mid: m.snapshot() for mid, m in self.maps.items()}


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


# ---------------------------------------------------------------------------
# memory access
# ---------------------------------------------------------------------------

def hardware_bounds_guard(state: MachineState, addr: int, width: int,
                          write: bool = False, pc: int = -1):
    """Locate an access and trap on anything out of bounds: the in-hardware
    equivalent of the boundary checks the optimizer removes.

    Returns ``(buffer, offset, map)``: the access covers ``buffer[offset:
    offset + width]``, and ``map`` is the ``Map`` whose storage ``buffer``
    is, or None for the packet, the stack and the context record (bytes,
    never written).
    """
    if PKT_BASE <= addr < STACK_BASE:
        pkt = state.packet
        idx = addr - PKT_BASE
        if idx < pkt.start or idx + width > pkt.end:
            raise MemoryTrap(pc, addr, width, "outside packet bounds")
        return pkt.buf, idx, None
    if STACK_BASE <= addr < MAPFD_BASE:
        off = addr - STACK_BASE
        if off + width > STACK_SIZE:
            raise MemoryTrap(pc, addr, width, "outside stack window")
        return state.stack, off, None
    if CTX_BASE <= addr < CTX_BASE + CTX_SIZE:
        if write:
            raise MemoryTrap(pc, addr, width, "context record is read-only")
        if addr + width > CTX_BASE + CTX_SIZE:
            raise MemoryTrap(pc, addr, width, "context record overrun")
        return state.packet.ctx_record(), addr - CTX_BASE, None
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
        return m.storage, inner, m
    raise MemoryTrap(pc, addr, width, "unmapped address")


def read_mem(state: MachineState, addr: int, width: int, pc: int = -1) -> bytes:
    buf, off, _ = hardware_bounds_guard(state, addr, width, False, pc)
    return bytes(buf[off:off + width])


def write_mem(state: MachineState, addr: int, data: bytes, pc: int = -1):
    commit_store(data, *hardware_bounds_guard(state, addr, len(data), True, pc))


def commit_store(data: bytes, buf, off: int, m):
    """Write ``data`` where the bounds guard located it: ``buf[off:]``,
    through the map ``m`` when there is one, so its value table follows."""
    if m is None:
        buf[off:off + len(data)] = data
    else:
        m.write(off, data)


# ---------------------------------------------------------------------------
# instruction semantics: decoded steps
# ---------------------------------------------------------------------------

# op -> f(a, b, mask, top): operands already masked to the width, ``top``
# the index of its sign bit (also the shift-count mask)
_ALU_OPS = {
    "add": lambda a, b, mask, top: (a + b) & mask,
    "sub": lambda a, b, mask, top: (a - b) & mask,
    "mul": lambda a, b, mask, top: (a * b) & mask,
    "div": lambda a, b, mask, top: a // b if b else 0,
    "mod": lambda a, b, mask, top: a % b if b else 0,
    "or": lambda a, b, mask, top: a | b,
    "and": lambda a, b, mask, top: a & b,
    "xor": lambda a, b, mask, top: a ^ b,
    "lsh": lambda a, b, mask, top: (a << (b & top)) & mask,
    "rsh": lambda a, b, mask, top: a >> (b & top),
    "arsh": lambda a, b, mask, top: ((a - (mask + 1) if a >> top else a)
                                     >> (b & top)) & mask,
}
_WIDTHS = {64: (MASK64, 63), 32: (MASK32, 31)}      # width -> (mask, top)

# op -> test(a, b) of a conditional branch on 64-bit operands
_BRANCH_TESTS = {
    "jeq": operator.eq,
    "jne": operator.ne,
    "jgt": operator.gt,
    "jge": operator.ge,
    "jlt": operator.lt,
    "jle": operator.le,
    "jset": lambda a, b: (a & b) != 0,
    "jsgt": lambda a, b: s64(a) > s64(b),
    "jsge": lambda a, b: s64(a) >= s64(b),
    "jslt": lambda a, b: s64(a) < s64(b),
    "jsle": lambda a, b: s64(a) <= s64(b),
}


def _bswap(v: int, bits: int) -> int:
    return int.from_bytes((v & ((1 << bits) - 1)).to_bytes(bits // 8, "little"),
                          "big")


# A decoded step is the tuple (handler, form, reg, k). ``handler(state,
# regs, ins, k, pc)`` evaluates ``ins`` against the state and commits
# nothing but a helper's map and packet side effects. ``k`` is an operand
# decoded from ``ins`` once: a sign-extended immediate, a constant result,
# a store mask, a helper. The form says what the handler returns:
#   STEP_WRITE   the new value of register ``reg``;
#   STEP_STORE   (address, bytes, location) of a store, ``location`` what
#                ``hardware_bounds_guard`` returned for it;
#   STEP_BRANCH  the target, or None when a conditional branch falls through;
#   STEP_EXIT    the new value of r0 when ``reg`` is 0 (a parametrized
#                exit), else None.
STEP_WRITE, STEP_STORE, STEP_BRANCH, STEP_EXIT = range(4)


def _alu_binary(f, mask, top, imm: bool):
    if imm:
        def handler(state, regs, ins, k, pc):
            return f(regs[ins.dst] & mask, k, mask, top)
    else:
        def handler(state, regs, ins, k, pc):
            return f(regs[ins.dst] & mask, regs[ins.src] & mask, mask, top)
    return handler


def _alu_three_op(f, imm: bool):
    if imm:
        def handler(state, regs, ins, k, pc):
            return f(regs[ins.src] & MASK64, k, MASK64, 63)
    else:
        def handler(state, regs, ins, k, pc):
            return f(regs[ins.src] & MASK64, regs[ins.src2] & MASK64, MASK64, 63)
    return handler


def _branch(test, imm: bool):
    if imm:
        def handler(state, regs, ins, k, pc):
            return ins.target if test(regs[ins.dst], k) else None
    else:
        def handler(state, regs, ins, k, pc):
            return ins.target if test(regs[ins.dst], regs[ins.src]) else None
    return handler


# one handler per operation, width and operand form, shared by every
# instruction that has them: width -> op -> handler, and op -> handler
_ALU_REG, _ALU_IMM = ({width: {op: _alu_binary(f, *_WIDTHS[width], imm)
                               for op, f in _ALU_OPS.items()}
                       for width in _WIDTHS} for imm in (False, True))
_ALU3_REG, _ALU3_IMM = ({op: _alu_three_op(f, imm) for op, f in _ALU_OPS.items()}
                        for imm in (False, True))
_BRANCH_REG, _BRANCH_IMM = ({op: _branch(test, imm)
                             for op, test in _BRANCH_TESTS.items()}
                            for imm in (False, True))


def _constant(state, regs, ins, k, pc):
    return k


def _mov64(state, regs, ins, k, pc):
    return regs[ins.src]


def _mov32(state, regs, ins, k, pc):
    return regs[ins.src] & MASK32


def _neg(state, regs, ins, k, pc):                  # k: the width's mask
    return (-regs[ins.dst]) & k


def _be(state, regs, ins, k, pc):                   # k: the swapped bits
    return _bswap(regs[ins.dst], k)


def _le(state, regs, ins, k, pc):                   # k: the kept bits
    return regs[ins.dst] & k                        # truncate on this model


# width -> unpack_from of a little-endian unsigned field of that width
_UNPACK = {width: struct.Struct("<" + code).unpack_from
           for width, code in ((1, "B"), (2, "H"), (4, "I"), (8, "Q"))}
_UNPACK[6] = lambda buf, off: (int.from_bytes(buf[off:off + 6], "little"),)


def _load(state, regs, ins, k, pc):                 # k: the width's unpack
    buf, off, _ = hardware_bounds_guard(
        state, (regs[ins.src] + ins.offset) & MASK64, ins.width, False, pc)
    return k(buf, off)[0]


def _frame_load(state, regs, ins, k, pc):           # k: (unpack, stack offset)
    return k[0](state.stack, k[1])[0]


def _store_reg(state, regs, ins, k, pc):            # k: the width's mask
    addr = (regs[ins.dst] + ins.offset) & MASK64
    width = ins.width
    return (addr, (regs[ins.src] & k).to_bytes(width, "little"),
            hardware_bounds_guard(state, addr, width, True, pc))


def _store_imm(state, regs, ins, k, pc):            # k: the stored bytes
    addr = (regs[ins.dst] + ins.offset) & MASK64
    return addr, k, hardware_bounds_guard(state, addr, ins.width, True, pc)


def _frame_store_reg(state, regs, ins, k, pc):      # k: (mask, stack offset)
    mask, off = k
    data = (regs[ins.src] & mask).to_bytes(ins.width, "little")
    return STACK_BASE + off, data, (state.stack, off, None)


def _frame_store_imm(state, regs, ins, k, pc):      # k: (bytes, stack offset)
    data, off = k
    return STACK_BASE + off, data, (state.stack, off, None)


def _jump(state, regs, ins, k, pc):
    return ins.target


def _exit(state, regs, ins, k, pc):
    return None


def _call(state, regs, ins, k, pc):                 # k: the helper's code
    return k(state, pc) & MASK64


def _unknown_helper(state, regs, ins, k, pc):
    raise UnknownHelper(ins.imm)


# the handlers that can raise a VmTrap: a frame access never does
TRAPPING = frozenset((_load, _store_reg, _store_imm, _call, _unknown_helper))


def decode_step(ins: Instruction) -> tuple:
    """Decode ``ins`` into its step and keep the step in the instruction's
    ``step`` field; the engines call this on an instruction's first
    execution and read the field after that."""
    problem = field_problem(ins)
    if problem is not None:
        raise ProgramError(problem)
    k = ins.kind
    if k is Kind.ALU_BINARY:
        width = 64 if ins.width == 64 else 32
        if ins.src is None:
            step = (_ALU_IMM[width][ins.op], STEP_WRITE, ins.dst,
                    sx32(ins.imm) & _WIDTHS[width][0])
        else:
            step = (_ALU_REG[width][ins.op], STEP_WRITE, ins.dst, None)
    elif k is Kind.MOV_IMM:
        step = (_constant, STEP_WRITE, ins.dst,
                sx32(ins.imm) if ins.width == 64 else ins.imm & MASK32)
    elif k is Kind.MOV_REG:
        step = (_mov64 if ins.width == 64 else _mov32, STEP_WRITE, ins.dst, None)
    elif k is Kind.LOAD or k is Kind.LOAD48:
        off = frame_offset(ins) if ins.src == FRAME_REG else None
        unpack = _UNPACK[ins.width]
        step = ((_load, STEP_WRITE, ins.dst, unpack) if off is None
                else (_frame_load, STEP_WRITE, ins.dst, (unpack, off)))
    elif k is Kind.STORE or k is Kind.STORE48:
        mask = (1 << (ins.width * 8)) - 1
        off = frame_offset(ins) if ins.dst == FRAME_REG else None
        if ins.src is None:
            data = (sx32(ins.imm) & mask).to_bytes(ins.width, "little")
            step = ((_store_imm, STEP_STORE, None, data) if off is None
                    else (_frame_store_imm, STEP_STORE, None, (data, off)))
        else:
            step = ((_store_reg, STEP_STORE, None, mask) if off is None
                    else (_frame_store_reg, STEP_STORE, None, (mask, off)))
    elif k is Kind.BRANCH:
        handler = (_BRANCH_IMM if ins.src is None else _BRANCH_REG)[ins.op]
        step = (handler, STEP_BRANCH, None,
                sx32(ins.imm) if ins.src is None else None)
    elif k is Kind.JUMP_ALWAYS:
        step = (_jump, STEP_BRANCH, None, None)
    elif k is Kind.ALU_THREE_OP:
        if ins.src2 is None:
            step = (_ALU3_IMM[ins.op], STEP_WRITE, ins.dst, sx32(ins.imm))
        else:
            step = (_ALU3_REG[ins.op], STEP_WRITE, ins.dst, None)
    elif k is Kind.LOAD_IMM64:
        step = (_constant, STEP_WRITE, ins.dst,
                MAPFD_BASE + ins.imm if ins.is_map_ref else ins.imm & MASK64)
    elif k is Kind.CALL:
        impl = _helper_impl(ins.imm)
        step = ((_unknown_helper, STEP_WRITE, 0, None) if impl is None
                else (_call, STEP_WRITE, 0, impl))
    elif k is Kind.EXIT:
        step = (_exit, STEP_EXIT, None, None)
    elif k is Kind.EARLY_EXIT:
        step = (_constant, STEP_EXIT, 0, sx32(ins.imm))
    elif ins.op == "neg":               # the kind left: an ALU_UNARY
        step = (_neg, STEP_WRITE, ins.dst, MASK64 if ins.width == 64 else MASK32)
    elif ins.op == "be":
        step = (_be, STEP_WRITE, ins.dst, ins.imm)
    else:
        step = (_le, STEP_WRITE, ins.dst, (1 << ins.imm) - 1)
    _keep_step(ins, step)
    return step


def frame_offset(ins: Instruction) -> int | None:
    """The stack offset of a load or store addressed from r10, when its
    bytes lie inside the stack window; else None."""
    off = STACK_SIZE + ins.offset
    return off if 0 <= off <= STACK_SIZE - ins.width else None


# ---------------------------------------------------------------------------
# helper functions
# ---------------------------------------------------------------------------

def _helper_impl(helper_id: int):
    """The implementation of helper ``helper_id``; None if there is none."""
    helper = HELPERS.get(helper_id)
    return None if helper is None else _HELPER_IMPLS[helper.name]


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
    if m.mdef.value_size < 4:
        # the 4-byte target would run into the next entry
        raise BadHelperArgs("redirect_map", "redirect map values must hold 4 bytes")
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
    trace: list[int] | None = None          # executed pcs, when asked for
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
                    limits: Limits | None = None, *, trace: bool = False):
    """Interpret the program in order. Returns (XdpResult, MachineState);
    the result lists the executed pcs only when ``trace`` is set."""
    limits = limits or Limits()
    state = MachineState(packet=packet, maps=maps)
    regs = state.regs
    instrs = program.instructions
    pcs: list[int] | None = [] if trace else None
    budget = limits.max_instructions
    size = len(instrs)
    executed = 0
    pc = 0
    try:
        while True:
            if executed >= budget:
                raise InstructionLimitExceeded(
                    f"instruction budget {budget} exhausted")
            if not 0 <= pc < size:
                raise VmTrap(f"pc {pc} outside program")
            ins = instrs[pc]
            if pcs is not None:
                pcs.append(pc)
            executed += 1
            handler, form, reg, k = ins.step or decode_step(ins)
            value = handler(state, regs, ins, k, pc)
            if form == STEP_WRITE:
                regs[reg] = value
                pc += 1
            elif form == STEP_STORE:
                # commit where the step located the store: nothing has
                # run since
                commit_store(value[1], *value[2])
                pc += 1
            elif form == STEP_BRANCH:
                pc = pc + 1 if value is None else value
            else:
                if reg is not None:
                    regs[reg] = value
                state.pc = pc
                code = regs[0]
                return XdpResult(result_action(code), code, packet.visible(),
                                 maps.snapshot(),
                                 redirect_target=state.redirect_target,
                                 trace=pcs), state
    except VmTrap as exc:
        state.pc = pc
        return XdpResult(XDP_ABORTED, 0, packet.visible(), maps.snapshot(),
                         redirect_target=state.redirect_target, trace=pcs,
                         trapped=True, trap=str(exc)), state
