"""Instruction model, binary codec and input/output set classification.

The instruction set is the classic in-kernel BPF machine (11 64-bit
registers, fixed 64-bit instruction words, little-endian field layout
``opcode(8) | dst(4):src(4) | offset(16) | imm(32)``) plus five extended
instructions aimed at packet processing:

=========  =======================  =============================================
opcode     instruction              encoding notes
=========  =======================  =============================================
``0x16``   ``alu3 dst, src, src2``  second source register in offset bits 0..3
``0x1e``   ``alu3 dst, src, imm``   immediate source in imm
``0x56``   ``load48 dst, [src+o]``  6-byte load, zero-extended
``0x5e``   ``store48 [dst+o], src`` low 6 bytes of src
``0x9d``   ``early_exit imm``       exit carrying the forwarding action
=========  =======================  =============================================

Both three-operand forms keep the ALU operation selector in offset bits
8..11 (same nibble values the base ISA uses). All five bytes are unused
points of the opcode space given that the 32-bit conditional-jump class,
atomics and local calls are rejected as unsupported.

Branch targets are resolved to absolute instruction indices at decode /
parse time; ``encode`` recomputes word-relative offsets (a ``lddw``
occupies two words).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field, replace
from enum import Enum

from .errors import (
    DanglingLddwSecondHalf,
    ProgramError,
    TruncatedStream,
    UnencodableInstruction,
    UnknownOpcode,
    UnreachableTarget,
)
from .helpers import HELPERS

NUM_REGS = 11
FRAME_REG = 10          # r10: frame pointer, read-only
STACK_SIZE = 512

ALU_OPS = ("add", "sub", "mul", "div", "or", "and", "lsh", "rsh",
           "neg", "mod", "xor", "mov", "arsh", "end")
ALU_NIBBLE = {name: i for i, name in enumerate(ALU_OPS)}
ALU3_OPS = ("add", "sub", "mul", "div", "or", "and", "lsh", "rsh",
            "mod", "xor", "arsh")

JMP_OPS = {0x0: "ja", 0x1: "jeq", 0x2: "jgt", 0x3: "jge", 0x4: "jset",
           0x5: "jne", 0x6: "jsgt", 0x7: "jsge", 0x8: "call", 0x9: "exit",
           0xa: "jlt", 0xb: "jle", 0xc: "jslt", 0xd: "jsle"}
JMP_NIBBLE = {name: code for code, name in JMP_OPS.items()}
COND_OPS = ("jeq", "jgt", "jge", "jset", "jne", "jsgt", "jsge",
            "jlt", "jle", "jslt", "jsle")

# instruction classes (low 3 bits of the opcode byte)
CLS_LD, CLS_LDX, CLS_ST, CLS_STX, CLS_ALU32, CLS_JMP, CLS_JMP32, CLS_ALU64 = range(8)
BPF_K, BPF_X = 0x00, 0x08
MODE_IMM, MODE_MEM = 0x00, 0x60
SIZE_BITS = {0x00: 4, 0x08: 2, 0x10: 1, 0x18: 8}
SIZE_CODE = {w: b for b, w in SIZE_BITS.items()}

OP_ALU3_REG = 0x16
OP_ALU3_IMM = 0x1e
OP_LOAD48 = 0x56
OP_STORE48 = 0x5e
OP_EARLY_EXIT = 0x9d
OP_LDDW = 0x18

PSEUDO_MAP_FD = 1       # lddw src nibble marking a map reference


class Kind(Enum):
    ALU_BINARY = "alu_binary"
    ALU_UNARY = "alu_unary"
    MOV_IMM = "mov_imm"
    MOV_REG = "mov_reg"
    LOAD = "load"
    STORE = "store"
    LOAD_IMM64 = "load_imm64"
    BRANCH = "branch"
    JUMP_ALWAYS = "jump_always"
    CALL = "call"
    EXIT = "exit"
    ALU_THREE_OP = "alu_three_op"
    LOAD48 = "load48"
    STORE48 = "store48"
    EARLY_EXIT = "early_exit"


CONTROL_KINDS = frozenset({Kind.BRANCH, Kind.JUMP_ALWAYS, Kind.EXIT, Kind.EARLY_EXIT})
MEMORY_KINDS = frozenset({Kind.LOAD, Kind.STORE, Kind.LOAD48, Kind.STORE48})


@dataclass(frozen=True)
class Instruction:
    """One decoded instruction.

    ``width`` is 32/64 for ALU kinds and the byte count (1/2/4/6/8) for
    memory kinds. ``target`` is the absolute instruction index of a
    branch/jump destination. ``addr_space``, ``stack_slot`` and ``map_id``
    are analysis annotations attached at Program build time.
    """
    kind: Kind
    op: str | None = None
    width: int | None = None
    dst: int | None = None
    src: int | None = None
    src2: int | None = None
    offset: int = 0
    imm: int = 0
    target: int | None = None
    addr_space: str | None = None            # stack | packet | map | ctx | mem
    stack_slot: tuple[int, int] | None = None
    map_id: int | None = None

    @property
    def is_control(self) -> bool:
        return self.kind in CONTROL_KINDS

    @property
    def is_memory(self) -> bool:
        return self.kind in MEMORY_KINDS

    @property
    def is_map_ref(self) -> bool:
        return self.kind is Kind.LOAD_IMM64 and self.src == PSEUDO_MAP_FD


@dataclass(frozen=True)
class MapDef:
    id: int
    kind: str                   # array | hash | lru_hash
    key_size: int
    value_size: int
    max_entries: int

    def __post_init__(self):
        if self.kind not in ("array", "hash", "lru_hash"):
            raise ProgramError(f"map {self.id}: unknown kind {self.kind!r}")
        if not 0 <= self.id < 512:
            raise ProgramError(f"map id {self.id} out of range [0, 512)")
        if self.kind == "array" and self.key_size != 4:
            raise ProgramError(f"map {self.id}: array maps need 4-byte keys")
        if not (1 <= self.key_size <= 512 and 1 <= self.value_size <= 512):
            raise ProgramError(f"map {self.id}: key/value size out of range")
        if not 1 <= self.max_entries <= 65536:
            raise ProgramError(f"map {self.id}: max_entries out of range")
        if self.max_entries * self.value_size > 0x400000:
            raise ProgramError(f"map {self.id}: value area exceeds 4MiB")


@dataclass(frozen=True)
class Program:
    instructions: tuple[Instruction, ...]
    maps: tuple[MapDef, ...] = ()

    def __len__(self):
        return len(self.instructions)

    def __getitem__(self, i):
        return self.instructions[i]


def build_program(instructions, maps=()) -> Program:
    """Validate instructions, run the provenance scan, wrap in a Program."""
    instrs = list(instructions)
    validate_instructions(instrs)
    return Program(tuple(annotate_addr_spaces(instrs)), tuple(maps))


def validate_instructions(instrs):
    n = len(instrs)
    if n == 0:
        raise ProgramError("empty program")
    for i, ins in enumerate(instrs):
        for r in (ins.dst, ins.src, ins.src2):
            if r is not None and not 0 <= r < NUM_REGS:
                raise ProgramError(f"instruction {i}: register index {r} out of range")
        if written_register(ins) == FRAME_REG:
            raise ProgramError(f"instruction {i}: r10 is read-only")
        if ins.width == 6 and ins.kind not in (Kind.LOAD48, Kind.STORE48):
            raise ProgramError(f"instruction {i}: 6-byte width outside load48/store48")
        if ins.kind in (Kind.BRANCH, Kind.JUMP_ALWAYS):
            if ins.target is None or not 0 <= ins.target < n:
                raise ProgramError(f"instruction {i}: branch target out of range")
    if not any(instrs[i].kind in (Kind.EXIT, Kind.EARLY_EXIT)
               for i in reachable_instructions(instrs)):
        raise ProgramError("no exit reachable from entry")


def successors(ins: Instruction, i: int) -> tuple[int, ...]:
    """Indices control may pass to after ``ins``, the instruction at index
    ``i``: none after an exit, the target of a jump, the target then the
    fall-through of a conditional branch, else the fall-through (which is
    one past the end when ``ins`` is last)."""
    k = ins.kind
    if k is Kind.EXIT or k is Kind.EARLY_EXIT:
        return ()
    if k is Kind.JUMP_ALWAYS:
        return (ins.target,)
    if k is Kind.BRANCH:
        return (ins.target, i + 1)
    return (i + 1,)


def reachable_instructions(instrs) -> set[int]:
    """Indices of the instructions reachable from the entry."""
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


def written_register(ins: Instruction):
    """The register an instruction defines, None for stores/branches (calls
    and parametrized exits define r0)."""
    if ins.kind in (Kind.ALU_BINARY, Kind.ALU_UNARY, Kind.MOV_IMM, Kind.MOV_REG,
                    Kind.LOAD, Kind.LOAD_IMM64, Kind.ALU_THREE_OP, Kind.LOAD48):
        return ins.dst
    if ins.kind in (Kind.CALL, Kind.EARLY_EXIT):
        return 0
    return None


# ---------------------------------------------------------------------------
# binary codec
# ---------------------------------------------------------------------------

_WORD = struct.Struct("<BBhi")


def decode(data: bytes) -> Program:
    """Decode little-endian wire-format bytes into a Program."""
    if len(data) % 8 != 0:
        raise TruncatedStream(len(data))
    words = [_WORD.unpack_from(data, off) for off in range(0, len(data), 8)]
    instrs = []
    index_of_word = {}
    word = 0
    while word < len(words):
        index_of_word[word] = len(instrs)
        opcode, regs, off, imm = words[word]
        dst, src = regs & 0xF, regs >> 4
        if opcode == OP_LDDW:
            if word + 1 >= len(words):
                raise DanglingLddwSecondHalf(len(instrs))
            op2, regs2, off2, imm2 = words[word + 1]
            if op2 != 0 or regs2 != 0 or off2 != 0:
                raise DanglingLddwSecondHalf(len(instrs))
            value = (imm & 0xFFFFFFFF) | ((imm2 & 0xFFFFFFFF) << 32)
            instrs.append(Instruction(Kind.LOAD_IMM64, dst=dst, src=src, imm=value))
            word += 2
            continue
        instrs.append(_decode_one(len(instrs), opcode, dst, src, off, imm))
        word += 1

    # resolve branch word offsets to instruction indices
    word_starts = sorted(index_of_word)
    resolved = []
    for i, ins in enumerate(instrs):
        if ins.kind in (Kind.BRANCH, Kind.JUMP_ALWAYS):
            src_word = word_starts[i]
            tgt_word = src_word + 1 + ins.offset
            if tgt_word not in index_of_word:
                raise UnreachableTarget(
                    f"instruction {i}: branch target lands inside a lddw pair")
            ins = replace(ins, target=index_of_word[tgt_word], offset=0)
        resolved.append(ins)
    return build_program(resolved)


def _decode_one(index, opcode, dst, src, off, imm):
    if opcode == OP_ALU3_REG:
        return Instruction(Kind.ALU_THREE_OP, op=_alu3_op(index, opcode, off),
                           width=64, dst=dst, src=src, src2=off & 0xF)
    if opcode == OP_ALU3_IMM:
        return Instruction(Kind.ALU_THREE_OP, op=_alu3_op(index, opcode, off),
                           width=64, dst=dst, src=src, imm=imm)
    if opcode == OP_LOAD48:
        return Instruction(Kind.LOAD48, width=6, dst=dst, src=src, offset=off)
    if opcode == OP_STORE48:
        return Instruction(Kind.STORE48, width=6, dst=dst, src=src, offset=off)
    if opcode == OP_EARLY_EXIT:
        return Instruction(Kind.EARLY_EXIT, imm=imm)

    cls = opcode & 0x07
    if cls in (CLS_ALU32, CLS_ALU64):
        width = 64 if cls == CLS_ALU64 else 32
        name = ALU_OPS[opcode >> 4] if (opcode >> 4) < len(ALU_OPS) else None
        is_reg = bool(opcode & BPF_X)
        if name is None:
            raise UnknownOpcode(index, opcode)
        if name == "mov":
            if is_reg:
                return Instruction(Kind.MOV_REG, width=width, dst=dst, src=src)
            return Instruction(Kind.MOV_IMM, width=width, dst=dst, imm=imm)
        if name == "neg":
            return Instruction(Kind.ALU_UNARY, op="neg", width=width, dst=dst)
        if name == "end":
            if imm not in (16, 32, 64):
                raise UnknownOpcode(index, opcode)
            return Instruction(Kind.ALU_UNARY, op="be" if is_reg else "le",
                               width=width, dst=dst, imm=imm)
        if is_reg:
            return Instruction(Kind.ALU_BINARY, op=name, width=width, dst=dst, src=src)
        return Instruction(Kind.ALU_BINARY, op=name, width=width, dst=dst, imm=imm)

    if cls == CLS_JMP:
        name = JMP_OPS.get(opcode >> 4)
        is_reg = bool(opcode & BPF_X)
        if name is None:
            raise UnknownOpcode(index, opcode)
        if name == "ja":
            if is_reg:
                raise UnknownOpcode(index, opcode)
            return Instruction(Kind.JUMP_ALWAYS, offset=off)
        if name == "call":
            if src != 0:
                raise UnknownOpcode(index, opcode)   # call-to-local unsupported
            return Instruction(Kind.CALL, imm=imm)
        if name == "exit":
            return Instruction(Kind.EXIT)
        if is_reg:
            return Instruction(Kind.BRANCH, op=name, dst=dst, src=src, offset=off)
        return Instruction(Kind.BRANCH, op=name, dst=dst, imm=imm, offset=off)

    if cls in (CLS_LDX, CLS_ST, CLS_STX):
        mode, size = opcode & 0xE0, opcode & 0x18
        if mode != MODE_MEM or size not in SIZE_BITS:
            raise UnknownOpcode(index, opcode)
        width = SIZE_BITS[size]
        if cls == CLS_LDX:
            return Instruction(Kind.LOAD, width=width, dst=dst, src=src, offset=off)
        if cls == CLS_STX:
            return Instruction(Kind.STORE, width=width, dst=dst, src=src, offset=off)
        return Instruction(Kind.STORE, width=width, dst=dst, offset=off, imm=imm)

    raise UnknownOpcode(index, opcode)


def _alu3_op(index, opcode, off):
    nib = (off >> 8) & 0xF
    if nib >= len(ALU_OPS) or ALU_OPS[nib] not in ALU3_OPS:
        raise UnknownOpcode(index, opcode)
    return ALU_OPS[nib]


def encode(program: Program) -> bytes:
    """Encode a Program back to wire-format bytes. decode(encode(p)) == p."""
    instrs = program.instructions
    word_starts = []
    word = 0
    for ins in instrs:
        word_starts.append(word)
        word += 2 if ins.kind is Kind.LOAD_IMM64 else 1

    out = bytearray()
    for i, ins in enumerate(instrs):
        if ins.kind is Kind.LOAD_IMM64:
            lo = ins.imm & 0xFFFFFFFF
            hi = (ins.imm >> 32) & 0xFFFFFFFF
            out += _WORD.pack(OP_LDDW, _regs(ins.dst, ins.src or 0), 0, _s32(lo))
            out += _WORD.pack(0, 0, 0, _s32(hi))
            continue
        if ins.kind in (Kind.BRANCH, Kind.JUMP_ALWAYS):
            off = word_starts[ins.target] - word_starts[i] - 1
            ins = replace(ins, offset=off)
        out += _encode_one(ins)
    return bytes(out)


def _regs(dst, src):
    return (dst or 0) | ((src or 0) << 4)


def _s32(v):
    v &= 0xFFFFFFFF
    return v - (1 << 32) if v >= (1 << 31) else v


def _encode_one(ins: Instruction) -> bytes:
    k = ins.kind
    if k is Kind.ALU_THREE_OP:
        nib = ALU_NIBBLE[ins.op] << 8
        if ins.src2 is not None:
            return _WORD.pack(OP_ALU3_REG, _regs(ins.dst, ins.src), nib | ins.src2, 0)
        return _WORD.pack(OP_ALU3_IMM, _regs(ins.dst, ins.src), nib, ins.imm)
    if k is Kind.LOAD48:
        return _WORD.pack(OP_LOAD48, _regs(ins.dst, ins.src), ins.offset, 0)
    if k is Kind.STORE48:
        return _WORD.pack(OP_STORE48, _regs(ins.dst, ins.src), ins.offset, 0)
    if k is Kind.EARLY_EXIT:
        return _WORD.pack(OP_EARLY_EXIT, 0, 0, ins.imm)

    if k in (Kind.ALU_BINARY, Kind.ALU_UNARY, Kind.MOV_IMM, Kind.MOV_REG):
        cls = CLS_ALU64 if ins.width == 64 else CLS_ALU32
        if k is Kind.MOV_IMM:
            return _WORD.pack((ALU_NIBBLE["mov"] << 4) | cls, _regs(ins.dst, 0), 0, ins.imm)
        if k is Kind.MOV_REG:
            return _WORD.pack((ALU_NIBBLE["mov"] << 4) | BPF_X | cls,
                              _regs(ins.dst, ins.src), 0, 0)
        if ins.op == "neg":
            return _WORD.pack((ALU_NIBBLE["neg"] << 4) | cls, _regs(ins.dst, 0), 0, 0)
        if ins.op in ("be", "le"):
            bit = BPF_X if ins.op == "be" else BPF_K
            return _WORD.pack((ALU_NIBBLE["end"] << 4) | bit | cls,
                              _regs(ins.dst, 0), 0, ins.imm)
        nib = ALU_NIBBLE[ins.op] << 4
        if ins.src is not None:
            return _WORD.pack(nib | BPF_X | cls, _regs(ins.dst, ins.src), 0, 0)
        return _WORD.pack(nib | cls, _regs(ins.dst, 0), 0, ins.imm)

    if k is Kind.JUMP_ALWAYS:
        return _WORD.pack((JMP_NIBBLE["ja"] << 4) | CLS_JMP, 0, ins.offset, 0)
    if k is Kind.BRANCH:
        nib = JMP_NIBBLE[ins.op] << 4
        if ins.src is not None:
            return _WORD.pack(nib | BPF_X | CLS_JMP, _regs(ins.dst, ins.src),
                              ins.offset, 0)
        return _WORD.pack(nib | CLS_JMP, _regs(ins.dst, 0), ins.offset, ins.imm)
    if k is Kind.CALL:
        return _WORD.pack((JMP_NIBBLE["call"] << 4) | CLS_JMP, 0, 0, ins.imm)
    if k is Kind.EXIT:
        return _WORD.pack((JMP_NIBBLE["exit"] << 4) | CLS_JMP, 0, 0, 0)

    if k in (Kind.LOAD, Kind.STORE):
        size = SIZE_CODE.get(ins.width)
        if size is None:
            raise UnencodableInstruction(f"bad memory width {ins.width}")
        if k is Kind.LOAD:
            return _WORD.pack(MODE_MEM | size | CLS_LDX, _regs(ins.dst, ins.src),
                              ins.offset, 0)
        if ins.src is not None:
            return _WORD.pack(MODE_MEM | size | CLS_STX, _regs(ins.dst, ins.src),
                              ins.offset, 0)
        return _WORD.pack(MODE_MEM | size | CLS_ST, _regs(ins.dst, 0),
                          ins.offset, ins.imm)

    raise UnencodableInstruction(f"cannot encode {ins}")


# ---------------------------------------------------------------------------
# pointer provenance / address-space annotation
# ---------------------------------------------------------------------------

# lattice values: ('ctx',) ('pkt',) ('pkt_end',) ('stack', delta|None)
# ('mapfd', id) ('mapval', id|None) ('num',) ('any',)
_NUM = ("num",)
_ANY = ("any",)


def _join(a, b):
    if a == b:
        return a
    if a is None:
        return b
    if b is None:
        return a
    if a[0] == b[0] == "stack":
        return ("stack", None)
    if a[0] == b[0] == "mapval":
        return ("mapval", None)
    if _NUM in (a, b) and {a[0], b[0]} <= {"num", "pkt_end"}:
        return _NUM
    return _ANY


def _space_of(prov):
    if prov is None or prov[0] in ("num", "any"):
        return "mem", None, None
    if prov[0] == "stack":
        return "stack", prov[1], None
    if prov[0] == "pkt":
        return "packet", None, None
    if prov[0] == "mapval":
        return "map", None, prov[1]
    if prov[0] == "ctx":
        return "ctx", None, None
    return "mem", None, None


def provenance_states(instrs):
    """Pointer provenance state before each instruction (None if unreachable).

    Register state at entry: r1 holds the context pointer, r10 the frame
    base, everything else zero. Joins at control-flow merges widen to the
    unknown region, which io_sets treats as whole-memory.
    """
    n = len(instrs)
    entry = {r: _NUM for r in range(NUM_REGS)}
    entry[1] = ("ctx",)
    entry[10] = ("stack", 0)

    state_in = {0: entry}
    out_cache: dict[int, dict] = {}
    work = [0]
    while work:
        i = work.pop()
        st = state_in.get(i)
        if st is None:
            continue
        out = _transfer(instrs[i], dict(st))
        if out_cache.get(i) == out:
            continue
        out_cache[i] = out
        for s in successors(instrs[i], i):
            if s >= n:
                continue
            cur = state_in.get(s)
            if cur is None:
                state_in[s] = dict(out)
                work.append(s)
            else:
                merged = {r: _join(cur.get(r), out.get(r)) for r in range(NUM_REGS)}
                if merged != cur:
                    state_in[s] = merged
                    work.append(s)
    return [state_in.get(i) for i in range(n)]


def annotate_addr_spaces(instrs):
    """Attach addr_space / stack_slot / map_id annotations to memory ops
    and helper calls, from the provenance scan."""
    states = provenance_states(instrs)
    annotated = []
    for i, ins in enumerate(instrs):
        st = states[i]
        if st is None:                       # unreachable: leave conservative
            annotated.append(ins)
            continue
        if ins.is_memory:
            base = ins.dst if ins.kind in (Kind.STORE, Kind.STORE48) else ins.src
            space, delta, map_id = _space_of(st.get(base))
            slot = None
            if space == "stack" and delta is not None:
                lo = STACK_SIZE + delta + ins.offset
                slot = (lo, lo + ins.width)
            annotated.append(replace(ins, addr_space=space, stack_slot=slot,
                                     map_id=map_id))
        elif ins.kind is Kind.CALL:
            p = st.get(1)
            map_id = p[1] if p and p[0] == "mapfd" else None
            annotated.append(replace(ins, map_id=map_id))
        else:
            annotated.append(ins)
    return annotated


def _transfer(ins: Instruction, st: dict) -> dict:
    k = ins.kind
    if k is Kind.MOV_REG:
        st[ins.dst] = st.get(ins.src, _ANY) if ins.width == 64 else _NUM
    elif k in (Kind.MOV_IMM,):
        st[ins.dst] = _NUM
    elif k is Kind.LOAD_IMM64:
        st[ins.dst] = ("mapfd", ins.imm) if ins.is_map_ref else _NUM
    elif k is Kind.ALU_UNARY:
        st[ins.dst] = _NUM
    elif k is Kind.ALU_BINARY:
        st[ins.dst] = _alu_prov(ins.op, ins.width, st.get(ins.dst),
                                st.get(ins.src) if ins.src is not None else _NUM,
                                ins.imm if ins.src is None else None)
    elif k is Kind.ALU_THREE_OP:
        st[ins.dst] = _alu_prov(ins.op, 64, st.get(ins.src),
                                st.get(ins.src2) if ins.src2 is not None else _NUM,
                                ins.imm if ins.src2 is None else None)
    elif k in (Kind.LOAD, Kind.LOAD48):
        base = st.get(ins.src)
        if base == ("ctx",) and ins.width == 4 and ins.kind is Kind.LOAD:
            st[ins.dst] = {0: ("pkt",), 4: ("pkt_end",), 8: ("pkt",)}.get(
                ins.offset, _NUM)
        else:
            st[ins.dst] = _NUM
    elif k is Kind.CALL:
        helper = HELPERS.get(ins.imm)
        if helper is not None and helper.returns == "value_ptr":
            p = st.get(1)
            st[0] = ("mapval", p[1] if p and p[0] == "mapfd" else None)
        else:
            st[0] = _NUM
        # r1-r5 and memory-held provenance preserved (helpers touch only r0
        # plus declared regions)
    return st


def _alu_prov(op, width, a, b, imm):
    if width != 64:
        return _NUM
    if op == "add":
        if a is not None and a[0] == "pkt":
            return ("pkt",)
        if a is not None and a[0] == "stack":
            if imm is not None and a[1] is not None:
                return ("stack", a[1] + imm)
            return ("stack", None)
        if b is not None and b[0] in ("pkt", "stack") and imm is None:
            return (b[0],) if b[0] == "pkt" else ("stack", None)
        if a == _NUM and (b == _NUM or imm is not None):
            return _NUM
        return _ANY
    if op == "sub":
        if a is not None and a[0] == "pkt":
            return _NUM if (imm is None and b is not None and b[0] == "pkt") else ("pkt",)
        if a is not None and a[0] == "stack":
            if imm is not None and a[1] is not None:
                return ("stack", a[1] - imm)
            return ("stack", None)
        if a == _NUM and (b == _NUM or imm is not None):
            return _NUM
        return _ANY
    return _NUM


# ---------------------------------------------------------------------------
# input/output symbol sets
# ---------------------------------------------------------------------------

def reg(i):
    return ("reg", i)


R0, R1, R2, R3, R4, R5 = (reg(i) for i in range(6))
SYM_STACK = ("stack",)
SYM_PKT = ("pkt",)
SYM_CTX = ("ctx",)
SYM_MAPS = ("maps",)
SYM_MEM = ("mem",)


@dataclass(frozen=True)
class IoSets:
    inputs: frozenset = field(default_factory=frozenset)
    outputs: frozenset = field(default_factory=frozenset)


def symbols_overlap(a, b) -> bool:
    if a[0] == "reg" or b[0] == "reg":
        return a == b
    if a[0] == "mem" or b[0] == "mem":
        return True
    if a[0] == "stack" and b[0] == "stack":
        if len(a) == 1 or len(b) == 1:
            return True
        return a[1] < b[2] and b[1] < a[2]
    if a[0] in ("map", "maps") and b[0] in ("map", "maps"):
        if a[0] == "maps" or b[0] == "maps":
            return True
        return a[1] == b[1]
    return a[0] == b[0]


def sets_conflict(sa, sb) -> bool:
    for a in sa:
        for b in sb:
            if symbols_overlap(a, b):
                return True
    return False


def _mem_symbol(ins: Instruction):
    space = ins.addr_space or "mem"
    if space == "stack":
        if ins.stack_slot is not None:
            return ("stack", ins.stack_slot[0], ins.stack_slot[1])
        base = ins.dst if ins.kind in (Kind.STORE, Kind.STORE48) else ins.src
        if base == FRAME_REG:
            lo = STACK_SIZE + ins.offset
            return ("stack", lo, lo + ins.width)
        return SYM_STACK
    if space == "packet":
        return SYM_PKT
    if space == "map":
        return ("map", ins.map_id) if ins.map_id is not None else SYM_MAPS
    if space == "ctx":
        return SYM_CTX
    return SYM_MEM


def io_sets(ins: Instruction) -> IoSets:
    """Complete input/output symbol sets, memory regions included."""
    k = ins.kind
    if k is Kind.ALU_BINARY:
        ins_set = {reg(ins.dst)}
        if ins.src is not None:
            ins_set.add(reg(ins.src))
        return IoSets(frozenset(ins_set), frozenset({reg(ins.dst)}))
    if k is Kind.ALU_UNARY:
        return IoSets(frozenset({reg(ins.dst)}), frozenset({reg(ins.dst)}))
    if k is Kind.MOV_IMM or k is Kind.LOAD_IMM64:
        return IoSets(frozenset(), frozenset({reg(ins.dst)}))
    if k is Kind.MOV_REG:
        return IoSets(frozenset({reg(ins.src)}), frozenset({reg(ins.dst)}))
    if k is Kind.ALU_THREE_OP:
        ins_set = {reg(ins.src)}
        if ins.src2 is not None:
            ins_set.add(reg(ins.src2))
        return IoSets(frozenset(ins_set), frozenset({reg(ins.dst)}))
    if k in (Kind.LOAD, Kind.LOAD48):
        return IoSets(frozenset({reg(ins.src), _mem_symbol(ins)}),
                      frozenset({reg(ins.dst)}))
    if k in (Kind.STORE, Kind.STORE48):
        ins_set = {reg(ins.dst)}
        if ins.src is not None:
            ins_set.add(reg(ins.src))
        return IoSets(frozenset(ins_set), frozenset({_mem_symbol(ins)}))
    if k is Kind.BRANCH:
        ins_set = {reg(ins.dst)}
        if ins.src is not None:
            ins_set.add(reg(ins.src))
        return IoSets(frozenset(ins_set), frozenset())
    if k is Kind.JUMP_ALWAYS:
        return IoSets(frozenset(), frozenset())
    if k is Kind.EXIT:
        return IoSets(frozenset({R0}), frozenset())
    if k is Kind.EARLY_EXIT:
        return IoSets(frozenset(), frozenset({R0}))
    if k is Kind.CALL:
        helper = HELPERS.get(ins.imm)
        if helper is None:
            return IoSets(frozenset({reg(i) for i in range(1, 6)}),
                          frozenset({R0, SYM_MEM}))
        ins_set = {reg(i) for i in range(1, helper.arity + 1)}
        out_set = {R0}
        map_sym = ("map", ins.map_id) if ins.map_id is not None else SYM_MAPS
        for tag in helper.reads:
            ins_set.add(map_sym if tag == "map" else (tag,))
        for tag in helper.writes:
            out_set.add(map_sym if tag == "map" else (tag,))
        return IoSets(frozenset(ins_set), frozenset(out_set))
    raise AssertionError(f"unhandled kind {k}")


# ---------------------------------------------------------------------------
# extended-instruction expansion into base eBPF
# ---------------------------------------------------------------------------

def expand_extended(ins: Instruction, scratch: int | None = None):
    """Pure-eBPF expansion of one extended instruction.

    Returns (instructions, clobbered_regs). ``scratch`` is required for
    load48/store48 (and for the alu3 corner case src2 == dst); it must be
    a register that is dead at this point.
    """
    k = ins.kind
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
                             offset=ins.offset, addr_space=ins.addr_space),
                 Instruction(Kind.LOAD, width=2, dst=scratch, src=ins.src,
                             offset=ins.offset + 4, addr_space=ins.addr_space),
                 Instruction(Kind.ALU_BINARY, op="lsh", width=64, dst=scratch, imm=32),
                 Instruction(Kind.ALU_BINARY, op="or", width=64, dst=ins.dst,
                             src=scratch)], [scratch])
    if k is Kind.STORE48:
        if scratch is None or scratch in (ins.dst, ins.src):
            raise ValueError("store48 expansion needs a distinct scratch register")
        return ([Instruction(Kind.MOV_REG, width=64, dst=scratch, src=ins.src),
                 Instruction(Kind.ALU_BINARY, op="rsh", width=64, dst=scratch, imm=32),
                 Instruction(Kind.STORE, width=4, dst=ins.dst, src=ins.src,
                             offset=ins.offset, addr_space=ins.addr_space),
                 Instruction(Kind.STORE, width=2, dst=ins.dst, src=scratch,
                             offset=ins.offset + 4, addr_space=ins.addr_space)],
                [scratch])
    if k is Kind.EARLY_EXIT:
        return ([Instruction(Kind.MOV_IMM, width=64, dst=0, imm=ins.imm),
                 Instruction(Kind.EXIT)], [])
    raise ValueError(f"{k} is not an extended instruction")
