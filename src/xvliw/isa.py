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

``WIRE_FORMS``, the opcode table, is the one statement of the wire
format and of what builds: ``decode`` reads it, ``encode`` inverts it, one
byte per form, and ``field_problem`` builds only the fields a form keeps,
so every built program decodes back from its encoding.
As the kernel verifier does ("uses reserved fields"), ``decode`` rejects
``neg`` and ``call`` with the X (register source) bit set, bytes ``0x8c``,
``0x8f`` and ``0x8d``, and a word with a nonzero field its form does not
keep (an ALU3 keeps only its operation and ``src2`` nibbles of the
offset; a ``lddw``'s first word keeps no offset). Branch
targets are resolved to absolute instruction indices at decode / parse time;
``encode`` recomputes word-relative offsets (a ``lddw`` occupies two
words). ``Instruction.region`` is the one memory annotation.

Two analyses are memoised on the objects they describe: ``io_sets`` on
each ``Instruction``, and a ``ProgramAnalysis`` record on each
``Program``; so is each instruction's decoded step (``vm.decode_step``).
That is sound because both classes are frozen, and every rewrite builds
a new object, through ``rebuilt`` (which never copies a memo) or
``build_program`` (which starts a fresh record). The memos live in
declared slots, not in an instance ``__dict__`` (the classes have none),
so the engines' attribute reads on every step keep their fast path.

``build_program`` checks every field first (``field_problem``, branch
targets in range), so the provenance scan only ever indexes inside the
program; an instruction is reachable iff it has a state.

``io_sets`` gives an instruction's reads and writes (may-sets) and its
``kills`` (what it surely overwrites: the registers it writes and an exact
frame store's bytes) as masks over one atom layout, so two sets overlap
iff their ``&`` is nonzero. Bits 0-10 are r0-r10, then the packet, the
context record, one bit per stack byte 0-511 and one per map id 0-511.
``extent`` is the one constructor of a region's atoms: ``("maps",)`` is
every map bit, ``("mem",)`` every bit but the registers. The bounds are
exact because ``annotate_regions`` names a frame or map value access only
inside the 512-byte frame or a defined map's value slot (map ids are below
512), and widens any other to all memory or all maps.
"""

from __future__ import annotations

import heapq
import struct
from dataclasses import dataclass, field

from .errors import (
    DanglingLddwSecondHalf,
    DecodeError,
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
MAP_IDS = 512           # map ids 0-511
PACKET_BUFFER = 1 << 16  # most bytes of a packet buffer, head room and data

ALU_OPS = ("add", "sub", "mul", "div", "or", "and", "lsh", "rsh",
           "neg", "mod", "xor", "mov", "arsh", "end")
ALU_NIBBLE = {name: i for i, name in enumerate(ALU_OPS)}
ALU3_OPS = ("add", "sub", "mul", "div", "or", "and", "lsh", "rsh",
            "mod", "xor", "arsh")

JMP_OPS = ("ja", "jeq", "jgt", "jge", "jset", "jne", "jsgt", "jsge", "call",
           "exit", "jlt", "jle", "jslt", "jsle")

# instruction classes (low 3 bits of the opcode byte)
CLS_LDX, CLS_ST, CLS_STX, CLS_ALU32, CLS_JMP, CLS_ALU64 = 1, 2, 3, 4, 5, 7
BPF_X = 0x08            # source operand is a register
MODE_MEM = 0x60
SIZE_BITS = {0x00: 4, 0x08: 2, 0x10: 1, 0x18: 8}

OP_ALU3_REG = 0x16
OP_ALU3_IMM = 0x1e
OP_LOAD48 = 0x56
OP_STORE48 = 0x5e
OP_EARLY_EXIT = 0x9d
OP_LDDW = 0x18

PSEUDO_MAP_FD = 1       # lddw src nibble marking a map reference


class Kind:
    """An instruction kind: one object per kind, made below, compared by
    identity, and returned by copy and pickle. Not an ``Enum``, whose
    metaclass runs a Python-level ``__getattr__`` on every ``Kind.X``."""
    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name, self.value = name, name.lower()

    def __repr__(self):
        return f"<Kind.{self.name}: {self.value!r}>"

    def __str__(self):
        return f"Kind.{self.name}"

    def __reduce__(self):
        return getattr, (Kind, self.name)


for _name in ("ALU_BINARY", "ALU_UNARY", "MOV_IMM", "MOV_REG", "LOAD", "STORE",
              "LOAD_IMM64", "BRANCH", "JUMP_ALWAYS", "CALL", "EXIT",
              "ALU_THREE_OP", "LOAD48", "STORE48", "EARLY_EXIT"):
    setattr(Kind, _name, Kind(_name))

JUMP_KINDS = (Kind.BRANCH, Kind.JUMP_ALWAYS)
# the kinds control never falls through from
NO_FALL_THROUGH = (Kind.JUMP_ALWAYS, Kind.EXIT, Kind.EARLY_EXIT)
CONTROL_KINDS = (Kind.BRANCH, *NO_FALL_THROUGH)
MEMORY_KINDS = (Kind.LOAD, Kind.STORE, Kind.LOAD48, Kind.STORE48)


@dataclass(frozen=True, slots=True)
class Instruction:
    """One decoded instruction.

    ``width`` is 32/64 for ALU kinds and the byte count (1/2/4/6/8) for
    memory kinds. ``target`` is the absolute instruction index of a
    branch/jump destination. ``region``, set at Program build time, names
    the memory a load or store touches: ``("stack", lo, hi)`` for frame
    bytes lo to hi - 1, ``("map", id)``, ``("maps",)``, ``("pkt",)``,
    ``("ctx",)`` or ``("mem",)``. A call's is the ``("map", id)`` of a
    defined map it is passed, or ``("maps",)``. None reads as all memory
    (all maps for a call); ``extent`` gives a region's atoms. ``io`` is
    the ``io_sets`` memo, ``checked`` is set once
    ``field_problem`` passed the fields, and ``step`` is the execution
    engines' decoded step (``vm.decode_step``): all three outside
    ``__init__``, equality, hashing and ``repr``; ``rebuilt`` carries only
    ``checked``, and a pickle or copy none. ``__init__`` sets each slot
    through its own setter.
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
    region: tuple | None = None
    io: IoSets | None = field(default=None, init=False, repr=False,
                              compare=False)
    checked: bool = field(default=False, init=False, repr=False,
                          compare=False)
    step: tuple | None = field(default=None, init=False, repr=False,
                               compare=False)

    def __init__(self, kind, op=None, width=None, dst=None, src=None,
                 src2=None, offset=0, imm=0, target=None, region=None):
        _set_kind(self, kind)
        _set_op(self, op)
        _set_width(self, width)
        _set_dst(self, dst)
        _set_src(self, src)
        _set_src2(self, src2)
        _set_offset(self, offset)
        _set_imm(self, imm)
        _set_target(self, target)
        _set_region(self, region)
        _keep_io(self, None)
        _keep_checked(self, False)
        _keep_step(self, None)

    def __reduce__(self):
        return Instruction, (self.kind, self.op, self.width, self.dst, self.src,
                             self.src2, self.offset, self.imm, self.target,
                             self.region)

    @property
    def is_control(self) -> bool:
        return self.kind in CONTROL_KINDS

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
        if not 0 <= self.id < MAP_IDS:
            raise ProgramError(f"map id {self.id} out of range [0, {MAP_IDS})")
        if self.kind == "array" and self.key_size != 4:
            raise ProgramError(f"map {self.id}: array maps need 4-byte keys")
        if not (1 <= self.key_size <= 512 and 1 <= self.value_size <= 512):
            raise ProgramError(f"map {self.id}: key/value size out of range")
        if not 1 <= self.max_entries <= 65536:
            raise ProgramError(f"map {self.id}: max_entries out of range")
        if self.max_entries * self.value_size > 0x400000:
            raise ProgramError(f"map {self.id}: value area exceeds 4MiB")


@dataclass(frozen=True, slots=True)
class Program:
    """Instructions and map definitions. ``analysis`` is the program's
    ``ProgramAnalysis`` record (read it through ``analysis_of``): outside
    ``__init__``, equality and hashing, and never carried over by
    ``replace``."""
    instructions: tuple[Instruction, ...]
    maps: tuple[MapDef, ...] = ()
    analysis: ProgramAnalysis | None = field(default=None, init=False,
                                             repr=False, compare=False)

    def __len__(self):
        return len(self.instructions)

    def __getitem__(self, i):
        return self.instructions[i]


@dataclass(slots=True)
class ProgramAnalysis:
    """Facts about one Program, each computed at most once and shared by
    every peephole pass and compile stage that reads that Program.

    ``provenance`` (``provenance_states``) and ``reachable``, the indices
    with a provenance state, come with the record; ``annotated`` says the
    instructions carry the regions the states give, as ``build_program``'s
    do. ``cfg`` and ``liveness`` start as None. ``analysis.program_cfg``
    fills the CFG on first use, unless a peephole rewrite that keeps
    control flow hands its program the parent's CFG with the block spans
    remapped; the rewrite then also carries the parent's states where
    nothing it changed can move them (``peephole._apply``).
    ``analysis.program_liveness`` fills liveness only when a pass must
    decide a candidate by it. Readers must not mutate what it holds."""
    reachable: frozenset[int]
    provenance: list
    annotated: bool = False
    cfg: object = None
    liveness: object = None

    @classmethod
    def of_states(cls, states, annotated=False) -> ProgramAnalysis:
        """A record starting from the provenance scan's ``states``."""
        return cls(frozenset(i for i, st in enumerate(states) if st is not None),
                   states, annotated)


# the slots' own setters: a frozen dataclass refuses ``setattr``, and
# ``object.__setattr__`` costs three times as much
_set_kind = Instruction.kind.__set__
_set_op = Instruction.op.__set__
_set_width = Instruction.width.__set__
_set_dst = Instruction.dst.__set__
_set_src = Instruction.src.__set__
_set_src2 = Instruction.src2.__set__
_set_offset = Instruction.offset.__set__
_set_imm = Instruction.imm.__set__
_set_target = Instruction.target.__set__
_set_region = Instruction.region.__set__
_keep_io = Instruction.io.__set__
_keep_checked = Instruction.checked.__set__
_keep_step = Instruction.step.__set__
_keep_analysis = Program.analysis.__set__
_SAME = object()


def rebuilt(ins: Instruction, *, offset=_SAME, target=_SAME, region=_SAME):
    """A copy of ``ins`` through the constructor, without the ``io`` and
    ``step`` memos; ``checked`` stays unless the offset changes."""
    new = Instruction(ins.kind, ins.op, ins.width, ins.dst, ins.src, ins.src2,
                      ins.offset if offset is _SAME else offset, ins.imm,
                      ins.target if target is _SAME else target,
                      ins.region if region is _SAME else region)
    _keep_checked(new, ins.checked and offset is _SAME)
    return new


def analysis_of(program: Program) -> ProgramAnalysis:
    """The analysis record of ``program``, made on first use when the
    program was not built by ``build_program``."""
    record = program.analysis
    if record is None:
        record = ProgramAnalysis.of_states(provenance_states(program.instructions))
        _keep_analysis(program, record)
    return record


def build_program(instructions, maps=(), states=None) -> Program:
    """Validate instructions, annotate them from the provenance scan and
    wrap them in a Program, whose analysis record the scan starts. Given the
    ``states`` of already annotated instructions (``peephole._apply``), it
    skips the scan and the annotation, but no check."""
    instrs = list(instructions)
    n = len(instrs)
    if n == 0:
        raise ProgramError("empty program")
    for i, ins in enumerate(instrs):
        problem = field_problem(ins) or target_problem(ins, n)
        if problem is not None:
            raise ProgramError(f"instruction {i}: {problem}")
    if states is None:
        states = provenance_states(instrs)
        instrs = annotate_regions(instrs, states, maps)
    if states[-1] is not None and n in successors(instrs[-1], n - 1):
        raise ProgramError(f"instruction {n - 1}: control falls past the "
                           f"last instruction")
    if not any(st is not None and ins.kind in (Kind.EXIT, Kind.EARLY_EXIT)
               for ins, st in zip(reversed(instrs), reversed(states))):
        raise ProgramError("no exit reachable from entry")
    program = Program(tuple(instrs), tuple(maps))
    _keep_analysis(program, ProgramAnalysis.of_states(states, annotated=True))
    return program


def field_problem(ins: Instruction) -> str | None:
    """What is wrong with one instruction's own fields, or None. The keep
    list of its form in the opcode table (``_ENCODINGS``) is the rule: a
    kept register is set, a kept offset fits 16 signed bits and a kept
    immediate 32 (a ``lddw``'s 64), and a field not kept is None or 0; a
    jump keeps no offset, as its target carries it, and only a jump has a
    target. Stated once here, what the table cannot say: registers run
    r0-r10, r10 is read-only, a ``lddw`` src is 0 or a map fd, a byte swap
    is of 16, 32 or 64 bits and an ALU3 op is one of ``ALU3_OPS``. A jump's
    target is ``target_problem``'s. Sound fields are marked ``checked`` and
    not checked again."""
    if ins.checked:
        return None
    k = ins.kind
    if k is Kind.LOAD_IMM64 and ins.src not in (0, PSEUDO_MAP_FD):
        return f"lddw src {ins.src} is neither 0 nor a map fd"
    for r in (ins.dst, ins.src, ins.src2):
        if r is not None and not 0 <= r < NUM_REGS:
            return f"register index {r} out of range"
    # a store or a branch only reads its dst; any other kind keeping one writes it
    if ins.dst == FRAME_REG and k not in (Kind.STORE, Kind.STORE48, Kind.BRANCH):
        return "r10 is read-only"
    if k is Kind.LOAD_IMM64:
        if not -2**63 <= ins.imm < 2**64:
            return f"immediate {ins.imm} outside 64 bits"
    elif not -2**31 <= ins.imm < 2**31:
        return f"immediate {ins.imm} outside 32 bits"
    found = _ENCODINGS.get(key := _form(ins))
    if found is None or k is Kind.ALU_THREE_OP and ins.op not in ALU3_OPS:
        return (f"no {k.value} opcode for op {ins.op}, width {ins.width}"
                f" and {'a register' if key[3] else 'an immediate'} source")
    _, keep, unset = found
    if (ins.dst is None, ins.src is None, ins.src2 is None) != unset:
        for name, empty in zip(("dst", "src", "src2"), unset):
            if (getattr(ins, name) is None) is not empty:
                return (f"{k.value} keeps no {name} register" if empty
                        else f"{k.value} without its {name} register")
    if ins.offset:
        if "offset" not in keep or k in JUMP_KINDS:
            return f"{k.value} keeps no offset"
        if not -(1 << 15) <= ins.offset < 1 << 15:
            return f"offset {ins.offset} outside 16 bits"
    if ins.imm and "imm" not in keep:
        return f"{k.value} keeps no immediate"
    if ins.op in ("be", "le") and ins.imm not in (16, 32, 64):
        return f"{ins.op} of {ins.imm} bits"
    if ins.target is not None and k not in JUMP_KINDS:
        return f"{k.value} keeps no target"
    _keep_checked(ins, True)
    return None


def target_problem(ins: Instruction, n: int) -> str | None:
    """None when a jump's target indexes its ``n``-long program, else why."""
    if ins.kind in JUMP_KINDS and (ins.target is None or not 0 <= ins.target < n):
        return "branch target out of range"
    return None


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


# ---------------------------------------------------------------------------
# binary codec
# ---------------------------------------------------------------------------

_WORD = struct.Struct("<BBhi")
_LDDW = struct.Struct("<BBhIII")    # two words: the second keeps the imm's high half


def _wire_forms() -> dict:
    """Each accepted opcode byte and its form ``(kind, op, width, fields
    kept)``: the Instruction fields the word carries, a ``lddw``'s two
    words together. No form has two bytes; an ALU3's op is in the offset."""
    forms = {}

    def form(opcode, kind, op, width, *keep):
        forms[opcode] = (kind, op, width, keep)

    form(OP_ALU3_REG, Kind.ALU_THREE_OP, None, 64, "dst", "src", "src2")
    form(OP_ALU3_IMM, Kind.ALU_THREE_OP, None, 64, "dst", "src", "imm")
    form(OP_LOAD48, Kind.LOAD48, None, 6, "dst", "src", "offset")
    form(OP_STORE48, Kind.STORE48, None, 6, "dst", "src", "offset")
    form(OP_EARLY_EXIT, Kind.EARLY_EXIT, None, None, "imm")
    form(OP_LDDW, Kind.LOAD_IMM64, None, None, "dst", "src", "imm")
    for cls, width in ((CLS_ALU32, 32), (CLS_ALU64, 64)):
        for nib, name in enumerate(ALU_OPS):
            k, x = nib << 4 | cls, nib << 4 | BPF_X | cls
            if name == "mov":
                form(k, Kind.MOV_IMM, None, width, "dst", "imm")
                form(x, Kind.MOV_REG, None, width, "dst", "src")
            elif name == "neg":                 # the X bit is reserved
                form(k, Kind.ALU_UNARY, "neg", width, "dst")
            elif name == "end":                 # the X bit picks the order
                form(k, Kind.ALU_UNARY, "le", width, "dst", "imm")
                form(x, Kind.ALU_UNARY, "be", width, "dst", "imm")
            else:
                form(k, Kind.ALU_BINARY, name, width, "dst", "imm")
                form(x, Kind.ALU_BINARY, name, width, "dst", "src")
    for nib, name in enumerate(JMP_OPS):
        k, x = nib << 4 | CLS_JMP, nib << 4 | BPF_X | CLS_JMP
        if name == "ja":
            form(k, Kind.JUMP_ALWAYS, None, None, "offset")
        elif name == "call":                    # the X bit is reserved
            form(k, Kind.CALL, None, None, "imm")
        elif name == "exit":                    # exit with X is early_exit
            form(k, Kind.EXIT, None, None)
        else:
            form(k, Kind.BRANCH, name, None, "dst", "offset", "imm")
            form(x, Kind.BRANCH, name, None, "dst", "src", "offset")
    for size, width in SIZE_BITS.items():
        mem = MODE_MEM | size
        form(mem | CLS_LDX, Kind.LOAD, None, width, "dst", "src", "offset")
        form(mem | CLS_STX, Kind.STORE, None, width, "dst", "src", "offset")
        form(mem | CLS_ST, Kind.STORE, None, width, "dst", "offset", "imm")
    return forms


WIRE_FORMS = _wire_forms()
# the inverse: a register source (src2 on an ALU3) picks one of two forms;
# each also holds which of dst, src and src2 it leaves unset
_ENCODINGS = {}
for _opcode, (_kind, _op, _width, _keep) in WIRE_FORMS.items():
    _by_register = ("src2" if _kind is Kind.ALU_THREE_OP else "src") in _keep
    _ENCODINGS[_kind, _op, _width, _by_register] = _opcode, _keep, tuple(
        r not in _keep for r in ("dst", "src", "src2"))


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
        if opcode == OP_LDDW:           # its second word: the imm's high half
            if word + 1 == len(words) or words[word + 1][:3] != (0, 0, 0):
                raise DanglingLddwSecondHalf(len(instrs))
            if src not in (0, PSEUDO_MAP_FD):
                raise DecodeError(f"instruction {len(instrs)}: lddw src {src} "
                                  f"is neither 0 nor a map fd")
            word += 1
            imm = (imm & 0xFFFFFFFF) | ((words[word][3] & 0xFFFFFFFF) << 32)
        instrs.append(_decode_one(len(instrs), opcode, dst, src, off, imm))
        word += 1

    # resolve branch word offsets to instruction indices
    word_starts = sorted(index_of_word)
    for i, ins in enumerate(instrs):
        if ins.kind in JUMP_KINDS:
            tgt_word = word_starts[i] + 1 + ins.offset
            if not 0 <= tgt_word < len(words):
                raise ProgramError(f"instruction {i}: branch target out of range")
            if tgt_word not in index_of_word:
                raise UnreachableTarget(
                    f"instruction {i}: branch target lands inside a lddw pair")
            instrs[i] = rebuilt(ins, offset=0, target=index_of_word[tgt_word])
    return build_program(instrs)


def _decode_one(index, opcode, dst, src, off, imm):
    form = WIRE_FORMS.get(opcode)
    if form is None:
        raise UnknownOpcode(index, opcode)
    kind, op, width, keep = form
    if kind is Kind.CALL and src != 0:                 # a call to local code
        raise UnknownOpcode(index, opcode)
    wire = {"dst": dst, "src": src, "offset": off, "imm": imm}
    if kind is Kind.ALU_THREE_OP:
        nib = (off >> 8) & 0xF
        if nib >= len(ALU_OPS) or ALU_OPS[nib] not in ALU3_OPS:
            raise UnknownOpcode(index, opcode)
        op, wire["src2"], wire["offset"] = ALU_OPS[nib], off & 0xF, off & ~0xF0F
    for name, value in wire.items():
        if value and name not in keep:
            raise _reserved(index, opcode, name)
    return Instruction(kind, op=op, width=width, **{f: wire[f] for f in keep})


def _reserved(index, opcode, name) -> DecodeError:
    return DecodeError(f"instruction {index}: opcode 0x{opcode:02x} uses "
                       f"reserved field {name}")


def encode(program: Program) -> bytes:
    """Encode a Program back to wire-format bytes. decode(encode(p)) == p
    for a built p, regions aside: the wire carries no map definitions.
    Raises UnencodableInstruction for an instruction ``field_problem`` or
    ``target_problem`` refuses (in a Program made directly) and for a
    branch whose word offset falls outside 16 bits."""
    instrs = program.instructions
    word_starts = []
    word = 0
    for ins in instrs:
        word_starts.append(word)
        word += 2 if ins.kind is Kind.LOAD_IMM64 else 1

    out = bytearray()
    for i, ins in enumerate(instrs):
        problem = field_problem(ins) or target_problem(ins, len(instrs))
        if problem is not None:
            raise UnencodableInstruction(f"instruction {i}: {problem}")
        if ins.kind is Kind.LOAD_IMM64:
            imm = ins.imm & 0xFFFFFFFFFFFFFFFF
            out += _LDDW.pack(OP_LDDW, _regs(ins.dst, ins.src), 0,
                              imm & 0xFFFFFFFF, 0, imm >> 32)
            continue
        if ins.kind in JUMP_KINDS:
            off = word_starts[ins.target] - word_starts[i] - 1
            if not -(1 << 15) <= off < 1 << 15:
                raise UnencodableInstruction(
                    f"instruction {i}: branch offset {off} words outside 16 bits")
            ins = rebuilt(ins, offset=off)
        out += _encode_one(ins)
    return bytes(out)


def _regs(dst, src):
    return (dst or 0) | ((src or 0) << 4)


def _form(ins: Instruction) -> tuple:
    """The ``_ENCODINGS`` key of ``ins``: kind, op (None for an ALU3, whose
    op the offset carries), width and whether its source is a register."""
    alu3 = ins.kind is Kind.ALU_THREE_OP
    return (ins.kind, None if alu3 else ins.op, ins.width,
            (ins.src2 if alu3 else ins.src) is not None)


def _encode_one(ins: Instruction) -> bytes:
    opcode, keep, _ = _ENCODINGS[_form(ins)]
    kept = {name: getattr(ins, name) or 0 for name in keep}
    off = (ALU_NIBBLE[ins.op] << 8 | kept.get("src2", 0)
           if ins.kind is Kind.ALU_THREE_OP else kept.get("offset", 0))
    return _WORD.pack(opcode, _regs(kept.get("dst"), kept.get("src")), off,
                      kept.get("imm", 0))


# ---------------------------------------------------------------------------
# pointer provenance / region annotation
# ---------------------------------------------------------------------------

# lattice values: ('ctx',) ('pkt', delta|None) ('pkt_end',) ('stack', delta|None)
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
    if a[0] == b[0] in ("stack", "pkt", "mapval"):
        return (a[0], None)
    if _NUM in (a, b) and {a[0], b[0]} <= {"num", "pkt_end"}:
        return _NUM
    return _ANY


# the provenance of a 32-bit context load at each offset: data, data_end,
# data_meta; any other field is a number
_CTX_FIELDS = {0: ("pkt", 0), 4: ("pkt_end",), 8: ("pkt", 0)}
_ENTRY = tuple(("ctx",) if r == 1 else ("stack", 0) if r == FRAME_REG else _NUM
               for r in range(NUM_REGS))


def provenance_states(instrs):
    """Pointer provenance state before each instruction: a tuple indexed
    by register, or None if the instruction is unreachable.

    Register state at entry: r1 holds the context pointer, r10 the frame
    base, everything else zero. Joins at control-flow merges widen to the
    unknown region, which io_sets treats as whole-memory. A worklist visits
    the lowest pending index first, so when every jump goes forward
    (``jumps_forward``) each instruction is visited once, after all its
    predecessors, and its state is the join of their final ones. With a
    loop an instruction may be visited before its predecessors settle; the
    transfer is not monotone (``pkt - pkt`` is a number, ``pkt - any`` a
    packet pointer), so another order could settle on other states.
    """
    n = len(instrs)
    state_in: list = [None] * n
    state_in[0] = _ENTRY
    state_out: list = [None] * n
    work = [0]
    while work:
        i = heapq.heappop(work)
        ins = instrs[i]
        st = list(state_in[i])
        _transfer(ins, st)
        out = tuple(st)
        if out == state_out[i]:
            continue
        state_out[i] = out
        for s in successors(ins, i):
            if s >= n:
                continue
            cur = state_in[s]
            if cur is None:
                state_in[s] = out
                heapq.heappush(work, s)
            elif cur != out:
                merged = tuple(map(_join, cur, out))
                if merged != cur:
                    state_in[s] = merged
                    heapq.heappush(work, s)
    return state_in


def jumps_forward(instrs) -> bool:
    """Whether every jump of ``instrs`` targets a later index: no loop."""
    return all(ins.target > i for i, ins in enumerate(instrs)
               if ins.kind in JUMP_KINDS)


def annotate_regions(instrs, states, maps):
    """Set the ``region`` of each reachable memory op and helper call from
    the provenance scan's ``states`` (which read no region) and the map
    definitions ``maps``; an unreachable one keeps its region. An
    instruction whose region is unchanged is kept as the same object, with
    its ``io_sets`` memo; a copy (``rebuilt``) keeps the ``checked`` mark."""
    value_sizes = {m.id: m.value_size for m in maps}
    annotated = []
    for ins, st in zip(instrs, states):
        k = ins.kind
        if st is not None and (k in MEMORY_KINDS or k is Kind.CALL):
            base = (1 if k is Kind.CALL else
                    ins.dst if k is Kind.STORE or k is Kind.STORE48 else ins.src)
            region = _region(st[base], ins, value_sizes)
            if region != ins.region:
                ins = rebuilt(ins, region=region)
        annotated.append(ins)
    return annotated


def _region(prov, ins: Instruction, value_sizes):
    """The region of what ``ins`` reaches through a base register of
    provenance ``prov``: the memory a load or store touches, or the map a
    call is passed in r1 (None when r1 holds no map). Only an access that
    stays inside the frame or a defined map's value slot is exact. A packet
    access is ``("pkt",)`` only at a known offset within ``PACKET_BUFFER``
    bytes of the data pointer: the buffer holds at most that many, so it
    then reaches no other region's addresses."""
    tag = prov[0]
    if ins.kind is Kind.CALL:
        if tag != "mapfd":
            return None
        return ("map", prov[1]) if prov[1] in value_sizes else SYM_MAPS
    if tag == "stack":
        if prov[1] is None:
            return SYM_MEM
        lo = STACK_SIZE + prov[1] + ins.offset
        hi = lo + ins.width
        return ("stack", lo, hi) if 0 <= lo and hi <= STACK_SIZE else SYM_MEM
    if tag == "mapval":
        size = value_sizes.get(prov[1])
        if size is None or not 0 <= ins.offset <= size - ins.width:
            return SYM_MAPS
        return ("map", prov[1])
    if tag == "pkt":
        near = prov[1] is not None and abs(prov[1] + ins.offset) <= PACKET_BUFFER
        return SYM_PKT if near else SYM_MEM
    return SYM_CTX if prov == SYM_CTX else SYM_MEM


def _transfer(ins: Instruction, st: list) -> None:
    """Apply ``ins`` to the register provenances ``st``, in place."""
    k = ins.kind
    if k is Kind.MOV_REG:
        st[ins.dst] = st[ins.src] if ins.width == 64 else _NUM
    elif k is Kind.MOV_IMM or k is Kind.ALU_UNARY:
        st[ins.dst] = _NUM
    elif k is Kind.LOAD_IMM64:
        st[ins.dst] = ("mapfd", ins.imm) if ins.is_map_ref else _NUM
    elif k is Kind.ALU_BINARY:
        st[ins.dst] = _alu_prov(ins.op, ins.width, st[ins.dst],
                                st[ins.src] if ins.src is not None else _NUM,
                                ins.imm if ins.src is None else None)
    elif k is Kind.ALU_THREE_OP:
        st[ins.dst] = _alu_prov(ins.op, 64, st[ins.src],
                                st[ins.src2] if ins.src2 is not None else _NUM,
                                ins.imm if ins.src2 is None else None)
    elif k is Kind.LOAD or k is Kind.LOAD48:
        if k is Kind.LOAD and ins.width == 4 and st[ins.src] == ("ctx",):
            st[ins.dst] = _CTX_FIELDS.get(ins.offset, _NUM)
        else:
            st[ins.dst] = _NUM
    elif k is Kind.CALL:
        helper = HELPERS.get(ins.imm)
        if helper is not None and helper.returns == "value_ptr":
            p = st[1]
            st[0] = ("mapval", p[1] if p[0] == "mapfd" else None)
        else:
            st[0] = _NUM
        # r1-r5 and memory-held provenance preserved (helpers touch only r0
        # plus declared regions)


def _alu_prov(op, width, a, b, imm):
    if width != 64:
        return _NUM
    if op == "add":
        if a is not None and a[0] in ("pkt", "stack"):
            if imm is not None and a[1] is not None:
                return (a[0], a[1] + imm)
            return (a[0], None)
        if b is not None and b[0] in ("pkt", "stack") and imm is None:
            return (b[0], None)
        if a == _NUM and (b == _NUM or imm is not None):
            return _NUM
        return _ANY
    if op == "sub":
        if a is not None and a[0] == "pkt" and imm is None and \
                b is not None and b[0] == "pkt":
            return _NUM
        if a is not None and a[0] in ("pkt", "stack"):
            if imm is not None and a[1] is not None:
                return (a[0], a[1] - imm)
            return (a[0], None)
        if a == _NUM and (b == _NUM or imm is not None):
            return _NUM
        return _ANY
    return _NUM


# ---------------------------------------------------------------------------
# input/output sets
# ---------------------------------------------------------------------------

REGISTERS = (1 << NUM_REGS) - 1
_STACK_AT = NUM_REGS + 2        # after the pkt and ctx atoms
_MAP_AT = _STACK_AT + STACK_SIZE
MEMORY = (1 << (_MAP_AT + MAP_IDS)) - 1 - REGISTERS
_WHOLE = {"pkt": 1 << NUM_REGS, "ctx": 1 << (NUM_REGS + 1),
          "maps": ((1 << MAP_IDS) - 1) << _MAP_AT, "mem": MEMORY}
SYM_PKT = ("pkt",)
SYM_CTX = ("ctx",)
SYM_MAPS = ("maps",)
SYM_MEM = ("mem",)


def extent(region) -> int:
    """The atoms of the memory ``region``, an ``Instruction.region`` or a
    helper table tag as a 1-tuple; None is all memory."""
    if region is None:
        return MEMORY
    tag = region[0]
    if tag == "stack":
        return ((1 << (region[2] - region[1])) - 1) << (_STACK_AT + region[1])
    if tag == "map":
        return 1 << (_MAP_AT + region[1])
    return _WHOLE[tag]


@dataclass(frozen=True, slots=True)
class IoSets:
    """What one instruction may read and may write, and what it surely
    overwrites, each a mask of atoms."""
    reads: int = 0
    writes: int = 0
    kills: int = 0


def io_sets(ins: Instruction) -> IoSets:
    """Complete input/output sets, memory regions included; computed once
    per instruction and kept in ``ins.io``."""
    io = ins.io
    if io is None:
        io = _io_sets(ins)
        _keep_io(ins, io)
    return io


def _io_sets(ins: Instruction) -> IoSets:
    k = ins.kind
    dst = 0 if ins.dst is None else 1 << ins.dst
    src = 0 if ins.src is None else 1 << ins.src
    if k is Kind.ALU_BINARY or k is Kind.ALU_UNARY:
        return IoSets(dst | src, dst, dst)
    if k is Kind.MOV_IMM or k is Kind.LOAD_IMM64:
        return IoSets(0, dst, dst)
    if k is Kind.MOV_REG:
        return IoSets(src, dst, dst)
    if k is Kind.ALU_THREE_OP:
        return IoSets(src | (0 if ins.src2 is None else 1 << ins.src2), dst, dst)
    if k is Kind.LOAD or k is Kind.LOAD48:
        return IoSets(src | extent(ins.region), dst, dst)
    if k is Kind.STORE or k is Kind.STORE48:
        mem = extent(ins.region)
        exact = ins.region is not None and ins.region[0] == "stack"
        return IoSets(dst | src, mem, mem if exact else 0)
    if k is Kind.BRANCH or k is Kind.JUMP_ALWAYS:
        return IoSets(dst | src)
    if k is Kind.EXIT:
        return IoSets(1)
    if k is Kind.EARLY_EXIT:
        return IoSets(0, 1, 1)
    helper = HELPERS.get(ins.imm)           # a call, the one kind left
    if helper is None:
        return IoSets(0b111110, 1 | MEMORY, 1)              # r1-r5
    maps = extent(ins.region or SYM_MAPS)
    reads = (1 << (helper.arity + 1)) - 2                   # r1 to r<arity>
    for tag in helper.reads:
        reads |= maps if tag == "map" else extent((tag,))
    writes = 1
    for tag in helper.writes:
        writes |= maps if tag == "map" else extent((tag,))
    return IoSets(reads, writes, 1)
