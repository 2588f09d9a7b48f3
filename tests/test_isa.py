"""Codec, io_sets and expansion semantics."""

import copy
import pickle
import struct
from dataclasses import FrozenInstanceError, fields, replace

import pytest

from conftest import (atoms, clone_state, expand_extended, make_state,
                      point_into_packet, point_into_stack, run_step,
                      symbols_overlap)
from xvliw.errors import (
    DanglingLddwSecondHalf,
    DecodeError,
    ProgramError,
    TruncatedStream,
    UnencodableInstruction,
    UnknownOpcode,
    UnreachableTarget,
)
from xvliw.isa import (
    Instruction,
    Kind,
    MEMORY_KINDS,
    OP_EARLY_EXIT,
    OP_LDDW,
    Program,
    MEMORY,
    REGISTERS,
    SYM_MEM,
    SYM_PKT,
    analysis_of,
    build_program,
    decode,
    encode,
    extent,
    field_problem,
    io_sets,
    rebuilt,
)
from xvliw.asm import parse_asm
from xvliw.schedule import VliwProgram
from xvliw.vm import decode_step


# A deliberately independent mini-disassembler for the cross-checked words:
# struct unpack plus a literal opcode table, no shared code with the codec.
_REFERENCE_OPS = {
    0xb7: ("mov64_imm", "dst_imm"),
    0xbf: ("mov64_reg", "dst_src"),
    0x95: ("exit", "none"),
    0x61: ("ldxw", "dst_src_off"),
    0x62: ("stw", "dst_off_imm"),
    0x07: ("add64_imm", "dst_imm"),
    0x2d: ("jgt_reg", "dst_src_off"),
    0x15: ("jeq_imm", "dst_off_imm"),
}


def reference_disasm(word: bytes):
    opcode, regs, off, imm = struct.unpack("<BBhi", word)
    name, shape = _REFERENCE_OPS[opcode]
    return name, regs & 0xF, regs >> 4, off, imm


class TestDecode:
    def test_mov_imm_cross_checked(self):
        word = bytes.fromhex("b700000001000000")
        name, dst, src, off, imm = reference_disasm(word)
        assert (name, dst, imm) == ("mov64_imm", 0, 1)
        prog = decode(word + bytes.fromhex("9500000000000000"))
        ins = prog[0]
        assert ins.kind is Kind.MOV_IMM and ins.dst == 0 and ins.imm == 1
        assert prog[1].kind is Kind.EXIT

    def test_more_cross_checks(self):
        words = bytes.fromhex("6112040000000000"    # ldxw r2, [r1+4]
                              "07030000ffffffff"    # r3 += -1
                              "9500000000000000")
        assert reference_disasm(words[0:8])[:4] == ("ldxw", 2, 1, 4)
        assert reference_disasm(words[8:16])[4] == -1
        prog = decode(words)
        assert prog[0].kind is Kind.LOAD and prog[0].width == 4
        assert prog[0].dst == 2 and prog[0].src == 1 and prog[0].offset == 4
        assert prog[1].op == "add" and prog[1].imm == -1

    def test_zero_bytes_unknown_opcode(self):
        with pytest.raises(UnknownOpcode):
            decode(bytes(8))

    def test_truncated(self):
        with pytest.raises(TruncatedStream):
            decode(bytes(12))

    def test_dangling_lddw(self):
        with pytest.raises(DanglingLddwSecondHalf):
            decode(bytes.fromhex("1801000005000000"))  # no second half
        bad_second = bytes.fromhex("1801000005000000" "b700000001000000")
        with pytest.raises(DanglingLddwSecondHalf):
            decode(bad_second)

    def test_branch_into_lddw_pair(self):
        # ja +1 jumps into the second word of the lddw
        stream = bytes.fromhex("0500010000000000"
                               "1801000005000000" "0000000000000000"
                               "9500000000000000")
        with pytest.raises(UnreachableTarget):
            decode(stream)

    @pytest.mark.parametrize("jump", ["0500050000000000",      # ja +5
                                      "0500feff00000000"])     # ja -2
    def test_branch_target_outside_the_program(self, jump):
        with pytest.raises(ProgramError, match="instruction 0: branch target "
                                               "out of range") as caught:
            decode(bytes.fromhex(jump + "9500000000000000"))
        assert not isinstance(caught.value, UnreachableTarget)

    def test_rejects_unsupported_classes(self):
        with pytest.raises(UnknownOpcode):     # atomic add (BPF_STX|XADD|W)
            decode(bytes.fromhex("c312000000000000"))
        with pytest.raises(UnknownOpcode):     # jgt32 imm (the JMP32 class)
            decode(bytes.fromhex("260100000a000000"))
        with pytest.raises(UnknownOpcode):     # call with src=1 (local call)
            decode(bytes.fromhex("8510000003000000"))


class TestEncode:
    def test_exit_single_word(self):
        prog = build_program([Instruction(Kind.EXIT)])
        assert encode(prog) == bytes.fromhex("9500000000000000")

    def test_early_exit_reserved_opcode(self):
        prog = build_program([Instruction(Kind.EARLY_EXIT, imm=1)])
        data = encode(prog)
        assert data[0] == OP_EARLY_EXIT
        assert data == bytes.fromhex("9d00000001000000")

    def test_empty_program_rejected(self):
        with pytest.raises(ProgramError):
            build_program([])

    @pytest.mark.parametrize("ins, field", [
        (Instruction(Kind.ALU_BINARY, op="add", width=64, dst=1,
                     imm=-5_000_000_000), "immediate"),
        (Instruction(Kind.MOV_IMM, width=64, dst=1, imm=1 << 31), "immediate"),
        (Instruction(Kind.EARLY_EXIT, imm=1 << 32), "immediate"),
        (Instruction(Kind.LOAD, width=1, dst=1, src=10, offset=-40_000), "offset"),
        (Instruction(Kind.STORE, width=4, dst=10, src=1, offset=1 << 15), "offset"),
    ])
    def test_field_outside_its_wire_width(self, ins, field):
        """``build_program`` refuses an immediate outside 32 bits and a
        memory offset outside 16, so ``encode`` sees one only in a program
        made directly, and refuses it there with the same message."""
        with pytest.raises(ProgramError, match=f"instruction 0: {field}"):
            build_program([ins, Instruction(Kind.EXIT)])
        with pytest.raises(UnencodableInstruction, match=f"instruction 0: {field}"):
            encode(Program((ins, Instruction(Kind.EXIT))))

    def test_branch_offset_outside_16_bits(self):
        far = [Instruction(Kind.JUMP_ALWAYS, target=(1 << 15) + 1),
               *[Instruction(Kind.MOV_IMM, width=64, dst=0, imm=1)] * (1 << 15),
               Instruction(Kind.EXIT)]
        with pytest.raises(UnencodableInstruction, match="branch offset 32768"):
            encode(build_program(far))
        near = far[:1] + far[2:]                # one word closer: 32767 fits
        near[0] = Instruction(Kind.JUMP_ALWAYS, target=1 << 15)
        assert decode(encode(build_program(near))).instructions[0].target == 1 << 15

    def test_lddw_immediate_is_64_bits(self):
        prog = build_program([Instruction(Kind.LOAD_IMM64, dst=1, src=0,
                                          imm=1 << 40),
                              Instruction(Kind.EXIT)])
        assert decode(encode(prog)).instructions[0].imm == 1 << 40

    def test_roundtrip_random_streams(self, rng):
        from xvliw.fuzz import generate_case
        total = 0
        for i in range(40):
            prog = parse_asm(generate_case(9000 + i).program_text)
            data = encode(prog)
            again = decode(data)
            # the wire format carries no map definitions, and a region
            # names a map only where the program defines it
            assert again.instructions == build_program(prog.instructions).instructions
            assert build_program(again.instructions, prog.maps) == prog
            assert encode(again) == data
            total += len(prog)
        assert total > 1000   # a real corpus of random valid instructions


class TestOpcodeTable:
    """The codec accepts exactly these single-word opcode bytes (a lddw's
    two words aside), and each round-trips to itself."""
    ACCEPTED = {
        # ALU32 and ALU64: operations 0x0-0xd, immediate or register source
        0x04, 0x0c, 0x14, 0x1c, 0x24, 0x2c, 0x34, 0x3c, 0x44, 0x4c, 0x54, 0x5c,
        # (neg with the X bit, 0x8c and 0x8f, is reserved)
        0x64, 0x6c, 0x74, 0x7c, 0x84, 0x94, 0x9c, 0xa4, 0xac, 0xb4, 0xbc,
        0xc4, 0xcc, 0xd4, 0xdc,
        0x07, 0x0f, 0x17, 0x1f, 0x27, 0x2f, 0x37, 0x3f, 0x47, 0x4f, 0x57, 0x5f,
        0x67, 0x6f, 0x77, 0x7f, 0x87, 0x97, 0x9f, 0xa7, 0xaf, 0xb7, 0xbf,
        0xc7, 0xcf, 0xd7, 0xdf,
        # JMP: ja, call (K source only; 0x8d is reserved), exit, and eleven
        # conditions
        0x05, 0x15, 0x1d, 0x25, 0x2d, 0x35, 0x3d, 0x45, 0x4d, 0x55, 0x5d, 0x65,
        0x6d, 0x75, 0x7d, 0x85, 0x95, 0xa5, 0xad, 0xb5, 0xbd, 0xc5, 0xcd,
        0xd5, 0xdd,
        # LDX, ST and STX in MEM mode, four sizes each
        0x61, 0x62, 0x63, 0x69, 0x6a, 0x6b, 0x71, 0x72, 0x73, 0x79, 0x7a, 0x7b,
        # the extended instructions
        0x16, 0x1e, 0x56, 0x5e, 0x9d,
    }

    @staticmethod
    def _kept(opcode) -> tuple:
        """The fields a word of ``opcode`` carries, by its class and
        operation bits; an ALU3's offset carries its operation."""
        op, x, cls = opcode >> 4, opcode & 0x08, opcode & 0x07
        if opcode in (0x16, 0x1e):
            return ("dst", "src", "offset") + (("imm",) if x else ())
        if opcode == 0x9d:
            return ("imm",)
        if cls in (0x04, 0x07):                 # ALU32, ALU64
            if op == 0x8:
                return ("dst",)
            return ("dst", "src") if x and op != 0xd else ("dst", "imm")
        if cls == 0x05:                         # JMP
            return {0x0: ("offset",), 0x8: ("imm",), 0x9: ()}.get(
                op, ("dst", "src", "offset") if x else ("dst", "offset", "imm"))
        if cls == 0x02:                         # ST
            return ("dst", "offset", "imm")
        return ("dst", "src", "offset")         # LDX, STX, load48, store48

    PROBE = {"dst": 1, "src": 2, "offset": 0, "imm": 16}

    @classmethod
    def _program(cls, opcode, **fields):
        # the kept fields only: dst r1, src r2, offset 0 (an alu3 add of
        # r0, a jump to the exit) and imm 16 (a swap width); then ``fields``
        word = {f: cls.PROBE[f] if f in cls._kept(opcode) else 0
                for f in cls.PROBE} | fields
        return struct.pack("<BBhi", opcode, word["dst"] | word["src"] << 4,
                           word["offset"], word["imm"]) + bytes.fromhex(
            "9500000000000000")

    def test_accepted_set(self):
        assert len(self.ACCEPTED) == 96
        accepted = set()
        for opcode in range(256):
            try:
                decode(self._program(opcode))
            except UnknownOpcode:
                continue
            except DanglingLddwSecondHalf:
                assert opcode == OP_LDDW
                continue
            accepted.add(opcode)
        assert accepted == self.ACCEPTED

    def test_round_trip_writes_the_canonical_byte(self):
        for opcode in sorted(self.ACCEPTED):
            prog = decode(self._program(opcode))
            data = encode(prog)
            assert data[0] == opcode, hex(opcode)
            assert data == self._program(opcode)
            assert decode(data) == prog

    def test_a_field_the_form_does_not_keep_is_reserved(self):
        """As the kernel verifier's "uses reserved fields"; a call with a
        source register is a local call, an unknown opcode."""
        rejected = 0
        for opcode in sorted(self.ACCEPTED):
            for name, value in (("dst", 3), ("src", 4), ("offset", 1), ("imm", 1)):
                if name in self._kept(opcode):
                    continue
                data = self._program(opcode, **{name: value})
                if (opcode, name) == (0x85, "src"):
                    with pytest.raises(UnknownOpcode):
                        decode(data)
                    continue
                with pytest.raises(DecodeError,
                                   match=f"uses reserved field {name}$"):
                    decode(data)
                rejected += 1
        assert rejected == 159

    @pytest.mark.parametrize("hex_words, field", [
        ("9512050001000000", "dst"),            # exit with dst, src, off, imm
        ("1e12100000000000", "offset"),         # alu3 imm: bits 4-7 of offset
        ("1e12010000000000", "src2"),           # alu3 imm with a src2 nibble
        ("1612001000000000", "offset"),         # alu3 reg: bits 12-15
        ("1801010002000000" "0000000000000000", "offset"),   # lddw offset
    ])
    def test_reserved_field_regressions(self, hex_words, field):
        with pytest.raises(DecodeError, match=f"uses reserved field {field}$"):
            decode(bytes.fromhex(hex_words + "9500000000000000"))

    def test_lddw_src_is_0_or_a_map_fd(self):
        """A lddw whose src is a kernel pseudo kind other than a map fd (2, a
        map value) once decoded to ``r1 = 0x7 ll`` and returned 7, where the
        kernel would load a pointer into a map's value."""
        with pytest.raises(DecodeError, match="instruction 0: lddw src 2 "):
            decode(bytes.fromhex("1821000007000000" "0000000000000000"
                                 "bf10000000000000" "9500000000000000"))
        for src in range(3, 16):
            with pytest.raises(DecodeError, match=f"lddw src {src} "):
                decode(bytes([OP_LDDW, src << 4 | 1]) + bytes(14)
                       + bytes.fromhex("9500000000000000"))
        assert decode(bytes([OP_LDDW, 1]) + bytes(14)
                      + bytes.fromhex("9500000000000000"))[0].src == 0


class TestProgramInvariants:
    def test_lddw_src_is_checked_as_decode_checks_it(self):
        """``build_program`` once took a ``lddw`` src of 2-15 that ``encode``
        wrote and ``decode`` then refused."""
        tail = [Instruction(Kind.MOV_REG, width=64, dst=0, src=1),
                Instruction(Kind.EXIT)]
        for src in (None, *range(2, 16)):
            with pytest.raises(ProgramError, match=f"instruction 0: lddw src "
                                                   f"{src} is neither 0 nor a map fd"):
                build_program([Instruction(Kind.LOAD_IMM64, dst=1, src=src,
                                           imm=7)] + tail)
        for src in (0, 1):
            prog = build_program([Instruction(Kind.LOAD_IMM64, dst=1, src=src,
                                              imm=7)] + tail)
            assert decode(encode(prog)) == prog

    def test_lddw_immediate_is_within_64_bits(self):
        tail = [Instruction(Kind.EXIT)]
        for imm in (2**64, -2**63 - 1):
            with pytest.raises(ProgramError, match=f"instruction 0: immediate "
                                                   f"{imm} outside 64 bits"):
                build_program([Instruction(Kind.LOAD_IMM64, dst=0, src=0,
                                           imm=imm)] + tail)
        for imm in (2**64 - 1, -2**63):
            build_program([Instruction(Kind.LOAD_IMM64, dst=0, src=0, imm=imm)]
                          + tail)

    @pytest.mark.parametrize("bad, message", [
        (Instruction(Kind.MOV_IMM, width=16, dst=0, imm=5),
         "no mov_imm opcode for op None, width 16 and an immediate source"),
        (Instruction(Kind.MOV_IMM, width=7, dst=0, imm=5),
         "no mov_imm opcode for op None, width 7 and an immediate source"),
        (Instruction(Kind.MOV_IMM, dst=0, imm=5),
         "no mov_imm opcode for op None, width None and an immediate "
         "source"),
        (Instruction(Kind.ALU_BINARY, op="nope", width=64, dst=0, src=1),
         "no alu_binary opcode for op nope, width 64 and a register source"),
        (Instruction(Kind.ALU_THREE_OP, op="neg", width=64, dst=0, src=1, imm=3),
         "no alu_three_op opcode for op neg, width 64 and an immediate "
         "source"),
        (Instruction(Kind.BRANCH, op="jeq", imm=0, target=1),
         "branch without its dst register"),
        (Instruction(Kind.ALU_UNARY, op="be", width=64, dst=0, imm=7),
         "be of 7 bits"),
        (Instruction(Kind.ALU_UNARY, op="be", width=64, dst=0, imm=128),
         "be of 128 bits"),
        (Instruction(Kind.EXIT, dst=3), "exit keeps no dst register"),
        (Instruction(Kind.CALL, dst=5, imm=1), "call keeps no dst register"),
        (Instruction(Kind.ALU_UNARY, op="neg", width=64, dst=1, imm=9),
         "alu_unary keeps no immediate"),
        (Instruction(Kind.LOAD_IMM64, dst=1, src=0, imm=5, offset=3),
         "load_imm64 keeps no offset"),
        (Instruction(Kind.JUMP_ALWAYS, offset=9, target=1),
         "jump_always keeps no offset"),
        (Instruction(Kind.BRANCH, op="jeq", dst=1, src=2, imm=7, target=1),
         "branch keeps no immediate"),
        (Instruction(Kind.STORE, width=4, dst=10, src=1, offset=-8, imm=3),
         "store keeps no immediate"),
        (Instruction(Kind.MOV_IMM, width=64, dst=0, imm=1, target=0),
         "mov_imm keeps no target"),
    ], ids=["mov16", "mov7", "mov_no_width", "alu_nope", "alu3_neg",
            "branch_no_dst", "be7", "be128", "exit_dst", "call_dst",
            "neg_imm", "lddw_offset", "goto_offset", "jeq_reg_imm",
            "store_reg_imm", "mov_target"])
    def test_an_instruction_is_a_form_the_opcode_table_writes(self, bad,
                                                              message):
        """Each of these once built: the moves ran as 32-bit ones and
        printed as ``w0 = 5``, the unknown op raised ``KeyError`` in
        ``decode_step``, the branch ``TypeError``, ``be 7``
        ``OverflowError`` and ``be 128`` left a 128-bit value in r0. Each
        field the form does not keep (the last eight) ``encode`` dropped, so
        the program did not decode back to itself. A jump's target carries
        the jump: its offset stays 0 until ``encode`` writes one."""
        with pytest.raises(ProgramError, match=f"instruction 0: {message}"):
            build_program([bad, Instruction(Kind.EXIT)])

    def test_r10_read_only(self):
        with pytest.raises(ProgramError):
            build_program([Instruction(Kind.MOV_IMM, width=64, dst=10, imm=0),
                           Instruction(Kind.EXIT)])

    def test_width_six_restricted(self):
        with pytest.raises(ProgramError):
            build_program([Instruction(Kind.LOAD, width=6, dst=0, src=1),
                           Instruction(Kind.EXIT)])

    @pytest.mark.parametrize("width", [None, 0, 3, 5, 6, 7, 16])
    @pytest.mark.parametrize("kind", [Kind.LOAD, Kind.STORE], ids=str)
    def test_load_and_store_widths_are_1_2_4_or_8(self, kind, width):
        """A width-3 load used to build, run as a 3-byte load, compile, and
        then fail to dump with a ``KeyError``."""
        access = Instruction(kind, width=width, dst=1, src=10, offset=-8)
        if kind is Kind.STORE:
            access = Instruction(kind, width=width, dst=10, src=1, offset=-8)
        with pytest.raises(ProgramError,
                           match=f"instruction 1: no {kind.value} opcode for "
                                 f"op None, width {width} and a register source"):
            build_program([Instruction(Kind.MOV_IMM, width=64, dst=1, imm=0),
                           access, Instruction(Kind.MOV_IMM, width=64, dst=0, imm=0),
                           Instruction(Kind.EXIT)])

    @pytest.mark.parametrize("kind", [Kind.LOAD48, Kind.STORE48], ids=str)
    def test_load48_and_store48_are_six_bytes(self, kind):
        with pytest.raises(ProgramError, match="instruction 0: "):
            build_program([Instruction(kind, width=4, dst=1, src=2),
                           Instruction(Kind.EXIT)])

    def test_exit_reachability_required(self):
        with pytest.raises(ProgramError):
            build_program([Instruction(Kind.JUMP_ALWAYS, target=0),
                           Instruction(Kind.EXIT)])

    # The field checks run before the provenance scan, which indexes its
    # states by register and by instruction: a register 11 would fall off
    # the state, and a target of -1 would reach the last instruction.
    @pytest.mark.parametrize("ins", [
        Instruction(Kind.MOV_IMM, width=64, dst=11, imm=0),
        Instruction(Kind.MOV_REG, width=64, dst=0, src=11),
        Instruction(Kind.ALU_THREE_OP, op="add", width=64, dst=0, src=1, src2=11),
    ])
    def test_register_index_in_range(self, ins):
        with pytest.raises(ProgramError, match="register index 11 out of range"):
            build_program([ins, Instruction(Kind.EXIT)])

    @pytest.mark.parametrize("target", [-1, 2, 7, None])
    @pytest.mark.parametrize("kind", [Kind.JUMP_ALWAYS, Kind.BRANCH], ids=str)
    def test_branch_target_in_range(self, kind, target):
        """A jump's target indexes its program, for ``build_program`` and
        for ``encode`` on a program made directly, where a target of None
        or 7 raised ``TypeError`` or ``IndexError`` and one of -1 encoded a
        jump to the last instruction."""
        jump = (Instruction(kind, target=target) if kind is Kind.JUMP_ALWAYS
                else Instruction(kind, op="jeq", dst=1, imm=0, target=target))
        with pytest.raises(ProgramError, match="branch target out of range"):
            build_program([jump, Instruction(Kind.EXIT)])
        with pytest.raises(UnencodableInstruction,
                           match="instruction 0: branch target out of range"):
            encode(Program((jump, Instruction(Kind.EXIT))))


    def test_reachable_code_may_not_fall_past_the_end(self):
        fall = [Instruction(Kind.MOV_IMM, width=64, dst=2, imm=0),
                Instruction(Kind.BRANCH, op="jeq", dst=2, imm=0, target=4),
                Instruction(Kind.MOV_IMM, width=64, dst=0, imm=2),
                Instruction(Kind.EXIT),
                Instruction(Kind.MOV_IMM, width=64, dst=0, imm=1)]
        with pytest.raises(ProgramError, match="instruction 4: control falls "
                                               "past the last instruction"):
            build_program(fall)
        # unreachable, the same last instruction is no error
        assert len(build_program(fall[2:])) == 3


class TestKind:
    """Instruction kinds are plain objects: the parent tree's names, values
    and reprs, one object per kind, and no lookup hook on ``Kind.X``."""
    MEMBERS = ("ALU_BINARY", "ALU_UNARY", "MOV_IMM", "MOV_REG", "LOAD", "STORE",
               "LOAD_IMM64", "BRANCH", "JUMP_ALWAYS", "CALL", "EXIT",
               "ALU_THREE_OP", "LOAD48", "STORE48", "EARLY_EXIT")

    def test_no_getattr_hook_on_the_class(self):
        assert not hasattr(type(Kind), "__getattr__")

    def test_names_values_and_reprs(self):
        values = ("alu_binary", "alu_unary", "mov_imm", "mov_reg", "load",
                  "store", "load_imm64", "branch", "jump_always", "call", "exit",
                  "alu_three_op", "load48", "store48", "early_exit")
        kinds = [getattr(Kind, name) for name in self.MEMBERS]
        assert len(set(map(id, kinds))) == 15
        assert [k.name for k in kinds] == list(self.MEMBERS)
        assert [k.value for k in kinds] == list(values)
        assert [repr(k) for k in kinds] == [
            f"<Kind.{name}: '{value}'>" for name, value in zip(self.MEMBERS, values)]
        assert [str(k) for k in kinds] == [f"Kind.{name}" for name in self.MEMBERS]

    @pytest.mark.parametrize("name", MEMBERS)
    def test_copies_and_pickles_are_the_member(self, name):
        kind = getattr(Kind, name)
        assert copy.copy(kind) is kind
        assert copy.deepcopy(kind) is kind
        assert pickle.loads(pickle.dumps(kind)) is kind
        ins = Instruction(kind)
        assert copy.deepcopy(ins).kind is kind
        assert pickle.loads(pickle.dumps(ins)).kind is kind


def _byte(i: int) -> int:
    """The atom of stack byte ``i``."""
    return extent(("stack", i, i + 1))


class TestIoSets:
    def test_alu3_by_operand_roles(self):
        ins = Instruction(Kind.ALU_THREE_OP, op="add", width=64, dst=4, src=1,
                          imm=20)
        io = io_sets(ins)
        assert (io.reads, io.writes, io.kills) == (1 << 1, 1 << 4, 1 << 4)

    def test_store_slot_range(self):
        ins = Instruction(Kind.STORE, width=4, dst=10, src=2, offset=-8,
                          region=("stack", 504, 508))
        io = io_sets(ins)
        assert io.reads == 1 << 2 | 1 << 10
        assert io.writes == io.kills == extent(("stack", 504, 508))
        assert [i for i in range(512) if io.kills & _byte(i)] == \
            [504, 505, 506, 507]

    def test_only_an_exact_frame_store_kills_memory(self):
        for region in (SYM_PKT, ("map", 3), ("maps",), ("mem",), None):
            io = io_sets(Instruction(Kind.STORE, width=4, dst=2, src=3,
                                     region=region))
            assert io.writes == extent(region) and io.kills == 0

    def test_call_effect_table(self):
        ins = Instruction(Kind.CALL, imm=1)     # lookup, unresolved map
        io = io_sets(ins)
        assert io.reads & REGISTERS == 1 << 1 | 1 << 2
        assert io.reads & extent(("maps",)) == extent(("maps",))
        assert io.writes == io.kills == 1 << 0

    def test_symbol_overlap_rules(self):
        assert extent(("stack", 0, 8)) & extent(("stack", 4, 12))
        assert not extent(("stack", 0, 8)) & extent(("stack", 8, 16))
        assert extent(("mem",)) & extent(("map", 3))
        assert not extent(("map", 3)) & extent(("map", 4))
        assert extent(("maps",)) & extent(("map", 4))
        assert not extent(("pkt",)) & extent(("stack", 0, 8))
        assert not extent(("mem",)) & REGISTERS

    def test_unknown_helper_reads_r1_to_r5_and_writes_all_memory(self):
        io = io_sets(Instruction(Kind.CALL, imm=999))
        assert io.reads == sum(1 << r for r in range(1, 6))
        assert io.writes == 1 | MEMORY and io.kills == 1

    def test_soundness_on_randomized_state_pairs(self, rng):
        """Byte-level effect tracer: states agreeing on the reads, and on
        the writes an instruction may leave alone, make identical changes;
        so every atom of ``kills`` is overwritten. Every changed byte lies
        inside the writes (registers likewise)."""
        pool = self._instruction_pool(rng)
        for _ in range(300):
            ins = rng.choice(pool)
            io = io_sets(ins)
            assert io.kills & ~io.writes == 0
            s1 = make_state(rng)
            s2 = make_state(rng)
            self._prepare_bases(ins, s1, rng)
            self._copy_inputs(io.reads | io.writes & ~io.kills, s1, s2)
            r1 = self._run(ins, s1)
            r2 = self._run(ins, s2)
            self._assert_outputs_agree(io.writes, r1, r2)
            self._assert_frame(io.writes, self._effect_diff(s1, r1))
            self._assert_frame(io.writes, self._effect_diff(s2, r2))

    @staticmethod
    def _assert_outputs_agree(writes, r1, r2):
        for r in range(11):
            if writes & 1 << r:
                assert r1.regs[r] == r2.regs[r]
        for i in range(512):
            if writes & _byte(i):
                assert r1.stack[i] == r2.stack[i]
        if writes & extent(SYM_PKT):
            assert r1.packet.buf == r2.packet.buf

    @staticmethod
    def _effect_diff(before, after):
        """Exactly which registers/bytes changed and their new values."""
        diff = {}
        for r in range(11):
            if before.regs[r] != after.regs[r]:
                diff[("reg", r)] = after.regs[r]
        for i, (a, b) in enumerate(zip(before.stack, after.stack)):
            if a != b:
                diff[("stack_byte", i)] = b
        for i, (a, b) in enumerate(zip(before.packet.buf, after.packet.buf)):
            if a != b:
                diff[("pkt_byte", i)] = b
        return diff

    @staticmethod
    def _assert_frame(writes, diff):
        for key in diff:
            if key[0] == "reg":
                assert writes & 1 << key[1]
            elif key[0] == "stack_byte":
                assert writes & _byte(key[1])
            else:
                assert writes & extent(SYM_PKT)

    def _instruction_pool(self, rng):
        return [
            Instruction(Kind.ALU_BINARY, op="add", width=64, dst=3, src=4),
            Instruction(Kind.ALU_BINARY, op="xor", width=32, dst=5, imm=77),
            Instruction(Kind.MOV_REG, width=64, dst=2, src=7),
            Instruction(Kind.MOV_IMM, width=64, dst=8, imm=-5),
            Instruction(Kind.ALU_THREE_OP, op="mul", width=64, dst=0, src=3,
                        src2=9),
            Instruction(Kind.ALU_UNARY, op="be", width=64, dst=6, imm=32),
            Instruction(Kind.LOAD, width=4, dst=4, src=7, offset=-8,
                        region=SYM_MEM),
            Instruction(Kind.STORE, width=8, dst=7, src=3, offset=-16,
                        region=SYM_MEM),
            Instruction(Kind.LOAD, width=8, dst=4, src=10, offset=-16,
                        region=("stack", 496, 504)),
            Instruction(Kind.STORE, width=4, dst=10, src=2, offset=-8,
                        region=("stack", 504, 508)),
            Instruction(Kind.STORE48, width=6, dst=10, src=3, offset=-16,
                        region=("stack", 496, 502)),
            Instruction(Kind.LOAD48, width=6, dst=5, src=8, offset=2,
                        region=SYM_PKT),
            Instruction(Kind.STORE48, width=6, dst=8, src=2, offset=4,
                        region=SYM_PKT),
        ]

    def _prepare_bases(self, ins, state, rng):
        base = ins.dst if ins.kind in (Kind.STORE, Kind.STORE48) else ins.src
        if ins.region == SYM_MEM:
            point_into_stack(state, base, rng, span=32)
        elif ins.region == SYM_PKT:
            point_into_packet(state, base, rng, span=32)

    def _copy_inputs(self, mask, s1, s2):
        for r in range(11):
            if mask & 1 << r:
                s2.regs[r] = s1.regs[r]
        for i in range(512):
            if mask & _byte(i):
                s2.stack[i] = s1.stack[i]
        if mask & (extent(SYM_PKT) | extent(("ctx",))):
            s2.packet.buf[:] = s1.packet.buf
            s2.packet.start = s1.packet.start
            s2.packet.end = s1.packet.end
            s2.packet.ingress_port = s1.packet.ingress_port

    def _run(self, ins, state):
        out = clone_state(state)
        run_step(out, ins)
        return out


class TestExtent:
    """``extent`` against the tuple case analysis of ``conftest``."""

    @staticmethod
    def _symbols():
        """Every register, and every region and helper tag that the corpus,
        fuzz cases 0-999 of run seed 20260810 and the code-motion loop
        programs produce."""
        import test_scheduler
        from xvliw.corpus import CORPUS
        from xvliw.fuzz import case_seed, generate_case
        from xvliw.helpers import HELPERS
        texts = [CORPUS[name].source for name in CORPUS]
        texts += [generate_case(case_seed(20260810, i)).program_text
                  for i in range(1000)]
        texts += [src for src, _ in test_scheduler.TestCodeMotion.LOOPS.values()]
        found = {("reg", r) for r in range(11)}
        found |= {(tag,) for h in HELPERS.values()
                  for tag in h.reads + h.writes if tag != "map"}
        for text in texts:
            found |= {ins.region for ins in parse_asm(text).instructions
                      if ins.region is not None}
        return found

    def test_masks_agree_with_the_case_analysis(self):
        found = self._symbols()
        assert {s[0] for s in found} == {"reg", "stack", "map", "pkt", "ctx",
                                         "mem"}
        edges = {("stack", 0, 1), ("stack", 511, 512), ("stack", 0, 512),
                 ("stack", 8, 16), ("stack", 16, 24), ("stack", 504, 510),
                 ("stack", 510, 512), ("stack", 2, 8), ("map", 0),
                 ("map", 511), ("maps",), ("mem",)}
        symbols = sorted(found | edges)
        for a in symbols:
            for b in symbols:
                assert bool(atoms(a) & atoms(b)) == symbols_overlap(a, b), (a, b)

    def test_layout_bounds(self):
        every = REGISTERS | MEMORY
        assert REGISTERS & MEMORY == 0
        assert extent(("mem",)) == MEMORY and extent(None) == MEMORY
        assert every == (1 << every.bit_length()) - 1
        assert extent(("map", 511)) == 1 << (every.bit_length() - 1)
        assert extent(("stack", 0, 512)) | extent(("maps",)) | \
            extent(SYM_PKT) | extent(("ctx",)) == MEMORY


class TestRegions:
    """``build_program`` sets each access's region from pointer
    provenance and the map definitions, and ``io_sets`` reads the memory
    atoms from it."""
    MAP = ".map 3 hash 4 8 16\n"
    KEY = "r2 = r10\nr2 += -8\n"

    @pytest.mark.parametrize("source, symbol", [
        ("*(u32 *)(r10 - 8) = r1", ("stack", 504, 508)),
        ("r2 = r10\nr2 += -16\n*(u64 *)(r2 + 4) = 1", ("stack", 500, 508)),
        ("r2 = r10\nif r1 == 0 goto j\nr2 += -8\nj:\n*(u32 *)(r2 + 0) = 1",
         ("mem",)),
        ("r2 = *(u32 *)(r1 + 0)\nr3 = *(u8 *)(r2 + 12)", ("pkt",)),
        ("r3 = *(u32 *)(r1 + 12)", ("ctx",)),
        (f"r1 = map[3]\n{KEY}call map_lookup\nr3 = *(u32 *)(r0 + 0)",
         ("map", 3)),
        (f"r1 = r6\n{KEY}call map_lookup\n*(u32 *)(r0 + 0) = 1", ("maps",)),
        ("r3 = 7\nr4 = *(u32 *)(r3 + 0)", ("mem",)),
        # a frame access is exact only inside the 512-byte frame
        ("*(u8 *)(r10 - 512) = r1", ("stack", 0, 1)),
        ("*(u8 *)(r10 - 1) = r1", ("stack", 511, 512)),
        ("*(u64 *)(r10 - 516) = r1", ("mem",)),
        ("*(u64 *)(r10 - 4) = r1", ("mem",)),
        ("r2 = r10\nr2 += 0x203FFE00\n*(u64 *)(r2 + 0) = 7", ("mem",)),
        # a map value access is exact only inside its 8-byte value
        (f"r1 = map[3]\n{KEY}call map_lookup\nr3 = *(u64 *)(r0 + 0)",
         ("map", 3)),
        (f"r1 = map[3]\n{KEY}call map_lookup\nr3 = *(u64 *)(r0 + 4)",
         ("maps",)),
        (f"r1 = map[3]\n{KEY}call map_lookup\n*(u8 *)(r0 - 1) = 1",
         ("maps",)),
        # a packet access is exact only at a known offset within the
        # largest packet buffer's bytes of the data pointer
        ("r2 = *(u32 *)(r1 + 8)\nr2 += 65532\nr3 = *(u32 *)(r2 + 4)", ("pkt",)),
        ("r2 = *(u32 *)(r1 + 0)\nr2 += 65532\nr3 = *(u32 *)(r2 + 5)", ("mem",)),
        ("r2 = *(u32 *)(r1 + 0)\nr2 -= 65536\nr3 = *(u8 *)(r2 + 0)", ("pkt",)),
        ("r2 = *(u32 *)(r1 + 0)\nr2 -= 65536\nr3 = *(u8 *)(r2 - 1)", ("mem",)),
        ("r2 = *(u32 *)(r1 + 0)\nr2 += r4\nr3 = *(u8 *)(r2 + 0)", ("mem",)),
        ("r2 = *(u32 *)(r1 + 0)\nif r4 == 0 goto j\nr2 += 4\nj:\n"
         "r3 = *(u8 *)(r2 + 0)", ("mem",)),
    ])
    def test_access(self, source, symbol):
        prog = parse_asm(f"{self.MAP}{source}\nr0 = 0\nexit\n")
        access = [ins for ins in prog.instructions if ins.kind in MEMORY_KINDS][-1]
        assert access.region == symbol
        io = io_sets(access)
        touched = io.writes if access.kind is Kind.STORE else io.reads
        assert touched & MEMORY == extent(symbol)

    @pytest.mark.parametrize("setup, symbol", [("r1 = map[3]", ("map", 3)),
                                               ("r1 = r6", ("maps",)),
                                               ("r1 = map[5]", ("maps",))])
    def test_call(self, setup, symbol):
        """A call names the map it is passed only when that map is
        defined; with no map in r1 its region is None, all maps."""
        prog = parse_asm(f"{self.MAP}{setup}\n{self.KEY}call map_update\n"
                         f"r0 = 0\nexit\n")
        call = next(ins for ins in prog.instructions if ins.kind is Kind.CALL)
        assert call.region == (None if setup == "r1 = r6" else symbol)
        io = io_sets(call)
        maps = extent(("maps",))
        assert io.reads & MEMORY == MEMORY      # map_update reads "mem"
        assert io.writes & maps == extent(symbol)
        assert io.writes & ~maps == 1 << 0


def _lanes_agree_with_the_oracle(source):
    """``source`` compiled at lanes 1-8: hazard-free, and equal to the
    oracle on a zero packet."""
    from xvliw.compiler import compile_program
    from xvliw.fuzz import compare_results
    from xvliw.schedule import LaneConstraints
    from xvliw.vliwsim import exec_vliw, hazard_check
    from xvliw.vm import MapStore, PacketContext, exec_sequential
    prog = parse_asm(source)
    oracle, _ = exec_sequential(prog, PacketContext(bytes(64)), MapStore(prog.maps))
    for lanes in range(1, 9):
        vliw, _ = compile_program(prog, LaneConstraints(lanes=lanes))
        assert hazard_check(vliw) == [], lanes
        run, _ = exec_vliw(vliw, PacketContext(bytes(64)), MapStore(prog.maps))
        assert compare_results(oracle, run.result) == (True, "equal"), lanes
    return oracle


class TestRegionSoundness:
    """A pointer's provenance names its region only while the access stays
    inside it. Each program once returned 7 on the oracle and 0 on the
    VLIW core at every lane width: the store's region did not overlap the
    load's, so the load was scheduled first, and ``hazard_check`` saw
    nothing."""
    LOOKUP = """
      *(u32 *)(r10 - 4) = {key}
      r1 = map[{map}]
      r2 = r10
      r2 += -4
      call map_lookup
      if r0 == 0 goto {out}
    """
    TAIL = "  exit\nout:\n  r0 = 0\n  exit\nout2:\n  r0 = 0\n  exit\n"
    # (a) a frame pointer 0x203FFE00 bytes up lands in map 1's first value;
    # the store's region was ("stack", 541065216, 541065224)
    FRAME_CONSTANT = (".map 1 array 4 8 4\n"
                      + LOOKUP.format(key=0, map=1, out="out") + """
      r7 = r0
      r6 = r10
      r6 += 0x203FFE00
      *(u64 *)(r6 + 0) = 7
      r0 = *(u64 *)(r7 + 0)
    """ + TAIL)
    # (b) the same through a register: the region was ("stack",)
    FRAME_REGISTER = FRAME_CONSTANT.replace("r6 += 0x203FFE00",
                                            "r3 = 0x203FFE00\n      r6 += r3")
    # (c) 8 bytes below map 2's first value is map 1's last slot; the
    # store's region was ("map", 2)
    MAP_BELOW = (".map 1 array 4 64 65536\n.map 2 array 4 8 4\n"
                 + LOOKUP.format(key=0, map=2, out="out") + "  r7 = r0\n"
                 + LOOKUP.format(key=65535, map=1, out="out2") + """
      *(u64 *)(r7 - 8) = 7
      r0 = *(u64 *)(r0 + 56)
    """ + TAIL)

    # (d) a packet pointer 0x0FFFFFC0 bytes up, past 64 bytes of head
    # room, lands on the frame's first byte; the store's region was ("pkt",)
    PACKET_FAR = """
      r2 = *(u32 *)(r1 + 0)
      r2 += 0x0FFFFFC0
      *(u64 *)(r2 + 0) = 7
      r4 = *(u64 *)(r10 - 512)
      r0 = r4
      exit
    """

    @pytest.mark.parametrize("name, region", [
        ("FRAME_CONSTANT", ("mem",)), ("FRAME_REGISTER", ("mem",)),
        ("MAP_BELOW", ("maps",)), ("PACKET_FAR", ("mem",))])
    def test_store_outside_its_region(self, name, region):
        source = getattr(self, name)
        store = next(ins for ins in parse_asm(source).instructions
                     if ins.kind is Kind.STORE and ins.imm == 7)
        assert store.region == region
        oracle = _lanes_agree_with_the_oracle(source)
        assert (oracle.trapped, oracle.code) == (False, 7)


def _memo_program():
    return build_program([
        Instruction(Kind.MOV_REG, width=64, dst=2, src=10),
        Instruction(Kind.STORE, width=8, dst=2, imm=7, offset=-8),
        Instruction(Kind.LOAD, width=8, dst=3, src=10, offset=-8),
        Instruction(Kind.BRANCH, op="jeq", dst=3, imm=7, target=5),
        Instruction(Kind.MOV_IMM, width=64, dst=0, imm=1),
        Instruction(Kind.EXIT),
    ])


def _run_both(prog, vliw, runs=1, packet=b"\x00" * 64):
    from xvliw.vliwsim import exec_vliw
    from xvliw.vm import MapStore, PacketContext, exec_sequential
    for _ in range(runs):
        exec_sequential(prog, PacketContext(packet), MapStore(prog.maps))
        exec_vliw(vliw, PacketContext(packet), MapStore(prog.maps))


def _compiled_memo_program():
    from xvliw.compiler import compile_program
    prog = _memo_program()
    vliw, _ = compile_program(prog)
    return prog, vliw


class TestMemos:
    """The ``io_sets`` memo and the decoded step on each Instruction, the
    analysis record on each Program and the row cache on each VliwProgram:
    invisible to equality, hashing, ``repr`` and ``replace``."""

    def test_replace_carries_no_memo(self):
        ins = Instruction(Kind.ALU_BINARY, op="add", width=64, dst=2, src=3)
        io = io_sets(ins)
        assert ins.io is io and io_sets(ins) is io
        assert replace(ins).io is None
        assert replace(ins, src=4).io is None
        assert io_sets(replace(ins, src=4)).reads == 1 << 2 | 1 << 4
        step = decode_step(ins)
        assert ins.step is step
        assert replace(ins).step is None and replace(ins, src=4).step is None
        prog = _memo_program()
        assert prog.analysis is not None
        assert replace(prog).analysis is None
        assert replace(prog, maps=()).analysis is None
        prog, vliw = _compiled_memo_program()
        _run_both(prog, vliw)
        assert vliw.decoded is not None
        assert replace(vliw).decoded is None
        assert replace(vliw, maps=()).decoded is None

    def test_equality_and_hash_ignore_memos(self):
        a = Instruction(Kind.STORE, width=4, dst=10, src=2, offset=-8,
                        region=("stack", 504, 508))
        b = Instruction(Kind.STORE, width=4, dst=10, src=2, offset=-8,
                        region=("stack", 504, 508))
        io_sets(a)
        decode_step(a)
        assert a.io is not None and b.io is None
        assert a.step is not None and b.step is None
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
        prog = _memo_program()
        bare = Program(prog.instructions, prog.maps)
        assert prog.analysis is not None and bare.analysis is None
        assert prog == bare and hash(prog) == hash(bare)
        assert repr(prog) == repr(bare)
        prog, vliw = _compiled_memo_program()
        fresh = VliwProgram(vliw.lane_count, vliw.rows, vliw.row_block,
                            vliw.maps)
        _run_both(prog, vliw)
        assert vliw.decoded is not None and fresh.decoded is None
        assert vliw == fresh and repr(vliw) == repr(fresh)

    def test_record_of_a_bare_program(self):
        prog = _memo_program()
        bare = Program(prog.instructions, prog.maps)
        record = analysis_of(bare)
        assert bare.analysis is record and analysis_of(bare) is record
        assert record.reachable == prog.analysis.reachable == set(range(6))
        assert record.provenance == prog.analysis.provenance

    def test_rebuild_keeps_unchanged_instructions(self):
        prog = _memo_program()
        for ins in prog.instructions:
            io_sets(ins)
        again = build_program(prog.instructions, prog.maps)
        assert again == prog
        assert all(x is y for x, y in zip(again.instructions, prog.instructions))
        assert all(ins.io is not None for ins in again.instructions)
        assert again.analysis is not prog.analysis

    def test_each_instruction_and_row_decoded_once(self, monkeypatch):
        """50 runs of the firewall through both engines decode each
        executed instruction once and each executed row once."""
        from collections import Counter
        from xvliw import vliwsim, vm
        from xvliw.compiler import compile_program
        from xvliw.corpus import CORPUS
        steps, rows = Counter(), Counter()
        decode_ins, decode_row = vm.decode_step, vliwsim._decode_row

        def counting_step(ins):
            steps[id(ins)] += 1
            return decode_ins(ins)

        def counting_row(row):
            rows[id(row)] += 1
            return decode_row(row)
        monkeypatch.setattr(vm, "decode_step", counting_step)
        monkeypatch.setattr(vliwsim, "decode_step", counting_step)
        monkeypatch.setattr(vliwsim, "_decode_row", counting_row)
        entry = CORPUS["simple_firewall"]
        prog = parse_asm(entry.source)
        vliw, _ = compile_program(prog)
        for _ in range(50):
            for data, port in entry.packet_bytes():
                _run_both(prog, vliw, packet=data)
        instrs = [*prog.instructions,
                  *(s.instr for row in vliw.rows for s in row if s)]
        assert steps and set(steps.values()) == {1}
        assert set(steps) <= {id(ins) for ins in instrs}
        assert {id(ins) for ins in instrs if ins.step is not None} == set(steps)
        assert rows and set(rows.values()) == {1}
        assert rows.keys() == {id(row) for row, d in zip(vliw.rows, vliw.decoded)
                               if d is not None}

    def test_no_attribute_outside_declared_fields(self):
        """Compile the corpus and run it through both engines, then check
        every Instruction, Program and VliwProgram touched: none has an
        instance ``__dict__``, so none holds an attribute that is not a
        field."""
        from xvliw.compiler import compile_program
        from xvliw.corpus import CORPUS
        from xvliw.peephole import peephole
        from xvliw.vliwsim import exec_vliw
        from xvliw.vm import MapStore, PacketContext, exec_sequential
        for cls in (Instruction, Program, VliwProgram):
            assert set(cls.__slots__) == {f.name for f in fields(cls)}
        seen = []
        for entry in CORPUS.values():
            prog = parse_asm(entry.source)
            reduced, _ = peephole(prog)
            vliw, _ = compile_program(prog)
            for data, port in entry.packet_bytes():
                exec_sequential(prog, PacketContext(data, 64, port),
                                MapStore(prog.maps))
                exec_vliw(vliw, PacketContext(data, 64, port),
                          MapStore(prog.maps))
            assert vliw.decoded is not None
            seen += [prog, reduced, vliw, *prog.instructions,
                     *reduced.instructions,
                     *(s.instr for row in vliw.rows for s in row if s)]
        assert all(not hasattr(x, "__dict__") for x in seen)


class TestConstructor:
    """``Instruction.__init__`` is written out and ``rebuilt`` copies
    through it: both behave as the generated dataclass code would."""

    def _load(self):
        ins = Instruction(Kind.LOAD, width=4, dst=2, src=1, offset=4,
                          region=SYM_PKT)
        io_sets(ins)
        decode_step(ins)
        assert field_problem(ins) is None and ins.checked
        return ins

    def test_defaults_and_argument_order(self):
        bare = Instruction(Kind.EXIT)
        for f in fields(Instruction):
            assert getattr(bare, f.name) == (Kind.EXIT if f.name == "kind"
                                             else f.default), f.name
        by_name = Instruction(Kind.STORE, op=None, width=4, dst=10, src=2,
                              src2=None, offset=-8, imm=0, target=None,
                              region=("stack", 504, 508))
        assert by_name == Instruction(Kind.STORE, None, 4, 10, 2, None, -8, 0,
                                      None, ("stack", 504, 508))

    def test_setting_any_field_raises(self):
        ins = self._load()
        for f in fields(Instruction):
            with pytest.raises(FrozenInstanceError):
                setattr(ins, f.name, getattr(ins, f.name))

    def test_pickle_and_copy_round_trips(self):
        """Every copy is rebuilt through the constructor: equal, without
        the ``io`` and ``step`` memos. A run LOAD's step holds a
        ``struct.Struct`` method, which cannot be pickled."""
        run = Instruction(Kind.LOAD, width=4, dst=2, src=1)
        decode_step(run)
        for ins in (Instruction(Kind.ALU_THREE_OP, op="add", width=64, dst=1,
                                src=2, src2=3),
                    Instruction(Kind.BRANCH, op="jgt", dst=1, imm=-3, target=7),
                    Instruction(Kind.STORE, width=2, dst=10, imm=5, offset=-2,
                                region=("stack", 510, 512)), run):
            io_sets(ins)
            for twin in (pickle.loads(pickle.dumps(ins)), copy.copy(ins),
                         copy.deepcopy(ins)):
                assert twin == ins and hash(twin) == hash(ins)
                assert repr(twin) == repr(ins)
                assert twin is not ins
                assert twin.step is None and twin.io is None
        assert run.step is not None

    @pytest.mark.parametrize("change", [
        {}, {"target": 3}, {"region": None}, {"region": ("stack", 0, 4)},
        {"target": 5, "region": SYM_MEM}, {"offset": 8},
        {"offset": 0, "target": 2}])
    def test_rebuilt_is_replace_without_the_memos(self, change):
        ins = self._load()
        made, expected = rebuilt(ins, **change), replace(ins, **change)
        assert made is not ins
        assert made == expected and hash(made) == hash(expected)
        assert repr(made) == repr(expected)
        assert made.io is None and made.step is None
        assert made.checked == ("offset" not in change)
        fresh = Instruction(Kind.LOAD, width=4, dst=2, src=1, offset=4)
        assert not rebuilt(fresh, **change).checked

    def test_annotation_copies_and_leaves_the_given_instructions(self):
        prog = parse_asm("r2 = *(u32 *)(r1 + 0)\n*(u64 *)(r10 - 8) = r2\n"
                         "r0 = 2\nexit\n")
        assert prog[0].region == ("ctx",) and prog[1].region == ("stack", 504, 512)
        bare = [replace(ins, region=None) for ins in prog.instructions]
        assert build_program(bare) == prog
        assert all(ins.region is None for ins in bare)


class TestExpansion:
    """Every extended instruction matches its pure base-set expansion."""

    CASES = [
        Instruction(Kind.ALU_THREE_OP, op="add", width=64, dst=4, src=1, imm=20),
        Instruction(Kind.ALU_THREE_OP, op="xor", width=64, dst=4, src=1, src2=5),
        Instruction(Kind.ALU_THREE_OP, op="sub", width=64, dst=4, src=1, src2=4),
        Instruction(Kind.LOAD48, width=6, dst=3, src=7, offset=4,
                    region=SYM_PKT),
        Instruction(Kind.STORE48, width=6, dst=7, src=3, offset=4,
                    region=SYM_PKT),
        Instruction(Kind.EARLY_EXIT, imm=2),
    ]

    def test_expansions_bit_exact(self, rng):
        for ins in self.CASES:
            scratch = self._scratch_for(ins)
            seq, clobbered = expand_extended(ins, scratch)
            for _ in range(200):
                base = make_state(rng)
                if ins.region == SYM_PKT:
                    point_into_packet(base, ins.dst if ins.kind is Kind.STORE48
                                      else ins.src, rng, span=32)
                s1, s2 = clone_state(base), clone_state(base)
                run_step(s1, ins)
                for step in seq:
                    run_step(s2, step)
                for r in range(11):
                    if r in clobbered:
                        continue
                    assert s1.regs[r] == s2.regs[r], (ins, r)
                assert s1.stack == s2.stack
                assert s1.packet.buf == s2.packet.buf

    def test_parts_keep_the_region_of_their_bytes(self):
        prog = parse_asm("r2 = *(u32 *)(r1 + 0)\n*(u48 *)(r10 - 8) = r1\n"
                         "r3 = *(u48 *)(r2 + 0)\nr0 = 0\nexit\n")
        stack, packet = prog.instructions[1:3]
        assert stack.region == ("stack", 504, 510)
        parts = [ins for ins in expand_extended(stack, 9)[0]
                 if ins.kind is Kind.STORE]
        assert [ins.region for ins in parts] == [("stack", 504, 508),
                                                 ("stack", 508, 510)]
        parts = [ins for ins in expand_extended(packet, 9)[0]
                 if ins.kind is Kind.LOAD]
        assert [ins.region for ins in parts] == [SYM_PKT, SYM_PKT]

    def _scratch_for(self, ins):
        used = {ins.dst, ins.src, ins.src2}
        return next(r for r in (9, 8, 7) if r not in used)
