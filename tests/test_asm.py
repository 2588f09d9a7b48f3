"""Assembly front end: the listing sugar, round trips, error reporting."""

from pathlib import Path

import pytest

import xvliw
from xvliw.asm import format_asm, format_instruction, parse_asm, parse_instruction
from xvliw.errors import AsmSyntaxError, UndefinedLabel, UnknownMnemonic, XvliwError
from xvliw.isa import Kind


def test_mov_then_add_pair():
    prog = parse_asm("r4 = r1\nr4 += 20\nexit\n")
    assert prog[0].kind is Kind.MOV_REG and (prog[0].dst, prog[0].src) == (4, 1)
    assert prog[1].kind is Kind.ALU_BINARY and prog[1].op == "add"
    assert prog[1].dst == 4 and prog[1].imm == 20


def test_infix_three_operand_sugar():
    prog = parse_asm("r4 = r1 + 20\nexit\n")
    ins = prog[0]
    assert ins.kind is Kind.ALU_THREE_OP and ins.op == "add"
    assert (ins.dst, ins.src, ins.imm) == (4, 1, 20)
    assert prog[0].src2 is None


def test_exit():
    prog = parse_asm("exit\n")
    assert prog[0].kind is Kind.EXIT


def test_branch_and_labels():
    prog = parse_asm("""
      if r1 > r2 goto out
      r0 = 2
    out:
      exit
    """)
    assert prog[0].kind is Kind.BRANCH and prog[0].op == "jgt"
    assert prog[0].target == 2


def test_memory_and_width_sugar():
    prog = parse_asm("""
      r2 = *(u32 *)(r1 + 0)
      r5 = *(u48 *)(r2 + 6)
      *(u48 *)(r2 + 0) = r5
      *(u16 *)(r10 - 8) = 7
      exit
    """)
    assert prog[0].kind is Kind.LOAD and prog[0].width == 4
    assert prog[1].kind is Kind.LOAD48
    assert prog[2].kind is Kind.STORE48
    assert prog[3].kind is Kind.STORE and prog[3].src is None
    assert prog[3].imm == 7


def test_helpers_maps_and_lddw():
    prog = parse_asm("""
    .map 3 hash 4 8 16
      r1 = map[3]
      r2 = 0x1122334455 ll
      call map_lookup
      call 51
      early_exit 2
    """)
    assert prog.maps[0].id == 3 and prog.maps[0].kind == "hash"
    assert prog[0].is_map_ref and prog[0].imm == 3
    assert prog[1].imm == 0x1122334455
    assert prog[2].kind is Kind.CALL and prog[2].imm == 1
    assert prog[3].imm == 51
    assert prog[4].kind is Kind.EARLY_EXIT and prog[4].imm == 2


def _helper_table_rows():
    """(id, name) of every row of the shipped helper table, read from the
    file itself."""
    text = (Path(xvliw.__file__).parent / "helper_table.cfg").read_text()
    rows = [line.split("#", 1)[0].split() for line in text.splitlines()]
    return [(int(row[0]), row[1]) for row in rows if row]


@pytest.mark.parametrize("hid,name", _helper_table_rows())
def test_helper_names_come_from_the_table(hid, name):
    prog = parse_asm(f"call {name}\nexit")
    assert prog[0].kind is Kind.CALL and prog[0].imm == hid
    assert format_instruction(prog[0]) == f"call {name}"


def test_unknown_helper_name_is_an_xvliw_error():
    with pytest.raises(XvliwError):
        parse_asm("call map_lookup_elem\nexit")


def test_a_helper_number_is_decimal_digits():
    # "\u00b2" is a digit to str.isdigit but not to int()
    with pytest.raises(UnknownMnemonic, match="unknown helper"):
        parse_asm("call \u00b2\nexit")
    assert parse_asm("call 28\nexit")[0].imm == 28


def test_blank_instruction_line_is_a_syntax_error():
    with pytest.raises(AsmSyntaxError, match="line 2: cannot parse ''"):
        parse_instruction("   ", 2)


def test_alu32_forms():
    prog = parse_asm("w3 = 7\nw3 += w4\nw5 = w3\nexit\n")
    assert all(i.width == 32 for i in prog.instructions[:3])


def test_errors():
    with pytest.raises(AsmSyntaxError):
        parse_asm("this is not assembly\nexit\n")
    with pytest.raises(UnknownMnemonic):
        parse_asm("call not_a_helper\nexit\n")
    with pytest.raises(UndefinedLabel):
        parse_asm("goto nowhere\nexit\n")
    with pytest.raises(AsmSyntaxError):
        parse_asm("r1 = r2 ** 3\nexit\n")


def test_roundtrip_corpus():
    from xvliw.corpus import CORPUS
    for entry in CORPUS.values():
        prog = parse_asm(entry.source)
        assert parse_asm(format_asm(prog)) == prog


def test_roundtrip_generated(rng):
    from xvliw.fuzz import generate_case
    for i in range(30):
        prog = parse_asm(generate_case(5000 + i).program_text)
        assert parse_asm(format_asm(prog)) == prog


def test_parse_instruction_row_targets():
    ins = parse_instruction("if r1 == 0 goto @7")
    assert ins.kind is Kind.BRANCH and ins.target == 7
    with pytest.raises(AsmSyntaxError):
        parse_instruction("goto somewhere")


@pytest.mark.parametrize("text", ["goto @2exit1", "if r1 > r2 goto @1x",
                                  "goto @"])
def test_a_row_target_must_be_a_number(text):
    with pytest.raises(AsmSyntaxError, match="line 3: cannot parse"):
        parse_instruction(text, 3)


@pytest.mark.parametrize("line, literal", [
    ("r0 = 03", "03"),
    ("r1 = *(u32 *)(r10 - 08)", "08"),
    ("*(u8 *)(r10 - 4) = 010", "010"),
    ("r1 = 0777 ll", "0777"),
    ("if r1 > -07 goto out", "-07"),
    ("r2 = r1 + 09", "09"),
])
def test_a_decimal_with_a_leading_zero_is_a_syntax_error(line, literal):
    """C reads ``010`` as octal and Python refuses it; the assembler names
    the line rather than guess."""
    with pytest.raises(AsmSyntaxError, match="line 2: cannot parse") as err:
        parse_asm(f"r0 = 1\n{line}\nout:\nexit\n")
    assert literal in str(err.value)


@pytest.mark.parametrize("line", ["r2 = 0x100000000", "r2 += 0x100000000",
                                  "call 4294967296", "r2 = -2147483649"])
def test_an_immediate_outside_32_bits_is_refused(line):
    """Both engines would run such an immediate as its low 32 bits and
    ``encode`` could not write it, so the program is refused."""
    with pytest.raises(XvliwError, match="outside 32 bits"):
        parse_asm(f"{line}\nr0 = 0\nexit\n")


@pytest.mark.parametrize("line", ["r0 = 0x1ffffffffffffffff ll",
                                  "r0 = -0x8000000000000001 ll"])
def test_a_lddw_immediate_outside_64_bits_is_refused(line):
    """Such a literal was wrapped to its low 64 bits, so the first ran as
    0xffffffffffffffff and the second as 0x7fffffffffffffff."""
    with pytest.raises(XvliwError, match="outside 64 bits"):
        parse_asm(f"{line}\nexit\n")


def test_a_negative_lddw_immediate_is_its_64_bit_pattern():
    prog = parse_asm("r0 = -1 ll\nr1 = -0x8000000000000000 ll\nexit\n")
    assert prog[0] == parse_asm("r0 = 0xffffffffffffffff ll\nexit\n")[0]
    assert prog[1].imm == 1 << 63


def test_a_32_bit_hex_immediate_is_its_signed_value():
    assert parse_asm("r2 = 0xffffffff\nr0 = 0\nexit\n")[0].imm == -1


def test_comments_ignored():
    prog = parse_asm("; leading comment\nr0 = 1 # trailing\nexit\n")
    assert len(prog) == 2
