"""Textual assembly front end.

Kernel-style mnemonics plus the infix sugar used throughout the listings:

    r4 = r1                 ; mov
    r4 += 20                ; two-operand alu
    r4 = r1 + 20            ; three-operand alu (extended ISA)
    r2 = *(u32 *)(r1 + 0)   ; loads (u8/u16/u32/u48/u64)
    *(u16 *)(r10 - 8) = r5  ; stores, register or immediate source
    if r4 > r3 goto drop    ; conditional branches
    goto out / call 1 / call map_lookup / exit / early_exit 1
    r1 = map[3]             ; lddw map reference
    r1 = 0x11223344aabb ll  ; lddw 64-bit immediate
    .map 3 hash 4 8 64      ; map definition directive

Labels are ``name:`` on their own line. ``w`` registers select the 32-bit
ALU forms. Comments start with ``;`` or ``#``. A number is hex after
``0x``, else decimal; ``010``, which C reads as octal, does not parse.

A line tries the one pattern its leading shape allows: a keyword, ``*(``
(a store), the operator of ``rX op= ...`` or the right side of ``rX = ...``.
Labels are found first, so that each branch is built with its target.
"""

from __future__ import annotations

import re

from .errors import AsmSyntaxError, UndefinedLabel, UnknownMnemonic
from .helpers import HELPER_IDS, HELPERS
from .isa import (
    ALU3_OPS,
    JUMP_KINDS,
    Instruction,
    Kind,
    MapDef,
    Program,
    build_program,
)

ALU_SYMS = {"+=": "add", "-=": "sub", "*=": "mul", "/=": "div", "%=": "mod",
            "&=": "and", "|=": "or", "^=": "xor", "<<=": "lsh", ">>=": "rsh",
            "s>>=": "arsh"}
ALU_INFIX = {"+": "add", "-": "sub", "*": "mul", "/": "div", "%": "mod",
             "&": "and", "|": "or", "^": "xor", "<<": "lsh", ">>": "rsh",
             "s>>": "arsh"}
CMP_SYMS = {"==": "jeq", "!=": "jne", ">": "jgt", ">=": "jge", "<": "jlt",
            "<=": "jle", "s>": "jsgt", "s>=": "jsge", "s<": "jslt",
            "s<=": "jsle", "&": "jset"}
_ALU_FOR = {v: k for k, v in ALU_SYMS.items()}
_INFIX_FOR = {v: k for k, v in ALU_INFIX.items()}
_CMP_FOR = {v: k for k, v in CMP_SYMS.items()}
WIDTH_NAMES = {"u8": 1, "u16": 2, "u32": 4, "u48": 6, "u64": 8}
_WIDTH_FOR = {v: k for k, v in WIDTH_NAMES.items()}

_REG = r"([rw])(\d+)"
_IMM = r"(-?(?:0x[0-9a-fA-F]+|0|[1-9]\d*))"
_LABEL = r"([A-Za-z_][A-Za-z0-9_]*)"

_re_label = re.compile(rf"^{_LABEL}:$")
_re_mov_reg = re.compile(rf"^{_REG}\s*=\s*{_REG}$")
_re_mov_imm = re.compile(rf"^{_REG}\s*=\s*{_IMM}$")
_re_lddw = re.compile(rf"^r(\d+)\s*=\s*{_IMM}\s+ll$")
_re_map_ref = re.compile(rf"^r(\d+)\s*=\s*map\[{_IMM}\]$")
_re_alu = re.compile(rf"^{_REG}\s*(s>>=|<<=|>>=|[-+*/%&|^]=)\s*(?:{_REG}|{_IMM})$")
_re_alu3 = re.compile(
    rf"^r(\d+)\s*=\s*r(\d+)\s*(s>>|<<|>>|[-+*/%&|^])\s*(?:r(\d+)|{_IMM})$")
_re_neg = re.compile(rf"^{_REG}\s*=\s*-\s*{_REG}$")
_re_end = re.compile(rf"^{_REG}\s*=\s*(be|le)(16|32|64)\s+{_REG}$")
_re_load = re.compile(
    rf"^r(\d+)\s*=\s*\*\((u8|u16|u32|u48|u64)\s*\*\)\s*\(\s*r(\d+)\s*([-+])\s*{_IMM}\s*\)$")
_re_store = re.compile(
    rf"^\*\((u8|u16|u32|u48|u64)\s*\*\)\s*\(\s*r(\d+)\s*([-+])\s*{_IMM}\s*\)"
    rf"\s*=\s*(?:r(\d+)|{_IMM})$")
_re_branch = re.compile(
    rf"^if\s+{_REG}\s*(s>=|s<=|s>|s<|==|!=|>=|<=|>|<|&)\s*(?:{_REG}|{_IMM})"
    rf"\s+goto\s+(@\d+|\w+)$")
_re_goto = re.compile(r"^goto\s+(@\d+|\w+)$")
_re_call = re.compile(r"^call\s+(\w+)$")
_re_early = re.compile(rf"^early_exit\s+{_IMM}$")
_re_map_def = re.compile(
    rf"^\.map\s+(\d+)\s+(array|hash|lru_hash)\s+(\d+)\s+(\d+)\s+(\d+)$")


def _int(text):
    """32-bit immediate; hex literals up to 0xffffffff take their two's
    complement value, matching the wire format's signed field."""
    v = int(text, 0)
    if 1 << 31 <= v < 1 << 32:
        v -= 1 << 32
    return v


def parse_asm(text: str) -> Program:
    """Parse assembly text into a validated Program."""
    labels: dict[str, int] = {}
    lines = []                  # (line number, text, .map match or None)
    count = 0                   # instruction lines so far
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = (re.split(r"[;#]", raw, maxsplit=1)[0] if ";" in raw or "#" in raw
                else raw).strip()
        if line[-1:] == ":" and (m := _re_label.match(line)):
            labels[m.group(1)] = count
        elif line:
            m = _re_map_def.match(line) if line[0] == "." else None
            lines.append((line_no, line, m))
            count += m is None
    instrs: list[Instruction] = []
    maps: list[MapDef] = []
    missing: list[UndefinedLabel] = []      # one per unknown target
    for line_no, line, m in lines:
        if m is None:
            instrs.append(_parse_instruction(line, line_no, labels, missing))
        else:
            maps.append(MapDef(int(m.group(1)), m.group(2), int(m.group(3)),
                               int(m.group(4)), int(m.group(5))))
    if missing:
        raise missing[0]
    return build_program(instrs, maps)


def parse_instruction(line: str, line_no: int = 0) -> Instruction:
    """Parse a single instruction (no label targets). Used by the dump loader."""
    missing: list[UndefinedLabel] = []
    ins = _parse_instruction(line.strip(), line_no, {}, missing)
    if missing:
        raise AsmSyntaxError(line_no, "only @row targets allowed here")
    return ins


def _target(text, labels, line_no, missing):
    """A ``@row`` or label target; an unknown label reads as 0, noted."""
    if text[0] != "@" and text not in labels:
        missing.append(UndefinedLabel(line_no, f"undefined label {text!r}"))
    return int(text[1:]) if text[0] == "@" else labels.get(text, 0)


def _operand(reg, imm):
    """The ``(src, imm)`` fields of a register or an immediate operand."""
    return (int(reg), 0) if reg is not None else (None, _int(imm))


def _parse_instruction(line, line_no, labels, missing):
    """One instruction, by the one pattern its leading shape allows."""
    head = line[:1]
    if head == "r" or head == "w":
        eq = line.find("=")
        if eq > 0 and line[:eq].rstrip()[-1].isdecimal():
            return _parse_assignment(line, line_no, line[eq + 1:].lstrip())
        m = _re_alu.match(line) if eq > 0 else None
        if m:
            dcls, dst, op, scls, src, imm = m.groups()
            if src is not None and dcls != scls:
                raise AsmSyntaxError(line_no, "mixed r/w registers in alu op")
            src, imm = _operand(src, imm)
            return Instruction(Kind.ALU_BINARY, ALU_SYMS[op],
                               64 if dcls == "r" else 32, int(dst), src, None,
                               0, imm)
    elif head == "*":
        m = _re_store.match(line)
        if m:
            wname, base, sign, off, src, imm = m.groups()
            width = WIDTH_NAMES[wname]
            offset = _int(off) * (-1 if sign == "-" else 1)
            if width == 6 and src is None:
                raise AsmSyntaxError(line_no, "store48 needs a register source")
            src, imm = _operand(src, imm)
            return Instruction(Kind.STORE48 if width == 6 else Kind.STORE, None,
                               width, int(base), src, None, offset, imm)
    elif head == "i":
        m = _re_branch.match(line)
        if m:
            lcls, lreg, op, rcls, rreg, imm, target = m.groups()
            if rcls is not None and lcls != rcls:
                raise AsmSyntaxError(line_no, "mixed r/w registers in compare")
            if lcls == "w":
                raise UnknownMnemonic(line_no, "32-bit conditional jumps are unsupported")
            src, imm = _operand(rreg, imm)
            return Instruction(Kind.BRANCH, CMP_SYMS[op], None, int(lreg), src,
                               None, 0, imm,
                               _target(target, labels, line_no, missing))
    elif head == "g":
        m = _re_goto.match(line)
        if m:
            return Instruction(Kind.JUMP_ALWAYS, target=_target(
                m.group(1), labels, line_no, missing))
    elif head == "e":
        if line == "exit":
            return Instruction(Kind.EXIT)
        m = _re_early.match(line)
        if m:
            return Instruction(Kind.EARLY_EXIT, imm=_int(m.group(1)))
    elif head == "c":
        m = _re_call.match(line)
        if m:
            name = m.group(1)
            if not name.isdecimal() and name not in HELPER_IDS:
                raise UnknownMnemonic(line_no, f"unknown helper {name!r}")
            return Instruction(Kind.CALL, imm=int(name) if name.isdecimal()
                               else HELPER_IDS[name])
    raise AsmSyntaxError(line_no, f"cannot parse {line!r}")


def _parse_assignment(line, line_no, rhs):
    """``rX = rhs``, by the one pattern the shape of ``rhs`` allows."""
    head = rhs[:1]
    width = 64 if line[0] == "r" else 32
    if head == "*":
        m = _re_load.match(line)
        if m:
            dst, wname, base, sign, off = m.groups()
            size = WIDTH_NAMES[wname]
            return Instruction(Kind.LOAD48 if size == 6 else Kind.LOAD, None,
                               size, int(dst), int(base), None,
                               _int(off) * (-1 if sign == "-" else 1))
    elif head == "m":
        m = _re_map_ref.match(line)
        if m:
            return Instruction(Kind.LOAD_IMM64, dst=int(m.group(1)), src=1,
                               imm=_int(m.group(2)))
    elif head == "b" or head == "l":
        m = _re_end.match(line)
        if m:
            dcls, dst, op, bits, scls, src = m.groups()
            if dst != src:
                raise AsmSyntaxError(line_no, "byteswap must be rX = be16 rX")
            return Instruction(Kind.ALU_UNARY, op=op, width=width, dst=int(dst),
                               imm=int(bits))
    elif head == "-" and rhs[1:].lstrip()[:1] in ("r", "w"):
        m = _re_neg.match(line)
        if m:
            dcls, dst, scls, src = m.groups()
            if dst != src or dcls != scls:
                raise AsmSyntaxError(line_no, "negation must be rX = -rX")
            return Instruction(Kind.ALU_UNARY, op="neg", width=width, dst=int(dst))
    elif (head == "-" or head.isdecimal()) and rhs.endswith("ll"):
        m = _re_lddw.match(line)
        if m:
            imm = int(m.group(2), 0)        # field_problem refuses > 64 bits
            return Instruction(Kind.LOAD_IMM64, dst=int(m.group(1)), src=0,
                               imm=imm & 0xFFFFFFFFFFFFFFFF
                               if -2**63 <= imm < 2**64 else imm)
    elif head == "-" or head.isdecimal():
        m = _re_mov_imm.match(line)
        if m:
            return Instruction(Kind.MOV_IMM, None, width, int(m.group(2)), None,
                               None, 0, _int(m.group(3)))
    elif rhs[1:].isdecimal():
        m = _re_mov_reg.match(line)
        if m:
            dcls, dst, scls, src = m.groups()
            if dcls != scls:
                raise AsmSyntaxError(line_no, "mixed r/w registers in mov")
            return Instruction(Kind.MOV_REG, None, width, int(dst), int(src))
    else:
        m = _re_alu3.match(line)
        if m:
            dst, src, op, src2, imm = m.groups()
            name = ALU_INFIX[op]
            if name not in ALU3_OPS:
                raise UnknownMnemonic(line_no, f"{op} not valid in three-operand form")
            src2, imm = _operand(src2, imm)
            return Instruction(Kind.ALU_THREE_OP, name, 64, int(dst), int(src),
                               src2, 0, imm)
    raise AsmSyntaxError(line_no, f"cannot parse {line!r}")


# ---------------------------------------------------------------------------
# formatting
# ---------------------------------------------------------------------------

def format_instruction(ins: Instruction, target_text=None) -> str:
    """Render one instruction; branch target via ``target_text`` override."""
    k = ins.kind
    if k is Kind.EXIT:
        return "exit"
    if k is Kind.EARLY_EXIT:
        return f"early_exit {ins.imm}"
    if k is Kind.JUMP_ALWAYS:
        return f"goto {target_text or f'@{ins.target}'}"
    if k is Kind.CALL:
        helper = HELPERS.get(ins.imm)
        return f"call {helper.name if helper else ins.imm}"
    if k is Kind.BRANCH:
        rhs = f"r{ins.src}" if ins.src is not None else str(ins.imm)
        return (f"if r{ins.dst} {_CMP_FOR[ins.op]} {rhs} "
                f"goto {target_text or f'@{ins.target}'}")
    if k is Kind.MOV_REG:
        c = "r" if ins.width == 64 else "w"
        return f"{c}{ins.dst} = {c}{ins.src}"
    if k is Kind.MOV_IMM:
        c = "r" if ins.width == 64 else "w"
        return f"{c}{ins.dst} = {ins.imm}"
    if k is Kind.LOAD_IMM64:
        if ins.is_map_ref:
            return f"r{ins.dst} = map[{ins.imm}]"
        return f"r{ins.dst} = 0x{ins.imm:x} ll"
    if k is Kind.ALU_UNARY:
        c = "r" if ins.width == 64 else "w"
        if ins.op == "neg":
            return f"{c}{ins.dst} = -{c}{ins.dst}"
        return f"{c}{ins.dst} = {ins.op}{ins.imm} {c}{ins.dst}"
    if k is Kind.ALU_BINARY:
        c = "r" if ins.width == 64 else "w"
        rhs = f"{c}{ins.src}" if ins.src is not None else str(ins.imm)
        return f"{c}{ins.dst} {_ALU_FOR[ins.op]} {rhs}"
    if k is Kind.ALU_THREE_OP:
        rhs = f"r{ins.src2}" if ins.src2 is not None else str(ins.imm)
        return f"r{ins.dst} = r{ins.src} {_INFIX_FOR[ins.op]} {rhs}"
    if k in (Kind.LOAD, Kind.LOAD48):
        sign, off = ("-", -ins.offset) if ins.offset < 0 else ("+", ins.offset)
        return (f"r{ins.dst} = *({_WIDTH_FOR[ins.width]} *)"
                f"(r{ins.src} {sign} {off})")
    # the kinds left of those field_problem passes: a store or a store48
    sign, off = ("-", -ins.offset) if ins.offset < 0 else ("+", ins.offset)
    lhs = f"*({_WIDTH_FOR[ins.width]} *)(r{ins.dst} {sign} {off})"
    rhs = f"r{ins.src}" if ins.src is not None else str(ins.imm)
    return f"{lhs} = {rhs}"


def format_asm(program: Program) -> str:
    """Render a Program as assembly; parse_asm(format_asm(p)) == p for
    every p that ``build_program`` built."""
    targets = {ins.target for ins in program.instructions if ins.kind in JUMP_KINDS}
    lines = []
    for m in program.maps:
        lines.append(f".map {m.id} {m.kind} {m.key_size} {m.value_size} "
                     f"{m.max_entries}")
    for i, ins in enumerate(program.instructions):
        if i in targets:
            lines.append(f"L{i}:")
        if ins.kind in JUMP_KINDS:
            lines.append(f"  {format_instruction(ins, target_text=f'L{ins.target}')}")
        else:
            lines.append(f"  {format_instruction(ins)}")
    return "\n".join(lines) + "\n"
