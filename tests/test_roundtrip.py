"""Round trips: what builds is what the wire and the assembler carry.

Every program built from these sources must survive both codecs:
the corpus, fuzz cases 0-999 of run seed 20260810 and their peephole
outputs, the code-motion loops of ``test_scheduler`` and the assembly
mutants of ``test_parse_outcomes`` that parse. ``decode(encode(p))``
gives back ``p``'s instructions, regions aside (the wire carries no map
definitions), and ``parse_asm(format_asm(p)) == p``. Each accepted input
of the bytecode mutation surface re-encodes to its own bytes. (What the
codecs could not carry is refused when a program is built; ``test_isa``
holds those cases.)
"""

import random

import test_parse_outcomes
import test_scheduler
from xvliw.asm import format_asm, parse_asm
from xvliw.errors import XvliwError
from xvliw.isa import decode, encode, rebuilt
from xvliw.peephole import peephole


def _built_programs():
    """Each source program by name, then each fuzz case's peephole output."""
    texts = test_parse_outcomes.asm_texts(
        random.Random(test_parse_outcomes.MUTATION_SEED))
    texts += [(f"loop/{name}", src)
              for name, (src, _) in test_scheduler.TestCodeMotion.LOOPS.items()]
    built = []
    for name, text in texts:
        try:
            built.append((name, parse_asm(text)))
        except XvliwError:
            assert name.startswith("asm-mutant/"), name
    built += [(f"{name}/peephole", peephole(prog)[0])
              for name, prog in built if name.startswith("fuzz/")]
    return built


def _wire_fields(instructions):
    return [rebuilt(ins, region=None) for ins in instructions]


def test_every_built_program_round_trips():
    built = _built_programs()
    assert len(built) > 2800    # sources, parsing mutants, peephole outputs
    for name, prog in built:
        again = decode(encode(prog))
        assert _wire_fields(again.instructions) == \
            _wire_fields(prog.instructions), name
        assert parse_asm(format_asm(prog)) == prog, name


def test_accepted_bytecode_re_encodes_to_itself():
    parse, inputs = test_parse_outcomes.surface_inputs("bytecode")
    accepted = 0
    for data in inputs:
        try:
            prog = parse(data)
        except XvliwError:
            continue
        assert encode(prog) == data, data.hex()
        accepted += 1
    assert accepted > test_parse_outcomes.SURFACE_MUTANTS // 20
