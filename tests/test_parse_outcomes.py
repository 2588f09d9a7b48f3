"""Parse stability: what the assembly and dump loaders make of a fixed set
of texts, valid and malformed, compared with
``golden/parse_outcomes.golden``.

The texts are the corpus sources, fuzz cases 0-999 of run seed 20260810,
3,000 seeded mutations of those texts (a character deleted, inserted or
substituted from the assembly alphabet; a line duplicated or deleted),
run through ``parse_asm``, and 1,000 mutations of the corpus schedules'
dumps at 4 lanes, run through ``parse_dump``. A text's outcome is the
sha256 of what it parses to (the instructions' ``repr`` and the maps, or
the schedule's lanes and rows), or the type and message of the exception
it raises. Every outcome must be a parse or an ``XvliwError``. The golden
file holds one sha256 per group of 100 outcomes. A change to either
loader that claims to parse every text as before must leave every digest
alone.

    PYTHONPATH=src python tests/test_parse_outcomes.py --write

regenerates the file, and

    PYTHONPATH=src python tests/test_parse_outcomes.py --list

prints each text's outcome, one ``name outcome`` line each, for a
``diff`` between two commits.
"""

import hashlib
import random
import sys
from pathlib import Path

from xvliw.asm import parse_asm
from xvliw.compiler import compile_program
from xvliw.corpus import CORPUS, names
from xvliw.errors import XvliwError
from xvliw.fuzz import case_seed, generate_case
from xvliw.schedule import LaneConstraints, parse_dump

GOLDEN = Path(__file__).parent / "golden" / "parse_outcomes.golden"
FUZZ_RUN_SEED = 20260810
FUZZ_CASES = 1000
ASM_MUTANTS = 3000
DUMP_MUTANTS = 1000
DUMP_LANES = 4
MUTATION_SEED = 19
GROUP = 100
ALPHABET = ("rw0123456789abcdefghiklmnopstuxABCDEFL_ \t=+-*/%&|^<>!"
            "()[]{}:;#@.,'\"")


def _mutate(rng: random.Random, text: str) -> str:
    """``text`` after one to three edits: a character deleted, inserted or
    substituted, or a line duplicated or deleted."""
    for _ in range(rng.randint(1, 3)):
        edit = rng.randrange(5)
        if edit < 3:
            at = rng.randrange(len(text) + 1)
            keep = at + (edit != 1)          # an insertion deletes nothing
            text = text[:at] + ("" if edit == 0 else rng.choice(ALPHABET)) \
                + text[keep:]
        else:
            lines = text.splitlines()
            if not lines:
                continue
            at = rng.randrange(len(lines))
            lines[at:at + 1] = [lines[at]] * (2 if edit == 3 else 0)
            text = "\n".join(lines) + "\n"
    return text


def _outcome(parse, text: str) -> str:
    try:
        made = parse(text)
    except XvliwError as exc:
        return f"{type(exc).__name__}: {exc}"
    except Exception as exc:                 # noqa: BLE001 -- recorded, then failed
        return f"!{type(exc).__name__}: {exc}"
    return hashlib.sha256(made.encode()).hexdigest()


def _program_text(text: str) -> str:
    program = parse_asm(text)
    return repr((program.instructions, program.maps))


def _dump_text(text: str) -> str:
    vliw = parse_dump(text)
    return repr((vliw.lane_count, vliw.rows))


def outcomes() -> dict[str, str]:
    """Each text's name and outcome, in a fixed order."""
    sources = [(f"corpus/{name}", CORPUS[name].source) for name in names()]
    sources += [(f"fuzz/{FUZZ_RUN_SEED}/{i}",
                 generate_case(case_seed(FUZZ_RUN_SEED, i)).program_text)
                for i in range(FUZZ_CASES)]
    rng = random.Random(MUTATION_SEED)
    texts = [text for _, text in sources]
    asm = sources + [(f"asm-mutant/{i}", _mutate(rng, rng.choice(texts)))
                     for i in range(ASM_MUTANTS)]
    dumps = [compile_program(parse_asm(CORPUS[name].source),
                             LaneConstraints(lanes=DUMP_LANES))[0].dump()
             for name in names()]
    dump = [(f"dump-mutant/{i}", _mutate(rng, rng.choice(dumps)))
            for i in range(DUMP_MUTANTS)]
    out = {name: _outcome(_program_text, text) for name, text in asm}
    out.update((name, _outcome(_dump_text, text)) for name, text in dump)
    return out


def group_digests(results: dict[str, str]) -> dict[str, str]:
    """One sha256 per ``GROUP`` consecutive outcomes, named by its range."""
    items = list(results.items())
    out = {}
    for at in range(0, len(items), GROUP):
        group = items[at:at + GROUP]
        body = "".join(f"{name} {outcome}\n" for name, outcome in group)
        out[f"{group[0][0]}..{group[-1][0]}"] = \
            hashlib.sha256(body.encode()).hexdigest()
    return out


def _read_golden() -> dict[str, str]:
    pairs = (line.split() for line in GOLDEN.read_text().splitlines() if line)
    return {name: sha for name, sha in pairs}


def test_every_outcome_is_a_parse_or_an_xvliw_error():
    results = outcomes()
    crashed = {name: o for name, o in results.items() if o.startswith("!")}
    assert not crashed, f"{len(crashed)} texts raised a non-XvliwError: " \
        f"{list(crashed.items())[:5]}"
    failed = sum(not _is_digest(o) for o in results.values())
    assert 0 < failed < len(results), "the texts should both parse and fail"
    golden = _read_golden()
    current = group_digests(results)
    assert sorted(current) == sorted(golden), "group set differs from the golden file"
    moved = [name for name in current if current[name] != golden[name]]
    assert not moved, f"{len(moved)} groups of outcomes changed: {moved[:10]}"


def _is_digest(outcome: str) -> bool:
    return len(outcome) == 64 and ":" not in outcome


if __name__ == "__main__":
    if sys.argv[1:] == ["--write"]:
        GOLDEN.write_text("".join(f"{name} {sha}\n"
                                  for name, sha in group_digests(outcomes()).items()))
    elif sys.argv[1:] == ["--list"]:
        print("".join(f"{name} {outcome}\n"
                      for name, outcome in outcomes().items()), end="")
    else:
        sys.exit("usage: test_parse_outcomes.py --write | --list")
