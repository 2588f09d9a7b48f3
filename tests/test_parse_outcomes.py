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

The other input surfaces get seeded mutants too, with no golden file:
bytecode (``decode``), map configs, hex and pcap packets, and command
lines (``cli.main``, its files written to a temporary directory). Each
input must parse or raise an ``XvliwError``; a command line must make
``main`` return its status or argparse exit.
"""

import contextlib
import hashlib
import io
import random
import sys
from pathlib import Path

import pytest

from test_formats import _pcap
from xvliw.asm import parse_asm
from xvliw.cli import main
from xvliw.compiler import compile_program
from xvliw.corpus import CORPUS, names
from xvliw.errors import XvliwError
from xvliw.formats import parse_hex_packets, parse_map_config, parse_pcap
from xvliw.fuzz import case_seed, generate_case
from xvliw.isa import decode, encode
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


def asm_texts(rng: random.Random) -> list[tuple[str, str]]:
    """Each assembly text's name and text: the sources, then their
    ``ASM_MUTANTS`` mutants drawn with ``rng``."""
    sources = [(f"corpus/{name}", CORPUS[name].source) for name in names()]
    sources += [(f"fuzz/{FUZZ_RUN_SEED}/{i}",
                 generate_case(case_seed(FUZZ_RUN_SEED, i)).program_text)
                for i in range(FUZZ_CASES)]
    texts = [text for _, text in sources]
    return sources + [(f"asm-mutant/{i}", _mutate(rng, rng.choice(texts)))
                      for i in range(ASM_MUTANTS)]


def outcomes() -> dict[str, str]:
    """Each text's name and outcome, in a fixed order."""
    rng = random.Random(MUTATION_SEED)
    asm = asm_texts(rng)
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


SURFACE_MUTANTS = 3000
ARGV_MUTANTS = 600


def _mutate_bytes(rng: random.Random, data: bytes) -> bytes:
    """``data`` after one to three edits: a byte deleted, inserted or
    substituted."""
    data = bytearray(data)
    for _ in range(rng.randint(1, 3)):
        at, edit = rng.randrange(len(data) + 1), rng.randrange(3)
        if edit == 1:
            data.insert(at, rng.randrange(256))
        elif at < len(data):
            data[at:at + 1] = b"" if edit == 0 else bytes([rng.randrange(256)])
    return bytes(data)


def _surface(name):
    """A surface's parser, its valid inputs and its mutator."""
    entries = [CORPUS[n] for n in names()]
    cases = [generate_case(case_seed(FUZZ_RUN_SEED, i)) for i in range(20)]
    if name == "bytecode":
        sources = [e.source for e in entries] + [c.program_text for c in cases]
        return decode, [encode(parse_asm(s)) for s in sources], _mutate_bytes
    if name == "map config":
        return parse_map_config, [c.map_config for c in cases], _mutate
    if name == "hex packets":
        return parse_hex_packets, ["".join(f"{h}\n" for h, _ in e.packets)
                                   for e in entries], _mutate
    forms = (("<", 0xA1B2C3D4), (">", 0xA1B2C3D4), ("<", 0xA1B23C4D))
    return parse_pcap, [_pcap(*(p for p, _ in e.packet_bytes()), endian=endian,
                              magic=magic)
                        for e in entries for endian, magic in forms], _mutate_bytes


def surface_inputs(name):
    """A surface's parser and inputs: its valid ones, then their
    ``SURFACE_MUTANTS`` mutants."""
    parse, valid, mutate = _surface(name)
    rng = random.Random(MUTATION_SEED)
    return parse, valid + [mutate(rng, rng.choice(valid))
                           for _ in range(SURFACE_MUTANTS)]


@pytest.mark.parametrize("name", ["bytecode", "map config", "hex packets", "pcap"])
def test_every_mutant_of_a_surface_parses_or_raises_an_xvliw_error(name):
    parse, inputs = surface_inputs(name)
    results = [_outcome(lambda data: repr(parse(data)), data) for data in inputs]
    crashed = [(data, o) for data, o in zip(inputs, results) if o.startswith("!")]
    assert not crashed, f"{len(crashed)} inputs raised a non-XvliwError: {crashed[:3]}"
    failed = sum(not _is_digest(o) for o in results)
    assert 0 < failed < SURFACE_MUTANTS


def test_every_mutant_command_line_returns_or_exits(tmp_path, monkeypatch):
    """Seeded edits of valid command lines, over good and malformed files
    (text that is not UTF-8 among them): ``main`` returns an int or
    argparse raises ``SystemExit``, and nothing else escapes. Run in
    ``tmp_path``, where ``-o`` writes."""
    monkeypatch.chdir(tmp_path)
    source = CORPUS["tx_mac_swap"].source
    vliw = compile_program(parse_asm(source))[0]
    files = {"p.s": source.encode(), "p.bin": encode(parse_asm(source)),
             "p.vliw": vliw.dump().encode(), "pk.hex": b"00112233445566778899aabbccdd\n",
             "pk.pcap": _pcap(bytes(20)),
             "m.cfg": b"map 1 hash 4 8 16\ninit 1 01000000 0200000000000000\n",
             "bad.s": b"r0 = = 2\n", "bad.bin": b"\xff" * 12, "bad.hex": b"0g\n",
             "bad.cfg": b"init 7 00 00\n", "bad.vliw": b"lanes 4\nrow\n"}
    files.update((f"latin1.{ext}", b"\xff\xfe r0 = 1\n")
                 for ext in ("s", "hex", "cfg", "vliw"))
    for name, body in files.items():
        (tmp_path / name).write_bytes(body)
    path = {name: str(tmp_path / name) for name in files}
    valid = [["compile", path["p.s"], "--lanes", "2", "--report", "json"],
             ["compile", path["p.bin"], "--dump-schedule", "--emit-asm", "--dot"],
             ["run", path["p.s"], "--packets", path["pk.hex"], "--maps", path["m.cfg"]],
             ["run", path["p.vliw"], "--engine", "vliw", "--packets", path["pk.pcap"]],
             ["run", "corpus:drop_all", "--report", "json", "--trace", "--port", "3"],
             ["disasm", path["p.bin"], "--encode"],
             ["report", "drop_all", "--no-sweep", "--report", "json"]]
    pool = ["compile", "run", "disasm", "--lanes", "--engine", "--packets", "--maps",
            "--head-room", "--port", "--max-instructions", "--report", "--trace",
            "-o", "--no-zeroing", "--no-code-motion", "0", "-1", "1", "9", "x", "",
            "70000", "json", "vliw", "oracle", "corpus:", "corpus:nope",
            str(tmp_path / "missing.s"), str(tmp_path), *path.values()]
    rng = random.Random(MUTATION_SEED)
    escaped = []
    for _ in range(ARGV_MUTANTS):
        argv = list(rng.choice(valid))
        for _ in range(rng.randint(1, 3)):
            at, edit = rng.randrange(len(argv) + 1), rng.randrange(3)
            if edit == 1:
                argv.insert(at, rng.choice(pool))
            elif at < len(argv):
                argv[at:at + 1] = [] if edit == 0 else [rng.choice(pool)]
        sink = io.StringIO()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                status = main(argv)
        except SystemExit:
            continue
        except Exception as exc:             # noqa: BLE001 -- recorded, then failed
            escaped.append((argv, f"{type(exc).__name__}: {exc}"))
            continue
        if not isinstance(status, int):
            escaped.append((argv, f"returned {status!r}"))
    assert not escaped, f"{len(escaped)} command lines: {escaped[:3]}"


if __name__ == "__main__":
    if sys.argv[1:] == ["--write"]:
        GOLDEN.write_text("".join(f"{name} {sha}\n"
                                  for name, sha in group_digests(outcomes()).items()))
    elif sys.argv[1:] == ["--list"]:
        print("".join(f"{name} {outcome}\n"
                      for name, outcome in outcomes().items()), end="")
    else:
        sys.exit("usage: test_parse_outcomes.py --write | --list")
