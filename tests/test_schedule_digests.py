"""Schedule stability: one sha256 per ``VliwProgram.dump()`` over a fixed
set of inputs, compared with ``golden/schedule_digests.golden``.

A change that claims to leave scheduling alone must leave every digest
alone. A change that moves schedules on purpose regenerates the file with

    PYTHONPATH=src python tests/test_schedule_digests.py --write

and says in its description which entries moved and why.
"""

import hashlib
import random
import sys
from pathlib import Path

from conftest import straight_line_source
from xvliw.asm import parse_asm
from xvliw.compiler import compile_program
from xvliw.corpus import CORPUS, names
from xvliw.fuzz import case_seed, generate_case
from xvliw.schedule import LaneConstraints

GOLDEN = Path(__file__).parent / "golden" / "schedule_digests.golden"
FUZZ_RUN_SEED = 20260810
FUZZ_CASES = 100
FUZZ_LANES = (2, 4)
BLOCK_SEED = 4242
BLOCK_SIZES = (200, 400)


def _digest(source: str, lanes: int) -> str:
    vliw, _report = compile_program(parse_asm(source), LaneConstraints(lanes=lanes))
    return hashlib.sha256(vliw.dump().encode()).hexdigest()


def schedule_digests() -> dict[str, str]:
    out = {}
    for name in names():
        for lanes in range(1, 9):
            out[f"corpus/{name}/lanes{lanes}"] = _digest(CORPUS[name].source, lanes)
    for i in range(FUZZ_CASES):
        text = generate_case(case_seed(FUZZ_RUN_SEED, i)).program_text
        for lanes in FUZZ_LANES:
            out[f"fuzz/{FUZZ_RUN_SEED}/{i}/lanes{lanes}"] = _digest(text, lanes)
    rng = random.Random(BLOCK_SEED)
    for size in BLOCK_SIZES:
        out[f"block/{BLOCK_SEED}/{size}/lanes4"] = _digest(
            straight_line_source(rng, size), 4)
    return out


def _read_golden() -> dict[str, str]:
    pairs = (line.split() for line in GOLDEN.read_text().splitlines() if line)
    return {name: sha for name, sha in pairs}


def test_schedule_digests_match_golden():
    golden = _read_golden()
    current = schedule_digests()
    assert sorted(current) == sorted(golden), "entry set differs from the golden file"
    moved = [name for name in current if current[name] != golden[name]]
    assert not moved, f"{len(moved)} schedules changed: {moved[:10]}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_schedule_digests.py --write")
    GOLDEN.write_text("".join(f"{name} {sha}\n"
                              for name, sha in schedule_digests().items()))
