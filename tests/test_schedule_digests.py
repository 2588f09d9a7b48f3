"""Schedule stability: one sha256 per ``VliwProgram.dump()`` over a fixed
set of inputs, compared with ``golden/schedule_digests.golden``.

A change that claims to leave scheduling alone must leave every digest
alone. A change that moves schedules on purpose regenerates the file with

    PYTHONPATH=src python tests/test_schedule_digests.py --write

and says in its description which entries moved and why.

    PYTHONPATH=src python tests/test_schedule_digests.py --wide

prints ``name sha256`` lines over a wider set (the corpus at lanes 1-8,
fuzz cases 0-299 at lanes 1, 2, 3, 4 and 8, straight-line blocks of
seeds 4242 and 901 at those lanes, the code-motion loop programs,
``test_scheduler.TestCodeMotion.LOOPS``, at lanes 1-8, and the first 40
programs of seed 1 of ``conftest.pull_family_source`` at lanes 1-8: the
only entries with a back edge, the last ones where branch pulling fires).
``diff`` of its output from two commits proves a byte-identical claim
beyond the golden entries.
"""

import hashlib
import random
import sys
from pathlib import Path

import test_scheduler
from conftest import pull_family_source, straight_line_source
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
WIDE_FUZZ_CASES = 300
WIDE_LANES = (1, 2, 3, 4, 8)
WIDE_BLOCK_SEEDS = (BLOCK_SEED, 901)
WIDE_PULL_SEED = 1
WIDE_PULL_PROGRAMS = 40


def _digest(source: str, lanes: int) -> str:
    vliw, _report = compile_program(parse_asm(source), LaneConstraints(lanes=lanes))
    return hashlib.sha256(vliw.dump().encode()).hexdigest()


def _digests(fuzz_cases: int, fuzz_lanes, block_seeds,
             block_lanes) -> dict[str, str]:
    out = {}
    for name in names():
        for lanes in range(1, 9):
            out[f"corpus/{name}/lanes{lanes}"] = _digest(CORPUS[name].source, lanes)
    for i in range(fuzz_cases):
        text = generate_case(case_seed(FUZZ_RUN_SEED, i)).program_text
        for lanes in fuzz_lanes:
            out[f"fuzz/{FUZZ_RUN_SEED}/{i}/lanes{lanes}"] = _digest(text, lanes)
    for seed in block_seeds:
        rng = random.Random(seed)
        for size in BLOCK_SIZES:
            text = straight_line_source(rng, size)
            for lanes in block_lanes:
                out[f"block/{seed}/{size}/lanes{lanes}"] = _digest(text, lanes)
    return out


def schedule_digests() -> dict[str, str]:
    return _digests(FUZZ_CASES, FUZZ_LANES, (BLOCK_SEED,), (4,))


def wide_digests() -> dict[str, str]:
    out = _digests(WIDE_FUZZ_CASES, WIDE_LANES, WIDE_BLOCK_SEEDS, WIDE_LANES)
    for name, (source, _) in sorted(test_scheduler.TestCodeMotion.LOOPS.items()):
        for lanes in range(1, 9):
            out[f"loops/{name}/lanes{lanes}"] = _digest(source, lanes)
    rng = random.Random(WIDE_PULL_SEED)
    for i in range(WIDE_PULL_PROGRAMS):
        text = pull_family_source(rng)
        for lanes in range(1, 9):
            out[f"pull/{WIDE_PULL_SEED}/{i}/lanes{lanes}"] = _digest(text, lanes)
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


def _listing(digests: dict[str, str]) -> str:
    return "".join(f"{name} {sha}\n" for name, sha in digests.items())


if __name__ == "__main__":
    if sys.argv[1:] == ["--write"]:
        GOLDEN.write_text(_listing(schedule_digests()))
    elif sys.argv[1:] == ["--wide"]:
        print(_listing(wide_digests()), end="")
    else:
        sys.exit("usage: test_schedule_digests.py --write | --wide")
