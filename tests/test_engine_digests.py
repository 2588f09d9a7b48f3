"""Engine stability: one sha256 per engine run over a fixed set of inputs,
compared with ``golden/engine_results.golden``.

Each digest covers what a run observably produces: action, code, redirect
target, output packet bytes, the maps (sorted), whether and how it
trapped, and for a VLIW run also ``rows_executed``,
``instructions_executed`` and ``cycles``. A change that claims to leave
both execution engines alone must leave every digest alone. A change that
moves results on purpose regenerates the file with

    PYTHONPATH=src python tests/test_engine_digests.py --write

and says in its description which entries moved and why.

    PYTHONPATH=src python tests/test_engine_digests.py --wide

prints ``name sha256`` lines over a wider set (the corpus at lanes 1-8,
fuzz cases 0-299 at lanes 1, 2, 3, 4 and 8 on a third, empty packet too,
and every run once more with ``trace=True``, its pcs and trace lines
digested as well). ``diff`` of its output from two commits proves an
"engines unchanged" claim beyond the golden entries.
"""

import hashlib
import sys
from pathlib import Path

from conftest import corpus_stores
from xvliw.asm import parse_asm
from xvliw.compiler import compile_program
from xvliw.corpus import CORPUS, names
from xvliw.formats import parse_map_config
from xvliw.fuzz import HEAD_ROOM, case_seed, generate_case
from xvliw.schedule import LaneConstraints
from xvliw.vliwsim import exec_vliw
from xvliw.vm import Limits, MapStore, PacketContext, exec_sequential

GOLDEN = Path(__file__).parent / "golden" / "engine_results.golden"
CORPUS_LANES = (1, 3, 4, 8)
FUZZ_RUN_SEED = 20260810
FUZZ_CASES = 100
FUZZ_LANES = (2, 4)
CUT = 14                                 # an Ethernet header, nothing more
WIDE_CORPUS_LANES = tuple(range(1, 9))
WIDE_FUZZ_CASES = 300
WIDE_FUZZ_LANES = (1, 2, 3, 4, 8)
LIMITS = Limits(max_instructions=200_000)


def _result_fields(result) -> tuple:
    maps = sorted((mid, sorted(m.items())) for mid, m in result.maps_out.items())
    return (result.action, result.code, result.redirect_target,
            result.packet_out, maps, result.trapped, result.trap)


def _sha(fields) -> str:
    return hashlib.sha256(repr(fields).encode()).hexdigest()


def _oracle_sha(program, packet, port, maps, trace: bool) -> str:
    res, _ = exec_sequential(program, PacketContext(packet, HEAD_ROOM, port),
                             maps, LIMITS, trace=trace)
    return _sha((_result_fields(res), res.trace))


def _vliw_sha(vliw, packet, port, maps, trace: bool) -> str:
    rep, _ = exec_vliw(vliw, PacketContext(packet, HEAD_ROOM, port), maps,
                       LIMITS, trace=trace)
    return _sha((_result_fields(rep.result), rep.rows_executed,
                 rep.instructions_executed, rep.cycles, rep.trace_lines))


def _digests(corpus_lanes, fuzz_cases, fuzz_lanes, packet_cuts,
             trace: bool) -> dict[str, str]:
    out = {}
    for name in names():
        entry = CORPUS[name]
        program = parse_asm(entry.source)
        vliws = [compile_program(program, LaneConstraints(lanes=lanes))[0]
                 for lanes in corpus_lanes]
        # maps persist across an entry's packet set, one store per engine run
        oracle_maps, *vliw_maps = corpus_stores(entry, program,
                                                1 + len(corpus_lanes))
        for k, (data, port) in enumerate(entry.packet_bytes()):
            out[f"corpus/{name}/pkt{k}/oracle"] = _oracle_sha(
                program, data, port, oracle_maps, trace)
            for lanes, vliw, maps in zip(corpus_lanes, vliws, vliw_maps):
                out[f"corpus/{name}/pkt{k}/lanes{lanes}"] = _vliw_sha(
                    vliw, data, port, maps, trace)
    for i in range(fuzz_cases):
        case = generate_case(case_seed(FUZZ_RUN_SEED, i))
        program = parse_asm(case.program_text)
        setup = parse_map_config(case.map_config)
        vliws = [compile_program(program, LaneConstraints(lanes=lanes))[0]
                 for lanes in fuzz_lanes]
        for cut in packet_cuts:
            data = case.packet()[:cut]
            tag = "full" if cut is None else f"cut{cut}"
            port = case.ingress_port
            out[f"fuzz/{FUZZ_RUN_SEED}/{i}/{tag}/oracle"] = _oracle_sha(
                program, data, port, MapStore(*setup), trace)
            for lanes, vliw in zip(fuzz_lanes, vliws):
                out[f"fuzz/{FUZZ_RUN_SEED}/{i}/{tag}/lanes{lanes}"] = _vliw_sha(
                    vliw, data, port, MapStore(*setup), trace)
    return out


def engine_digests() -> dict[str, str]:
    return _digests(CORPUS_LANES, FUZZ_CASES, FUZZ_LANES, (None, CUT), False)


def wide_digests() -> dict[str, str]:
    out = {}
    for trace in (False, True):
        digests = _digests(WIDE_CORPUS_LANES, WIDE_FUZZ_CASES, WIDE_FUZZ_LANES,
                           (None, CUT, 0), trace)
        out.update((f"{name}{'/traced' if trace else ''}", sha)
                   for name, sha in digests.items())
    return out


def _read_golden() -> dict[str, str]:
    pairs = (line.split() for line in GOLDEN.read_text().splitlines() if line)
    return {name: sha for name, sha in pairs}


def test_engine_digests_match_golden():
    golden = _read_golden()
    current = engine_digests()
    assert sorted(current) == sorted(golden), \
        "entry set differs from the golden file"
    moved = [name for name in current if current[name] != golden[name]]
    assert not moved, f"{len(moved)} engine results changed: {moved[:10]}"


def _listing(digests: dict[str, str]) -> str:
    return "".join(f"{name} {sha}\n" for name, sha in digests.items())


if __name__ == "__main__":
    if sys.argv[1:] == ["--write"]:
        GOLDEN.write_text(_listing(engine_digests()))
    elif sys.argv[1:] == ["--wide"]:
        print(_listing(wide_digests()), end="")
    else:
        sys.exit("usage: test_engine_digests.py --write | --wide")
