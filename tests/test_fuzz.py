"""Fuzzer determinism and short differential sweeps (the full 10k-case run
lives in the acceptance suite)."""

import hashlib

import pytest

from xvliw.asm import parse_asm
from xvliw.compiler import compile_program
from xvliw.formats import parse_map_config
from xvliw.corpus import CORPUS
from xvliw.fuzz import (
    HEAD_ROOM,
    LIMITS,
    FuzzCase,
    case_seed,
    compare_results,
    fuzz,
    generate_case,
    minimize,
    run_case,
)
from xvliw.peephole import peephole, remove_boundary_checks
from xvliw.schedule import LaneConstraints
from xvliw.vliwsim import exec_vliw
from xvliw.vm import MapStore, PacketContext, exec_sequential


def test_generator_deterministic():
    a = generate_case(123456)
    b = generate_case(123456)
    assert a.program_text == b.program_text
    assert a.packet_hex == b.packet_hex
    assert a.map_config == b.map_config
    assert a.ingress_port == b.ingress_port


def test_generated_case_stream_is_pinned():
    """Cases 0-999 of run seed 20260810 stay exactly as generated (their
    program_text, packet_hex, ingress_port and map_config, each followed by
    a NUL byte): a change to the generator changes what the 10k-case
    differential run covers."""
    h = hashlib.sha256()
    for i in range(1000):
        case = generate_case(case_seed(20260810, i))
        for part in (case.program_text, case.packet_hex,
                     str(case.ingress_port), case.map_config):
            h.update(part.encode() + b"\0")
    assert h.hexdigest() == \
        "ff24be6022d528ac4c5a9780b00af1d4f31fd70dbb9ff36081997d08e3b31c82"


def test_case_sequence_deterministic():
    seq1 = [case_seed(5, i) for i in range(20)]
    seq2 = [case_seed(5, i) for i in range(20)]
    assert seq1 == seq2
    assert len(set(seq1)) == 20


def test_generated_programs_use_interesting_features():
    kinds = set()
    for i in range(60):
        text = generate_case(case_seed(31, i)).program_text
        if "call map_lookup" in text:
            kinds.add("lookup")
        if "call map_update" in text:
            kinds.add("update")
        if "call adjust_head" in text:
            kinds.add("adjust")
        if "call csum_diff" in text:
            kinds.add("csum")
        if "u48" in text:
            kinds.add("wide")
        if "goto abort" in text:
            kinds.add("bounds")
        if "goto L" in text:
            kinds.add("branch")
    assert {"lookup", "update", "adjust", "csum", "wide", "bounds",
            "branch"} <= kinds


def test_short_sweep_all_passes():
    summary = fuzz(200, seed=1, minimize_failures=False)
    assert summary.ok, [d.detail for d in summary.divergences]


def test_sweep_with_peephole_disabled():
    passes = {name: False for name in
              ("boundary_checks", "zeroing", "three_operand",
               "load_store_6b", "early_exit")}
    summary = fuzz(120, seed=2, passes=passes, minimize_failures=False)
    assert summary.ok


def test_sweep_without_code_motion():
    summary = fuzz(120, seed=3, enable_code_motion=False,
                   minimize_failures=False)
    assert summary.ok


def test_sweep_two_lanes():
    summary = fuzz(100, seed=4, lanes=2, minimize_failures=False)
    assert summary.ok


# Case seeds that once diverged; every newly found divergence joins this
# list so the fast suite replays it, at every lane count.
KNOWN_DIVERGENT_SEEDS = (
    2882299465595,    # run seed 20260810: two renames picked the same register
    17337180854795,   # run seed 20260810: both arms of a diamond hoisted a
                      # write of r9 above the branch (lanes 2-8)
)


@pytest.mark.parametrize("lanes", range(1, 9))
@pytest.mark.parametrize("seed", KNOWN_DIVERGENT_SEEDS)
def test_known_divergent_seed_replays_equal(seed, lanes):
    ok, detail = run_case(generate_case(seed), lanes=lanes)
    assert ok, f"seed {seed} at {lanes} lanes: {detail}"


def test_reduced_count_excludes_unreachable_instructions():
    # boundary-check removal leaves `abort:`'s early_exit unreachable; the
    # report counts only the 12 reachable instructions, all scheduled
    from xvliw.asm import parse_asm
    from xvliw.compiler import compile_program
    from xvliw.schedule import LaneConstraints

    program = parse_asm(generate_case(82473490673826).program_text)
    vliw, report = compile_program(program, LaneConstraints(lanes=4))
    assert report.after_reduction_count == 12
    assert report.after_reduction_count == vliw.instruction_count
    assert report.after_reduction_count <= vliw.row_count * 4


def test_replay_is_identical():
    case = generate_case(case_seed(9, 17))
    ok1, d1 = run_case(case)
    ok2, d2 = run_case(case)
    assert (ok1, d1) == (ok2, d2)


def test_minimize_keeps_passing_case_intact():
    case = generate_case(case_seed(9, 3))
    assert minimize(case) == case.program_text


def test_minimize_shrinks_synthetic_divergence():
    # a case that the toolchain rejects (r10 write) minimizes to the culprit
    bad = FuzzCase(0, "  r3 += 1\n  r4 += 2\n  r10 = 5\n  exit\n",
                   "00" * 64, 0, "")
    mini = minimize(bad)
    lines = [l.strip() for l in mini.splitlines() if l.strip()]
    assert "r10 = 5" in lines
    assert len(lines) <= 2


def test_compare_results_reports_fields():
    from xvliw.vm import XdpResult
    a = XdpResult(2, 2, b"aa", {1: {b"k": b"v"}})
    b = XdpResult(2, 2, b"aa", {1: {b"k": b"v"}})
    ok, detail = compare_results(a, b)
    assert ok and detail == "equal"
    c = XdpResult(1, 1, b"ab", {1: {b"k": b"x"}})
    ok, detail = compare_results(a, c)
    assert not ok
    assert "action" in detail and "packet" in detail and "map" in detail


def test_short_packets_reduced_program_against_the_schedule():
    """Short packets, leg 2: the peephole's output under the oracle against
    the compiled schedule, equal by ``compare_results``, on fuzz cases
    0-199 of run seed 777001 with packets cut to 14 and 33 bytes and kept
    whole, at lanes 1, 2, 4 and 8. The cut packets make loads trap in the
    middle of a row, where a row's earlier lanes have already run."""
    lanes = (1, 2, 4, 8)
    divergent, vliw_traps = [], 0
    for i in range(200):
        case = generate_case(case_seed(777001, i))
        program = parse_asm(case.program_text)
        reduced, _ = peephole(program)
        setup = parse_map_config(case.map_config)
        vliws = [compile_program(program, LaneConstraints(lanes=n))[0]
                 for n in lanes]
        for cut in (14, 33, None):
            data = case.packet()[:cut]
            oracle, _ = exec_sequential(
                reduced, PacketContext(data, HEAD_ROOM, case.ingress_port),
                MapStore(*setup), LIMITS)
            for n, vliw in zip(lanes, vliws):
                rep, _ = exec_vliw(
                    vliw, PacketContext(data, HEAD_ROOM, case.ingress_port),
                    MapStore(*setup), LIMITS)
                vliw_traps += rep.result.trapped
                ok, detail = compare_results(oracle, rep.result)
                if not ok:
                    divergent.append((i, cut, n, detail))
    assert not divergent, divergent[:5]
    assert vliw_traps > 0


def _leg_one(program, data, port, setup):
    """How the oracle runs of ``program`` and of its peephole output on
    ``data`` relate: "equal"; "completes" or "traps" when the source took
    the abort branch of a check ``remove_boundary_checks`` removed and the
    reduced run then runs to the end or traps on a packet access; else
    None."""
    reduced, _ = peephole(program)
    aborts = {(w[-1], program[w[-1]].target)
              for w in remove_boundary_checks(program)[1]}
    source, _ = exec_sequential(program, PacketContext(data, HEAD_ROOM, port),
                                MapStore(*setup), LIMITS, trace=True)
    out, _ = exec_sequential(reduced, PacketContext(data, HEAD_ROOM, port),
                             MapStore(*setup), LIMITS)
    if compare_results(source, out)[0]:
        return "equal"
    if not aborts & set(zip(source.trace, source.trace[1:])):
        return None
    if not out.trapped:
        return "completes"
    return "traps" if "outside packet bounds" in out.trap else None


def test_short_packets_source_against_the_reduced_program():
    """Short packets, leg 1: the source against its peephole output, both
    under the oracle, on fuzz cases 0-199 of run seed 777001 with packets
    cut to 14 and 33 bytes, and on ``tx_mac_swap`` with a 12-byte packet
    (it checks 14 bytes and touches 12). The runs are equal, or the source
    took the abort branch of a removed bounds check and the reduced program
    runs to the end or traps on a packet access, which the paper leaves to
    the hardware bounds check. Any other outcome is a divergence."""
    runs = []
    for i in range(200):
        case = generate_case(case_seed(777001, i))
        program = parse_asm(case.program_text)
        setup = parse_map_config(case.map_config)
        for cut in (14, 33):
            runs.append((i, cut, program, case.packet()[:cut],
                         case.ingress_port, setup))
    data, port = CORPUS["tx_mac_swap"].packet_bytes()[0]
    runs.append(("tx_mac_swap", 12, parse_asm(CORPUS["tx_mac_swap"].source),
                 data[:12], port, ()))
    outcomes = {}
    for name, cut, program, data, port, setup in runs:
        outcomes[name, cut] = _leg_one(program, data, port, setup)
    outside = [key for key, kind in outcomes.items() if kind is None]
    assert not outside, outside[:5]
    assert outcomes["tx_mac_swap", 12] == "completes"
    assert {"equal", "completes", "traps"} <= set(outcomes.values())
