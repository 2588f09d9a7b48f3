"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines
(the fuzz criterion takes a couple of minutes; everything else is fast).
"""

import itertools
import time

from conftest import brute_force_min_rows, clone_state, expand_extended, \
    make_state, n_checks, point_into_packet, run_step
from xvliw.asm import parse_asm
from xvliw.compiler import compile_program
from xvliw.corpus import CORPUS
from xvliw.fuzz import case_seed, fuzz, generate_case
from xvliw.isa import SYM_PKT, Instruction, Kind
from xvliw.peephole import remove_boundary_checks
from xvliw.schedule import LaneConstraints
from xvliw.vliwsim import exec_vliw, hazard_check
from xvliw.vm import MapStore, PacketContext


def _verdict(num, ok, text):
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {num}: {text}"


def test_criterion_1_differential_soundness():
    """10,000 fuzzed cases at 4 lanes, all passes on, 100% equivalence."""
    summary = fuzz(10_000, seed=20260810, lanes=4, minimize_failures=True)
    detail = (f"{summary.iterations} cases, "
              f"{len(summary.divergences)} divergences, "
              f"{summary.elapsed:.0f}s")
    for d in summary.divergences[:3]:
        print(f"  divergence seed={d.case.seed}: {d.detail}")
        if d.minimized:
            print("  minimized:\n" + d.minimized)
    _verdict(1, summary.ok and summary.elapsed < 300, detail)


def test_criterion_2_schedule_validity():
    """hazard_check is empty on every compiled corpus and fuzz output.

    Fuzz outputs are covered twice: criterion 1's runner hazard-checks all
    10k compilations, and this criterion revalidates a 500-case sample
    plus every corpus entry at several lane widths."""
    bad = []
    for name, entry in CORPUS.items():
        for lanes in (2, 3, 4, 8):
            vliw, _ = compile_program(parse_asm(entry.source),
                                      LaneConstraints(lanes=lanes))
            v = hazard_check(vliw)
            if v:
                bad.append((name, lanes, v[:2]))
    for i in range(500):
        case = generate_case(case_seed(4242, i))
        vliw, _ = compile_program(parse_asm(case.program_text))
        v = hazard_check(vliw)
        if v:
            bad.append((case.seed, 4, v[:2]))
    _verdict(2, not bad,
             f"{len(CORPUS)} corpus entries x 4 lane widths + 500 fuzz "
             f"programs, violations: {bad[:3] if bad else 'none'}")


def test_criterion_3_listing_fidelity():
    """The two compressed-opcode listings compile to exactly one extended
    instruction each, golden-file checked."""
    vliw, rep = compile_program(parse_asm("r4 = r1\nr4 += 20\nr0 = 1\nexit\n"))
    slots = [s.instr for row in vliw.rows for s in row if s is not None]
    alu3 = [i for i in slots if i.kind is Kind.ALU_THREE_OP]
    ok1 = (rep.pass_deltas["three_operand"] == 1 and len(alu3) == 1
           and (alu3[0].dst, alu3[0].src, alu3[0].imm) == (4, 1, 20))

    vliw2, rep2 = compile_program(parse_asm("r0 = 1\nexit\n"))
    slots2 = [s.instr for row in vliw2.rows for s in row if s is not None]
    ok2 = (len(slots2) == 1 and slots2[0].kind is Kind.EARLY_EXIT
           and slots2[0].imm == 1)

    import pathlib
    golden_dir = pathlib.Path(__file__).parent / "golden"
    ok3 = (vliw.dump() == (golden_dir / "mov_add_listing.golden").read_text()
           and vliw2.dump() ==
           (golden_dir / "early_exit_listing.golden").read_text())
    _verdict(3, ok1 and ok2 and ok3,
             "mov+alu -> one three-operand op; mov r0+exit -> one "
             "parametrized exit; dumps match golden files")


def test_criterion_4_boundary_check_arithmetic():
    """k matched header checks shrink the program by exactly 3k."""
    results = []
    for k in (1, 2, 3):
        lines = ["  r2 = *(u32 *)(r1 + 0)", "  r3 = *(u32 *)(r1 + 4)"]
        for i in range(k):
            lines += ["  r4 = r2", f"  r4 += {14 + 20 * i}",
                      "  if r4 > r3 goto drop",
                      f"  r5 = *(u8 *)(r2 + {i})"]
        lines += ["  r0 = 2", "  exit", "drop:", "  r0 = 1", "  exit"]
        prog = parse_asm("\n".join(lines) + "\n")
        out, _ = remove_boundary_checks(prog)
        results.append(len(prog) - len(out) == 3 * k)
    fw = parse_asm(CORPUS["simple_firewall"].source)
    out, removed = remove_boundary_checks(fw)
    results.append(len(fw) - len(out) == 9 and len(removed) == 3)
    _verdict(4, all(results),
             "k=1,2,3 synthetic checks shrink by 3k; the firewall's three "
             "header checks remove exactly 9 instructions")


def test_criterion_5_n_checks_formula():
    ok = (n_checks(2) == 3 and n_checks(4) == 18
          and all(n_checks(n) == 3 * n * (n - 1) // 2 for n in range(1, 65)))
    _verdict(5, ok, "n_checks(2)=3, n_checks(4)=18, exact 3*N(N-1)/2 growth "
                    "through N=64")


def test_criterion_6_lane_sweep_shape():
    """Rows non-increasing for lanes 2..8 on every corpus entry; the
    qualitative gain distribution is reported, not asserted."""
    monotone = True
    gain_report = []
    for name, entry in CORPUS.items():
        prog = parse_asm(entry.source)
        rows = {}
        for lanes in range(2, 9):
            _, rep = compile_program(prog, LaneConstraints(lanes=lanes))
            rows[lanes] = rep.vliw_rows
        seq = [rows[n] for n in range(2, 9)]
        if any(b > a for a, b in zip(seq, seq[1:])):
            monotone = False
        gains = {n: rows[n - 1] - rows[n] for n in range(3, 9)}
        low = sum(g for n, g in gains.items() if n <= 3)
        at4 = gains[4]
        beyond = sum(g for n, g in gains.items() if n > 4)
        gain_report.append(f"{name}: rows {seq}, gain<=3 lanes {low}, "
                           f"at 4 {at4}, beyond {beyond}")
    for line in gain_report:
        print("  " + line)
    _verdict(6, monotone, "rows(L) non-increasing for L=2..8 on all "
                          f"{len(CORPUS)} corpus entries")


def test_criterion_7_ipc_plausibility():
    from test_vliwsim import mean_dynamic_ipc

    entry = CORPUS["simple_firewall"]
    prog = parse_asm(entry.source)
    vliw, _ = compile_program(prog)
    dynamic = mean_dynamic_ipc(
        vliw, [(bytes.fromhex(h), p) for h, p in entry.packets],
        MapStore(prog.maps))
    ok = 1.5 <= dynamic <= 3.5
    _verdict(7, ok, f"simple firewall dynamic IPC {dynamic:.2f} in "
                    f"[1.5, 3.5] (reference point 2.66), static "
                    f"{vliw.static_ipc:.2f}")


def test_criterion_8_cycle_model():
    """Fusing (mov r0, k; exit) into a parametrized exit saves exactly
    3 + saved-rows cycles, on three constructed programs."""
    programs = [
        "r0 = 1\nexit\n",
        # body ops keep the mov row shared: rows may not shrink at all
        "r3 += 1\nr4 += 2\nr5 += 3\nr0 = 2\nexit\n",
        # a longer single-path body
        "\n".join(f"  r{2 + (i % 7)} += {i}" for i in range(10))
        + "\nr0 = 3\nexit\n",
    ]
    ok = True
    details = []
    for src in programs:
        prog = parse_asm(src)
        off, _ = compile_program(prog, passes={"early_exit": False})
        on, _ = compile_program(prog)
        pkt = b"\x00" * 64
        r_off, _ = exec_vliw(off, PacketContext(pkt), MapStore())
        r_on, _ = exec_vliw(on, PacketContext(pkt), MapStore())
        saved_rows = r_off.rows_executed - r_on.rows_executed
        delta = r_off.cycles - r_on.cycles
        details.append(f"{delta}=3+{saved_rows}")
        if delta != 3 + saved_rows:
            ok = False
    _verdict(8, ok, "cycle deltas " + ", ".join(details) +
             " across the three constructed programs")


def test_criterion_9_micro_optimality():
    """All dependence graphs with up to 6 nodes (every edge subset over
    ordered pairs, read-after-write kinds): greedy list scheduling lands
    within one row of the exhaustive optimum."""
    from test_scheduler import _schedule_synthetic

    t0 = time.monotonic()
    checked = 0
    worst = 0
    failures = []
    for n in range(1, 7):
        pairs = list(itertools.combinations(range(n), 2))
        for bits in range(2 ** len(pairs)):
            edges = {pairs[k]: frozenset({"RAW"})
                     for k in range(len(pairs)) if bits >> k & 1}
            rows = _schedule_synthetic(n, edges)
            best = brute_force_min_rows(n, edges, 4)
            gap = rows - best
            worst = max(worst, gap)
            if gap > 1:
                failures.append((n, bits, rows, best))
            checked += 1
    _verdict(9, not failures,
             f"{checked} dependence graphs (all with <= 6 nodes), worst "
             f"gap {worst} row(s), {time.monotonic() - t0:.0f}s"
             + (f"; failures {failures[:3]}" if failures else ""))


def test_criterion_10_extended_isa_equivalence(rng):
    """1,000 randomized-state runs per extended instruction against its
    base-set expansion, bit-exact outside the declared scratch."""
    cases = [
        ("alu3 reg", Instruction(Kind.ALU_THREE_OP, op="add", width=64,
                                 dst=4, src=1, src2=5)),
        ("alu3 imm", Instruction(Kind.ALU_THREE_OP, op="xor", width=64,
                                 dst=4, src=1, imm=-9)),
        ("load48", Instruction(Kind.LOAD48, width=6, dst=3, src=7, offset=4,
                               region=SYM_PKT)),
        ("store48", Instruction(Kind.STORE48, width=6, dst=7, src=3, offset=4,
                                region=SYM_PKT)),
        ("early_exit", Instruction(Kind.EARLY_EXIT, imm=2)),
    ]
    mismatches = []
    for name, ins in cases:
        used = {ins.dst, ins.src, ins.src2}
        scratch = next(r for r in (9, 8, 6) if r not in used)
        seq, clobbered = expand_extended(ins, scratch)
        for trial in range(1000):
            base = make_state(rng)
            if ins.region == SYM_PKT:
                reg = ins.dst if ins.kind is Kind.STORE48 else ins.src
                point_into_packet(base, reg, rng, span=32)
            s1, s2 = clone_state(base), clone_state(base)
            run_step(s1, ins)
            for step in seq:
                run_step(s2, step)
            regs_ok = all(s1.regs[r] == s2.regs[r]
                          for r in range(11) if r not in clobbered)
            if not (regs_ok and s1.stack == s2.stack
                    and s1.packet.buf == s2.packet.buf):
                mismatches.append((name, trial))
                break
    _verdict(10, not mismatches,
             f"5 extended instructions x 1000 randomized states, "
             f"mismatches: {mismatches or 'none'}")
