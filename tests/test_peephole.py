"""Reduction and fusion passes; each checked for pattern coverage, guard
behaviour, and semantic preservation through the interpreter."""

import random
from collections import Counter

import pytest

import test_scheduler
import xvliw.analysis as analysis_module
import xvliw.peephole as peephole_module
from conftest import (provenance_states_dicts, reachable_instructions,
                      straight_line_source, touched_before)
from test_analysis import folded_live_after
from xvliw.analysis import (build_program_cfg, live_after, program_cfg,
                            program_liveness)
from xvliw.asm import format_asm, parse_asm
from xvliw.compiler import compile_program
from xvliw.corpus import CORPUS, names
from xvliw.fuzz import case_seed, compare_results, generate_case
from xvliw.isa import (REGISTERS, Instruction, Kind, Program, analysis_of,
                       build_program, provenance_states)
from xvliw.peephole import (
    _find_store_pair,
    _match_check,
    _match_load_pair,
    _zero_writes,
    _zeroing_target,
    fuse_early_exit,
    fuse_load_store_6b,
    fuse_three_operand,
    peephole,
    remove_boundary_checks,
    remove_zeroing,
)
from xvliw.schedule import LaneConstraints
from xvliw.vliwsim import exec_vliw, hazard_check
from xvliw.vm import MapStore, PacketContext, exec_sequential

ETH_CHECK = """
  r2 = *(u32 *)(r1 + 0)
  r3 = *(u32 *)(r1 + 4)
  r4 = r2
  r4 += 14
  if r4 > r3 goto drop
  r5 = *(u16 *)(r2 + 12)
  r0 = 2
  exit
drop:
  r0 = 1
  exit
"""


def _same_behaviour(before, after, packets=None, port=0):
    packets = packets or [bytes(range(64)), b"\xff" * 96]
    for data in packets:
        a, _ = exec_sequential(before, PacketContext(data, 64, port),
                               MapStore(before.maps))
        b, _ = exec_sequential(after, PacketContext(data, 64, port),
                               MapStore(after.maps))
        assert (a.action, a.code, a.packet_out) == (b.action, b.code,
                                                    b.packet_out)


class TestBoundaryChecks:
    def test_ethernet_check_removed(self):
        prog = parse_asm(ETH_CHECK)
        out, removed = remove_boundary_checks(prog)
        assert len(prog) - len(out) == 3
        assert len(removed) == 1 and len(removed[0]) == 3
        _same_behaviour(prog, out)

    def test_general_register_compare_untouched(self):
        prog = parse_asm("""
          r4 = r5
          r4 += 14
          if r4 > r6 goto drop
          r0 = 2
          exit
        drop:
          r0 = 1
          exit
        """)
        out, removed = remove_boundary_checks(prog)
        assert removed == [] and len(out) == len(prog)

    def test_three_header_checks_remove_nine(self):
        from xvliw.corpus import CORPUS
        prog = parse_asm(CORPUS["simple_firewall"].source)
        out, removed = remove_boundary_checks(prog)
        assert len(prog) - len(out) == 9
        assert len(removed) == 3

    def test_k_checks_shrink_3k(self):
        for k in (1, 2, 3):
            lines = ["  r2 = *(u32 *)(r1 + 0)", "  r3 = *(u32 *)(r1 + 4)"]
            for i in range(k):
                lines += [f"  r4 = r2", f"  r4 += {14 + 20 * i}",
                          "  if r4 > r3 goto drop",
                          f"  r5 = *(u8 *)(r2 + {i})"]
            lines += ["  r0 = 2", "  exit", "drop:", "  r0 = 1", "  exit"]
            prog = parse_asm("\n".join(lines) + "\n")
            out, _ = remove_boundary_checks(prog)
            assert len(prog) - len(out) == 3 * k

    def test_scratch_live_after_check_keeps_it(self):
        prog = parse_asm("""
          r2 = *(u32 *)(r1 + 0)
          r3 = *(u32 *)(r1 + 4)
          r4 = r2
          r4 += 14
          if r4 > r3 goto drop
          r0 = r4
          exit
        drop:
          r0 = 1
          exit
        """)
        out, removed = remove_boundary_checks(prog)
        assert removed == []

    def test_abort_block_shape_required(self):
        prog = parse_asm("""
          r2 = *(u32 *)(r1 + 0)
          r3 = *(u32 *)(r1 + 4)
          r4 = r2
          r4 += 14
          if r4 > r3 goto fancy
          r0 = 2
          exit
        fancy:
          r7 += 1
          r0 = 1
          exit
        """)
        out, removed = remove_boundary_checks(prog)
        assert removed == []


class TestZeroing:
    def test_entry_zero_stores_removed(self):
        prog = parse_asm("""
          *(u64 *)(r10 - 8) = 0
          *(u64 *)(r10 - 16) = 0
          *(u64 *)(r10 - 24) = 0
          *(u64 *)(r10 - 32) = 0
          r3 = *(u64 *)(r10 - 16)
          r0 = 2
          exit
        """)
        out, removed = remove_zeroing(prog)
        assert len(removed) == 4
        _same_behaviour(prog, out)

    def test_zero_store_after_read_kept(self):
        prog = parse_asm("""
          r3 = *(u64 *)(r10 - 8)
          *(u64 *)(r10 - 8) = 0
          r4 = *(u64 *)(r10 - 8)
          r0 = 2
          exit
        """)
        out, removed = remove_zeroing(prog)
        assert removed == []

    def test_zero_mov_before_overwrite_removed(self):
        prog = parse_asm("""
          r5 = r1
          r1 = 0
          r1 = *(u32 *)(r5 + 0)
          r0 = 2
          exit
        """)
        out, removed = remove_zeroing(prog)
        assert len(removed) == 1
        assert out[1].kind is Kind.LOAD
        _same_behaviour(prog, out)

    def test_nonzero_then_zero_kept(self):
        prog = parse_asm("""
          r3 = 5
          r3 = 0
          r0 = r3
          exit
        """)
        out, removed = remove_zeroing(prog)
        assert removed == []

    def test_zero_store_overwritten_before_a_memory_read_removed(self):
        """The exact store of r3 kills the zero store's bytes, although the
        helper call reads all memory after it; the zero store was once kept,
        since no store killed any part of a live ``mem`` extent."""
        source = """
          .map 1 hash 4 8 4
          *(u64 *)(r10 - 16) = r1
          *(u64 *)(r10 - 16) = 0
          r3 = 5
          *(u64 *)(r10 - 16) = r3
          r4 = 1
          *(u32 *)(r10 - 4) = r4
          r1 = map[1]
          r2 = r10
          r2 += -4
          call map_lookup
          r0 = 2
          exit
        """
        prog = parse_asm(source)
        out, removed = remove_zeroing(prog)
        assert removed == [1]
        _same_behaviour(prog, out)
        for lanes in range(1, 9):
            vliw, _ = compile_program(prog, LaneConstraints(lanes=lanes))
            assert not any(s.instr.kind is Kind.STORE and s.instr.src is None
                           and s.instr.offset == -16
                           for row in vliw.rows for s in row if s is not None)
            assert hazard_check(vliw) == []
            o, _ = exec_sequential(prog, PacketContext(bytes(64)), MapStore(prog.maps))
            v, _ = exec_vliw(vliw, PacketContext(bytes(64)), MapStore(prog.maps))
            assert compare_results(o, v.result) == (True, "equal")


class TestThreeOperand:
    def test_paper_pair(self):
        prog = parse_asm("r4 = r1\nr4 += 20\nr0 = 2\nexit\n")
        out = fuse_three_operand(prog)
        assert out[0].kind is Kind.ALU_THREE_OP
        assert (out[0].dst, out[0].src, out[0].imm) == (4, 1, 20)
        _same_behaviour(prog, out)

    def test_different_destinations_unchanged(self):
        prog = parse_asm("r4 = r1\nr5 += 20\nr0 = 2\nexit\n")
        out = fuse_three_operand(prog)
        assert len(out) == len(prog)

    def test_branch_consumer_unchanged(self):
        prog = parse_asm("""
          r4 = r1
          if r4 > r2 goto out
          r0 = 2
          exit
        out:
          r0 = 1
          exit
        """)
        out = fuse_three_operand(prog)
        assert len(out) == len(prog)
        _same_behaviour(prog, out)

    def test_register_form_and_self_source(self):
        prog = parse_asm("r4 = r1\nr4 += r5\nr0 = 2\nexit\n")
        out = fuse_three_operand(prog)
        assert out[0].src2 == 5
        _same_behaviour(prog, out)
        prog = parse_asm("r4 = r1\nr4 += r4\nr0 = 2\nexit\n")
        out = fuse_three_operand(prog)
        assert out[0].src2 == 1      # reads the moved value: r4 = r1 + r1
        _same_behaviour(prog, out)

    def test_imm_mov_commutative_only(self):
        prog = parse_asm("r4 = 20\nr4 += r1\nr0 = 2\nexit\n")
        out = fuse_three_operand(prog)
        assert out[0].kind is Kind.ALU_THREE_OP and out[0].imm == 20
        _same_behaviour(prog, out)
        prog = parse_asm("r4 = 20\nr4 -= r1\nr0 = 2\nexit\n")
        assert len(fuse_three_operand(prog)) == len(prog)

    def test_mov32_not_fused(self):
        prog = parse_asm("w4 = w1\nr4 += 20\nr0 = 2\nexit\n")
        assert len(fuse_three_operand(prog)) == len(prog)


MAC_COPY = """
  r2 = *(u32 *)(r1 + 0)
  r5 = *(u32 *)(r2 + 0)
  r6 = *(u16 *)(r2 + 4)
  *(u32 *)(r2 + 6) = r5
  *(u16 *)(r2 + 10) = r6
  r0 = 3
  exit
"""


class TestLoadStore6B:
    def test_mac_copy_idiom(self):
        prog = parse_asm(MAC_COPY)
        out = fuse_load_store_6b(prog)
        kinds = [i.kind for i in out.instructions]
        assert Kind.LOAD48 in kinds and Kind.STORE48 in kinds
        assert len(prog) - len(out) == 2
        _same_behaviour(prog, out)

    def test_two_by_four_order(self):
        prog = parse_asm("""
          r2 = *(u32 *)(r1 + 0)
          r5 = *(u16 *)(r2 + 0)
          r6 = *(u32 *)(r2 + 2)
          *(u16 *)(r2 + 20) = r5
          *(u32 *)(r2 + 22) = r6
          r0 = 3
          exit
        """)
        out = fuse_load_store_6b(prog)
        assert len(prog) - len(out) == 2
        _same_behaviour(prog, out)

    def test_eight_contiguous_bytes_unchanged(self):
        prog = parse_asm("""
          r2 = *(u32 *)(r1 + 0)
          r5 = *(u32 *)(r2 + 0)
          r6 = *(u32 *)(r2 + 4)
          *(u32 *)(r2 + 8) = r5
          *(u32 *)(r2 + 12) = r6
          r0 = 3
          exit
        """)
        assert len(fuse_load_store_6b(prog)) == len(prog)

    def test_non_contiguous_unchanged(self):
        prog = parse_asm("""
          r2 = *(u32 *)(r1 + 0)
          r5 = *(u32 *)(r2 + 0)
          r6 = *(u16 *)(r2 + 6)
          *(u32 *)(r2 + 8) = r5
          *(u16 *)(r2 + 12) = r6
          r0 = 3
          exit
        """)
        assert len(fuse_load_store_6b(prog)) == len(prog)

    def test_scratch_read_between_blocks_fusion(self):
        prog = parse_asm("""
          r2 = *(u32 *)(r1 + 0)
          r5 = *(u32 *)(r2 + 0)
          r6 = *(u16 *)(r2 + 4)
          r7 = r5
          *(u32 *)(r2 + 6) = r5
          *(u16 *)(r2 + 10) = r6
          r0 = r7
          exit
        """)
        assert len(fuse_load_store_6b(prog)) == len(prog)

    def test_scratch_live_after_blocks_fusion(self):
        prog = parse_asm("""
          r2 = *(u32 *)(r1 + 0)
          r5 = *(u32 *)(r2 + 0)
          r6 = *(u16 *)(r2 + 4)
          *(u32 *)(r2 + 6) = r5
          *(u16 *)(r2 + 10) = r6
          r0 = r6
          exit
        """)
        assert len(fuse_load_store_6b(prog)) == len(prog)


class TestEarlyExit:
    def test_imm_pair_fused(self):
        prog = parse_asm("r0 = 1\nexit\n")
        out = fuse_early_exit(prog)
        assert len(out) == 1 and out[0].kind is Kind.EARLY_EXIT
        assert out[0].imm == 1
        _same_behaviour(prog, out)

    def test_register_form_unchanged(self):
        prog = parse_asm("r0 = r6\nexit\n")
        assert len(fuse_early_exit(prog)) == len(prog)

    def test_bare_exit_unchanged(self):
        prog = parse_asm("r5 += 1\nexit\n")
        assert len(fuse_early_exit(prog)) == len(prog)


class TestDriver:
    def test_unreachable_pairs_not_fused(self):
        prog = parse_asm("r0 = 1\nexit\nr3 = r1\nr3 += 1\nr0 = 2\nexit\n")
        _, stats = peephole(prog)
        assert (stats.three_operand, stats.early_exit) == (0, 1)

    def test_no_patterns_identity(self):
        prog = parse_asm("r3 += r4\nr0 = r3\nexit\n")
        out, stats = peephole(prog)
        assert out.instructions == prog.instructions
        assert sum(stats.as_dict().values()) == 0

    def test_totals_match_individual_passes(self):
        from xvliw.corpus import CORPUS
        prog = parse_asm(CORPUS["simple_firewall"].source)
        combined, stats = peephole(prog)
        assert stats.boundary_checks == 9
        assert stats.zeroing == 4
        assert len(prog) - len(combined) == sum(stats.as_dict().values())

    def test_fixed_point_second_round_fusion(self):
        # the mov becomes adjacent to the alu only after zeroing removal
        prog = parse_asm("""
          r4 = r1
          r7 = 0
          r4 += 20
          r0 = 2
          exit
        """)
        out, stats = peephole(prog)
        assert stats.zeroing == 1
        assert stats.three_operand == 1
        assert out[0].kind is Kind.ALU_THREE_OP

    def test_toggles(self):
        prog = parse_asm("r0 = 1\nexit\n")
        out, stats = peephole(prog, {"early_exit": False})
        assert stats.early_exit == 0 and len(out) == 2

    def test_pass_soundness_individually(self, rng):
        """Each pass alone preserves oracle behaviour on generated programs."""
        from xvliw.formats import parse_map_config
        from xvliw.fuzz import generate_case
        from xvliw.peephole import PASS_NAMES
        for i in range(12):
            case = generate_case(31000 + i)
            prog = parse_asm(case.program_text)
            for name in PASS_NAMES:
                only = {n: n == name for n in PASS_NAMES}
                out, _ = peephole(prog, only)
                a, _ = exec_sequential(
                    prog, PacketContext(case.packet(), 64, case.ingress_port),
                    MapStore(*parse_map_config(case.map_config)))
                b, _ = exec_sequential(
                    out, PacketContext(case.packet(), 64, case.ingress_port),
                    MapStore(*parse_map_config(case.map_config)))
                assert (a.action, a.code, a.packet_out, a.maps_out) == \
                    (b.action, b.code, b.packet_out, b.maps_out), (i, name)


def _fact_programs():
    yield from (parse_asm(CORPUS[name].source) for name in names())
    for i in range(1000):
        yield parse_asm(generate_case(case_seed(20260810, i)).program_text)
    loops = test_scheduler.TestCodeMotion.LOOPS
    yield from (parse_asm(src) for src, _ in loops.values())
    for seed in range(4):
        yield parse_asm(straight_line_source(random.Random(seed), 150))


@pytest.fixture(scope="module")
def rewrites():
    """Every rewrite ``_apply`` makes while the peephole reduces the
    corpus, fuzz cases 0-999 of run seed 20260810, the code-motion loop
    programs and four straight-line blocks: (parent, rewritten program,
    the CFG the rewritten program's record held when ``_apply`` returned
    it, the provenance states ``_carried_states`` carried or None)."""
    real, real_states = peephole_module._apply, peephole_module._carried_states
    seen, carried = [], []

    def recording(program, changes):
        carried[:] = [None]
        out = real(program, changes)
        if out is not program:
            seen.append((program, out, out.analysis.cfg, carried[0]))
        return out

    def recording_states(*args):
        carried[0] = real_states(*args)
        return carried[0]
    peephole_module._apply = recording
    peephole_module._carried_states = recording_states
    try:
        for program in _fact_programs():
            peephole(program)
    finally:
        peephole_module._apply = real
        peephole_module._carried_states = real_states
    return seen


class TestProgramFacts:
    """The facts the peephole derives cheaply equal their reference
    computations on every program it makes."""

    def test_carried_cfg_equals_a_fresh_build(self, rewrites):
        carried = fresh = 0
        for parent, out, cfg, _ in rewrites:
            if cfg is None:
                fresh += 1
                continue
            carried += 1
            assert cfg == build_program_cfg(Program(out.instructions, out.maps))
            assert cfg.dom is program_cfg(parent).dom
        assert carried > 1000 and fresh > 100

    def test_a_removed_boundary_check_builds_its_cfg_afresh(self, rewrites):
        def branches(program):
            return sum(ins.kind is Kind.BRANCH for ins in program.instructions)
        deleted = [cfg for parent, out, cfg, _ in rewrites
                   if branches(out) < branches(parent)]
        assert len(deleted) > 50 and all(cfg is None for cfg in deleted)

    def test_carried_states_equal_a_fresh_scan(self, rewrites):
        """The main guard of the carry: a version without the replay of
        each rewritten run carried wrong lists that both digest gates
        missed."""
        carried = rescanned_loops = 0
        for parent, out, cfg, states in rewrites:
            loops = any(s <= blk.id for blk in program_cfg(parent).blocks
                        for s in blk.successors)
            if states is None:
                rescanned_loops += loops
                continue
            carried += 1
            assert cfg is not None and not loops
            assert analysis_of(out).provenance is states
            assert states == provenance_states(out.instructions)
            # every region, carried or annotated, is the one a fresh build gives
            assert build_program(out.instructions, out.maps) == out
        assert carried >= 1000 and rescanned_loops >= 1

    def test_a_join_reached_first_by_one_path_carries_exact_states(self, monkeypatch):
        """The fall-through reaches J first, with r6 the context pointer, so
        a last-in first-out scan visits J twice and keeps the packet pointer
        r7 held after the first visit, joined to ``any``, where the fused
        load48 always gives a number. The sweep visits J once, after both
        paths: the old program's r7 is a number too, and the carry exact."""
        program = parse_asm("r6 = r1\nif r2 > 0 goto L\ngoto J\nL:\nr6 = r10\n"
                            "J:\nr7 = *(u32 *)(r6 + 0)\nr8 = *(u16 *)(r6 + 4)\n"
                            "*(u32 *)(r10 - 8) = r7\n*(u16 *)(r10 - 4) = r8\n"
                            "r0 = 1\nexit\n")
        assert analysis_of(program).provenance[6][7] == ("num",)
        carried = []
        real = peephole_module._carried_states
        monkeypatch.setattr(peephole_module, "_carried_states",
                            lambda *args: carried.append(real(*args)) or carried[-1])
        program_cfg(program)
        out = fuse_load_store_6b(program)
        assert [ins.kind for ins in out.instructions[4:6]] == [Kind.LOAD48, Kind.STORE48]
        assert carried[0] is analysis_of(out).provenance
        assert carried[0] == provenance_states(out.instructions)

    def test_a_run_is_replayed_up_to_each_new_instruction(self):
        """The passes' own runs agree at every new instruction whenever
        they agree at their end; this rewrite does not. ``r5 = r1`` leaves
        r5 a context pointer where the old ``r5 = 1`` left a number, and
        ``r5 = 2`` then hides the difference from the run's end."""
        program = parse_asm("r5 = 1\nr5 = 2\nr0 = *(u32 *)(r5 + 0)\nexit\n")
        program_cfg(program)
        out = peephole_module._apply(program, {
            0: Instruction(Kind.MOV_REG, width=64, dst=5, src=1),
            1: Instruction(Kind.MOV_IMM, width=64, dst=5, imm=2)})
        assert out.analysis.cfg is not None
        assert analysis_of(out).provenance == provenance_states(out.instructions)

    def test_provenance_and_reachable_match_the_dict_scan(self, rewrites):
        programs = {id(p): p for pair in rewrites for p in pair[:2]}
        for program in programs.values():
            record = analysis_of(program)
            expected = provenance_states_dicts(program.instructions)
            assert [st and dict(enumerate(st)) for st in record.provenance] \
                == expected
            assert record.reachable == reachable_instructions(program.instructions)

    def test_virgin_decisions_match_touched_before(self, rewrites):
        programs = {id(p): p for pair in rewrites for p in pair[:2]}
        decisions = []
        for program in programs.values():
            cfg = program_cfg(program)
            touched = touched_before(program, cfg)
            expected = {}
            for blk in cfg.blocks:
                for i in blk.indices():
                    target = _zeroing_target(program[i])
                    if target:
                        expected[i] = (target, touched[i] is not None and
                                       not target & touched[i])
            got = {i: (target, virgin) for _blk, writes in _zero_writes(program, cfg)
                   for i, target, virgin in writes}
            assert got == expected
            decisions += [virgin for _target, virgin in got.values()]
        assert set(decisions) == {True, False}

    def test_live_after_skips_only_what_full_liveness_gives_empty(
            self, rewrites, monkeypatch):
        """``live_after`` computes no liveness for a question in a block
        without successors, and answers it as full liveness does."""
        def refused(program):
            raise AssertionError("liveness computed")
        programs = {id(p): p for pair in rewrites for p in pair[:2]}
        skipped = 0
        for program in programs.values():
            for _pass, blk, i, sym in _liveness_questions(program):
                if not blk.successors:
                    with monkeypatch.context() as m:
                        m.setattr(analysis_module, "program_liveness", refused)
                        live = live_after(program, blk, i, sym)
                    after = folded_live_after(program, blk, 0)
                    assert live == bool(sym & after[i])
                    skipped += 1
        assert skipped > 1000

    def test_live_after_equals_the_backward_fold(self, rewrites):
        """Every liveness question the passes ask, on every program they
        make: a zero write's register or stack target, the two scratch
        registers of a matched 6-byte pair, and a boundary check's scratch
        register. ``live_after``'s forward scan answers each as a fold of
        ``_backward_step`` from the block's full live-out set does."""
        programs = {id(p): p for pair in rewrites for p in pair[:2]}
        asked = Counter()
        for program in programs.values():
            live_out = program_liveness(program).live_out
            folds = {}
            for pass_name, blk, i, sym in _liveness_questions(program):
                if blk.id not in folds:
                    folds[blk.id] = folded_live_after(program, blk,
                                                      live_out[blk.id])
                assert live_after(program, blk, i, sym) == \
                    bool(sym & folds[blk.id][i]), \
                    (format_asm(program), i, sym)
                asked["reg" if sym <= REGISTERS else "stack"] += 1
                asked[pass_name] += 1
        assert asked["reg"] > 1000 and asked["stack"] > 1000
        assert asked["load_store_6b"] > 100 and asked["boundary_checks"] > 100


def _liveness_questions(program):
    """Each liveness question a pass may ask of ``program``, as (pass,
    block, index, mask): every zero write's target after it, the two scratch
    registers of a matched 6-byte pair after its stores, and every matched
    boundary check's scratch register after its branch."""
    instrs = program.instructions
    states = analysis_of(program).provenance
    for blk in program_cfg(program).blocks:
        for i in blk.indices():
            target = _zeroing_target(instrs[i])
            if target:
                yield "zeroing", blk, i, target
            lp = i + 1 <= blk.end and _match_load_pair(instrs, i)
            match = lp and _find_store_pair(instrs, blk, i, lp[0], lp[1])
            if match:
                yield "load_store_6b", blk, match[0] + 1, 1 << lp[0] | 1 << lp[1]
            window = _match_check(instrs, states, blk, i)
            if window is not None:
                yield "boundary_checks", blk, window[-1], \
                    1 << instrs[window[-1]].dst


class TestLivenessOnDemand:
    """The passes ask every liveness question through
    ``analysis.live_after``, which computes the program's liveness only for
    a question its block leaves open: in a block with successors, a symbol
    that the block's later instructions do not read (a register: nor write
    first). A boundary check jumping to an abort block asks at its block's
    end, so it always leaves the question open."""

    @staticmethod
    def _reduce_counting_liveness(monkeypatch, program):
        calls = []
        real = analysis_module.liveness

        def counted(*args):
            calls.append(args)
            return real(*args)
        monkeypatch.setattr(analysis_module, "liveness", counted)
        _, stats = peephole(program)
        return len(calls), stats

    def test_a_straight_line_block_computes_none(self, monkeypatch):
        program = parse_asm(straight_line_source(random.Random(901), 400))
        calls, stats = self._reduce_counting_liveness(monkeypatch, program)
        assert calls == 0 and sum(stats.as_dict().values()) > 0

    DEAD_IN_BLOCK = """
          r3 = 5
          *(u64 *)(r10 - 8) = r3
          r3 = 0
          r3 = 7
          if r3 > 2 goto out
          r0 = 1
          exit
        out:
          r0 = 2
          exit
    """

    def test_a_register_written_later_in_its_block_computes_none(self, monkeypatch):
        """``r3 = 0`` is not virgin and its block has successors, but the
        block writes r3 before reading it."""
        calls, stats = self._reduce_counting_liveness(
            monkeypatch, parse_asm(self.DEAD_IN_BLOCK))
        assert calls == 0 and stats.zeroing == 1

    def test_a_register_the_block_leaves_open_computes_it(self, monkeypatch):
        source = self.DEAD_IN_BLOCK.replace("r3 = 7", "r4 = 7").replace(
            "if r3 > 2", "if r4 > 2")
        calls, stats = self._reduce_counting_liveness(monkeypatch,
                                                      parse_asm(source))
        assert calls == 1 and stats.zeroing == 1

    def test_a_removed_boundary_check_computes_it(self, monkeypatch):
        program = parse_asm(CORPUS["simple_firewall"].source)
        calls, stats = self._reduce_counting_liveness(monkeypatch, program)
        assert calls >= 1 and stats.boundary_checks > 0
