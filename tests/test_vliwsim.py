"""Row-by-row simulator: semantics, cycle accounting, hazard validation."""

import pytest

from xvliw.asm import parse_asm
from xvliw.compiler import compile_program
from xvliw.errors import RowConflict
from xvliw.isa import Instruction, Kind
from xvliw.schedule import Slot, VliwProgram, parse_dump
from xvliw.vliwsim import PIPELINE_DEPTH, exec_vliw, hazard_check, measure_ipc
from xvliw.vm import (
    MapStore,
    PacketContext,
    XDP_DROP,
    XDP_PASS,
    exec_sequential,
)


def row(*instrs, lanes=4, block=0, base_index=0):
    slots = [None] * lanes
    for i, ins in enumerate(instrs):
        if ins is not None:
            slots[i] = Slot(ins, block, base_index + i)
    return slots


def vliw_of(rows, lanes=4):
    return VliwProgram(lane_count=lanes, rows=rows,
                       row_block=[0] * len(rows))


def run(vliw, packet=b"\x00" * 64, maps=None):
    return exec_vliw(vliw, PacketContext(packet), maps or MapStore())


class TestExecution:
    def test_single_early_exit_row(self):
        v = vliw_of([row(Instruction(Kind.EARLY_EXIT, imm=2))])
        rep, _ = run(v)
        assert rep.result.action == XDP_PASS
        assert rep.rows_executed == 1
        assert rep.cycles == 1

    def test_parallel_branch_priority(self):
        # both branches taken: the lower lane index wins
        br1 = Instruction(Kind.BRANCH, op="jeq", dst=3, imm=0, target=1)
        br2 = Instruction(Kind.BRANCH, op="jeq", dst=4, imm=0, target=2)
        rows = [
            [Slot(br1, 0, 0), None, Slot(br2, 0, 1), None],
            row(Instruction(Kind.EARLY_EXIT, imm=1)),
            row(Instruction(Kind.EARLY_EXIT, imm=2)),
        ]
        rep, _ = run(vliw_of(rows))
        assert rep.result.action == XDP_DROP          # lane 0's target
        assert "taken=lane0" in rep.trace_lines[0]

    def test_row_atomicity_swap(self):
        # r2 = r3 and r3 = r2 in one row read the pre-row state: a swap
        pre = [Instruction(Kind.MOV_IMM, width=64, dst=2, imm=11),
               Instruction(Kind.MOV_IMM, width=64, dst=3, imm=22)]
        swap = [Instruction(Kind.MOV_REG, width=64, dst=2, src=3),
                Instruction(Kind.MOV_REG, width=64, dst=3, src=2)]
        rows = [row(*pre), [None] * 4, row(*swap),
                row(Instruction(Kind.EXIT))]
        rep, state = run(vliw_of(rows))
        assert state.regs[2] == 22 and state.regs[3] == 11

    def test_row_conflict_detected(self):
        rows = [row(Instruction(Kind.MOV_IMM, width=64, dst=2, imm=1),
                    Instruction(Kind.MOV_IMM, width=64, dst=2, imm=2)),
                row(Instruction(Kind.EXIT))]
        rep, _ = run(vliw_of(rows))
        assert rep.result.trapped and "two lanes write" in rep.result.trap

    def test_cycle_monotone_in_empty_rows(self):
        base = [row(Instruction(Kind.MOV_IMM, width=64, dst=0, imm=2)),
                row(Instruction(Kind.EXIT))]
        rep1, _ = run(vliw_of(base))
        padded = [base[0], [None] * 4, base[1]]
        rep2, _ = run(vliw_of(padded))
        assert rep2.cycles == rep1.cycles + 1
        assert rep2.rows_executed == rep1.rows_executed + 1

    def test_drain_cycles_and_early_recognition(self):
        # mov r0 immediately before a bare exit: full drain
        v = vliw_of([row(Instruction(Kind.MOV_IMM, width=64, dst=0, imm=2)),
                     row(Instruction(Kind.EXIT))])
        rep, _ = run(v)
        assert rep.cycles == 2 + PIPELINE_DEPTH - 1
        # the fused form saves the drain and the mov row
        v2 = vliw_of([row(Instruction(Kind.EARLY_EXIT, imm=2))])
        rep2, _ = run(v2)
        assert rep2.cycles == 1
        assert rep.cycles - rep2.cycles == PIPELINE_DEPTH
        # a bare exit with r0 written long before also stops at fetch
        filler = [row(Instruction(Kind.ALU_BINARY, op="add", width=64,
                                  dst=3, imm=1)) for _ in range(4)]
        v3 = vliw_of([row(Instruction(Kind.MOV_IMM, width=64, dst=0, imm=2))]
                     + filler + [row(Instruction(Kind.EXIT))])
        rep3, _ = run(v3)
        assert rep3.cycles == rep3.rows_executed

    def test_differential_against_oracle_on_corpus(self):
        from xvliw.corpus import CORPUS
        from xvliw.fuzz import compare_results
        for entry in CORPUS.values():
            prog = parse_asm(entry.source)
            vliw, _ = compile_program(prog)
            o_maps, v_maps = MapStore(prog.maps), MapStore(prog.maps)
            for mid, k, v in entry.map_init:
                o_maps.init_entry(mid, bytes.fromhex(k), bytes.fromhex(v))
                v_maps.init_entry(mid, bytes.fromhex(k), bytes.fromhex(v))
            for data, port in entry.packet_bytes():
                o, _ = exec_sequential(prog, PacketContext(data, 64, port),
                                       o_maps)
                r, _ = exec_vliw(vliw, PacketContext(data, 64, port), v_maps)
                ok, detail = compare_results(o, r.result)
                assert ok, (entry.name, detail)


class TestHazardCheck:
    def test_compiler_output_clean(self):
        from xvliw.corpus import CORPUS
        for entry in CORPUS.values():
            vliw, _ = compile_program(parse_asm(entry.source))
            assert hazard_check(vliw) == [], entry.name

    def test_cross_lane_back_to_back_raw(self):
        rows = [row(Instruction(Kind.MOV_IMM, width=64, dst=2, imm=1)),
                [None, Slot(Instruction(Kind.MOV_REG, width=64, dst=3, src=2),
                            0, 1), None, None],
                row(Instruction(Kind.EXIT))]
        violations = hazard_check(vliw_of(rows))
        assert len(violations) == 1
        assert "cross-lane back-to-back" in violations[0]

    def test_same_lane_back_to_back_ok(self):
        rows = [row(Instruction(Kind.MOV_IMM, width=64, dst=2, imm=1)),
                row(Instruction(Kind.MOV_REG, width=64, dst=3, src=2)),
                row(Instruction(Kind.EXIT))]
        assert hazard_check(vliw_of(rows)) == []

    def test_two_helpers_in_a_row(self):
        rows = [row(Instruction(Kind.CALL, imm=1),
                    Instruction(Kind.CALL, imm=28)),
                row(Instruction(Kind.EXIT))]
        violations = hazard_check(vliw_of(rows))
        assert any("helper calls" in v for v in violations)
        assert any("parallelizability" in v for v in violations)

    def test_bernstein_violation_in_row(self):
        rows = [row(Instruction(Kind.MOV_IMM, width=64, dst=2, imm=1),
                    Instruction(Kind.MOV_REG, width=64, dst=3, src=2)),
                row(Instruction(Kind.EXIT))]
        violations = hazard_check(vliw_of(rows))
        assert any("parallelizability" in v for v in violations)

    def test_branch_order_violation(self):
        br1 = Instruction(Kind.BRANCH, op="jeq", dst=3, imm=0, target=1)
        br2 = Instruction(Kind.BRANCH, op="jeq", dst=4, imm=0, target=1)
        rows = [[Slot(br2, 0, 5), Slot(br1, 0, 4), None, None],
                row(Instruction(Kind.EXIT))]
        violations = hazard_check(vliw_of(rows))
        assert any("original order" in v for v in violations)

    def test_branch_target_range(self):
        rows = [row(Instruction(Kind.JUMP_ALWAYS, target=9)),
                row(Instruction(Kind.EXIT))]
        violations = hazard_check(vliw_of(rows))
        assert any("target out of range" in v for v in violations)


class TestMeasureIpc:
    def test_fully_packed(self):
        ops = [Instruction(Kind.ALU_BINARY, op="add", width=64, dst=d, imm=1)
               for d in (2, 3, 4, 5)]
        v = vliw_of([row(*ops), row(Instruction(Kind.EARLY_EXIT, imm=1))])
        static, dynamic = measure_ipc(v, [b"\x00" * 64])
        assert static == pytest.approx((4 + 1) / 2)
        assert dynamic == pytest.approx((4 + 1) / 2)

    def test_one_per_row(self):
        rows = [row(Instruction(Kind.ALU_BINARY, op="add", width=64, dst=2,
                                imm=1)),
                row(Instruction(Kind.EARLY_EXIT, imm=1))]
        v = vliw_of(rows)
        assert v.static_ipc == 1.0
        _, dynamic = measure_ipc(v, [b"\x00" * 64])
        assert dynamic == 1.0

    def test_firewall_dynamic_ipc_band(self):
        from xvliw.corpus import CORPUS
        entry = CORPUS["simple_firewall"]
        prog = parse_asm(entry.source)
        vliw, _ = compile_program(prog)
        maps = MapStore(prog.maps)
        static, dynamic = measure_ipc(
            vliw, [(bytes.fromhex(h), port) for h, port in entry.packets],
            maps)
        assert 1.5 <= dynamic <= 3.5


class TestDumpRoundTrip:
    def test_dump_parse_execute(self):
        prog = parse_asm("r4 = r1\nr4 += 20\nr0 = 1\nexit\n")
        vliw, _ = compile_program(prog)
        text = vliw.dump()
        again = parse_dump(text)
        assert again.lane_count == vliw.lane_count
        assert again.row_count == vliw.row_count
        r1, _ = run(vliw)
        r2, _ = run(again)
        assert r1.result.action == r2.result.action
        assert r1.cycles == r2.cycles

    def test_hand_edited_dump_detected(self):
        text = ("# xvliw schedule lanes=4\n"
                "r2 = 1 | --- | --- | ---\n"
                "--- | r3 = r2 | --- | ---\n"
                "exit | --- | --- | ---\n")
        v = parse_dump(text)
        violations = hazard_check(v)
        assert any("cross-lane" in x for x in violations)
