"""Row-by-row simulator: semantics, cycle accounting, hazard validation."""

import pytest

from conftest import corpus_stores
from xvliw.asm import parse_asm
from xvliw.compiler import compile_program
from xvliw.errors import AsmSyntaxError, ProgramError
from xvliw.isa import Instruction, Kind, Program
from xvliw.schedule import Slot, VliwProgram, parse_dump
from xvliw.vliwsim import PIPELINE_DEPTH, exec_vliw, hazard_check
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


def run(vliw, packet=b"\x00" * 64, maps=None, trace=False):
    return exec_vliw(vliw, PacketContext(packet), maps or MapStore(),
                     trace=trace)


def mean_dynamic_ipc(vliw, packets, maps=None):
    """Mean dynamic IPC over ``packets``, (bytes, ingress port) pairs run
    in order; maps persist across them, as across real executions."""
    maps = maps if maps is not None else MapStore(vliw.maps)
    ipcs = [exec_vliw(vliw, PacketContext(data, 64, port), maps)[0].dynamic_ipc
            for data, port in packets]
    return sum(ipcs) / len(ipcs)


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
        rep, _ = run(vliw_of(rows), trace=True)
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

    def test_overlapping_stores_trap_and_neither_lands(self):
        wide = Instruction(Kind.STORE, width=8, dst=10, imm=0x11, offset=-8)
        narrow = Instruction(Kind.STORE, width=4, dst=10, imm=0x22, offset=-4)
        apart = Instruction(Kind.STORE, width=4, dst=10, imm=0x33, offset=-12)
        of_r1 = Instruction(Kind.STORE, width=2, dst=10, src=1, offset=-6)
        for lanes in ((wide, narrow), (narrow, wide), (apart, wide, narrow),
                      (wide, of_r1)):
            rows = [row(*lanes), row(Instruction(Kind.EXIT))]
            rep, state = run(vliw_of(rows))
            assert rep.result.trapped, lanes
            assert rep.result.trap == "row 0: overlapping memory writes"
            assert state.stack == bytearray(512)      # no store landed
        rows = [row(wide, apart), row(Instruction(Kind.EXIT))]
        rep, state = run(vliw_of(rows))
        assert not rep.result.trapped
        assert state.stack[-12:] == bytes([0x33, 0, 0, 0, 0x11]) + bytes(7)

    def test_first_conflict_in_lane_order_is_reported(self):
        # a register written twice and two overlapping stores in one row:
        # lanes are checked in order, each lane's own writes once
        mov_a = Instruction(Kind.MOV_IMM, width=64, dst=2, imm=1)
        mov_b = Instruction(Kind.MOV_IMM, width=64, dst=2, imm=2)
        st_a = Instruction(Kind.STORE, width=8, dst=10, imm=1, offset=-8)
        st_b = Instruction(Kind.STORE, width=2, dst=10, imm=2, offset=-2)
        cases = [((mov_a, st_a, mov_b, st_b), "two lanes write r2"),
                 ((st_a, mov_a, st_b, mov_b), "overlapping memory writes"),
                 ((mov_a, mov_b, st_a, st_b), "two lanes write r2"),
                 ((st_a, st_b, mov_a, mov_b), "overlapping memory writes")]
        for lanes, reason in cases:
            rows = [row(*lanes), row(Instruction(Kind.EXIT))]
            rep, state = run(vliw_of(rows))
            assert rep.result.trap == f"row 0: {reason}", lanes
            assert state.regs[2] == 0 and state.stack == bytearray(512)

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
        assert rep.drain_cycles == PIPELINE_DEPTH - 1
        # the fused form saves the drain and the mov row
        v2 = vliw_of([row(Instruction(Kind.EARLY_EXIT, imm=2))])
        rep2, _ = run(v2)
        assert rep2.cycles == 1
        assert rep2.drain_cycles == 0
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
            o_maps, v_maps = corpus_stores(entry, prog, 2)
            for data, port in entry.packet_bytes():
                o, _ = exec_sequential(prog, PacketContext(data, 64, port),
                                       o_maps)
                r, _ = exec_vliw(vliw, PacketContext(data, 64, port), v_maps)
                ok, detail = compare_results(o, r.result)
                assert ok, (entry.name, detail)

    def test_same_row_helper_moves_a_store_out_of_bounds(self):
        # the store on lane 0 passes the guard when the row is evaluated;
        # adjust_head on lane 1 then moves the packet start past it, so
        # the guard at commit must trap
        load = Instruction(Kind.LOAD, width=4, dst=6, src=1, offset=0)
        delta = Instruction(Kind.MOV_IMM, width=64, dst=2, imm=8)
        store = Instruction(Kind.STORE, width=1, dst=6, imm=1)
        call = Instruction(Kind.CALL, imm=44)              # adjust_head
        tail = [row(Instruction(Kind.MOV_IMM, width=64, dst=0, imm=2)),
                row(Instruction(Kind.EXIT))]
        for rows in ([row(load, delta), row(store, call)],
                     [row(load, delta), row(call, store)]):
            rep, state = run(vliw_of(rows + tail))
            assert rep.result.trapped, rows
            assert "outside packet bounds" in rep.result.trap
            assert state.packet.buf[64] == 0         # the store never landed
        rep, _ = run(vliw_of([row(load, delta), row(store), row(call)] + tail))
        assert not rep.result.trapped and rep.result.action == XDP_PASS

    def test_same_row_map_delete_unallocates_a_store(self):
        # the store into the entry's value and map_delete of that entry
        # share a row: the store must trap, on lane 0 at commit, on
        # lane 1 when it is evaluated, and never land
        prog = parse_asm("""
        .map 1 hash 4 8 4
          *(u32 *)(r10 - 4) = 1
          r1 = map[1]
          r2 = r10
          r2 += -4
          call map_lookup
          r6 = r0
          *(u64 *)(r6 + 0) = 7
          call map_delete
          r0 = 2
          exit
        """)
        ins = prog.instructions
        store, delete = ins[6], ins[7]
        head = [row(i) for i in ins[:6]]
        tail = [row(i) for i in ins[8:]]
        for pair in ((store, delete), (delete, store)):
            maps = MapStore(prog.maps, [(1, b"\x01\0\0\0", bytes(range(8)))])
            rep, _ = run(vliw_of(head + [row(*pair)] + tail), maps=maps)
            assert rep.result.trapped, pair
            assert "unallocated map entry" in rep.result.trap
            assert maps.snapshot() == {1: {}}
            assert maps.get(1).storage == bytes(32)

    @pytest.mark.parametrize("name, source, reason", [
        ("packet end", """
          r2 = *(u32 *)(r1 + 4)
          *(u32 *)(r2 - 2) = 1
          r0 = 2
          exit
        """, "outside packet bounds"),
        ("ctx", """
          *(u32 *)(r1 + 0) = 1
          r0 = 2
          exit
        """, "context record is read-only"),
        ("stack end", """
          *(u64 *)(r10 - 4) = 1
          r0 = 2
          exit
        """, "outside stack window"),
        ("unallocated map entry", """
        .map 1 hash 4 8 4
          *(u32 *)(r10 - 4) = 1
          *(u64 *)(r10 - 16) = 5
          r1 = map[1]
          r2 = r10
          r2 += -4
          r3 = r10
          r3 += -16
          r4 = 0
          call map_update
          r1 = map[1]
          r2 = r10
          r2 += -4
          call map_lookup
          if r0 == 0 goto out
          *(u64 *)(r0 + 8) = 1
        out:
          r0 = 2
          exit
        """, "unallocated map entry"),
    ])
    def test_out_of_bounds_store_traps_in_both_engines(self, name, source,
                                                       reason):
        prog = parse_asm(source)
        vliw, _ = compile_program(prog)
        o, _ = exec_sequential(prog, PacketContext(b"\x00" * 64),
                               MapStore(prog.maps))
        rep, _ = exec_vliw(vliw, PacketContext(b"\x00" * 64),
                           MapStore(prog.maps))
        for res in (o, rep.result):
            assert res.trapped and reason in res.trap, (name, res.trap)


class TestCommitOrder:
    """A row behaves as if every lane read the pre-row state: a row in
    which a lane could see another's result keeps hardware order, and a
    row that commits its lanes as they run restores its registers when a
    later lane traps."""

    def test_helper_sees_the_pre_row_r2(self):
        prog = parse_asm("""
        .map 1 hash 4 8 4
          *(u32 *)(r10 - 4) = 1
          r1 = map[1]
          r2 = r10
          r2 += -4
          r2 = 5
          call map_lookup
          exit
        """)
        ins = prog.instructions
        rows = [row(i) for i in ins[:4]] + [row(ins[4], ins[5]), row(ins[6])]
        maps = MapStore(prog.maps, [(1, b"\x01\0\0\0", bytes(range(8)))])
        rep, state = run(vliw_of(rows), maps=maps)
        assert not rep.result.trapped, rep.result.trap
        assert state.regs[0] == maps.get(1).lookup(b"\x01\0\0\0") != 0
        assert state.regs[2] == 5

    def test_load_reads_the_pre_row_frame_bytes(self):
        store = Instruction(Kind.STORE, width=4, dst=10, src=1, offset=-8)
        load = Instruction(Kind.LOAD, width=4, dst=3, src=10, offset=-8)
        rows = [row(store, load), row(Instruction(Kind.EXIT))]
        rep, state = run(vliw_of(rows))
        assert not rep.result.trapped
        assert state.regs[3] == 0
        assert state.stack[-8:-4] == state.regs[1].to_bytes(4, "little")

    def test_a_trap_leaves_the_earlier_lanes_registers_unwritten(self):
        # the mov commits before the load runs; the load's trap undoes it
        rows = [row(Instruction(Kind.LOAD, width=4, dst=2, src=1, offset=0)),
                row(Instruction(Kind.MOV_IMM, width=64, dst=3, imm=7),
                    Instruction(Kind.LOAD, width=1, dst=4, src=2, offset=200)),
                row(Instruction(Kind.EXIT))]
        rep, state = run(vliw_of(rows), packet=b"\x00" * 20)
        assert rep.result.trapped and "outside packet bounds" in rep.result.trap
        assert state.regs[3] == 0 and state.regs[4] == 0

    def test_a_lane_after_adjust_head_sees_the_moved_bounds(self):
        # a helper acts as its lane is evaluated, so an access on a later
        # lane is located against the bounds adjust_head left, and one on
        # an earlier lane against the bounds from before the row
        load = Instruction(Kind.LOAD, width=4, dst=6, src=1, offset=0)
        call = Instruction(Kind.CALL, imm=44)              # adjust_head
        tail = [row(Instruction(Kind.MOV_IMM, width=64, dst=0, imm=2)),
                row(Instruction(Kind.EXIT))]
        grow = Instruction(Kind.MOV_IMM, width=64, dst=2, imm=-8)
        store = Instruction(Kind.STORE, width=1, dst=6, imm=1, offset=-4)
        rep, state = run(vliw_of([row(load, grow), row(call, store)] + tail))
        assert not rep.result.trapped, rep.result.trap
        assert rep.result.packet_out[4] == state.packet.buf[60] == 1
        rep, state = run(vliw_of([row(load, grow), row(store, call)] + tail))
        assert rep.result.trapped and "outside packet bounds" in rep.result.trap
        assert state.packet.buf[60] == 0
        shrink = Instruction(Kind.MOV_IMM, width=64, dst=2, imm=8)
        read = Instruction(Kind.LOAD, width=1, dst=3, src=6, offset=0)
        packet = b"\x5a" + b"\x00" * 63
        rep, state = run(vliw_of([row(load, shrink), row(call, read)] + tail),
                         packet=packet)
        assert rep.result.trapped and "outside packet bounds" in rep.result.trap
        assert state.regs[3] == 0
        rep, state = run(vliw_of([row(load, shrink), row(read, call)] + tail),
                         packet=packet)
        assert not rep.result.trapped, rep.result.trap
        assert state.regs[3] == 0x5a

    @pytest.mark.parametrize("call_lane", [1, 2])
    def test_a_row_that_traps_at_commit_writes_no_register(self, call_lane):
        # adjust_head moves the start past the byte the store located before
        # it; with the call last the row keeps hardware order and the store
        # traps at commit, after the mov's lane, and either way r7 stays 0
        load = Instruction(Kind.LOAD, width=4, dst=6, src=1, offset=0)
        shrink = Instruction(Kind.MOV_IMM, width=64, dst=2, imm=8)
        lanes = [Instruction(Kind.MOV_IMM, width=64, dst=7, imm=1),
                 Instruction(Kind.STORE, width=1, dst=6, imm=1, offset=0)]
        lanes.insert(call_lane, Instruction(Kind.CALL, imm=44))  # adjust_head
        rep, state = run(vliw_of([row(load, shrink), row(*lanes),
                                  row(Instruction(Kind.EXIT))]))
        assert rep.result.trapped and "outside packet bounds" in rep.result.trap
        assert state.regs[7] == 0

    def test_a_load_after_map_update_reads_the_new_value(self):
        prog = parse_asm("""
        .map 1 hash 4 8 4
          *(u32 *)(r10 - 4) = 1
          *(u64 *)(r10 - 16) = 9
          r1 = map[1]
          r2 = r10
          r2 += -4
          call map_lookup
          r6 = r0
          r1 = map[1]
          r2 = r10
          r2 += -4
          r3 = r10
          r3 += -16
          r4 = 0
          call map_update
          r7 = *(u64 *)(r6 + 0)
          r0 = 2
          exit
        """)
        ins = prog.instructions
        old = int.from_bytes(bytes(range(8)), "little")
        for pair, r7 in (((ins[13], ins[14]), 9), ((ins[14], ins[13]), old)):
            rows = [row(i) for i in ins[:13]] + [row(*pair)] + \
                [row(i) for i in ins[15:]]
            maps = MapStore(prog.maps, [(1, b"\x01\0\0\0", bytes(range(8)))])
            rep, state = run(vliw_of(rows), maps=maps)
            assert not rep.result.trapped, rep.result.trap
            assert state.regs[7] == r7, pair
            assert maps.snapshot() == {1: {b"\x01\0\0\0": bytes([9] + [0] * 7)}}


class TestFieldChecks:
    """Both engines refuse an instruction whose own fields are bad, even in
    a program built directly, past ``build_program`` and ``parse_dump``."""

    @pytest.mark.parametrize("bad, message", [
        (Instruction(Kind.MOV_IMM, width=64, dst=10, imm=0), "r10 is read-only"),
        (Instruction(Kind.LOAD, width=3, dst=2, src=10, offset=-4),
         "no load opcode for op None, width 3 and a register source"),
    ])
    def test_both_engines_raise_program_error(self, bad, message):
        exit_ = Instruction(Kind.EXIT)
        with pytest.raises(ProgramError, match=message):
            exec_sequential(Program((bad, exit_)), PacketContext(b"\x00" * 64),
                            MapStore())
        with pytest.raises(ProgramError, match=message):
            run(vliw_of([row(bad), row(exit_)]))


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
        assert v.static_ipc == pytest.approx((4 + 1) / 2)
        assert mean_dynamic_ipc(v, [(b"\x00" * 64, 0)]) == \
            pytest.approx((4 + 1) / 2)
        rep, _ = run(v)
        assert rep.lane_utilisation == pytest.approx((4 + 1) / (2 * 4))

    def test_one_per_row(self):
        rows = [row(Instruction(Kind.ALU_BINARY, op="add", width=64, dst=2,
                                imm=1)),
                row(Instruction(Kind.EARLY_EXIT, imm=1))]
        v = vliw_of(rows)
        assert v.static_ipc == 1.0
        assert mean_dynamic_ipc(v, [(b"\x00" * 64, 0)]) == 1.0

    def test_firewall_dynamic_ipc_band(self):
        from xvliw.corpus import CORPUS
        entry = CORPUS["simple_firewall"]
        prog = parse_asm(entry.source)
        vliw, _ = compile_program(prog)
        dynamic = mean_dynamic_ipc(
            vliw, [(bytes.fromhex(h), port) for h, port in entry.packets],
            MapStore(prog.maps))
        assert 1.5 <= dynamic <= 3.5


class TestTraceOnRequest:
    """Both engines build a trace only when asked, and then the same one
    as before traces became optional."""

    LINES = [
        "cycle    1 row    0: r2 = *(u32 *)(r1 + 0) | r3 = *(u32 *)(r1 + 4) | --- | ---",
        "cycle    2 row    1: r5 = *(u48 *)(r2 + 0) | --- | --- | ---",
        "cycle    3 row    2: r7 = *(u48 *)(r2 + 6) | --- | --- | ---",
        "cycle    4 row    3: *(u48 *)(r2 + 0) = r7 | --- | --- | ---",
        "cycle    5 row    4: *(u48 *)(r2 + 6) = r5 | early_exit 3 | --- | --- taken=lane1",
    ]

    @staticmethod
    def _runs(**kw):
        from xvliw.corpus import CORPUS
        entry = CORPUS["tx_mac_swap"]
        prog = parse_asm(entry.source)
        vliw, _ = compile_program(prog)
        data, port = entry.packet_bytes()[0]
        o, _ = exec_sequential(prog, PacketContext(data, 64, port),
                               MapStore(prog.maps), **kw)
        r, _ = exec_vliw(vliw, PacketContext(data, 64, port),
                         MapStore(prog.maps), **kw)
        return o, r

    def test_default_builds_no_trace(self):
        o, r = self._runs()
        assert o.trace is None
        assert r.trace_lines is None and r.result.trace is None

    def test_requested_trace(self):
        o, r = self._runs(trace=True)
        assert o.trace == list(range(15))
        assert r.trace_lines == self.LINES


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

    def test_a_slot_immediate_outside_32_bits_is_refused(self):
        text = "# xvliw schedule lanes=2\nr2 = 0x100000000 | ---\nexit | ---\n"
        with pytest.raises(AsmSyntaxError, match="line 2: lane 0: immediate "
                                                  "4294967296 outside 32 bits"):
            parse_dump(text)

    def test_hand_edited_dump_detected(self):
        text = ("# xvliw schedule lanes=4\n"
                "r2 = 1 | --- | --- | ---\n"
                "--- | r3 = r2 | --- | ---\n"
                "exit | --- | --- | ---\n")
        v = parse_dump(text)
        violations = hazard_check(v)
        assert any("cross-lane" in x for x in violations)
