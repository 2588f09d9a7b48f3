"""Registers through code motion, and the program-wide lane pass.

Nothing is renamed. The programs below once drove code motion to rename
a mover (and two of them to clobber a live value); they stay as
hazard-free, oracle-equal regressions of moves that keep their registers.
"""

import pytest

import test_scheduler
from xvliw.asm import parse_asm
from xvliw.compiler import compile_program
from xvliw.corpus import CORPUS
from xvliw.fuzz import FuzzCase, case_seed, compare_results, generate_case, run_case
from xvliw.isa import JUMP_KINDS, Kind
from xvliw.schedule import LaneConstraints, cross_lane_violations, crossings
from xvliw.vliwsim import exec_vliw, hazard_check
from xvliw.vm import MapStore, PacketContext, exec_sequential

CONFLICT = """
  r2 = *(u32 *)(r1 + 0)
  r4 = 7
  *(u64 *)(r10 - 8) = r4
  r3 = *(u32 *)(r1 + 4)
  if r2 > 100 goto b
  r5 += 1
  goto d
b:
  r5 += 2
d:
  r4 = 9
  r8 = r4 + 1
  r0 = r8
  exit
"""

CROSS_BLOCK_USE = """
  r2 = *(u32 *)(r1 + 0)
  r4 = 7
  *(u64 *)(r10 - 8) = r4
  r3 = *(u32 *)(r1 + 4)
  if r2 > 100 goto b
  r5 += 1
  goto d
b:
  r5 += 2
d:
  r4 = 9
  *(u64 *)(r10 - 16) = r4
  r0 = 2
  exit
"""


def _check_equivalence(src, lanes=4):
    prog = parse_asm(src)
    vliw, rep = compile_program(prog, LaneConstraints(lanes=lanes))
    assert hazard_check(vliw) == []
    for pkt in (bytes(64), bytes([200]) * 64, bytes(range(64))):
        o, _ = exec_sequential(prog, PacketContext(pkt), MapStore(prog.maps))
        v, _ = exec_vliw(vliw, PacketContext(pkt), MapStore(prog.maps))
        assert compare_results(o, v.result) == (True, "equal")
    return vliw, rep


def test_no_conflicts_identity_map():
    prog = parse_asm("r3 += 1\nr0 = 2\nexit\n")
    _, rep = compile_program(prog)
    assert rep.renames == []


def test_conflicting_writers_keep_their_registers_in_separate_rows():
    # code motion once renamed "r4 = 9" here; every writer now keeps its
    # register and no row holds two writers of one
    vliw, _ = _check_equivalence(CONFLICT)
    texts = [s.instr for row in vliw.rows for s in row if s is not None]
    assert any(i.kind is Kind.MOV_IMM and i.dst == 4 and i.imm == 9
               for i in texts)
    assert any(i.kind is Kind.ALU_THREE_OP and i.src == 4 for i in texts)
    for row in vliw.rows:
        assert not test_scheduler.writes_a_register_twice(
            s.instr for s in row if s is not None)


def test_cross_block_use_reads_the_register_its_writer_keeps():
    vliw, _ = _check_equivalence(CROSS_BLOCK_USE)
    stores = [s.instr for row in vliw.rows for s in row
              if s is not None and s.instr.kind is Kind.STORE
              and s.instr.offset == -16]
    assert stores and stores[0].src == 4


def test_read_modify_write_keeps_its_register():
    # the moved definition feeds an alu that reads and redefines the register
    src = """
      r2 = *(u32 *)(r1 + 0)
      r4 = 7
      *(u64 *)(r10 - 8) = r4
      r3 = *(u32 *)(r1 + 4)
      if r2 > 100 goto b
      r5 += 1
      goto d
    b:
      r5 += 2
    d:
      r4 = 9
      r4 += 5
      *(u64 *)(r10 - 24) = r4
      r0 = 2
      exit
    """
    vliw, _ = _check_equivalence(src)
    stores = [s.instr for row in vliw.rows for s in row
              if s is not None and s.instr.kind is Kind.STORE
              and s.instr.offset == -24]
    assert stores and stores[0].src == 4


def test_fuzz_run_seed_77_matches_the_oracle():
    from xvliw.fuzz import fuzz
    summary = fuzz(150, seed=77, minimize_failures=False)
    assert summary.ok


# Fuzz case 2882299465595 (run seed 20260810), minimized. Code motion once
# moved the stack load into block 0 renamed r7 -> r8, live until the map
# store in block 3, and then renamed the dead ``r2 = r10`` of block 2 to r8
# as well, clobbering the loaded value.
TWO_RENAMES = """\
.map 1 hash 8 8 14
.map 2 array 4 8 16
.map 3 lru_hash 4 8 3
  r6 = r1
  if r0 != 0 goto L1
L1:
  r2 = *(u32 *)(r6 + 0)
  r7 += r7
  r7 = *(u32 *)(r10 - 72)
  r1 = map[3]
  r2 = r10
  r2 += -8
  call map_lookup
  if r0 == 0 goto L2
L2:
  r2 = r10
  if r0 == 0 goto L3
  *(u64 *)(r0 + 0) = r7
L3:
  exit
"""


def test_two_values_moved_into_one_block_match_the_oracle():
    case = generate_case(2882299465595)
    mini = FuzzCase(case.seed, TWO_RENAMES, case.packet_hex,
                    case.ingress_port, case.map_config)
    vliw, _ = compile_program(parse_asm(TWO_RENAMES), LaneConstraints(lanes=4))
    assert hazard_check(vliw) == []
    assert run_case(mini, lanes=4) == (True, "equal")


# "r3 = r2" moves from the exit block up into block 0, across the loop;
# a later rename of the dead "r7 = 7" inside the loop once took r3 and
# clobbered it, returning 7 at lanes 3-8
PLAIN_MOVE = """
  r9 = 1
top:
  r7 ^= r8
  if r5 > 8 goto skip0
skip0:
  r7 = 7
  r7 = r6
  r9 += -1
  if r9 > 0 goto top
  r3 = r2
  r0 ^= r3
  r0 ^= r4
  exit
"""


@pytest.mark.parametrize("lanes", range(1, 9))
def test_value_moved_across_a_loop_matches_the_oracle(lanes):
    _check_equivalence(PLAIN_MOVE, lanes)


def test_lanes_pad_only_when_they_must():
    # every cross-block read here can be pinned to its producer's lane,
    # so no block needs a leading empty row
    case = generate_case(case_seed(20260810, 12))
    vliw, rep = compile_program(parse_asm(case.program_text),
                                LaneConstraints(lanes=4))
    assert hazard_check(vliw) == []
    assert run_case(case, lanes=4) == (True, "equal")
    assert vliw.row_count == 26
    assert not [row for row in vliw.rows if all(s is None for s in row)]
    assert rep.padding_rows == 0


# the header's "r0 += r2" is pinned to "r2 = 5"'s lane in the entry block;
# the latch's "r2 = r1" writes r2 on another lane in the row that branches
# back, so the header must start with an empty row
BACK_EDGE = """
  r2 = 5
  r1 = 1
top:
  r0 += r2
  r1 += 1
  r2 = r1
  if r0 < 20 goto top
  exit
"""


@pytest.mark.parametrize("lanes", range(1, 9))
def test_cross_lane_back_edge_pads_loop_header(lanes):
    vliw, rep = _check_equivalence(BACK_EDGE, lanes)
    header = vliw.row_block.index(1)
    # with one lane nothing can forward across lanes, so nothing is padded
    padded = lanes > 1
    assert all(s is None for s in vliw.rows[header]) == padded
    assert rep.padding_rows == int(padded)


# from 2 lanes up, code motion pulls "r2 = 1" into top's branch row and
# leaves mid with no rows; side's back edge to mid then lands on join's
# first row. Alone, the jump forwards nothing; beside "r3 += 3" on
# another lane it forwards into join's "r3 += 1", so join is padded in place
EMPTIED_BACK_TARGET = """
top:
  if r3 > 5 goto side
mid:
  r2 = 1
join:
  r3 += 1
  if r3 < 3 goto join
  if r3 < 9 goto top
  r0 = r2
  exit
side:
  {side}
  goto mid
"""


@pytest.mark.parametrize("side, pads", [("", False), ("r3 += 3", True)])
@pytest.mark.parametrize("lanes", range(1, 9))
def test_back_edge_into_an_emptied_block_checks_the_row_it_lands_on(
        lanes, side, pads):
    vliw, rep = _check_equivalence(EMPTIED_BACK_TARGET.format(side=side), lanes)
    emptied = lanes > 1
    assert (1 not in vliw.row_block) == emptied
    join = vliw.row_block.index(2)
    assert all(s is None for s in vliw.rows[join]) == (emptied and pads)
    assert rep.padding_rows == int(emptied and pads)


def test_run_report_counts_the_empty_rows_it_executed():
    """At 4 lanes ``BACK_EDGE``'s loop header is one padded row, and the
    loop runs six times: the run executes six empty rows, the rows its
    trace shows with every lane empty."""
    vliw, _ = _check_equivalence(BACK_EDGE, 4)
    run, _ = exec_vliw(vliw, PacketContext(bytes(64)), MapStore(), trace=True)
    empty = [line for line in run.trace_lines if line.endswith("--- | " * 3 + "---")]
    assert run.empty_rows == len(empty) == 6
    assert run.as_dict()["empty_rows"] == 6


def test_back_edge_check_finds_what_the_full_walk_finds():
    """The lane pass checks forwarding on a back edge only when it lays out
    the jump, and pads the target in place. Over these compiles the walk
    over every runtime transition finds no cross-lane read, and at least
    one compile pads a loop header for a back edge."""
    compiles = [(entry.source, lanes) for entry in CORPUS.values()
                for lanes in range(1, 9)]
    compiles += [(generate_case(case_seed(20260810, i)).program_text, lanes)
                 for i in range(300) for lanes in (1, 2, 3, 4, 8)]
    compiles += [(src, lanes) for src in
                 [src for src, _ in test_scheduler.TestCodeMotion.LOOPS.values()]
                 + [BACK_EDGE] for lanes in range(1, 9)]
    back_edge_pads = 0
    for src, lanes in compiles:
        vliw, _ = compile_program(parse_asm(src), LaneConstraints(lanes=lanes))
        assert cross_lane_violations(vliw) == []
        # a back edge into an empty row whose next row would read across
        # lanes from the jump row: the pad is the back edge's
        back_edge_pads += any(
            t <= r and not any(vliw.rows[t])
            and crossings(vliw.rows[r], vliw.rows[t + 1])
            for r, row in enumerate(vliw.rows) for s in row
            if s is not None and s.instr.kind in JUMP_KINDS
            for t in [s.instr.target])
    assert back_edge_pads
