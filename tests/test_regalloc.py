"""Register renaming: trigger conditions, propagation, pressure limits."""

import pytest

from xvliw.analysis import build_ddg, build_program_cfg, liveness
from xvliw.asm import parse_asm
from xvliw.compiler import compile_program
from xvliw.fuzz import FuzzCase, case_seed, generate_case, run_case
from xvliw.isa import Kind
from xvliw.peephole import peephole
from xvliw.regalloc import RenameContext, plan_rename
from xvliw.schedule import LaneConstraints, Slot
from xvliw.scheduler import list_schedule
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
        o, _ = exec_sequential(prog, PacketContext(pkt), MapStore())
        v, _ = exec_vliw(vliw, PacketContext(pkt), MapStore())
        assert (o.action, o.code) == (v.result.action, v.result.code)
    return vliw, rep


def test_no_conflicts_identity_map():
    prog = parse_asm("r3 += 1\nr0 = 2\nexit\n")
    _, rep = compile_program(prog)
    assert rep.renames == []


def test_same_row_conflict_renamed_and_propagated():
    vliw, rep = _check_equivalence(CONFLICT)
    assert len(rep.renames) == 1
    src_index, old, new = rep.renames[0]
    assert old == 4 and new in (6, 7, 8, 9)
    # the moved definition and its dependent both use the new register
    texts = [s.instr for row in vliw.rows for s in row if s is not None]
    assert any(i.kind is Kind.MOV_IMM and i.dst == new and i.imm == 9
               for i in texts)
    assert any(i.kind is Kind.ALU_THREE_OP and i.src == new for i in texts)
    # two writers of r4 never share a row
    for row in vliw.rows:
        writers = [s for s in row if s is not None
                   and s.instr.dst == 4 and s.instr.kind is Kind.MOV_IMM]
        assert len(writers) <= 1


def test_rename_propagates_to_unmoved_cross_block_use():
    vliw, rep = _check_equivalence(CROSS_BLOCK_USE)
    if not rep.renames:
        pytest.skip("scheduler found a conflict-free placement")
    _, old, new = rep.renames[0]
    stores = [s.instr for row in vliw.rows for s in row
              if s is not None and s.instr.kind is Kind.STORE
              and s.instr.offset == -16]
    assert stores and stores[0].src == new


def test_plan_rename_rejects_fixed_register_consumers():
    # the value feeds a helper call through r2: renaming would break the ABI
    src = """
      r2 = 5
      r1 = map[1]
      call map_lookup
      r0 = 2
      exit
    """
    prog = parse_asm(".map 1 hash 8 8 8\n" + src)
    cfg = build_program_cfg(prog)
    live = liveness(cfg, prog)
    cons = LaneConstraints()
    schedules = {b.id: list_schedule(b, build_ddg(b, prog), cons, prog)
                 for b in cfg.blocks}
    slot = next(s for bs in schedules.values() for row in bs.rows for s in row
                if s.instr.kind is Kind.MOV_IMM and s.instr.dst == 2)
    assert plan_rename(prog, cfg, live, schedules, slot, 0) is None


def test_plan_rename_exhausts_pool():
    # every candidate register is busy in the region
    src = """
      r4 = 9
      r2 += 1
      r3 += 1
      r5 += 1
      r6 += 1
      r7 += 1
      r8 += 1
      r9 += 1
      r0 = r4
      exit
    """
    prog = parse_asm(src)
    cfg = build_program_cfg(prog)
    live = liveness(cfg, prog)
    cons = LaneConstraints()
    schedules = {b.id: list_schedule(b, build_ddg(b, prog), cons, prog)
                 for b in cfg.blocks}
    slot = next(s for bs in schedules.values() for row in bs.rows for s in row
                if s.instr.kind is Kind.MOV_IMM)
    assert plan_rename(prog, cfg, live, schedules, slot, 0) is None


def test_rename_through_read_modify_write():
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
    vliw, rep = _check_equivalence(src)
    if rep.renames:
        _, old, new = rep.renames[0]
        stores = [s.instr for row in vliw.rows for s in row
                  if s is not None and s.instr.kind is Kind.STORE
                  and s.instr.offset == -24]
        assert stores and stores[0].src == new


def test_renames_preserved_under_fuzz():
    from xvliw.fuzz import fuzz
    summary = fuzz(150, seed=77, minimize_failures=False)
    assert summary.ok


# Fuzz case 2882299465595 (run seed 20260810), minimized. Code motion moves
# the stack load into block 0 and renames it r7 -> r8; the value stays live
# until the map store in block 3. The dead ``r2 = r10`` of block 2 is later
# moved into block 1 and renamed too; it must not pick r8 as well.
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


def test_later_rename_keeps_clear_of_earlier_renamed_value():
    case = generate_case(2882299465595)
    mini = FuzzCase(case.seed, TWO_RENAMES, case.packet_hex,
                    case.ingress_port, case.map_config)
    vliw, rep = compile_program(parse_asm(TWO_RENAMES),
                                LaneConstraints(lanes=4))
    assert hazard_check(vliw) == []
    assert len(rep.renames) >= 2
    assert run_case(mini, lanes=4) == (True, "equal")


def test_plan_rename_consults_context():
    prog, _ = peephole(parse_asm(TWO_RENAMES))
    cfg = build_program_cfg(prog)
    live = liveness(cfg, prog)
    cons = LaneConstraints(lanes=4)
    schedules = {b.id: list_schedule(b, build_ddg(b, prog), cons, prog)
                 for b in cfg.blocks}
    slots = [s for bs in schedules.values() for row in bs.rows for s in row]
    load = next(s for s in slots if s.instr.kind is Kind.LOAD
                and s.instr.dst == 7)
    mov = next(s for s in slots if s.instr.kind is Kind.MOV_REG
               and s.instr.dst == 2)
    assert cfg.block_of(load.src_index) == 1
    assert cfg.block_of(mov.src_index) == 2
    mov_home = 1

    # on its own, the move would take r8
    assert plan_rename(prog, cfg, live, schedules, mov, mov_home).new_reg == 8

    ctx = RenameContext()
    first = plan_rename(prog, cfg, live, schedules, load, 0, ctx)
    assert first.new_reg == 8 and mov_home in first.region
    ctx.record(first)
    second = plan_rename(prog, cfg, live, schedules, mov, mov_home, ctx)
    assert second is not None
    assert second.new_reg != 8
    assert mov_home in second.region


# "r3 = r2" moves from the exit block up into block 0, across the loop,
# unrenamed; the later rename of the dead "r7 = 7" inside the loop took r3
# and clobbered it, returning 7 at lanes 3-8
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
def test_rename_keeps_clear_of_plainly_moved_value(lanes):
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
