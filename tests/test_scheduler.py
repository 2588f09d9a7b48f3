"""List scheduling, lane assignment and upward code motion."""

import random
from itertools import permutations

import pytest

import xvliw.regalloc as regalloc_module
from conftest import brute_force_min_rows, dependence_sets, pull_family_source
from xvliw.analysis import build_ddg, build_program_cfg, program_cfg
from xvliw.asm import parse_asm
from xvliw.compiler import compile_program
from xvliw.corpus import CORPUS, names
from xvliw.fuzz import case_seed, compare_results, generate_case
from xvliw.isa import JUMP_KINDS, REGISTERS, Kind, io_sets
from xvliw.peephole import peephole
from xvliw.regalloc import assign_lanes, lane_row
from xvliw.schedule import LaneConstraints
from xvliw.scheduler import CodeMotion, code_motion, list_schedule
from xvliw.vliwsim import exec_vliw, hazard_check
from xvliw.vm import MapStore, PacketContext, exec_sequential


def schedule_single_block(src, lanes=4):
    prog = parse_asm(src)
    cfg = build_program_cfg(prog)
    cons = LaneConstraints(lanes=lanes)
    ddg = build_ddg(cfg.blocks[0], prog)
    bs = list_schedule(cfg.blocks[0], ddg, cons, prog)
    laned = assign_lanes(bs.rows, lanes)
    assert laned is not None
    return prog, bs, laned


class TestListSchedule:
    def test_four_independent_ops_one_row(self):
        _, bs, _ = schedule_single_block("""
          r2 += 1
          r3 += 1
          r4 += 1
          r5 += 1
          exit
        """)
        assert len(bs.rows) == 2          # alu row + the exit row
        assert len(bs.rows[0]) == 4

    def test_raw_chain_three_rows_one_lane(self):
        _, bs, laned = schedule_single_block("""
          r2 = 5
          r3 = r2
          r4 = r3
          exit
        """)
        chain_rows = [r for r in laned
                      if any(s is not None and s.instr.kind in
                             (Kind.MOV_IMM, Kind.MOV_REG) for s in r)]
        assert len(chain_rows) == 3
        lanes_used = set()
        for row in chain_rows:
            for lane, s in enumerate(row):
                if s is not None and s.instr.kind is not Kind.EXIT:
                    lanes_used.add(lane)
        assert len(lanes_used) == 1       # back-to-back dependents share a lane

    def test_six_independent_two_rows_minimal(self):
        src = "\n".join(f"  r{i} += 1" for i in (2, 3, 4, 5, 7, 8)) + "\nexit\n"
        prog, bs, _ = schedule_single_block(src)
        body_rows = [r for r in bs.rows
                     if not any(s.instr.kind is Kind.EXIT for s in r)]
        occupancy = sorted((len(r) for r in body_rows), reverse=True)
        # exit shares the second row, so occupancies are 4 and 2+exit
        assert len(bs.rows) == 2
        assert occupancy[0] == 4
        edges = {}
        assert brute_force_min_rows(6, edges, 4) == 2

    def test_helper_serialization(self):
        _, bs, _ = schedule_single_block("""
          r5 = 1
          call map_lookup
          exit
        """)
        call_rows = [i for i, r in enumerate(bs.rows)
                     if any(s.instr.kind is Kind.CALL for s in r)]
        assert len(call_rows) == 1

    def test_branch_last_row_lane_zero(self):
        prog = parse_asm("""
          r2 += 1
          r3 += 1
          if r2 > r3 goto out
          r0 = 2
          exit
        out:
          r0 = 1
          exit
        """)
        cfg = build_program_cfg(prog)
        cons = LaneConstraints()
        ddg = build_ddg(cfg.blocks[0], prog)
        bs = list_schedule(cfg.blocks[0], ddg, cons, prog)
        laned = assign_lanes(bs.rows, 4)
        last = laned[-1]
        branch_lanes = [l for l, s in enumerate(last)
                        if s is not None and s.instr.kind is Kind.BRANCH]
        assert branch_lanes == [0]

    def test_rows_never_grow_with_more_lanes_on_corpus(self):
        from xvliw.corpus import CORPUS
        for name, entry in CORPUS.items():
            prog = parse_asm(entry.source)
            prev = None
            for lanes in range(2, 9):
                _, rep = compile_program(prog, LaneConstraints(lanes=lanes))
                if prev is not None:
                    assert rep.vliw_rows <= prev, (name, lanes)
                prev = rep.vliw_rows


class TestLaneAssignment:
    def test_forwarding_pin_respected(self):
        _, bs, laned = schedule_single_block("""
          r2 = 5
          r3 = 7
          r4 = r2
          exit
        """)
        lane_of = {}
        for row in laned:
            for lane, s in enumerate(row):
                if s is not None:
                    lane_of[s.src_index] = lane
        # r4 = r2 (index 2) consumes index 0 from the previous row
        assert lane_of[2] == lane_of[0]

    def test_infeasible_double_pin_needs_gap(self):
        # one consumer of two same-row producers cannot sit in the next row
        prog, bs, laned = schedule_single_block("""
          *(u32 *)(r10 - 8) = 4
          *(u64 *)(r10 - 24) = 9
          r3 = *(u64 *)(r6 + 4)
          exit
        """)
        # provenance: r6 is zero -> the load may alias any memory region
        ddg = None
        row_of = {}
        for r, row in enumerate(laned):
            for s in (x for x in row if x is not None):
                row_of[s.src_index] = r
        assert row_of[2] >= row_of[0] + 2
        assert row_of[2] >= row_of[1] + 2


class TestCodeMotion:
    def _pipeline(self, src, lanes=4):
        prog = parse_asm(src)
        cfg = build_program_cfg(prog)
        cons = LaneConstraints(lanes=lanes)
        ddgs = {b.id: build_ddg(b, prog) for b in cfg.blocks}
        schedules = {b.id: list_schedule(b, ddgs[b.id], cons, prog)
                     for b in cfg.blocks}
        moved = code_motion(schedules, cfg, cons, prog, ddgs)[1]
        return prog, cfg, schedules, moved

    def test_no_candidates_unchanged(self):
        prog, cfg, schedules, moved = self._pipeline("r3 += 1\nexit\n")
        assert moved == []

    def test_chain_pull_up(self):
        src = """
          r2 += 1
          goto next
        next:
          r3 += 1
          r0 = 0
          exit
        """
        prog, cfg, schedules, moved = self._pipeline(src)
        assert any(frm == 1 and to == 0 for _idx, frm, to in moved)

    def test_diamond_hoists_only_control_equivalent(self):
        src = """
          r2 = *(u32 *)(r1 + 0)
          if r2 > 100 goto b
          r4 += 1
          goto d
        b:
          r5 += 1
        d:
          r7 += 1
          r8 += 2
          r0 = 2
          exit
        """
        prog, cfg, schedules, moved = self._pipeline(src)
        join = cfg.block_of(6)
        hoisted_from = {frm for _idx, frm, to in moved if to == 0}
        assert hoisted_from <= {join}
        assert any(frm == join for _idx, frm, to in moved)
        then_block, else_block = cfg.block_of(2), cfg.block_of(4)
        assert then_block not in hoisted_from
        assert else_block not in hoisted_from

    # Fuzz case 17337180854795 (run seed 20260810), minimized. Both arms
    # of the diamond write r9. Once one arm's write is hoisted above the
    # branch, r9 is live into that arm, so the other arm's write may not
    # follow it; judged by pre-motion liveness it did, and the stored
    # bytes came out wrong at lanes 2-8.
    SPECULATIVE_CLOBBER = """
      r6 = r1
      r7 = 420060456
      r5 = be64 r5
      r7 ^= r5
      if r0 != 0 goto L3
    L3:
      call adjust_head
      if r0 != 0 goto L4
    L4:
      r2 = *(u32 *)(r6 + 0)
      if r5 s> {bound} goto L5
      r9 = r7
      goto L6
    L5:
      r9 = r5
    L6:
      *(u48 *)(r2 + 44) = r9
      exit
    """

    def test_motion_equivalence(self):
        src = """
          r2 = *(u32 *)(r1 + 0)
          if r2 > 100 goto b
          r4 += 1
          goto d
        b:
          r5 += 1
        d:
          r7 += 3
          r0 = 2
          exit
        """
        clobbers = [self.SPECULATIVE_CLOBBER.format(bound=bound)
                    for bound in (-22, 22)]
        for text in [src] + clobbers:
            prog = parse_asm(text)
            for lanes in range(1, 9):
                for motion in (False, True):
                    vliw, _ = compile_program(prog, LaneConstraints(lanes=lanes),
                                              enable_code_motion=motion)
                    assert hazard_check(vliw) == []
                    res, _ = exec_vliw(vliw, PacketContext(bytes(range(64))),
                                       MapStore())
                    o, _ = exec_sequential(prog, PacketContext(bytes(range(64))),
                                           MapStore())
                    assert compare_results(o, res.result) == (True, "equal"), \
                        (text, lanes, motion)

    def test_speculative_load_not_hoisted(self):
        # the load in block "risky" is guarded; hoisting it above the branch
        # could trap, so it must stay put (candidate is DominatedSucc only)
        src = """
          r2 = *(u32 *)(r1 + 0)
          r3 = *(u32 *)(r1 + 4)
          r4 = r2
          r4 += 200
          if r4 > r3 goto out
          r5 = *(u64 *)(r2 + 150)
          r0 = 2
          exit
        out:
          r0 = 1
          exit
        """
        prog, cfg, schedules, moved = self._pipeline(src)
        risky = cfg.block_of(5)
        assert not any(frm == risky and prog[idx].kind is Kind.LOAD
                       for idx, frm, _to in moved)
        vliw, _ = compile_program(prog, passes={"boundary_checks": False})
        res, _ = exec_vliw(vliw, PacketContext(b"\x00" * 64), MapStore())
        o, _ = exec_sequential(prog, PacketContext(b"\x00" * 64), MapStore())
        assert not res.result.trapped and not o.trapped
        assert res.result.action == o.action == 1

    def test_parallel_branch_pull(self):
        # a switch-style chain of single-branch blocks; the dependent alu op
        # keeps the r3 producer out of the back-to-back window so the
        # branches can gather in one row
        src = """
          r2 = *(u32 *)(r1 + 0)
          r3 = *(u8 *)(r2 + 0)
          r7 = r3 + 5
          if r3 == 1 goto a1
          if r3 == 2 goto a2
          if r3 == 3 goto a3
          r0 = 0
          exit
        a1:
          r0 = 1
          exit
        a2:
          r0 = 2
          exit
        a3:
          r0 = 3
          exit
        """
        prog = parse_asm(src)
        vliw, rep = compile_program(prog)
        assert rep.pulled_branches >= 2
        multi = [row for row in vliw.rows
                 if sum(1 for s in row
                        if s is not None and s.instr.kind is Kind.BRANCH) > 1]
        assert multi
        row = multi[0]
        lanes = [l for l, s in enumerate(row)
                 if s is not None and s.instr.kind is Kind.BRANCH]
        idxs = [row[l].src_index for l in lanes]
        assert idxs == sorted(idxs)
        assert hazard_check(vliw) == []
        for first_byte in (0, 1, 2, 3, 9):
            pkt = bytes([first_byte]) + bytes(63)
            r, _ = exec_vliw(vliw, PacketContext(pkt), MapStore())
            o, _ = exec_sequential(prog, PacketContext(pkt), MapStore())
            assert (r.result.action, r.result.code) == (o.action, o.code)

    DISPATCH = """
      r6 = r1
      r2 = *(u32 *)(r6 + 0)
      r3 = *(u32 *)(r6 + 4)
      r4 = r2
      r4 += 20
      if r4 > r3 goto drop
      r5 = *(u8 *)(r2 + 3)
      if r5 == 1 goto c0
      if r5 == 2 goto c1
      if r5 == 3 goto c2
      r0 = 2
      exit
    c0:
      r0 = 1
      exit
    c1:
      r0 = 3
      exit
    c2:
      r0 = 2
      exit
    drop:
      r0 = 1
      exit
    """

    @pytest.mark.parametrize("lanes", [2, 3, 4, 8])
    def test_branch_pulling_pays_on_a_plain_dispatch_chain(self, lanes):
        """A chain of compares on one loaded byte, with no spacer: one
        branch is pulled, the schedule loses a row, and no packet takes
        more cycles than without code motion (5/6/6/6 against 5/6/7/7)."""
        prog = parse_asm(self.DISPATCH)
        constraints = LaneConstraints(lanes=lanes)
        vliw, rep = compile_program(prog, constraints)
        plain, plain_rep = compile_program(prog, constraints,
                                           enable_code_motion=False)
        assert (rep.pulled_branches, len(vliw.rows)) == (1, 9)
        assert (plain_rep.pulled_branches, len(plain.rows)) == (0, 10)
        assert hazard_check(vliw) == []
        cycles = []
        for byte in (1, 2, 3, 9):
            pkt = bytes([0, 0, 0, byte]) + bytes(60)
            o, _ = exec_sequential(prog, PacketContext(pkt), MapStore())
            runs = [exec_vliw(v, PacketContext(pkt), MapStore())[0]
                    for v in (vliw, plain)]
            for r in runs:
                assert (r.result.action, r.result.code) == (o.action, o.code)
            cycles.append(tuple(r.cycles for r in runs))
        assert cycles == [(5, 5), (6, 6), (6, 7), (6, 7)]

    # C pulls "if r6 == 0" into its last row beside "if r5 == 1"; B, which
    # dominates C, can take "r3 = r7" out of C's first row, and then
    # "r6 += r8" lands on lane 0 and pins "if r6" there, below "if r5". When
    # pulling ran block by block inside the move pass, B's move came after
    # C's pull and the 2-lane compile raised "block 1: no valid lane
    # assignment".
    PULL_THEN_MOVE = """
      r2 = 1
      r5 = 1
      r7 = 3
      r8 = 2
      r9 = 3
      goto B
    C:
      r3 = r7
      r6 += r8
      if r5 == 1 goto X0
      if r6 == 0 goto X1
    X0:
    X1:
      exit
    B:
      r3 = 4
      r4 += r4
      r4 = 4
      r4 = 4
      goto C
    """

    @pytest.mark.parametrize("lanes", range(1, 9))
    def test_a_row_of_pulled_branches_is_final(self, lanes):
        _assert_runs_like_the_oracle(parse_asm(self.PULL_THEN_MOVE), lanes)

    def test_the_pull_family_compiles(self):
        """Programs shaped like ``PULL_THEN_MOVE`` (``pull_family_source``):
        the first 100 of seed 1 include some that failed lane assignment
        at 2 and 4 lanes when a pulled row could still lose movers."""
        rng = random.Random(1)
        for _ in range(100):
            program = parse_asm(pull_family_source(rng))
            for lanes in (2, 3, 4):
                _assert_runs_like_the_oracle(program, lanes)

    # Code motion between blocks that run different numbers of times. In
    # "header" and "single_block" the loop's "r2 = 7" was hoisted into the
    # entry block and ran once instead of once per iteration; in
    # "after_loop" the exit block's "r3 = r6" was hoisted into the loop and
    # reached "r5 = r3" on the next iteration.
    LOOPS = {
        "header": ("""
          r1 = 3
          r3 = 5
        top:
          r2 = 7
          r4 = r2
          if r1 == 0 goto out
          r2 += 1
          r1 += -1
          goto top
        out:
          r0 = r2
          exit
        """, 7),
        "single_block": ("""
          r1 = 3
          r3 = 5
        top:
          r2 = 7
          r2 += 1
          r0 = r2
          r1 += -1
          if r1 > 0 goto top
          r0 += r3
          exit
        """, 13),
        "after_loop": ("""
          r9 = 3
        top:
          *(u64 *)(r10 - 8) = r3
          r5 = *(u64 *)(r10 - 8)
          r6 = 1
          r9 += -1
          if r9 == 0 goto out
          goto top
        out:
          r3 = r6
          r0 = r5
          r0 += 2
          exit
        """, 2),
    }

    @pytest.mark.parametrize("lanes", range(1, 9))
    @pytest.mark.parametrize("name", sorted(LOOPS))
    def test_nothing_hoisted_out_of_a_loop(self, name, lanes):
        src, expected = self.LOOPS[name]
        prog = parse_asm(src)
        vliw, _ = compile_program(prog, LaneConstraints(lanes=lanes))
        assert hazard_check(vliw) == []
        r, _ = exec_vliw(vliw, PacketContext(bytes(64)), MapStore())
        o, _ = exec_sequential(prog, PacketContext(bytes(64)), MapStore())
        assert o.code == expected
        assert (r.result.action, r.result.code) == (o.action, o.code)

    @pytest.mark.parametrize("lanes", range(1, 9))
    def test_no_row_holds_two_writers_of_a_register(self, lanes, monkeypatch):
        """Code motion places a mover only after every slot of its new
        block that it conflicts with, so no row it hands on holds two
        writers of a register."""
        import xvliw.compiler as compiler
        real = compiler.assign_registers
        clashes = []

        def checked(schedules, cfg, lanes, maps=()):
            for bs in schedules.values():
                for row in bs.rows:
                    if writes_a_register_twice(s.instr for s in row):
                        clashes.append((text, [s.instr for s in row]))
            return real(schedules, cfg, lanes, maps)

        monkeypatch.setattr(compiler, "assign_registers", checked)
        sources = [generate_case(case_seed(20260810, i)).program_text
                   for i in range(300)]
        for text in sources + [src for src, _ in self.LOOPS.values()]:
            compile_program(parse_asm(text), LaneConstraints(lanes=lanes))
        assert not clashes, clashes[:3]


def _assert_runs_like_the_oracle(program, lanes):
    """``program`` compiles at ``lanes`` lanes to a hazard-free schedule
    that returns what the sequential interpreter does."""
    vliw, _ = compile_program(program, LaneConstraints(lanes=lanes))
    assert hazard_check(vliw) == []
    r, _ = exec_vliw(vliw, PacketContext(bytes(64)), MapStore())
    o, _ = exec_sequential(program, PacketContext(bytes(64)), MapStore())
    assert compare_results(o, r.result) == (True, "equal"), lanes


def writes_a_register_twice(instrs) -> bool:
    """Whether two of ``instrs`` write one register."""
    seen = 0
    for ins in instrs:
        written = io_sets(ins).writes & REGISTERS
        if seen & written:
            return True
        seen |= written
    return False


def _ids(laned):
    """A laning as the identities of the slots on each lane."""
    return [[None if s is None else id(s) for s in row] for row in laned]


def _relaning_programs():
    """The corpus at lanes 1-8, fuzz cases 0-299 of run seed 20260810 at
    lanes 2, 4 and 8, and the code-motion loop programs at lanes 1-8."""
    for name in names():
        yield parse_asm(CORPUS[name].source), range(1, 9)
    for i in range(300):
        yield parse_asm(generate_case(case_seed(20260810, i)).program_text), (2, 4, 8)
    for src, _ in TestCodeMotion.LOOPS.values():
        yield parse_asm(src), range(1, 9)


def _lane_row_by_search(slots, pred_rows, lanes):
    """The permutation search alone, pins found pair by pair: the first
    permutation, branches tried lowest-lane first, that puts each slot on
    the lane of every producer it reads in ``pred_rows``."""
    if len(slots) > lanes:
        return None
    order = sorted(slots, key=lambda s: (s.instr.kind not in JUMP_KINDS,
                                         s.src_index))
    branches = sum(s.instr.kind in JUMP_KINDS for s in slots)
    pins = []
    for s in order:
        wanted = {lane for prev in pred_rows for lane, p in enumerate(prev)
                  if p is not None
                  and io_sets(p.instr).writes & io_sets(s.instr).reads}
        if len(wanted) > 1:
            return None
        pins.append(wanted.pop() if wanted else None)
    for perm in permutations(range(lanes), len(order)):
        if all(pin in (None, lane) for pin, lane in zip(pins, perm)) \
                and list(perm[:branches]) == sorted(perm[:branches]):
            row = [None] * lanes
            for s, lane in zip(order, perm):
                row[lane] = s
            return row
    return None


class TestIncrementalLaning:
    """Code motion judges a move by the forwarding rule alone, on the rows
    it touched: every move is made before any branch is pulled, so no row
    holds two jumps and the rule answers each question as a fresh
    ``assign_lanes`` would. ``lane_row`` gathers its producers once. Each
    equals what it replaces."""

    def test_every_lane_answer_is_a_fresh_assign_lanes(self, monkeypatch):
        real = CodeMotion._keeps_lanes
        seen = {True: 0, False: 0}

        def compared(self, rows, r):
            ok = real(self, rows, r)
            assert ok == (assign_lanes(rows, self.constraints.lanes) is not None)
            seen[ok] += 1
            return ok
        monkeypatch.setattr(CodeMotion, "_keeps_lanes", compared)
        for program, widths in _relaning_programs():
            for lanes in widths:
                compile_program(program, LaneConstraints(lanes=lanes))
        assert seen[True] > 1000 and seen[False] > 100

    def test_lane_row_equals_the_permutation_search(self, monkeypatch):
        real = lane_row
        unpinned = pinned = 0

        def compared(slots, pred_rows, lanes):
            nonlocal unpinned, pinned
            row = real(slots, pred_rows, lanes)
            expected = _lane_row_by_search(slots, pred_rows, lanes)
            assert (row is None) == (expected is None)
            if row is not None:
                assert _ids([row]) == _ids([expected])
                if row[:len(slots)] == sorted(slots, key=lambda s: (
                        s.instr.kind not in JUMP_KINDS, s.src_index)):
                    unpinned += 1
                else:
                    pinned += 1
            return row
        monkeypatch.setattr(regalloc_module, "lane_row", compared)
        for program, widths in _relaning_programs():
            for lanes in widths:
                compile_program(program, LaneConstraints(lanes=lanes))
        assert unpinned > 1000 and pinned > 1000


class TestMicroOptimality:
    def test_greedy_within_one_of_optimum_sample(self, rng):
        """Random 6-node dependence graphs: list scheduling lands within
        one row of the exhaustive optimum (the full sweep runs in the
        acceptance suite)."""
        for trial in range(150):
            n = rng.randint(2, 6)
            edges = {}
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < 0.35:
                        edges[(i, j)] = frozenset({"RAW"})
            rows = _schedule_synthetic(n, edges)
            best = brute_force_min_rows(n, edges, 4)
            assert rows <= best + 1, (trial, n, sorted(edges))


    # blocks list scheduling gives more rows than the oracle: name ->
    # (rows, oracle rows), per lane count
    REAL_BLOCK_GAPS = {
        2: {"fuzz5/b0": (4, 3), "fuzz24/b4": (4, 3), "fuzz39/b3": (5, 4),
            "fuzz46/b3": (5, 4), "fuzz66/b5": (5, 4), "fuzz102/b3": (3, 2),
            "fuzz114/b4": (4, 3), "fuzz149/b4": (3, 2), "fuzz152/b3": (7, 6),
            "fuzz190/b2": (4, 3), "fuzz195/b1": (4, 3), "fuzz211/b4": (5, 4),
            "fuzz226/b2": (5, 4), "fuzz263/b5": (6, 5), "fuzz290/b0": (7, 6)},
        4: {"fuzz263/b5": (5, 4)},
    }

    def test_real_blocks_against_the_exhaustive_optimum(self):
        """Every distinct dependence graph of a reduced block of at most 10
        instructions, from the corpus and fuzz cases 0-299 of run seed
        20260810 (named after its first block), at lanes 2 and 4: list
        scheduling needs no fewer rows than the exhaustive oracle, and more
        only on the blocks pinned in ``REAL_BLOCK_GAPS``. The oracle does
        not keep the block's control instruction last, so a gap can come
        from that rule as well as from the greedy choice."""
        programs = [(name, parse_asm(CORPUS[name].source)) for name in names()]
        programs += [(f"fuzz{i}", parse_asm(generate_case(
            case_seed(20260810, i)).program_text)) for i in range(300)]
        blocks = {}
        for name, program in programs:
            reduced, _ = peephole(program)
            for blk in program_cfg(reduced).blocks:
                if len(blk) > 10:
                    continue
                ddg = build_ddg(blk, reduced)
                edges = {(i - blk.start, j - blk.start):
                         frozenset({"RAW" if i in ddg.raw_preds[j] else "other"})
                         for j in ddg.nodes for i in ddg.preds[j]}
                key = (len(blk), frozenset(edges.items()),
                       reduced[blk.end].is_control)
                blocks.setdefault(key, (f"{name}/b{blk.id}", blk, ddg, reduced))
        assert len(blocks) > 450
        for lanes, pinned in self.REAL_BLOCK_GAPS.items():
            gaps = {}
            for (n, edges, _), (name, blk, ddg, reduced) in blocks.items():
                rows = len(list_schedule(blk, ddg, LaneConstraints(lanes),
                                         reduced).rows)
                best = brute_force_min_rows(n, dict(edges), lanes)
                assert rows >= best, (name, lanes)
                if rows > best:
                    gaps[name] = (rows, best)
            assert gaps == pinned, lanes


def _schedule_synthetic(n, edges):
    """Schedule an abstract dependence graph through the real scheduler by
    wrapping the nodes in placeholder instructions."""
    from xvliw.analysis import BasicBlock, DataDependenceGraph
    from xvliw.isa import Instruction
    instrs = [Instruction(Kind.ALU_BINARY, op="add", width=64, dst=1, imm=i)
              for i in range(n)]
    block = BasicBlock(0, 0, n - 1, (), ())
    ddg = DataDependenceGraph(list(range(n)),
                              *dependence_sets(range(n), edges))
    bs = list_schedule(block, ddg, LaneConstraints(lanes=4), instrs)
    return len(bs.rows)
