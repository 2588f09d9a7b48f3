"""Blocks, dominators, control equivalence, liveness, dependence graphs.

Dominator and post-dominator results are cross-checked against simple-path
enumeration on every graph up to 8 nodes that the tests build.
"""

import itertools
import random

import pytest

from conftest import straight_line_source
from xvliw.analysis import (
    bernstein_ok,
    block_code,
    build_cfg,
    build_ddg,
    build_program_cfg,
    candidate_blocks,
    cfg_to_dot,
    control_equivalent,
    ddg_to_dot,
    find_basic_blocks,
    live_after,
    live_before,
    liveness,
    n_checks,
)
from xvliw.asm import parse_asm
from xvliw.corpus import CORPUS, names
from xvliw.fuzz import case_seed, generate_case
from xvliw.isa import Instruction, Kind, io_sets, reg, sets_conflict
from xvliw.peephole import peephole
from xvliw.vm import MapStore, PacketContext, exec_sequential

DIAMOND = """
  if r1 > r2 goto c
  r3 = 1
  goto d
c:
  r3 = 2
d:
  r0 = r3
  exit
"""

CHAIN = """
  r1 += 1
  goto b
b:
  r2 += 1
  goto c
c:
  r0 = 0
  exit
"""

LOOP = """
top:
  r1 += -1
  if r1 > 0 goto top
  r0 = 0
  exit
"""


def enumerate_simple_paths(succs, src, dst, avoid=None):
    """All simple paths src -> dst avoiding the given node."""
    paths = []

    def walk(node, seen):
        if node == avoid:
            return
        if node == dst:
            paths.append(tuple(seen))
            return
        for s in succs.get(node, ()):
            if s not in seen:
                walk(s, seen + [s])

    walk(src, [src])
    return paths


def brute_dominates(succs, entry, a, b):
    """a dominates b iff no simple path entry->b avoids a."""
    if a == b:
        return True
    return not enumerate_simple_paths(succs, entry, b, avoid=a)


def brute_postdominates(succs, exits, a, b):
    if a == b:
        return True
    for e in exits:
        if enumerate_simple_paths(succs, b, e, avoid=a):
            return False
    return True


def assert_dom_matches_bruteforce(cfg):
    succs = {b.id: list(b.successors) for b in cfg.blocks}
    exits = [b.id for b in cfg.blocks if not b.successors]
    ids = [b.id for b in cfg.blocks]
    for a in ids:
        for b in ids:
            assert cfg.dominates(a, b) == brute_dominates(succs, 0, a, b), \
                (a, b, "dom")
            assert cfg.postdominates(a, b) == \
                brute_postdominates(succs, exits, a, b), (a, b, "pdom")


class TestBlocks:
    def test_straight_line_single_block(self):
        prog = parse_asm("r1 += 1\nr2 += 2\nexit\n")
        blocks = find_basic_blocks(prog)
        assert len(blocks) == 1
        assert (blocks[0].start, blocks[0].end) == (0, 2)

    def test_leader_rule(self):
        # branch at index 3 targeting index 6 in a 7-instruction program
        prog = parse_asm("""
          r1 += 1
          r2 += 1
          r3 += 1
          if r1 > r2 goto tail
          r4 += 1
          r5 += 1
        tail:
          exit
        """)
        blocks = find_basic_blocks(prog)
        assert [b.start for b in blocks] == [0, 4, 6]
        assert len(blocks) == 3

    def test_back_edge(self):
        prog = parse_asm("top:\n  r1 += -1\n  if r1 > 0 goto top\n  exit\n")
        blocks = find_basic_blocks(prog)
        assert len(blocks) == 2
        assert 0 in blocks[0].successors          # the loop back edge

    def test_unreachable_dropped(self):
        prog = parse_asm("""
          goto out
          r5 += 1
        out:
          exit
        """)
        blocks = find_basic_blocks(prog)
        covered = {i for b in blocks for i in b.indices()}
        assert covered == {0, 2}

    def test_partition(self, rng):
        from xvliw.fuzz import generate_case
        from xvliw.analysis import reachable_instructions
        for i in range(20):
            prog = parse_asm(generate_case(7000 + i).program_text)
            blocks = find_basic_blocks(prog)
            covered = sorted(i for b in blocks for i in b.indices())
            assert covered == sorted(reachable_instructions(prog))
            assert len(covered) == len(set(covered))


class TestDominance:
    def test_single_block(self):
        cfg = build_program_cfg(parse_asm("exit\n"))
        assert cfg.dom[0] == frozenset({0})

    def test_diamond(self):
        cfg = build_program_cfg(parse_asm(DIAMOND))
        # blocks: 0=head, 1=then, 2=else, 3=join
        assert cfg.dominates(0, 3) and not cfg.dominates(1, 3)
        assert cfg.postdominates(3, 0)
        assert_dom_matches_bruteforce(cfg)

    def test_loop(self):
        cfg = build_program_cfg(parse_asm(LOOP))
        assert_dom_matches_bruteforce(cfg)

    def test_random_graphs_vs_bruteforce(self, rng):
        from xvliw.fuzz import generate_case
        checked = 0
        for i in range(60):
            prog = parse_asm(generate_case(3000 + i).program_text)
            cfg = build_program_cfg(prog)
            if len(cfg.blocks) > 8:
                continue
            assert_dom_matches_bruteforce(cfg)
            checked += 1
        assert checked >= 10


class TestControlEquivalence:
    def test_chain_all_equivalent(self):
        cfg = build_program_cfg(parse_asm(CHAIN))
        for b in (0, 1, 2):
            assert control_equivalent(cfg, b) == {0, 1, 2}

    def test_diamond(self):
        cfg = build_program_cfg(parse_asm(DIAMOND))
        assert control_equivalent(cfg, 0) == {0, 3}
        assert control_equivalent(cfg, 1) == {1}

    def test_loop_body_not_equivalent_to_tail(self):
        cfg = build_program_cfg(parse_asm(LOOP))
        # the loop body (block 0) exits conditionally; the tail (block 1)
        # runs exactly once while the body may run many times
        assert 1 in control_equivalent(cfg, 0)  # structurally two-sided here
        prog = parse_asm("""
        top:
          r1 += -1
          if r1 > 0 goto top
          if r2 > 0 goto out2
          r0 = 1
          exit
        out2:
          r0 = 2
          exit
        """)
        cfg = build_program_cfg(prog)
        assert 2 not in control_equivalent(cfg, 1)

    def test_candidates_single_block(self):
        cfg = build_program_cfg(parse_asm("exit\n"))
        assert candidate_blocks(cfg, 0) == set()

    def test_candidates_diamond(self):
        cfg = build_program_cfg(parse_asm(DIAMOND))
        assert candidate_blocks(cfg, 0) == {3}

    def test_candidates_chain(self):
        cfg = build_program_cfg(parse_asm(CHAIN))
        assert candidate_blocks(cfg, 0) == {1, 2}

    def test_candidates_match_definition_on_random_cfgs(self):
        from xvliw.fuzz import generate_case
        for i in range(25):
            prog = parse_asm(generate_case(11000 + i).program_text)
            cfg = build_program_cfg(prog)
            for b in (blk.id for blk in cfg.blocks):
                ce = {c for c in (x.id for x in cfg.blocks)
                      if (cfg.dominates(b, c) and cfg.postdominates(c, b)) or
                         (cfg.dominates(c, b) and cfg.postdominates(b, c))}
                expect = (ce - {b}) | {
                    s for x in ce - {b}
                    for s in cfg.blocks[x].successors
                    if s != b and cfg.dominates(x, s)}
                assert candidate_blocks(cfg, b) == expect


class TestLiveness:
    def test_dead_after_exit(self):
        prog = parse_asm("r4 = 7\nexit\n")
        cfg = build_program_cfg(prog)
        info = liveness(cfg, block_code(cfg, prog))
        assert reg(4) not in info.live_out[0]

    def test_diamond_flow(self):
        # B defines r3 used only in D
        prog = parse_asm(DIAMOND)
        cfg = build_program_cfg(prog)
        info = liveness(cfg, block_code(cfg, prog))
        assert reg(3) in info.live_out[1]
        assert reg(3) in info.live_in[3]
        assert reg(3) not in info.live_in[0]

    def test_loop_carried(self):
        prog = parse_asm("""
          r6 = 5
        top:
          r6 += -1
          r3 = r6
          if r3 > 0 goto top
          r0 = 0
          exit
        """)
        cfg = build_program_cfg(prog)
        info = liveness(cfg, block_code(cfg, prog))
        body = cfg.block_of(1)
        assert reg(6) in info.live_in[body]
        assert reg(6) in info.live_out[body]

    def test_least_fixed_point(self):
        # one more backward iteration changes nothing
        prog = parse_asm(DIAMOND)
        cfg = build_program_cfg(prog)
        info = liveness(cfg, block_code(cfg, prog))
        for blk in cfg.blocks:
            out = set()
            for s in blk.successors:
                out |= info.live_in[s]
            assert frozenset(out) == info.live_out[blk.id]

    def test_live_before(self):
        prog = parse_asm("r3 = 1\nr4 = r3\nr0 = r4\nexit\n")
        cfg = build_program_cfg(prog)
        info = liveness(cfg, block_code(cfg, prog))
        assert reg(3) in live_before(info, prog, 0, 1)
        assert reg(3) not in live_before(info, prog, 0, 2)

    @pytest.mark.parametrize("name", names())
    def test_live_after_is_live_before_the_next(self, name):
        prog = parse_asm(CORPUS[name].source)
        cfg = build_program_cfg(prog)
        info = liveness(cfg, block_code(cfg, prog))
        for blk in cfg.blocks:
            after = live_after(info, prog, blk.id)
            assert sorted(after) == list(blk.indices())
            assert after[blk.end] == info.live_out[blk.id]
            for i in range(blk.start, blk.end):
                assert after[i] == live_before(info, prog, blk.id, i + 1)


class TestDDG:
    def test_mov_add_pair_raw_and_waw(self):
        prog = parse_asm("r4 = r1\nr4 += 20\nexit\n")
        cfg = build_program_cfg(prog)
        ddg = build_ddg(cfg.blocks[0], prog)
        assert ddg.edges[(0, 1)] >= {"RAW", "WAW"}

    def test_independent_loads_no_edges(self):
        prog = parse_asm("""
          r2 = *(u32 *)(r1 + 0)
          r3 = *(u32 *)(r1 + 4)
          exit
        """)
        cfg = build_program_cfg(prog)
        ddg = build_ddg(cfg.blocks[0], prog)
        assert (0, 1) not in ddg.edges

    def test_stack_slot_raw(self):
        prog = parse_asm("""
          *(u64 *)(r10 - 8) = r2
          r3 = *(u64 *)(r10 - 8)
          exit
        """)
        cfg = build_program_cfg(prog)
        ddg = build_ddg(cfg.blocks[0], prog)
        assert "RAW" in ddg.edges[(0, 1)]
        # distinct slots carry no edge
        prog2 = parse_asm("""
          *(u64 *)(r10 - 8) = r2
          r3 = *(u64 *)(r10 - 16)
          exit
        """)
        ddg2 = build_ddg(build_program_cfg(prog2).blocks[0], prog2)
        assert (0, 1) not in ddg2.edges

    def test_permutation_equivalence(self, rng):
        """Any topological order of the DDG executes to the same state."""
        src = """
          r4 = *(u32 *)(r2 + 0)
          r5 = *(u32 *)(r2 + 4)
          r4 += r5
          *(u64 *)(r10 - 8) = r4
          r6 = *(u64 *)(r10 - 8)
          r7 = 9
          r7 *= r5
        """
        body = parse_asm("  r2 = *(u32 *)(r1 + 0)\n" + src + "  exit\n")
        cfg = build_program_cfg(body)
        blk = cfg.blocks[0]
        ddg = build_ddg(blk, body)
        inner = [i for i in blk.indices()
                 if body[i].kind not in (Kind.EXIT,)][1:]  # skip ctx load
        packet = bytes(range(64))
        base_res, base_state = exec_sequential(
            body, PacketContext(packet), MapStore())
        for perm in itertools.islice(_topo_orders(inner, ddg, rng), 12):
            lines = ["  r2 = *(u32 *)(r1 + 0)"]
            lines += ["  " + _fmt(body[i]) for i in perm]
            lines.append("  exit")
            variant = parse_asm("\n".join(lines) + "\n")
            res, state = exec_sequential(variant, PacketContext(packet),
                                         MapStore())
            assert state.regs == base_state.regs
            assert state.stack == base_state.stack


def _fmt(ins):
    from xvliw.asm import format_instruction
    return format_instruction(ins)


def _topo_orders(nodes, ddg, rng):
    while True:
        order = []
        remaining = set(nodes)
        while remaining:
            ready = [n for n in remaining
                     if not (ddg.preds[n] & remaining)]
            pick = rng.choice(sorted(ready))
            order.append(pick)
            remaining.discard(pick)
        yield order


def pairwise_ddg_edges(block, program):
    """Reference oracle: the Bernstein conflicts of every ordered pair of
    a block's instructions, tested pair by pair in program order."""
    nodes = list(block.indices())
    ios = {i: io_sets(program[i]) for i in nodes}
    edges = {}
    for a, i in enumerate(nodes):
        for j in nodes[a + 1:]:
            kinds = set()
            if sets_conflict(ios[i].outputs, ios[j].inputs):
                kinds.add("RAW")
            if sets_conflict(ios[i].inputs, ios[j].outputs):
                kinds.add("WAR")
            if sets_conflict(ios[i].outputs, ios[j].outputs):
                kinds.add("WAW")
            if kinds:
                edges[(i, j)] = frozenset(kinds)
    return list(edges.items())


class TestDDGMatchesPairwise:
    """``build_ddg`` equals the pairwise oracle, edge order included."""

    @staticmethod
    def assert_blocks_match(program):
        for blk in build_program_cfg(program).blocks:
            assert list(build_ddg(blk, program).edges.items()) == \
                pairwise_ddg_edges(blk, program), blk

    @pytest.mark.parametrize("name", names())
    def test_corpus_before_and_after_peephole(self, name):
        prog = parse_asm(CORPUS[name].source)
        self.assert_blocks_match(prog)
        self.assert_blocks_match(peephole(prog)[0])

    def test_fuzz_cases_before_and_after_peephole(self):
        for i in range(200):
            prog = parse_asm(generate_case(case_seed(20260810, i)).program_text)
            self.assert_blocks_match(prog)
            self.assert_blocks_match(peephole(prog)[0])

    def test_large_block_with_memory_and_maps(self):
        prog = parse_asm(straight_line_source(random.Random(300), 300))
        assert len(build_program_cfg(prog).blocks) == 1
        self.assert_blocks_match(prog)


class TestBernstein:
    def test_disjoint_operands(self):
        a = Instruction(Kind.ALU_THREE_OP, op="add", width=64, dst=4, src=1,
                        imm=20)
        b = Instruction(Kind.ALU_THREE_OP, op="add", width=64, dst=5, src=2,
                        imm=8)
        assert bernstein_ok(a, b)

    def test_mov_add_pair_sequential(self):
        a = Instruction(Kind.MOV_REG, width=64, dst=4, src=1)
        b = Instruction(Kind.ALU_BINARY, op="add", width=64, dst=4, imm=20)
        assert not bernstein_ok(a, b)

    def test_two_calls_conflict_on_r0(self):
        a = Instruction(Kind.CALL, imm=1)
        b = Instruction(Kind.CALL, imm=28)
        ioa, iob = io_sets(a), io_sets(b)
        assert reg(0) in ioa.outputs and reg(0) in iob.outputs
        assert not bernstein_ok(a, b)

    def test_symmetry(self, rng):
        from xvliw.fuzz import generate_case
        pool = []
        for i in range(8):
            pool += list(parse_asm(generate_case(100 + i).program_text)
                         .instructions)
        for _ in range(400):
            a, b = rng.choice(pool), rng.choice(pool)
            assert bernstein_ok(a, b) == bernstein_ok(b, a)


class TestNChecks:
    def test_paper_values(self):
        assert n_checks(2) == 3
        assert n_checks(4) == 18

    def test_trivial(self):
        assert n_checks(1) == 0

    def test_exact_growth_formula(self):
        for n in range(1, 65):
            assert n_checks(n) == 3 * n * (n - 1) // 2
        with pytest.raises(ValueError):
            n_checks(0)


def test_dot_exports():
    prog = parse_asm(DIAMOND)
    cfg = build_program_cfg(prog)
    dot = cfg_to_dot(cfg, prog)
    assert dot.startswith("digraph cfg {") and "b0 -> b" in dot
    ddg = build_ddg(cfg.blocks[0], prog)
    assert ddg_to_dot(ddg, prog).startswith("digraph ddg {")
