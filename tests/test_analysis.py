"""Blocks, dominators, code-motion sources, liveness, dependence graphs.

Dominator and post-dominator results are cross-checked against simple-path
enumeration on every graph up to 8 nodes that the tests build.
"""

import copy
import itertools
import random

import pytest

import test_scheduler
from conftest import (dependence_sets, n_checks, reachable_instructions,
                      straight_line_source)
from xvliw.analysis import (
    bernstein_ok,
    block_code,
    build_ddg,
    build_program_cfg,
    cfg_to_dot,
    find_basic_blocks,
    live_after,
    liveness,
    program_cfg,
    program_liveness,
)
from xvliw.asm import parse_asm
from xvliw.corpus import CORPUS, names
from xvliw.fuzz import case_seed, generate_case
from xvliw.compiler import compile_program
from xvliw.isa import (MEMORY, REGISTERS, Instruction, Kind, Program,
                       analysis_of, extent, io_sets, provenance_states)
from xvliw.peephole import _PASSES, peephole
from xvliw.schedule import LaneConstraints
from xvliw.scheduler import motion_sources
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

# every block of the loop runs once per iteration, so they may share
# instructions; a move from the latch into "mid" crosses nothing, although
# "top" lies on the way back round
SHARED_LOOP = """
  r1 = 3
top:
  r2 += 1
  goto mid
mid:
  r3 += 1
  goto latch
latch:
  r1 += -1
  if r1 > 0 goto top
  r0 = r2
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


# cyclic CFGs beyond LOOP: the entry inside a two-block loop, a cycle that
# reaches no exit, both together, and two loops sharing a header
CYCLIC = {
    "entry_in_loop": """
top:
  r2 += 1
  if r2 > 5 goto out
  r3 += r2
  goto top
out:
  r0 = r3
  exit
""",
    "no_exit_cycle": """
  if r1 == 0 goto spin
  r0 = 1
  exit
spin:
  r2 += 1
  goto spin
""",
    "entry_in_loop_and_no_exit_cycle": """
top:
  r1 += -1
  if r1 == 0 goto spin
  if r1 > 3 goto top
  r0 = 0
  exit
spin:
  r2 += 1
  goto spin
""",
    "two_loops_one_header": """
  r1 = 0
head:
  r1 += 1
  if r1 > 9 goto done
  if r1 > 4 goto odd
  r2 += 1
  goto head
odd:
  r3 += r1
  goto head
done:
  r0 = r2
  exit
""",
}


def sources(cfg, b):
    return list(motion_sources(cfg, b))


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


def assert_least_liveness(prog):
    """One more backward iteration changes nothing, and an atom is live into
    a block only when some path from the block's entry reads it before an
    instruction on the path kills it."""
    cfg = build_program_cfg(prog)
    info = liveness(cfg, block_code(cfg, prog))
    use, kills = {}, {}
    for blk in cfg.blocks:
        use[blk.id] = kills[blk.id] = 0
        for i in blk.indices():
            io = io_sets(prog[i])
            use[blk.id] |= io.reads & ~kills[blk.id]
            kills[blk.id] |= io.kills
    for blk in cfg.blocks:
        out = 0
        for s in blk.successors:
            out |= info.live_in[s]
        assert out == info.live_out[blk.id]
        assert info.live_in[blk.id] == \
            use[blk.id] | (out & ~kills[blk.id])
    atoms = [1 << k for k in range(max(use.values()).bit_length())
             if any(u >> k & 1 for u in use.values())]
    for blk in cfg.blocks:
        for atom in atoms:
            seen, work, read = {blk.id}, [blk.id], False
            while work and not read:
                x = work.pop()
                read = bool(use[x] & atom)
                if not kills[x] & atom:
                    for s in cfg.blocks[x].successors:
                        if s not in seen:
                            seen.add(s)
                            work.append(s)
            assert bool(info.live_in[blk.id] & atom) == read, (blk.id, atom)


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
        for i in range(20):
            prog = parse_asm(generate_case(7000 + i).program_text)
            blocks = find_basic_blocks(prog)
            covered = sorted(i for b in blocks for i in b.indices())
            assert covered == sorted(reachable_instructions(prog))
            assert len(covered) == len(set(covered))


class TestDominance:
    def test_single_block(self):
        cfg = build_program_cfg(parse_asm("exit\n"))
        assert cfg.dom == cfg.pdom == [0b1]
        assert cfg.dominates(0, 0) and cfg.postdominates(0, 0)

    def test_diamond(self):
        cfg = build_program_cfg(parse_asm(DIAMOND))
        # blocks: 0=head, 1=then, 2=else, 3=join
        assert cfg.dominates(0, 3) and not cfg.dominates(1, 3)
        assert cfg.postdominates(3, 0)
        assert_dom_matches_bruteforce(cfg)

    def test_loop(self):
        cfg = build_program_cfg(parse_asm(LOOP))
        assert_dom_matches_bruteforce(cfg)

    @pytest.mark.parametrize("name", CYCLIC)
    def test_cyclic(self, name):
        cfg = build_program_cfg(parse_asm(CYCLIC[name]))
        assert_dom_matches_bruteforce(cfg)

    def test_a_block_reaching_no_exit_has_every_post_dominator(self):
        cfg = build_program_cfg(parse_asm(CYCLIC["no_exit_cycle"]))
        spin = cfg.block_of(3)
        assert cfg.pdom[spin] == (1 << len(cfg.blocks)) - 1
        assert cfg.dom[spin] == 1 << 0 | 1 << spin

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
    """``scheduler.motion_sources``: the blocks code motion may take
    instructions from into a block, whether each is control-equivalent to
    it, and the blocks a move from each crosses."""

    def test_chain_all_equivalent(self):
        cfg = build_program_cfg(parse_asm(CHAIN))
        assert sources(cfg, 0) == [(1, True, set()), (2, True, {1})]
        assert sources(cfg, 1) == [(2, True, set())]
        assert sources(cfg, 2) == []

    def test_diamond(self):
        # blocks: 0=head, 1=then, 2=else, 3=join; the arms are equivalent
        # to no other block, and a move from the join crosses both
        cfg = build_program_cfg(parse_asm(DIAMOND))
        assert sources(cfg, 0) == [(3, True, {1, 2})]
        assert sources(cfg, 1) == sources(cfg, 2) == sources(cfg, 3) == []

    def test_loop_body_not_equivalent_to_tail(self):
        cfg = build_program_cfg(parse_asm(LOOP))
        # the loop body (block 0) exits conditionally; the tail (block 1)
        # runs exactly once while the body may run many times
        assert cfg.dominates(0, 1) and cfg.postdominates(1, 0)  # two-sided
        assert sources(cfg, 0) == []
        cfg = build_program_cfg(parse_asm("""
        top:
          r1 += -1
          if r1 > 0 goto top
          if r2 > 0 goto out2
          r0 = 1
          exit
        out2:
          r0 = 2
          exit
        """))
        assert sources(cfg, 0) == sources(cfg, 1) == []
        # a block before the loop takes from the tail, across the loop
        cfg = build_program_cfg(parse_asm("r1 = 3\n" + LOOP))
        assert sources(cfg, 0) == [(2, True, {1})]
        cfg = build_program_cfg(parse_asm(SHARED_LOOP))
        assert sources(cfg, 0) == [(4, True, {1, 2, 3})]
        assert sources(cfg, 1) == [(2, True, set()), (3, True, {2})]
        assert sources(cfg, 2) == [(3, True, set())]

    def test_candidates_single_block(self):
        cfg = build_program_cfg(parse_asm("exit\n"))
        assert sources(cfg, 0) == []

    def test_candidates_diamond(self):
        # the arms, dominated successors of block 1, are speculative
        # sources of block 0, which block 1 is equivalent to; a block's own
        # successors are not its sources
        cfg = build_program_cfg(parse_asm("goto h\nh:\n" + DIAMOND))
        assert sources(cfg, 0) == [(1, True, set()), (2, False, {1}),
                                   (3, False, {1}), (4, True, {1, 2, 3})]
        assert sources(cfg, 1) == [(4, True, {2, 3})]

    def test_candidates_chain(self):
        cfg = build_program_cfg(parse_asm(CHAIN))
        assert [s for s, _, _ in sources(cfg, 0)] == [1, 2]

    def test_candidates_match_definition_on_random_cfgs(self):
        """On 25 random CFGs and the loop programs: the sources
        by two-sided dominance, the loop rule by simple paths back to a
        block, and the crossed blocks by path enumeration."""
        texts = [generate_case(11000 + i).program_text for i in range(25)]
        texts += [src for src, _ in test_scheduler.TestCodeMotion.LOOPS.values()]
        for text in texts + [LOOP, SHARED_LOOP]:
            cfg = build_program_cfg(parse_asm(text))
            ids = [blk.id for blk in cfg.blocks]
            succs = {blk.id: blk.successors for blk in cfg.blocks}

            def reaches(a, x, avoid=None):
                return bool(enumerate_simple_paths(succs, a, x, avoid=avoid))

            def on_cycle(x, avoid):
                return any(reaches(t, x, avoid) for t in succs[x])

            for b in ids:
                ce = {c for c in ids
                      if (cfg.dominates(b, c) and cfg.postdominates(c, b)) or
                         (cfg.dominates(c, b) and cfg.postdominates(b, c))}
                candidates = (ce - {b}) | {
                    s for x in ce - {b} for s in succs[x]
                    if s != b and cfg.dominates(x, s)}
                expect = [
                    (s, s in ce, {x for x in ids if x not in (b, s)
                                  and any(reaches(t, x, s) for t in succs[b])
                                  and reaches(x, s)})
                    for s in sorted(candidates)
                    if cfg.dominates(b, s)
                    and not on_cycle(s, b) and not on_cycle(b, s)]
                assert sources(cfg, b) == expect, (text, b)


class TestLiveness:
    def test_dead_after_exit(self):
        prog = parse_asm("r4 = 7\nexit\n")
        cfg = build_program_cfg(prog)
        info = liveness(cfg, block_code(cfg, prog))
        assert not info.live_out[0] & 1 << 4

    def test_diamond_flow(self):
        # B defines r3 used only in D
        prog = parse_asm(DIAMOND)
        cfg = build_program_cfg(prog)
        info = liveness(cfg, block_code(cfg, prog))
        assert info.live_out[1] & 1 << 3
        assert info.live_in[3] & 1 << 3
        assert not info.live_in[0] & 1 << 3

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
        assert info.live_in[body] & 1 << 6
        assert info.live_out[body] & 1 << 6

    def test_least_fixed_point(self):
        for text in [DIAMOND, LOOP, SHARED_LOOP, *CYCLIC.values()]:
            assert_least_liveness(parse_asm(text))

    def test_live_before(self):
        prog = parse_asm("r3 = 1\nr4 = r3\nr0 = r4\nexit\n")
        blk = build_program_cfg(prog).blocks[0]
        assert live_after(prog, blk, 0, 1 << 3)        # before i + 1
        assert not live_after(prog, blk, 1, 1 << 3)

    def test_live_after_kills_a_covered_stack_range(self):
        # the load reads bytes 504-508 of the stack; the two-byte store
        # before it leaves them live, the eight-byte store covers them
        prog = parse_asm("""
          r3 = 1
          *(u64 *)(r10 - 8) = 0
          *(u16 *)(r10 - 8) = 0
          r2 = *(u32 *)(r10 - 8)
          r0 = r2
          exit
        """)
        blk = build_program_cfg(prog).blocks[0]
        read = extent(("stack", 504, 508))
        assert live_after(prog, blk, 2, read) and live_after(prog, blk, 1, read)
        assert not live_after(prog, blk, 0, read)

    def test_stores_that_together_cover_a_range_kill_it(self):
        # neither two-byte store covers the four bytes the load reads, and
        # a call's read of all memory leaves the other stack bytes live;
        # together the stores kill bytes 504-508, byte by byte
        prog = parse_asm("""
          .map 1 hash 4 8 4
          r1 = map[1]
          r2 = r10
          r2 += -16
          *(u16 *)(r10 - 8) = 0
          *(u16 *)(r10 - 6) = 0
          r3 = *(u32 *)(r10 - 8)
          call map_lookup
          r0 = r3
          exit
        """)
        cfg = build_program_cfg(prog)
        blk = cfg.blocks[0]
        read = extent(("stack", 504, 508))
        assert not live_after(prog, blk, 2, read)
        assert live_after(prog, blk, 3, read)
        assert live_after(prog, blk, 2, extent(("stack", 496, 504)))
        info = liveness(cfg, block_code(cfg, prog))
        assert info.live_in[0] & MEMORY == MEMORY & ~read

    @pytest.mark.parametrize("name", names())
    def test_live_after_is_live_before_the_next(self, name):
        """Every register and every exact stack range the program touches,
        after every instruction, against the backward fold."""
        prog = parse_asm(CORPUS[name].source)
        info = program_liveness(prog)
        masks = {1 << r for r in range(11)}
        masks |= {extent(ins.region) for ins in prog.instructions
                  if ins.region is not None and ins.region[0] == "stack"}
        for blk in program_cfg(prog).blocks:
            after = folded_live_after(prog, blk, info.live_out[blk.id])
            for i in blk.indices():
                for mask in masks:
                    assert live_after(prog, blk, i, mask) == \
                        bool(mask & after[i]), (i, mask)


def _backward_step(live_after, ins):
    """Reference for the atoms live before ``ins``, given those live after
    it: a register is killed by a write of itself, and the bytes of an
    exact frame store by that store; what ``ins`` reads is live."""
    io = io_sets(ins)
    killed = io.writes & REGISTERS
    if ins.kind in (Kind.STORE, Kind.STORE48) and ins.region is not None \
            and ins.region[0] == "stack":
        killed |= extent(ins.region)
    return (live_after & ~killed) | io.reads


def folded_live_after(prog, blk, live_out) -> dict:
    """The atoms live right after each instruction of ``blk``: a fold of
    ``_backward_step`` from ``live_out``."""
    after = {blk.end: live_out}
    for i in range(blk.end, blk.start, -1):
        after[i - 1] = _backward_step(after[i], prog[i])
    return after


class TestDDG:
    def test_mov_add_pair_raw_and_waw(self):
        prog = parse_asm("r4 = r1\nr4 += 20\nexit\n")
        cfg = build_program_cfg(prog)
        ddg = build_ddg(cfg.blocks[0], prog)
        assert ddg.raw_preds[1] == ddg.preds[1] == {0}
        assert ddg.succs[0] == {1}
        assert io_sets(prog[0]).writes & io_sets(prog[1]).writes

    def test_independent_loads_no_edges(self):
        prog = parse_asm("""
          r2 = *(u32 *)(r1 + 0)
          r3 = *(u32 *)(r1 + 4)
          exit
        """)
        cfg = build_program_cfg(prog)
        ddg = build_ddg(cfg.blocks[0], prog)
        assert 0 not in ddg.preds[1]

    def test_stack_slot_raw(self):
        prog = parse_asm("""
          *(u64 *)(r10 - 8) = r2
          r3 = *(u64 *)(r10 - 8)
          exit
        """)
        cfg = build_program_cfg(prog)
        ddg = build_ddg(cfg.blocks[0], prog)
        assert 0 in ddg.raw_preds[1]
        # distinct slots carry no edge
        prog2 = parse_asm("""
          *(u64 *)(r10 - 8) = r2
          r3 = *(u64 *)(r10 - 16)
          exit
        """)
        ddg2 = build_ddg(build_program_cfg(prog2).blocks[0], prog2)
        assert 0 not in ddg2.preds[1]

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
            if ios[i].writes & ios[j].reads:
                kinds.add("RAW")
            if ios[i].reads & ios[j].writes:
                kinds.add("WAR")
            if ios[i].writes & ios[j].writes:
                kinds.add("WAW")
            if kinds:
                edges[(i, j)] = frozenset(kinds)
    return edges


def _closure(nodes, preds: dict) -> dict:
    """Each node's transitive predecessors, as a bit set over indices."""
    reach = {}
    for j in nodes:
        bits = 0
        for i in preds[j]:
            bits |= reach[i] | (1 << i)
        reach[j] = bits
    return reach


def _write_keys(ins) -> list:
    """What an instruction writes, as the DDG indexes it: each register
    alone, and its memory atoms as one extent."""
    writes = io_sets(ins).writes
    keys = [1 << r for r in range(11) if writes & 1 << r]
    return keys + [writes & MEMORY] if writes & MEMORY else keys


class TestDDGMatchesPairwise:
    """``build_ddg`` keeps a subset of the pairwise oracle's edges with the
    same closure: every kept edge is a pairwise conflict with the pairwise
    RAW label, the transitive closures are equal, and every dropped RAW
    pair has a later writer of the producer's symbol between them that
    is itself a kept RAW predecessor of the reader."""

    @staticmethod
    def assert_blocks_match(program):
        for blk in build_program_cfg(program).blocks:
            ddg = build_ddg(blk, program)
            nodes = list(blk.indices())
            edges = pairwise_ddg_edges(blk, program)
            preds, succs, raw_preds = dependence_sets(nodes, edges)
            for j in nodes:
                assert ddg.preds[j] <= preds[j], (blk, j)
                assert ddg.raw_preds[j] == ddg.preds[j] & raw_preds[j], (blk, j)
                assert ddg.succs[j] == {k for k in nodes if j in ddg.preds[k]}
            assert _closure(nodes, ddg.preds) == _closure(nodes, preds), blk
            for j in nodes:
                reads = io_sets(program[j]).reads
                for i in raw_preds[j] - ddg.raw_preds[j]:
                    assert any(
                        key in _write_keys(program[k]) and key & reads
                        for k in ddg.raw_preds[j] if i < k
                        for key in _write_keys(program[i])), (blk, i, j)

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
        blocks = build_program_cfg(prog).blocks
        assert len(blocks) == 1
        self.assert_blocks_match(prog)
        ddg = build_ddg(blocks[0], prog)
        assert sum(map(len, ddg.preds.values())) <= 4 * len(ddg.nodes)


def _record_programs():
    yield from ((name, parse_asm(CORPUS[name].source)) for name in names())
    for i in range(100):
        yield f"fuzz {i}", parse_asm(
            generate_case(case_seed(20260810, i)).program_text)


class TestAnalysisRecord:
    """The per-Program analysis record equals a fresh computation, and the
    compile stages leave it as they found it."""

    @staticmethod
    def assert_record_is_fresh(program):
        bare = Program(program.instructions, program.maps)   # no record yet
        cfg = build_program_cfg(bare)
        record = analysis_of(program)
        assert record.reachable == reachable_instructions(program.instructions)
        assert record.provenance == provenance_states(program.instructions)
        assert program_cfg(program) == cfg
        assert program_liveness(program) == liveness(cfg, block_code(cfg, bare))
        assert record.cfg is program_cfg(program)
        assert record.liveness is program_liveness(program)

    def test_after_every_peephole_pass(self):
        for _name, program in _record_programs():
            self.assert_record_is_fresh(program)
            changed = True
            while changed:
                changed = False
                for step in _PASSES.values():
                    out = step(program)
                    changed |= out is not program
                    program = out
                    self.assert_record_is_fresh(program)

    def test_compile_leaves_the_shared_record_unchanged(self):
        for name, program in _record_programs():
            reduced, _ = peephole(program)
            assert peephole(reduced)[0] is reduced     # a fixed point
            record = analysis_of(reduced)
            program_liveness(reduced)
            before = copy.deepcopy(record)
            for lanes in (2, 4):
                compile_program(reduced, LaneConstraints(lanes=lanes))
                assert reduced.analysis is record, name
                assert record == before, name


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
        assert ioa.writes & iob.writes == 1 << 0
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
