"""The three workloads. Each builds its inputs from the run seed in
``setup`` and runs one round of operations in ``run_round``; every round
repeats the same operations, so rounds can be compared and counted whole.

A workload calls xvliw only through the module namespace ``xv`` it is
handed, so the wrappers of ``spans.install`` see every call, and calls
``tick()`` after each operation, where the host's speed may be sampled.
"""

from __future__ import annotations

import random

import models

LANES = 4
HEAD_ROOM = 64          # the fuzzer's and the corpus tests' head room
BAD_SCHEDULE = ("fewer rows than ceil(n / lanes), n the reachable "
                "instructions of the reduced program")


class FuzzDiff:
    """The fuzzer's differential loop, ``fuzz.run_case`` at 4 lanes, over
    the case seeds ``fuzz.case_seed(seed, 0..cases-1)``. A case fails on a
    divergence, a hazard, an XvliwError or a ``BAD_SCHEDULE``."""

    name = "fuzz_diff"
    op = "cases"

    def __init__(self, cases: int = 400):
        self.cases = cases

    def setup(self, xv, seed: int):
        return [xv.fuzz.case_seed(seed, i) for i in range(self.cases)]

    def run_round(self, xv, case_seeds, facts, tick):
        failures = []
        for case_seed in case_seeds:
            case = xv.fuzz.generate_case(case_seed)
            bad = facts["bad_schedules"]
            try:
                ok, detail = xv.fuzz.run_case(case, LANES)
            except xv.errors.XvliwError as exc:
                ok, detail = False, f"toolchain error: {exc}"
            if ok and facts["bad_schedules"] != bad:
                ok, detail = False, BAD_SCHEDULE
            if not ok:
                failures.append(f"case seed {case_seed}: {detail}")
            tick()
        return len(case_seeds), failures


class LargeBlocks:
    """Seeded straight-line blocks of fixed sizes compiled at 4 lanes and
    run on a few packets through both engines. The output packet and r0
    must equal those of ``models.eval_block``, the engines must agree and
    the schedule must be hazard-free and not a ``BAD_SCHEDULE``."""

    name = "large_blocks"
    op = "compiles"

    def __init__(self, sizes=(200, 300, 400) * 4, packets: int = 3):
        self.sizes = sizes
        self.packets = packets

    def setup(self, xv, seed: int):
        rng = random.Random(seed)
        blocks = []
        for size in self.sizes:
            ops = models.gen_block(rng, size)
            pkts = [rng.randbytes(models.BLOCK_PKT_LEN) for _ in range(self.packets)]
            blocks.append((models.block_asm(ops), pkts,
                           [models.eval_block(ops, p) for p in pkts]))
        return blocks

    def run_round(self, xv, blocks, facts, tick):
        failures = []
        constraints = xv.schedule.LaneConstraints(lanes=LANES)
        for k, (text, pkts, expected) in enumerate(blocks):
            try:
                problem = self._check(xv, text, pkts, expected, constraints, facts)
            except xv.errors.XvliwError as exc:
                problem = f"toolchain error: {exc}"
            if problem:
                failures.append(f"block {k} ({self.sizes[k]} instructions): {problem}")
            tick()
        return len(blocks), failures

    @staticmethod
    def _check(xv, text, pkts, expected, constraints, facts):
        bad = facts["bad_schedules"]
        program = xv.asm.parse_asm(text)
        vliw, _report = xv.compiler.compile_program(program, constraints)
        if facts["bad_schedules"] != bad:
            return BAD_SCHEDULE
        hazards = xv.vliwsim.hazard_check(vliw)
        if hazards:
            return f"hazards: {hazards[:3]}"
        for pkt, (r0, pkt_out) in zip(pkts, expected):
            oracle, _ = xv.vm.exec_sequential(
                program, xv.vm.PacketContext(pkt, HEAD_ROOM), xv.vm.MapStore(program.maps))
            run, _ = xv.vliwsim.exec_vliw(
                vliw, xv.vm.PacketContext(pkt, HEAD_ROOM), xv.vm.MapStore(program.maps))
            ok, detail = xv.fuzz.compare_results(oracle, run.result)
            if not ok:
                return f"engines differ: {detail}"
            if oracle.trapped or oracle.code != r0 or oracle.packet_out != pkt_out:
                return "output differs from the reference evaluator"
        return None


class FirewallFlows:
    """Corpus ``simple_firewall``, compiled once in set-up, on a seeded
    stream whose maps persist across packets and start empty each round.
    Each packet's action must match ``models.FirewallModel`` and the other
    engine's result; the final flow table must match the model's."""

    name = "firewall_flows"
    op = "packets"

    def __init__(self, packets: int = 1500):
        self.packets = packets

    def setup(self, xv, seed: int):
        entry = xv.corpus.CORPUS["simple_firewall"]
        program = xv.asm.parse_asm(entry.source)
        vliw, _report = xv.compiler.compile_program(
            program, xv.schedule.LaneConstraints(lanes=LANES))
        hazards = xv.vliwsim.hazard_check(vliw)
        stream = models.firewall_stream(random.Random(seed), self.packets)
        model = models.FirewallModel()
        actions = [model.step(pkt, port) for pkt, port in stream]
        return program, vliw, hazards, stream, actions, model.table()

    def run_round(self, xv, state, facts, tick):
        program, vliw, hazards, stream, actions, table = state
        if hazards:
            return len(stream), [f"hazards: {hazards[:3]}"] * len(stream)
        vm = xv.vm
        oracle_maps = vm.MapStore(program.maps)
        vliw_maps = vm.MapStore(program.maps)
        failures = []
        oracle = None
        for k, ((pkt, port), action) in enumerate(zip(stream, actions)):
            try:
                oracle, _ = vm.exec_sequential(
                    program, vm.PacketContext(pkt, HEAD_ROOM, port), oracle_maps)
                run, _ = xv.vliwsim.exec_vliw(
                    vliw, vm.PacketContext(pkt, HEAD_ROOM, port), vliw_maps)
            except xv.errors.XvliwError as exc:
                failures.append(f"packet {k}: toolchain error: {exc}")
                continue
            ok, detail = xv.fuzz.compare_results(oracle, run.result)
            if not ok:
                failures.append(f"packet {k}: engines differ: {detail}")
            elif oracle.action_name != action:
                failures.append(f"packet {k}: {oracle.action_name}, model {action}")
            tick()
        if not failures and oracle.maps_out.get(1) != table:
            failures.append(f"packet {len(stream) - 1}: final flow table "
                            f"differs from the model's")
        return len(stream), failures


WORKLOADS = {w.name: w for w in (FuzzDiff, LargeBlocks, FirewallFlows)}
