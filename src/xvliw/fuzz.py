"""Differential fuzzing: random well-formed programs through the whole
compile pipeline, checked instruction-for-instruction against the
sequential oracle.

Generated programs use forward branches only (mirroring the verifier's
no-unbounded-cycles rule) and keep every memory access in bounds by
construction: packet cursors come from the context record, offsets stay
inside the guaranteed minimum packet size, head-room adjustments only
grow the window, and map-value dereferences sit behind a null check.
Bounds-check idioms are emitted with constants that the generated packet
always satisfies, so on the full-length packets emitted here, removing
them cannot change observable behaviour. On a shorter packet (leg 1: the
source against the reduced program) the source may take the abort branch
of a removed check; the reduced program then traps on a packet access
(the paper's hardware bounds check) or runs to the end, as the corpus's
``tx_mac_swap`` does on a 12-byte packet: it checks 14 bytes, touches 12.

A case is fully reproducible from its integer seed.
"""

from __future__ import annotations

import random
import re
import time
from dataclasses import dataclass, field

from .asm import parse_asm
from .compiler import compile_program
from .errors import XvliwError
from .formats import format_map_config, parse_map_config
from .isa import MapDef
from .schedule import LaneConstraints
from .vliwsim import exec_vliw, hazard_check
from .vm import Limits, MapStore, PacketContext, exec_sequential

MIN_PKT = 64
LIMITS = Limits(max_instructions=200_000)   # per engine run of a case
MINIMIZE_ROUNDS = 8
HEAD_ROOM = 64
SCRATCH = (0, 2, 3, 4, 5, 7, 8, 9)      # r6 pins the context, r1 helper arg
ALU_OPS = ("+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>=", "s>>=")
CMP_OPS = ("==", "!=", ">", ">=", "<", "<=", "s>", "s<", "&")


@dataclass
class FuzzCase:
    seed: int
    program_text: str
    packet_hex: str
    ingress_port: int
    map_config: str

    def packet(self) -> bytes:
        return bytes.fromhex(self.packet_hex)


@dataclass
class Divergence:
    case: FuzzCase
    detail: str
    minimized: str | None = None


@dataclass
class FuzzSummary:
    iterations: int
    divergences: list[Divergence] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def ok(self):
        return not self.divergences


class _Gen:
    """One generated program; the rng drives every choice."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.lines: list[str] = []
        self.labels = 0
        self.used_abort = False
        self.grow_budget = HEAD_ROOM - 4
        self.maps: list[MapDef] = []
        self.map_inits: list[tuple[int, bytes, bytes]] = []

    def label(self):
        self.labels += 1
        return f"L{self.labels}"

    def emit(self, line):
        self.lines.append(f"  {line}")

    def reg(self, exclude=()):
        choices = [r for r in SCRATCH if r not in exclude]
        return self.rng.choice(choices)

    def build(self) -> tuple[str, str]:
        rng = self.rng
        self._gen_maps()
        self.emit("r6 = r1")                      # keep the context reachable
        self.emit("r2 = *(u32 *)(r6 + 0)")
        self.emit("r3 = *(u32 *)(r6 + 4)")
        if rng.random() < 0.6:
            for _ in range(rng.randint(1, 3)):
                off = rng.randrange(8, 64, 8)
                self.emit(f"*(u64 *)(r10 - {off}) = 0")
        if rng.random() < 0.4:
            self.emit(f"r{self.reg(exclude=(2, 3))} = 0")

        for _ in range(rng.randint(3, 9)):
            seg = rng.choices(
                ("alu", "stack", "pkt_read", "pkt_write", "bounds", "diamond",
                 "map", "csum", "adjust", "mac_copy", "early_ret"),
                weights=(22, 12, 12, 8, 8, 14, 10, 4, 4, 6, 4))[0]
            getattr(self, f"_seg_{seg}")()

        self.emit(f"r0 = {rng.randint(0, 4)}")
        self.emit("exit")
        if self.used_abort:
            self.lines.append("abort:")
            self.emit("r0 = 1")
            self.emit("exit")
        maps_text = "".join(
            f".map {m.id} {m.kind} {m.key_size} {m.value_size} {m.max_entries}\n"
            for m in self.maps)
        return (maps_text + "\n".join(self.lines) + "\n",
                format_map_config(self.maps, self.map_inits))

    def _gen_maps(self):
        rng = self.rng
        kinds = ["hash", "array"]
        if rng.random() < 0.5:
            kinds.append("lru_hash")
        for mid, kind in enumerate(kinds, start=1):
            key = 4 if kind == "array" else rng.choice((4, 8))
            val = rng.choice((4, 8))
            entries = rng.randint(2, 4) if kind == "lru_hash" else \
                rng.randint(4, 16)
            self.maps.append(MapDef(mid, kind, key, val, entries))
            for _ in range(rng.randint(0, 3)):
                k = rng.randrange(entries).to_bytes(4, "little") if key == 4 \
                    else rng.randbytes(8)
                self.map_inits.append((mid, k, rng.randbytes(val)))

    # --- segments ---------------------------------------------------------

    def _seg_alu(self):
        rng = self.rng
        for _ in range(rng.randint(2, 6)):
            d = self.reg(exclude=(2, 3))
            kind = rng.random()
            if kind < 0.18:                          # fusable pair
                s = self.reg(exclude=(d,))
                self.emit(f"r{d} = r{s}")
                self.emit(f"r{d} += {rng.randint(1, 255)}")
            elif kind < 0.3:
                self.emit(f"r{d} = r{self.reg()}")
            elif kind < 0.45:
                self.emit(f"r{d} = {rng.randint(-2**31, 2**31 - 1)}")
            elif kind < 0.55:
                w = rng.choice(("w", "r"))
                self.emit(f"{w}{d} {rng.choice(ALU_OPS)} "
                          f"{rng.randint(-128, 127)}")
            elif kind < 0.62:
                self.emit(f"r{d} = {rng.choice(('be', 'le'))}"
                          f"{rng.choice((16, 32, 64))} r{d}")
            elif kind < 0.68:
                self.emit(f"r{d} = -r{d}")
            elif kind < 0.76:
                s = self.reg(exclude=(d,))
                op = rng.choice(("+", "-", "*", "&", "|", "^"))
                self.emit(f"r{d} = r{s} {op} {rng.randint(0, 4095)}")
            else:
                s = self.reg(exclude=(2, 3))
                self.emit(f"r{d} {rng.choice(ALU_OPS)} r{s}")

    def _seg_stack(self):
        rng = self.rng
        for _ in range(rng.randint(1, 3)):
            w = rng.choice((1, 2, 4, 8))
            off = rng.randrange(w, 257, w)
            name = {1: "u8", 2: "u16", 4: "u32", 8: "u64"}[w]
            if rng.random() < 0.6:
                self.emit(f"*({name} *)(r10 - {off}) = "
                          f"r{self.reg(exclude=(2, 3))}")
            else:
                self.emit(f"*({name} *)(r10 - {off}) = "
                          f"{rng.randint(0, 2**31 - 1) if rng.random() < 0.9 else 0}")
            if rng.random() < 0.5:
                self.emit(f"r{self.reg(exclude=(2, 3))} = "
                          f"*({name} *)(r10 - {off})")

    def _seg_pkt_read(self):
        rng = self.rng
        for _ in range(rng.randint(1, 3)):
            w = rng.choice((1, 2, 4, 6, 8))
            off = rng.randint(0, MIN_PKT - w)
            name = {1: "u8", 2: "u16", 4: "u32", 6: "u48", 8: "u64"}[w]
            self.emit(f"r{self.reg(exclude=(2, 3))} = "
                      f"*({name} *)(r2 + {off})")

    def _seg_pkt_write(self):
        rng = self.rng
        w = rng.choice((1, 2, 4, 6, 8))
        off = rng.randint(0, MIN_PKT - w)
        name = {1: "u8", 2: "u16", 4: "u32", 6: "u48", 8: "u64"}[w]
        if w != 6 and rng.random() < 0.3:
            self.emit(f"*({name} *)(r2 + {off}) = {rng.randint(0, 1000)}")
        else:
            self.emit(f"*({name} *)(r2 + {off}) = r{self.reg(exclude=(2, 3))}")

    def _seg_bounds(self):
        t = self.reg(exclude=(0, 2, 3))
        self.emit(f"r{t} = r2")
        self.emit(f"r{t} += {self.rng.randint(1, MIN_PKT)}")
        self.emit(f"if r{t} > r3 goto abort")
        self.used_abort = True
        self.emit(f"r{t} = {self.rng.randint(0, 100)}")   # scratch dies here

    def _seg_diamond(self):
        rng = self.rng
        a = self.reg()
        other = f"r{self.reg(exclude=(a,))}" if rng.random() < 0.5 else \
            str(rng.randint(-64, 64))
        l_else = self.label()
        l_join = self.label()
        self.emit(f"if r{a} {rng.choice(CMP_OPS)} {other} goto {l_else}")
        self._seg_alu()
        self.emit(f"goto {l_join}")
        self.lines.append(f"{l_else}:")
        if rng.random() < 0.25:
            self.emit(f"r0 = {rng.randint(0, 4)}")
            self.emit("exit")
        else:
            self._seg_alu()
        self.lines.append(f"{l_join}:")
        self._seg_alu()

    def _seg_map(self):
        rng = self.rng
        m = rng.choice(self.maps)
        key_off = 8 if m.key_size == 4 else 16
        self.emit(f"*(u32 *)(r10 - {key_off}) = {rng.randrange(m.max_entries * 2)}")
        if m.key_size == 8:
            self.emit(f"*(u32 *)(r10 - {key_off - 4}) = "
                      f"{rng.randrange(4)}")
        self.emit(f"r1 = map[{m.id}]")
        self.emit("r2 = r10")
        self.emit(f"r2 += -{key_off}")
        mode = rng.random()
        if mode < 0.55:
            skip = self.label()
            self.emit("call map_lookup")
            self.emit(f"if r0 == 0 goto {skip}")
            w = 4 if m.value_size == 4 else rng.choice((4, 8))
            name = {4: "u32", 8: "u64"}[w]
            if rng.random() < 0.5:
                self.emit(f"r{self.reg(exclude=(0, 2, 3))} = "
                          f"*({name} *)(r0 + 0)")
            else:
                self.emit(f"*({name} *)(r0 + 0) = "
                          f"r{self.reg(exclude=(0, 2, 3))}")
            self.lines.append(f"{skip}:")
        elif mode < 0.85:
            val_off = key_off + 16
            self.emit(f"*(u64 *)(r10 - {val_off}) = "
                      f"{rng.randint(0, 2**31 - 1)}")
            self.emit("r3 = r10")
            self.emit(f"r3 += -{val_off}")
            self.emit("r4 = 0")
            self.emit("call map_update")
        else:
            self.emit("call map_delete")
        self.emit("r2 = *(u32 *)(r6 + 0)")        # restore the packet cursor
        self.emit("r3 = *(u32 *)(r6 + 4)")

    def _seg_csum(self):
        rng = self.rng
        span = rng.choice((4, 8, 12, 16))
        off = rng.randrange(span, 129, 4)
        self.emit("r1 = 0")
        self.emit("r2 = 0")
        self.emit("r3 = r10")
        self.emit(f"r3 += -{off}")
        self.emit(f"r4 = {span}")
        self.emit(f"r5 = {rng.randint(0, 0xFFFF)}")
        self.emit("call csum_diff")
        self.emit("r2 = *(u32 *)(r6 + 0)")
        self.emit("r3 = *(u32 *)(r6 + 4)")

    def _seg_adjust(self):
        rng = self.rng
        delta = rng.choice((4, 8, 12, 16))
        if self.grow_budget < delta:
            return
        self.grow_budget -= delta
        skip = self.label()
        self.emit("r1 = r6")
        self.emit(f"r2 = -{delta}")
        self.emit("call adjust_head")
        self.emit(f"if r0 != 0 goto {skip}")
        self.lines.append(f"{skip}:")
        self.emit("r2 = *(u32 *)(r6 + 0)")
        self.emit("r3 = *(u32 *)(r6 + 4)")

    def _seg_mac_copy(self):
        rng = self.rng
        a = self.reg(exclude=(0, 2, 3))
        c = self.reg(exclude=(0, 2, 3, a))
        src = rng.randint(0, MIN_PKT - 6)
        dst = rng.randint(0, MIN_PKT - 6)
        self.emit(f"r{a} = *(u32 *)(r2 + {src})")
        self.emit(f"r{c} = *(u16 *)(r2 + {src + 4})")
        self.emit(f"*(u32 *)(r2 + {dst}) = r{a}")
        self.emit(f"*(u16 *)(r2 + {dst + 4}) = r{c}")

    def _seg_early_ret(self):
        rng = self.rng
        keep = self.label()
        a = self.reg()
        self.emit(f"if r{a} {rng.choice(CMP_OPS)} "
                  f"{rng.randint(-8, 8)} goto {keep}")
        self.emit(f"r0 = {rng.randint(0, 4)}")
        self.emit("exit")
        self.lines.append(f"{keep}:")


def generate_case(seed: int) -> FuzzCase:
    rng = random.Random(seed)
    gen = _Gen(rng)
    text, map_cfg = gen.build()
    length = rng.randint(MIN_PKT, 192)
    packet = rng.randbytes(length)
    port = rng.randint(0, 3)
    return FuzzCase(seed, text, packet.hex(), port, map_cfg)


def run_case(case: FuzzCase, lanes: int = 4, passes=None,
             enable_code_motion: bool = True):
    """Compile and run one case through both engines (``LIMITS`` each); the
    compiled output is also statically hazard-checked. Returns (ok, detail)."""
    program = parse_asm(case.program_text)
    vliw, _report = compile_program(
        program, LaneConstraints(lanes=lanes), passes=passes,
        enable_code_motion=enable_code_motion)
    violations = hazard_check(vliw)
    if violations:
        return False, f"hazard violations in compiled output: {violations[:3]}"

    setup = parse_map_config(case.map_config)
    oracle_res, _ = exec_sequential(
        program, PacketContext(case.packet(), HEAD_ROOM, case.ingress_port),
        MapStore(*setup), LIMITS)
    vliw_rep, _ = exec_vliw(
        vliw, PacketContext(case.packet(), HEAD_ROOM, case.ingress_port),
        MapStore(*setup), LIMITS)
    return compare_results(oracle_res, vliw_rep.result)


def compare_results(oracle, compiled):
    if oracle.trapped or compiled.trapped:
        if oracle.trapped and compiled.trapped:
            return True, "both-trapped"
        return False, (f"trap divergence: oracle={oracle.trap!r} "
                       f"compiled={compiled.trap!r}")
    problems = []
    if oracle.action != compiled.action or oracle.code != compiled.code:
        problems.append(f"action {oracle.action_name}({oracle.code}) != "
                        f"{compiled.action_name}({compiled.code})")
    if oracle.redirect_target != compiled.redirect_target:
        problems.append(f"redirect {oracle.redirect_target} != "
                        f"{compiled.redirect_target}")
    if oracle.packet_out != compiled.packet_out:
        problems.append("output packet bytes differ")
    if oracle.maps_out != compiled.maps_out:
        problems.append("final map contents differ")
    return (not problems), "; ".join(problems) or "equal"


def case_seed(run_seed: int, index: int) -> int:
    mix = (run_seed * 0x9E3779B97F4A7C15 + index * 0xBF58476D1CE4E5B9) % 2**64
    return random.Random(mix).getrandbits(48)


def fuzz(iterations: int, seed: int = 0, lanes: int = 4, passes=None,
         enable_code_motion: bool = True, minimize_failures: bool = True,
         progress=None) -> FuzzSummary:
    """Run the differential loop. Deterministic for a given seed: case i
    always uses case_seed(seed, i). A bad lane count raises before any case
    runs, not as a toolchain error in every case."""
    LaneConstraints(lanes=lanes)
    t0 = time.monotonic()
    summary = FuzzSummary(iterations)
    for i in range(iterations):
        case = generate_case(case_seed(seed, i))
        try:
            ok, detail = run_case(case, lanes, passes, enable_code_motion)
        except XvliwError as exc:
            ok, detail = False, f"toolchain error: {exc}"
        if not ok:
            mini = minimize(case, lanes, passes, enable_code_motion) \
                if minimize_failures else None
            summary.divergences.append(Divergence(case, detail, mini))
        if progress and (i + 1) % progress == 0:
            rate = (i + 1) / (time.monotonic() - t0)
            print(f"  {i + 1}/{iterations} cases, {rate:.0f}/s, "
                  f"{len(summary.divergences)} divergences")
    summary.elapsed = time.monotonic() - t0
    return summary


def _failure_class(case: FuzzCase, lanes, passes, motion):
    """None when the case passes; 'diverged' or the toolchain error shape
    (type plus message with indices blanked, so renumbering after a line
    deletion still matches)."""
    try:
        ok, _ = run_case(case, lanes, passes, motion)
        return None if ok else "diverged"
    except XvliwError as exc:
        return f"{type(exc).__name__}: {re.sub(r'[0-9]+', 'N', str(exc))}"


def minimize(case: FuzzCase, lanes=4, passes=None, motion=True) -> str:
    """Shrink a diverging case by deleting instruction lines while the same
    failure class persists, in at most ``MINIMIZE_ROUNDS`` sweeps. Label
    and directive lines stay."""
    want = _failure_class(case, lanes, passes, motion)
    if want is None:
        return case.program_text
    lines = case.program_text.splitlines()
    for _ in range(MINIMIZE_ROUNDS):
        shrunk = False
        i = 0
        while i < len(lines):
            body = lines[i].strip()
            if not body or body.endswith(":") or body.startswith("."):
                i += 1
                continue
            trial = lines[:i] + lines[i + 1:]
            candidate = FuzzCase(case.seed, "\n".join(trial) + "\n",
                                 case.packet_hex, case.ingress_port,
                                 case.map_config)
            if _failure_class(candidate, lanes, passes, motion) == want:
                lines = trial
                shrunk = True
                continue
            i += 1
        if not shrunk:
            break
    return "\n".join(lines) + "\n"
