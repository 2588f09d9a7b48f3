"""Schedule containers and the stable text dump format.

``BlockSchedule`` holds one block's rows while the compiler is working;
``VliwProgram`` is the assembled whole-program artifact the simulator
executes. Both obey the same row invariants (pairwise parallelizability,
branch ordering, one helper per row, per-lane forwarding); the simulator
revalidates on load. One helper per row needs no rule of its own in the
compiler: every call writes r0, so two calls never pass the pairwise
test. ``row_successors`` states which rows can run right after a row;
``cross_lane_violations`` states the per-lane forwarding rule over those
transitions for both the register assigner and the simulator's hazard
check.

In a ``VliwProgram`` branch targets are row indices; the dump format
writes them as ``@row``. One row per line::

    lane0 | lane1 | lane2 | lane3        # b0.2 b0.4m - -

Empty slots print ``---``; the provenance comment names the originating
block and instruction index per occupied lane, with ``m`` marking moved
instructions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .asm import format_instruction, parse_instruction
from .errors import AsmSyntaxError, CompileError
from .isa import Instruction, Kind, io_sets, sets_conflict


@dataclass(frozen=True)
class LaneConstraints:
    lanes: int = 4

    def __post_init__(self):
        if not 1 <= self.lanes <= 8:
            raise CompileError(f"lane count {self.lanes} is not in [1, 8]")


@dataclass
class Slot:
    instr: Instruction
    src_block: int
    src_index: int
    moved: bool = False


@dataclass
class BlockSchedule:
    block_id: int
    rows: list[list[Slot]]           # occupied slots only, order pre-lane

    def instruction_count(self):
        return sum(len(r) for r in self.rows)


@dataclass
class VliwProgram:
    lane_count: int
    rows: list[list[Slot | None]]    # lane-indexed, fixed width
    row_block: list[int] = field(default_factory=list)
    maps: tuple = ()

    @property
    def row_count(self):
        return len(self.rows)

    @property
    def instruction_count(self):
        return sum(1 for row in self.rows for s in row if s is not None)

    @property
    def static_ipc(self):
        return self.instruction_count / len(self.rows) if self.rows else 0.0

    def row_slots(self, r):
        return [s for s in self.rows[r] if s is not None]

    def dump(self) -> str:
        lines = [f"# xvliw schedule lanes={self.lane_count}"]
        for r, row in enumerate(self.rows):
            cells = []
            prov = []
            for s in row:
                if s is None:
                    cells.append("---")
                    prov.append("-")
                else:
                    cells.append(format_instruction(s.instr))
                    prov.append(f"b{s.src_block}.{s.src_index}"
                                + ("m" if s.moved else ""))
            lines.append(f"{' | '.join(cells)}    # {' '.join(prov)}")
        return "\n".join(lines) + "\n"


def parse_dump(text: str, maps=()) -> VliwProgram:
    """Load a schedule dump (hand-edited ones included; provenance optional)."""
    lanes = None
    rows: list[list[Slot | None]] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            if "lanes=" in line and lanes is None:
                try:
                    lanes = int(line.split("lanes=")[1].split()[0])
                except (ValueError, IndexError):
                    raise AsmSyntaxError(
                        line_no, f"bad lane count in {line!r}") from None
                _check_lane_count(lanes, line_no)
            continue
        body, _, comment = line.partition("#")
        cells = [c.strip() for c in body.split("|")]
        prov = comment.split() if comment else []
        if lanes is None:
            lanes = len(cells)
            _check_lane_count(lanes, line_no)
        if len(cells) != lanes:
            raise AsmSyntaxError(line_no, f"expected {lanes} lanes, got {len(cells)}")
        row: list[Slot | None] = []
        for lane, cell in enumerate(cells):
            if cell in ("---", ""):
                row.append(None)
                continue
            ins = parse_instruction(cell, line_no)
            src_block, src_index, moved = -1, -1, False
            if lane < len(prov) and prov[lane] not in ("-", ""):
                tag = prov[lane]
                moved = tag.endswith("m")
                tag = tag.rstrip("m")
                try:
                    src_block = int(tag.split(".")[0].lstrip("b"))
                    src_index = int(tag.split(".")[1])
                except (ValueError, IndexError):
                    pass
            row.append(Slot(ins, src_block, src_index, moved))
        rows.append(row)
    if not rows:
        raise AsmSyntaxError(0, "empty schedule dump")
    for r, row in enumerate(rows):
        for s in row:
            if s is not None and s.instr.kind in (Kind.BRANCH, Kind.JUMP_ALWAYS):
                if s.instr.target is None or not 0 <= s.instr.target < len(rows):
                    raise AsmSyntaxError(r + 1, "branch row target out of range")
    return VliwProgram(lane_count=lanes, rows=rows,
                       row_block=[-1] * len(rows), maps=tuple(maps))


def _check_lane_count(lanes: int, line_no: int):
    """A dump's lane count must be one ``LaneConstraints`` accepts."""
    try:
        LaneConstraints(lanes)
    except CompileError as exc:
        raise AsmSyntaxError(line_no, str(exc)) from None


def row_successors(vliw: VliwProgram, r: int) -> list[int]:
    """Rows that can run right after row r: its branch targets, and r + 1
    unless the row jumps unconditionally or ends execution."""
    slots = vliw.row_slots(r)
    nexts = {s.instr.target for s in slots
             if s.instr.kind in (Kind.BRANCH, Kind.JUMP_ALWAYS)}
    if not any(s.instr.kind in (Kind.JUMP_ALWAYS, Kind.EXIT, Kind.EARLY_EXIT)
               for s in slots):
        nexts.add(r + 1)
    return sorted(n for n in nexts if 0 <= n < len(vliw.rows))


def cross_lane_violations(vliw: VliwProgram):
    """Cross-lane back-to-back read-after-write pairs over every runtime
    row transition: (from_row, to_row, reader, reader_lane, producer_lane).
    Per-lane forwarding lets a row read what the previous row wrote only
    on the lane that wrote it. Compiler output can break this only at
    block boundaries; lanes inside a block are assigned consistently."""
    out = []
    for r, row in enumerate(vliw.rows):
        for nr in row_successors(vliw, r):
            for lane_r, producer in enumerate(row):
                if producer is None:
                    continue
                pouts = io_sets(producer.instr).outputs
                for lane_n, reader in enumerate(vliw.rows[nr]):
                    if reader is None or lane_n == lane_r:
                        continue
                    if sets_conflict(pouts, io_sets(reader.instr).inputs):
                        out.append((r, nr, reader, lane_n, lane_r))
    return out
