"""Schedule containers and the stable text dump format.

``BlockSchedule`` holds one block's rows while the compiler is working;
``VliwProgram`` is the assembled whole-program artifact the simulator
executes. Both obey the same row invariants (pairwise parallelizability,
branch ordering, one helper per row, per-lane forwarding); the simulator
revalidates on load. One helper per row needs no rule of its own in the
compiler: every call writes r0, so two calls never pass the pairwise
test. ``row_successors`` states which rows can run right after a row;
``crossings`` states the per-lane forwarding rule for one row pair; the
lane pass (``regalloc.assign_registers``) checks back edges with it, and
``cross_lane_violations`` applies it over those transitions for the
simulator's hazard check (``vliwsim.hazard_check``).

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
from .isa import (JUMP_KINDS, Instruction, Kind, field_problem, io_sets,
                  target_problem)


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
    rows: list[list[Slot]]           # occupied slots only, order pre-lane


@dataclass(slots=True)
class VliwProgram:
    """``decoded`` is the simulator's row cache (``vliwsim.exec_vliw``): one
    entry per row, filled on the row's first execution. It is outside
    ``__init__``, equality and ``repr``, and never carried over by
    ``replace``. ``rows`` must not change once the program has run."""
    lane_count: int
    rows: list[list[Slot | None]]    # lane-indexed, fixed width
    row_block: list[int] = field(default_factory=list)
    maps: tuple = ()
    decoded: list | None = field(default=None, init=False, repr=False,
                                 compare=False)

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
    """Load a schedule dump (hand-edited ones included; provenance optional),
    checking each slot's fields (``isa.field_problem``) and row targets."""
    lanes = None
    rows: list[list[Slot | None]] = []
    row_lines: list[int] = []           # the dump line each row came from
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
            problem = field_problem(ins)
            if problem is not None:
                raise AsmSyntaxError(line_no, f"lane {lane}: {problem}")
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
        row_lines.append(line_no)
    if not rows:
        raise AsmSyntaxError(0, "empty schedule dump")
    for line_no, row in zip(row_lines, rows):
        for s in row:
            if s is not None and target_problem(s.instr, len(rows)):
                raise AsmSyntaxError(line_no, "branch row target out of range")
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
    nexts = {s.instr.target for s in slots if s.instr.kind in JUMP_KINDS}
    if not any(s.instr.kind in (Kind.JUMP_ALWAYS, Kind.EXIT, Kind.EARLY_EXIT)
               for s in slots):
        nexts.add(r + 1)
    return sorted(n for n in nexts if 0 <= n < len(vliw.rows))


def crossings(prev: list, row: list):
    """(reader, reader_lane, producer_lane) for each slot of lane-indexed
    ``row`` that reads what lane-indexed ``prev`` writes on another lane.
    Per-lane forwarding lets a row read what the previous row wrote only on
    the lane that wrote it."""
    return [(s, ls, lp) for lp, p in enumerate(prev) if p is not None
            for writes in [io_sets(p.instr).writes]
            for ls, s in enumerate(row) if s is not None and ls != lp
            and writes & io_sets(s.instr).reads]


def cross_lane_violations(vliw: VliwProgram):
    """Cross-lane back-to-back read-after-write pairs over every runtime row
    transition: (from_row, to_row, reader, reader_lane, producer_lane)."""
    return [(r, nr, *c) for r in range(len(vliw.rows))
            for nr in row_successors(vliw, r)
            for c in crossings(vliw.rows[r], vliw.rows[nr])]
