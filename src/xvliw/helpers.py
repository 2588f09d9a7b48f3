"""The helper function interface table, shipped as ``helper_table.cfg``.

Every layer that knows a helper reads it from here: the assembler maps
names to ids, ``isa`` derives a call's effect sets and pointer
provenance, and the interpreter dispatches on it.
"""

from __future__ import annotations

import importlib.resources
from dataclasses import dataclass


@dataclass(frozen=True)
class HelperDef:
    id: int
    name: str
    arity: int
    reads: tuple[str, ...]
    writes: tuple[str, ...]
    returns: str


def _load_helper_table() -> dict[int, HelperDef]:
    text = (importlib.resources.files(__package__) / "helper_table.cfg").read_text()
    table = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        hid, name, arity, reads, writes, returns = line.split()
        parse = lambda s: () if s == "-" else tuple(s.split(","))
        table[int(hid)] = HelperDef(int(hid), name, int(arity),
                                    parse(reads), parse(writes), returns)
    return table


HELPERS = _load_helper_table()
HELPER_IDS = {h.name: h.id for h in HELPERS.values()}
