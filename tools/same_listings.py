"""Check that a base commit and the working tree give the same listings.

    python3 tools/same_listings.py
    python3 tools/same_listings.py --base HEAD~1

The listings are the schedule digests' and the engine digests' ``--wide``
sets and the parse outcomes' ``--list``, each printed by its test module:
one ``name outcome`` line per entry, each name once. Each side runs from
its own copy under a temporary directory, made as ``tools/bench_ab.py``
makes them: the base commit exported with ``git archive``, and the working
tree's tracked and untracked files. The two sides are compared by name.
For each listing the script prints its entry count on both sides and the
changed, removed and added entries, the first few of each. It exits 1 when
an entry changed or was removed, else 0: an entry the base lacks is new
coverage, not a difference. Only the standard library is used.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_ab import export_commit, export_working_tree, git

LISTINGS = {
    "schedule --wide": ["tests/test_schedule_digests.py", "--wide"],
    "engine --wide": ["tests/test_engine_digests.py", "--wide"],
    "parse outcomes --list": ["tests/test_parse_outcomes.py", "--list"],
}
SHOWN = 5                               # entries printed per kind and listing


def listing(side: Path, args: list[str]) -> list[str]:
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.run([sys.executable, *args], cwd=side, env=env,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(args)} failed in {side}:\n{proc.stderr}")
    return proc.stdout.splitlines()


def entries(lines: list[str]) -> dict[str, str]:
    """Each ``name outcome`` line as name -> outcome."""
    out = {}
    for line in lines:
        name, _, outcome = line.partition(" ")
        if name in out:
            raise SystemExit(f"entry {name} is listed twice")
        out[name] = outcome
    return out


def compare(old: list[str], new: list[str]) -> dict[str, list[str]]:
    """The names of the entries that changed, were removed and were added
    between two listings, each in its listing's order."""
    a, b = entries(old), entries(new)
    return {"changed": [n for n in a if n in b and a[n] != b[n]],
            "removed": [n for n in a if n not in b],
            "added": [n for n in b if n not in a]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default="HEAD",
                        help="commit to compare the working tree against")
    args = parser.parse_args(argv)
    base = git("rev-parse", args.base).decode().strip()
    differ = False
    with tempfile.TemporaryDirectory(prefix="same_listings-") as tmp:
        parent, change = Path(tmp) / "parent", Path(tmp) / "change"
        export_commit(base, parent)
        export_working_tree(change)
        for name, cmd in LISTINGS.items():
            old, new = listing(parent, cmd), listing(change, cmd)
            found = compare(old, new)
            print(f"{name}: {len(old)} entries at {base[:12]}, {len(new)} in "
                  f"the working tree; " + ", ".join(
                      f"{len(names)} {kind}" for kind, names in found.items()))
            for kind, names in found.items():
                for entry in names[:SHOWN]:
                    print(f"  {kind}: {entry}")
            differ = differ or bool(found["changed"] or found["removed"])
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
