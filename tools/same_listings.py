"""Check that a base commit and the working tree give the same listings.

    python3 tools/same_listings.py
    python3 tools/same_listings.py --base HEAD~1

The listings are the schedule digests' and the engine digests' ``--wide``
sets and the parse outcomes' ``--list``, each printed by its test module.
Each side runs from its own copy under a temporary directory, made as
``tools/bench_ab.py`` makes them: the base commit exported with ``git
archive``, and the working tree's tracked and untracked files. For each
listing the script prints its line count on both sides and, where they
differ, the first differing lines. It exits 1 on any difference, else 0.
Only the standard library is used.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from itertools import zip_longest
from pathlib import Path

from bench_ab import export_commit, export_working_tree, git

LISTINGS = {
    "schedule --wide": ["tests/test_schedule_digests.py", "--wide"],
    "engine --wide": ["tests/test_engine_digests.py", "--wide"],
    "parse outcomes --list": ["tests/test_parse_outcomes.py", "--list"],
}
SHOWN = 5                               # differing lines printed per listing


def listing(side: Path, args: list[str]) -> list[str]:
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.run([sys.executable, *args], cwd=side, env=env,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(args)} failed in {side}:\n{proc.stderr}")
    return proc.stdout.splitlines()


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
            pairs = zip_longest(old, new, fillvalue="(no line)")
            diffs = [(n, a, b) for n, (a, b) in enumerate(pairs, 1) if a != b]
            print(f"{name}: {len(old)} lines at {base[:12]}, {len(new)} in "
                  f"the working tree, {'differ' if diffs else 'identical'}")
            for n, a, b in diffs[:SHOWN]:
                print(f"  line {n}:\n    - {a}\n    + {b}")
            differ = differ or bool(diffs)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
