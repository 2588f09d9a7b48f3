"""The listing comparison of ``tools/same_listings.py``."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import same_listings  # noqa: E402  -- a script directory, not a package

BASE = ["corpus/a 11", "corpus/b 22", "fuzz/0 AsmSyntaxError: line 3: bad",
        "fuzz/1 33"]


def test_same_entries_in_the_same_order_are_identical():
    assert same_listings.compare(BASE, list(BASE)) == \
        {"changed": [], "removed": [], "added": []}


def test_entries_are_matched_by_name():
    new = ["corpus/b 22", "loops/x 44", "corpus/a 11",
           "fuzz/0 AsmSyntaxError: line 3: worse", "loops/y 55"]
    assert same_listings.compare(BASE, new) == {
        "changed": ["fuzz/0"], "removed": ["fuzz/1"],
        "added": ["loops/x", "loops/y"]}


def test_a_name_listed_twice_is_refused():
    with pytest.raises(SystemExit, match="corpus/a is listed twice"):
        same_listings.compare(BASE + ["corpus/a 12"], BASE)
