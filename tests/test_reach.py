"""The reach audit's recorder and classifier over a fixture package
(``tests/data/reach/fixpkg``): a def is reached when called in the child,
in one of its threads or in a grandchild, and matched at its first
decorator's line."""

import sys
from pathlib import Path

import pytest

from repro.devtools import reach

PACKAGE = Path(__file__).resolve().parent / "data" / "reach" / "fixpkg"
MAIN = [sys.executable, "-c", "import fixpkg.mod; fixpkg.mod.main()"]


@pytest.fixture(scope="module")
def audit(tmp_path_factory):
    found = reach.defs(PACKAGE)
    reached = reach.record([(MAIN, None)], PACKAGE, tmp_path_factory.mktemp("run"))
    return found, reached


def test_reached_defs_are_matched_by_their_first_line(audit):
    found, reached = audit
    assert sorted(found[site] for site in found if site in reached) == [
        "fixpkg.mod:Widget.reached_in_a_thread",
        "fixpkg.mod:decorated",
        "fixpkg.mod:decorated.<locals>.wrapper",
        "fixpkg.mod:main",
        "fixpkg.mod:reached_directly",
        "fixpkg.mod:reached_in_a_grandchild",
        "fixpkg.mod:reached_through_a_decorator",
    ]


def test_unlisted_unreached_defs_and_stale_entries_are_reported(audit):
    found, reached = audit
    table = {"fixpkg.mod:listed_and_never_called": "on the table",
             "fixpkg.mod:deleted_long_ago": "names nothing"}
    missing, stale = reach.unreached(found, reached, table)
    assert [found[site] for site in missing] == ["fixpkg.mod:Widget.never_called"]
    assert stale == ["fixpkg.mod:deleted_long_ago"]


def test_a_whole_module_entry_covers_its_defs(audit):
    found, reached = audit
    assert reach.unreached(found, reached, {"fixpkg.mod": "a model module"}) == ([], [])


def test_a_failing_entry_point_fails_the_audit(tmp_path):
    with pytest.raises(SystemExit, match="exited 3"):
        reach.record([([sys.executable, "-c", "raise SystemExit(3)"], None)],
                     PACKAGE, tmp_path)
