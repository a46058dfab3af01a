"""Suite-wide per-test ceiling for ``tests/`` and ``benchmarks/``.

A deadlocked lock or a stuck future must fail loudly instead of hanging
the run: past the ceiling, :mod:`faulthandler` dumps every thread's
traceback and exits the process.  Generous — the slowest legitimate test
is well under a minute.
"""

import faulthandler

import pytest

TEST_CEILING_S = 300


@pytest.fixture(autouse=True)
def _test_ceiling():
    faulthandler.dump_traceback_later(TEST_CEILING_S, exit=True)
    yield
    faulthandler.cancel_dump_traceback_later()
