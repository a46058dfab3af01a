"""Regenerate Fig 15 (number-of-SSDs sweep)."""

from benchmarks.conftest import emit
from repro.experiments.fig15_nssd import run


def test_fig15_nssd():
    result = run()
    emit(result)
    for ssd in ("SSD-C", "SSD-P"):
        series = [r["MS"] for r in result.rows if r["ssd"] == ssd]
        assert min(series) > 3.0  # remains high up to 8 SSDs
