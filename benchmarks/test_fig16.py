"""Regenerate Fig 16 (host-DRAM-capacity sweep)."""

from benchmarks.conftest import emit
from repro.experiments.fig16_dram import run


def test_fig16_dram():
    result = run()
    emit(result)
    for ssd in ("SSD-C", "SSD-P"):
        series = [r["MS"] for r in result.rows if r["ssd"] == ssd]
        assert series == sorted(series)  # speedup grows as DRAM shrinks
