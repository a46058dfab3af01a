"""Regenerate Fig 14 (database-size sweep)."""

from benchmarks.conftest import emit
from repro.experiments.fig14_dbsize import run


def test_fig14_dbsize():
    result = run()
    emit(result)
    for ssd in ("SSD-C", "SSD-P"):
        series = [r["MS"] for r in result.rows if r["ssd"] == ssd]
        assert series == sorted(series)  # speedup grows with db size
