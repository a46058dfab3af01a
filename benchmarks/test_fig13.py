"""Regenerate Fig 13 (time breakdown, CAMI-L)."""

from benchmarks.conftest import emit
from repro.experiments.fig13_breakdown import run


def test_fig13_breakdown():
    result = run()
    emit(result)
    rows = {(r["ssd"], r["config"]): r for r in result.rows}
    for ssd in ("SSD-C", "SSD-P"):
        assert rows[(ssd, "MS")]["total"] < rows[(ssd, "A-Opt")]["total"]
