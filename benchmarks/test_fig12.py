"""Regenerate Fig 12 (presence/absence speedups, 7 configs)."""

from benchmarks.conftest import emit
from repro.experiments.fig12_speedup import run


def test_fig12_speedup():
    result = run()
    emit(result)
    gmeans = {r["ssd"]: r for r in result.rows if r["sample"] == "GMean"}
    # Paper: 5.3-6.4x (SSD-C) and 2.7-6.5x (SSD-P) over P-Opt.
    assert 4.0 < gmeans["SSD-C"]["MS"] < 8.0
    assert 2.0 < gmeans["SSD-P"]["MS"] < 7.0
