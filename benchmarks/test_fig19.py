"""Regenerate Fig 19 (PIM-accelerated baseline comparison)."""

from benchmarks.conftest import emit
from repro.experiments.fig19_pim import run


def test_fig19_pim():
    result = run()
    emit(result)
    assert all(row["ms_speedup"] > 1.0 for row in result.rows)
