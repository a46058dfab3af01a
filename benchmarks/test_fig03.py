"""Regenerate Fig 3 (R-Qry/S-Qry I/O-overhead motivation)."""

from benchmarks.conftest import emit
from repro.experiments.fig03_motivation import run


def test_fig03_motivation():
    result = run()
    emit(result)
    for row in result.rows:
        assert row["SSD-C"] < row["SSD-P"] <= 1.0
