"""Regenerate Fig 20 (abundance-estimation speedups)."""

from benchmarks.conftest import emit
from repro.experiments.fig20_abundance import run


def test_fig20_abundance():
    result = run()
    emit(result)
    for row in result.rows:
        assert row["MS"] > row["MS-NIdx"] > row["A-Opt"]
