"""Regenerate the §6.5 energy and data-movement analysis."""

from benchmarks.conftest import emit
from repro.experiments.energy import run


def test_energy():
    result = run()
    emit(result)
    for row in result.rows:
        assert row["reduction_vs_P"] > 2.5
        assert row["io_red_vs_A"] > 50
