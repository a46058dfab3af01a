"""Regenerate Fig 18 (system cost efficiency)."""

from benchmarks.conftest import emit
from repro.experiments.fig18_cost import run


def test_fig18_cost():
    result = run()
    emit(result)
    gmean = next(r for r in result.rows if r["sample"] == "GMean")
    assert gmean["MS_C"] > 1.0  # cheap MegIS beats rich P-Opt
