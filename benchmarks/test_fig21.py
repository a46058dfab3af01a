"""Regenerate Fig 21 (multi-sample analysis)."""

from benchmarks.conftest import emit
from repro.experiments.fig21_multisample import run


def test_fig21_multisample():
    result = run()
    emit(result)
    last = [r for r in result.rows if r["n_samples"] == 16]
    assert all(r["MS_vs_P-Opt"] > 15 for r in last)  # paper: up to 37.2x
