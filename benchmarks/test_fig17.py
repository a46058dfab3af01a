"""Regenerate Fig 17 (internal-bandwidth sweep via channels)."""

from benchmarks.conftest import emit
from repro.experiments.fig17_channels import run


def test_fig17_channels():
    result = run()
    emit(result)
    for ssd in ("SSD-C", "SSD-P"):
        series = [r["MS_vs_A-Opt"] for r in result.rows if r["ssd"] == ssd]
        assert series == sorted(series)
