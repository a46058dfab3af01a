"""Regenerate Table 2 (accelerator area and power)."""

import pytest

from benchmarks.conftest import emit
from repro.experiments.table2_area import run


def test_table2_area():
    result = run()
    emit(result)
    total = next(r for r in result.rows if r["unit"] == "TOTAL")
    assert total["power_mw"] == pytest.approx(7.658, abs=0.01)
