"""KSS vs ternary tree vs flat tables size comparison (§4.3.2)."""

from benchmarks.conftest import emit
from repro.experiments.kss_size import run


def test_kss_size():
    result = run()
    emit(result)
    measured = next(r for r in result.rows if r["scope"] == "measured")
    assert measured["flat_over_kss"] > 1.0
