"""MegIS FTL metadata-size ablation (§4.5)."""

from benchmarks.conftest import emit
from repro.experiments.ftl_metadata import run


def test_ftl_metadata():
    result = run()
    emit(result)
    rows = {r["quantity"]: r for r in result.rows}
    assert rows["megis_total"]["fraction_of_baseline"] < 0.001
