"""The functional accuracy comparison (F1 / L1, §5-§6.1).

The one paper table here that exercises the *functional* pipelines
(Kraken2, Metalign, MegIS) end to end rather than the analytic model.
"""

from benchmarks.conftest import emit
from repro.experiments.accuracy import run


def test_accuracy():
    result = run(n_reads=300)
    emit(result)
    rows = {(r["sample"], r["tool"]): r for r in result.rows}
    for sample in ("CAMI-L", "CAMI-M", "CAMI-H"):
        assert rows[(sample, "MegIS")]["matches_aopt"] is True
        assert rows[(sample, "A-Opt")]["f1"] > rows[(sample, "P-Opt")]["f1"]
