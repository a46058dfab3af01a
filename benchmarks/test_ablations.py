"""The design-choice ablations DESIGN.md calls out."""

from benchmarks.conftest import emit
from repro.experiments.ablation_buckets import run as run_buckets
from repro.experiments.ablation_sketch import run as run_sketch
from repro.experiments.isp_management import run as run_management


def test_ablation_buckets():
    result = run_buckets()
    emit(result)
    modeled = [r["modeled_seconds"] for r in result.rows]
    assert modeled == sorted(modeled, reverse=True)


def test_ablation_sketch():
    result = run_sketch()
    emit(result)
    sizes = [r["kss_bytes"] for r in result.rows]
    assert sizes == sorted(sizes)


def test_isp_management():
    result = run_management()
    emit(result)
    rows = {r["quantity"]: r["value"] for r in result.rows}
    assert rows["baseline_write_amplification"] > 1.0
    assert rows["megis_isp_flash_writes"] == 0.0
