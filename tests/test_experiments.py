"""Integration tests: every experiment runs and reproduces the paper's shape."""

import pytest

from repro.experiments.runner import REGISTRY, ExperimentResult, get_experiment


class TestRunnerInfrastructure:
    def test_registry_complete(self):
        expected = {
            "fig03", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17",
            "fig18", "fig19", "fig20", "fig21", "table2", "energy",
            "accuracy", "kss_size", "ftl_metadata", "ablation_buckets",
            "ablation_sketch", "isp_management", "overprovisioning",
            "overlap_report", "random_read_latency",
        }
        assert set(REGISTRY) == expected

    def test_unknown_experiment(self):
        with pytest.raises(KeyError):
            get_experiment("fig99")

    def test_result_row_validation(self):
        result = ExperimentResult("x", "t", columns=["a", "b"])
        with pytest.raises(ValueError):
            result.add_row(a=1)

    def test_format_table_renders(self):
        result = ExperimentResult("x", "t", columns=["a"], paper_reference="ref")
        result.add_row(a=1.2345)
        text = result.format_table()
        assert "x" in text and "1.23" in text and "ref" in text


@pytest.fixture(scope="module")
def results():
    """Run every experiment once (accuracy is the slow one)."""
    return {name: get_experiment(name)() for name in sorted(REGISTRY)}


class TestAllExperimentsRun:
    def test_every_experiment_has_rows(self, results):
        for name, result in results.items():
            assert result.rows, f"{name} produced no rows"
            for row in result.rows:
                assert set(result.columns) <= set(row)


class TestPaperShapes:
    def test_fig03_io_hurts_more_on_ssd_c(self, results):
        for row in results["fig03"].rows:
            assert row["SSD-C"] < row["SSD-P"] <= 1.0

    def test_fig03_bigger_db_bigger_gap(self, results):
        rows = results["fig03"].rows
        by_key = {(r["tool"], r["db_scale"]): r for r in rows}
        assert by_key[("R-Qry", "2x")]["SSD-C"] < by_key[("R-Qry", "1x")]["SSD-C"]

    def test_fig12_ms_wins_everywhere(self, results):
        for row in results["fig12"].rows:
            for config in ("P-Opt", "A-Opt", "A-Opt+KSS", "Ext-MS", "MS-NOL", "MS-CC"):
                assert row["MS"] >= row[config]

    def test_fig12_gmean_bands(self, results):
        gmeans = {r["ssd"]: r for r in results["fig12"].rows if r["sample"] == "GMean"}
        assert 4.0 < gmeans["SSD-C"]["MS"] < 8.0  # paper ~5.9 over P-Opt
        assert 2.0 < gmeans["SSD-P"]["MS"] < 7.0

    def test_fig13_overlap_hides_sorting(self, results):
        rows = {(r["ssd"], r["config"]): r for r in results["fig13"].rows}
        for ssd in ("SSD-C", "SSD-P"):
            assert rows[(ssd, "MS")]["total"] < rows[(ssd, "MS-NOL")]["total"]
            assert rows[(ssd, "A-Opt+KSS")]["taxid"] < rows[(ssd, "A-Opt")]["taxid"]

    def test_fig14_speedup_grows_with_db(self, results):
        for ssd in ("SSD-C", "SSD-P"):
            series = [r["MS"] for r in results["fig14"].rows if r["ssd"] == ssd]
            assert series == sorted(series)

    def test_fig15_remains_high_at_8_ssds(self, results):
        for ssd in ("SSD-C", "SSD-P"):
            series = [r["MS"] for r in results["fig15"].rows if r["ssd"] == ssd]
            assert min(series) > 3.0

    def test_fig16_speedup_grows_with_smaller_dram(self, results):
        for ssd in ("SSD-C", "SSD-P"):
            series = [r["MS"] for r in results["fig16"].rows if r["ssd"] == ssd]
            assert series == sorted(series)

    def test_fig17_speedup_grows_with_channels(self, results):
        for ssd in ("SSD-C", "SSD-P"):
            series = [r["MS_vs_A-Opt"] for r in results["fig17"].rows if r["ssd"] == ssd]
            assert series == sorted(series)

    def test_fig18_cheap_megis_beats_rich_baselines(self, results):
        gmean = next(r for r in results["fig18"].rows if r["sample"] == "GMean")
        assert gmean["MS_C"] > 1.0
        assert gmean["P-Opt_C"] < 0.5  # chunked Kraken2 collapses on 64 GB

    def test_fig19_ms_beats_sieve(self, results):
        for row in results["fig19"].rows:
            assert row["ms_speedup"] > 1.0

    def test_fig20_step3_helps(self, results):
        for row in results["fig20"].rows:
            assert row["MS_vs_NIdx"] > 1.2
            assert row["MS"] > row["A-Opt"]

    def test_fig21_speedup_grows_with_samples(self, results):
        for ssd in ("SSD-C", "SSD-P"):
            series = [
                r["MS_vs_P-Opt"] for r in results["fig21"].rows if r["ssd"] == ssd
            ]
            assert series == sorted(series)
            assert series[-1] > 15  # paper: up to 37.2x

    def test_table2_totals(self, results):
        total = next(r for r in results["table2"].rows if r["unit"] == "TOTAL")
        assert total["power_mw"] == pytest.approx(7.658, abs=0.01)
        assert total["area_mm2"] == pytest.approx(0.0358, abs=0.005)

    def test_energy_reductions_in_band(self, results):
        for row in results["energy"].rows:
            assert row["reduction_vs_P"] > 2.5
            assert row["reduction_vs_A"] > 8.0
            assert row["io_red_vs_A"] > 50

    def test_accuracy_megis_matches_aopt(self, results):
        rows = results["accuracy"].rows
        by_key = {(r["sample"], r["tool"]): r for r in rows}
        for sample in ("CAMI-L", "CAMI-M", "CAMI-H"):
            megis = by_key[(sample, "MegIS")]
            aopt = by_key[(sample, "A-Opt")]
            popt = by_key[(sample, "P-Opt")]
            assert megis["matches_aopt"] is True
            assert megis["f1"] == aopt["f1"]
            assert aopt["f1"] > popt["f1"]
            assert aopt["l1_error"] < popt["l1_error"]

    def test_kss_size_orderings(self, results):
        rows = {r["scope"]: r for r in results["kss_size"].rows}
        assert rows["measured"]["flat_over_kss"] > 1.0
        assert rows["paper"]["flat_over_kss"] == pytest.approx(107 / 14, rel=0.01)

    def test_ftl_metadata_reduction(self, results):
        rows = {r["quantity"]: r for r in results["ftl_metadata"].rows}
        assert rows["megis_total"]["fraction_of_baseline"] < 0.001

    def test_ablation_buckets_overlap_improves(self, results):
        rows = results["ablation_buckets"].rows
        modeled = [r["modeled_seconds"] for r in rows]
        assert modeled == sorted(modeled, reverse=True)  # more buckets, faster
        exposed = [r["exposed_sort_fraction"] for r in rows]
        assert exposed[0] == 1.0  # one bucket = no overlap = MS-NOL

    def test_ablation_sketch_tradeoff(self, results):
        rows = results["ablation_sketch"].rows
        sizes = [r["kss_bytes"] for r in rows]
        assert sizes == sorted(sizes)  # denser sketch -> bigger tables
        assert rows[-1]["f1"] >= rows[0]["f1"]  # and no worse sensitivity

    def test_isp_management_claims(self, results):
        rows = {r["quantity"]: r["value"] for r in results["isp_management"].rows}
        assert rows["baseline_write_amplification"] > 1.0
        assert rows["megis_isp_flash_writes"] == 0.0
        key = next(k for k in rows if k.startswith("megis_max_block_reads"))
        assert rows[key] < rows["read_disturb_threshold"]

    def test_random_read_latency_tail_grows_with_load(self, results):
        for ssd in ("SSD-C", "SSD-P"):
            rows = [r for r in results["random_read_latency"].rows
                    if r["ssd"] == ssd]
            p99 = [r["p99_us"] for r in rows]
            assert p99 == sorted(p99)

    def test_overlap_report_tracks_byte_volume_model(self, results):
        rows = {r["n_ssds"]: r for r in results["overlap_report"].rows}
        assert set(rows) == {1, 2, 4}
        assert rows[1]["model_ratio"] == 0.0
        # More shards -> more of the busy time is hideable, in the model
        # and in the paced measurement.
        assert rows[2]["model_ratio"] < rows[4]["model_ratio"]
        for n_ssds in (2, 4):
            row = rows[n_ssds]
            assert row["measured_ratio"] > 0.2
            assert row["measured_ratio"] == pytest.approx(
                row["model_ratio"], abs=0.3
            )
            assert row["max_shard_mb"] < row["total_mb"]

    def test_overprovisioning_degrades_gracefully(self, results):
        rows = results["overprovisioning"].rows
        achieved = [r["achieved_gbps"] for r in rows]
        assert achieved == sorted(achieved, reverse=True)
        # Even under 1:1 management traffic, internal service bandwidth
        # stays far above SSD-C's 0.56 GB/s external rate — the §2.3 point.
        assert achieved[-1] > 1.0
