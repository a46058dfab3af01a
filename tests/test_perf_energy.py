"""Tests for the energy model, data movement, PIM, sorter, and cost models."""

from dataclasses import replace

import pytest

from repro.perf.calibration import DEFAULT_CALIBRATION
from repro.perf.cost import cost_efficiency_comparison, speedups_over
from repro.perf.energy import EnergyModel, external_data_movement_bytes
from repro.perf.specs import baseline_system
from repro.perf.timing import TimingModel
from repro.ssd.config import ssd_c, ssd_p
from repro.workloads.datasets import cami_spec


@pytest.fixture(scope="module")
def setup_c():
    system = baseline_system(ssd_c())
    return system, TimingModel(system, cami_spec("CAMI-M")), EnergyModel(system)


class TestEnergyModel:
    def test_energy_positive_with_components(self, setup_c):
        _, model, energy = setup_c
        report = energy.evaluate(model.popt())
        assert report.joules > 0
        assert set(report.component_joules) == {"cpu", "dram", "ssd", "pim", "accel"}
        assert report.component_joules["pim"] == 0.0

    def test_megis_cheapest(self, setup_c):
        _, model, energy = setup_c
        ms = energy.evaluate(model.megis("ms")).joules
        assert ms < energy.evaluate(model.popt()).joules
        assert ms < energy.evaluate(model.aopt()).joules
        assert ms < energy.evaluate(model.sieve()).joules

    def test_paper_band_reductions(self):
        reductions_p, reductions_a, reductions_s = [], [], []
        for ssd in (ssd_c(), ssd_p()):
            system = baseline_system(ssd)
            energy = EnergyModel(system)
            for name in ("CAMI-L", "CAMI-M", "CAMI-H"):
                model = TimingModel(system, cami_spec(name))
                ms = energy.evaluate(model.megis("ms")).joules
                reductions_p.append(energy.evaluate(model.popt()).joules / ms)
                reductions_a.append(energy.evaluate(model.aopt()).joules / ms)
                reductions_s.append(energy.evaluate(model.sieve()).joules / ms)
        # Paper: 5.4x / 15.2x / 1.9x averages (9.8 / 25.7 / 3.5 max).
        assert 3.0 < sum(reductions_p) / 6 < 8.0
        assert 10.0 < sum(reductions_a) / 6 < 25.0
        assert 1.3 < sum(reductions_s) / 6 < 3.5

    def test_sieve_pim_energy_charged(self, setup_c):
        _, model, energy = setup_c
        assert energy.evaluate(model.sieve()).component_joules["pim"] > 0

    def test_accel_energy_negligible(self, setup_c):
        _, model, energy = setup_c
        report = energy.evaluate(model.megis("ms"))
        assert 0 < report.component_joules["accel"] < 0.01 * report.joules


class TestDataMovement:
    def test_paper_band_reduction(self):
        spec = cami_spec("CAMI-M")
        ms = external_data_movement_bytes("MS", spec)
        aopt = external_data_movement_bytes("A-Opt", spec)
        popt = external_data_movement_bytes("P-Opt", spec)
        assert 50 < aopt / ms < 100  # paper: 71.7x
        assert 20 < popt / ms < 40  # paper: 30.1x

    def test_ext_ms_moves_database(self):
        spec = cami_spec("CAMI-M")
        assert external_data_movement_bytes(
            "Ext-MS", spec
        ) > 50 * external_data_movement_bytes("MS", spec)

    def test_abundance_adds_index_bytes(self):
        spec = cami_spec("CAMI-M")
        assert external_data_movement_bytes(
            "MS", spec, abundance=True
        ) > external_data_movement_bytes("MS", spec)

    def test_unknown_config_rejected(self):
        with pytest.raises(ValueError):
            external_data_movement_bytes("bogus", cami_spec("CAMI-M"))


def _sieve_compute(breakdown):
    return (breakdown.phase_seconds("pim_kmer_match")
            + breakdown.phase_seconds("classify"))


class TestSieveModel:
    """Sieve (PIM k-mer matching) as ``TimingModel.sieve()`` models it."""

    def test_accelerated_less_than_base(self, setup_c):
        _, model, _ = setup_c
        assert _sieve_compute(model.sieve()) < model._kraken_compute_seconds()

    def test_amdahl_limit(self):
        cal = replace(DEFAULT_CALIBRATION, sieve_match_speedup=1e12)
        model = TimingModel(baseline_system(ssd_c()), cami_spec("CAMI-M"), cal)
        breakdown = model.sieve()
        base = model._kraken_compute_seconds()
        f, s = cal.sieve_match_fraction, cal.sieve_match_speedup
        assert breakdown.phase_seconds("pim_kmer_match") == pytest.approx(
            0.0, abs=base * 1e-9
        )
        assert _sieve_compute(breakdown) == pytest.approx(base * (f / s + 1 - f))


class TestSortingAccelerator:
    def test_faster_than_host(self, setup_c):
        _, model, _ = setup_c
        assert model._sort_seconds(accelerated=True) * 3 < model._sort_seconds()


class TestCostModel:
    def test_rows_and_speedups(self):
        rows = cost_efficiency_comparison(cami_spec("CAMI-M"))
        assert set(rows) == {"P-Opt_P", "A-Opt_P", "P-Opt_C", "A-Opt_C", "MS_C"}
        speedups = speedups_over(rows, "P-Opt_P")
        assert speedups["P-Opt_P"] == pytest.approx(1.0)
        assert speedups["MS_C"] > 1.0  # cheap MegIS beats the rich baseline
        assert speedups["P-Opt_C"] < speedups["P-Opt_P"]

    def test_throughput_per_dollar_favors_megis(self):
        rows = cost_efficiency_comparison(cami_spec("CAMI-M"))
        assert (
            rows["MS_C"].throughput_per_dollar
            > 10 * rows["P-Opt_P"].throughput_per_dollar
        )
