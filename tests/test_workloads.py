"""Tests for CAMI-like workloads and paper-scale dataset specs."""

import pytest

from repro.workloads.cami import CamiDiversity, make_cami_sample
from tests.oracles import realized_profile
from repro.workloads.datasets import (
    DIVERSITY_LOOKUP_FACTOR,
    cami_spec,
    database_scale_points,
)


class TestCamiSample:
    def test_basic_structure(self):
        sample = make_cami_sample(CamiDiversity.LOW, n_reads=100, seed=1)
        assert sample.n_reads == 100
        assert sample.name == "CAMI-L"
        assert len(sample.present_species()) >= 2

    def test_truth_species_exist_in_references(self):
        sample = make_cami_sample(CamiDiversity.MEDIUM, n_reads=50, seed=2)
        assert sample.present_species() <= set(sample.references.species_taxids)

    def test_diversity_increases_species_count(self):
        counts = {}
        for diversity in CamiDiversity:
            sample = make_cami_sample(diversity, n_reads=50, seed=3)
            counts[diversity] = len(sample.present_species())
        assert counts[CamiDiversity.LOW] < counts[CamiDiversity.MEDIUM]
        assert counts[CamiDiversity.MEDIUM] < counts[CamiDiversity.HIGH]

    def test_reads_come_from_present_species(self):
        sample = make_cami_sample(CamiDiversity.LOW, n_reads=80, seed=4)
        assert {r.true_taxid for r in sample.reads} <= sample.present_species()

    def test_taxonomy_covers_references(self):
        sample = make_cami_sample(CamiDiversity.LOW, n_reads=10, seed=5)
        for taxid in sample.references.species_taxids:
            assert taxid in sample.taxonomy

    def test_deterministic(self):
        a = make_cami_sample(CamiDiversity.HIGH, n_reads=40, seed=6)
        b = make_cami_sample(CamiDiversity.HIGH, n_reads=40, seed=6)
        assert [r.sequence for r in a.reads] == [r.sequence for r in b.reads]

    def test_realized_profile_normalized(self):
        sample = make_cami_sample(CamiDiversity.MEDIUM, n_reads=60, seed=7)
        profile = realized_profile(sample.reads)
        assert profile.total() == pytest.approx(1.0)
        assert profile.present() <= sample.present_species()


class TestDatasetSpec:
    def test_defaults_match_paper(self):
        spec = cami_spec("CAMI-M")
        assert spec.kraken_db_bytes == pytest.approx(293e9)
        assert spec.sorted_db_bytes == pytest.approx(701e9)
        assert spec.cmash_tree_bytes == pytest.approx(6.9e9)
        assert spec.kss_table_bytes == pytest.approx(14e9)
        assert spec.n_reads == 100_000_000

    def test_read_bytes(self):
        spec = cami_spec("CAMI-L")
        assert spec.read_bytes == spec.n_reads * spec.read_length

    def test_lookup_factors_monotonic(self):
        factors = [DIVERSITY_LOOKUP_FACTOR[n] for n in ("CAMI-L", "CAMI-M", "CAMI-H")]
        assert factors == sorted(factors)

    def test_unknown_sample_raises(self):
        with pytest.raises(KeyError):
            cami_spec("CAMI-X")

    def test_scaling(self):
        spec = cami_spec("CAMI-M")
        scaled = spec.scaled_database(0.5)
        assert scaled.kraken_db_bytes == pytest.approx(spec.kraken_db_bytes / 2)
        assert scaled.sorted_db_bytes == pytest.approx(spec.sorted_db_bytes / 2)
        # Sample-side quantities are untouched.
        assert scaled.extracted_kmer_bytes == spec.extracted_kmer_bytes

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            cami_spec("CAMI-M").scaled_database(0)

    def test_scale_points_anchor_at_default(self):
        spec = cami_spec("CAMI-M")
        points = database_scale_points(spec)
        assert points["3x"].sorted_db_bytes == pytest.approx(spec.sorted_db_bytes)
        assert points["1x"].sorted_db_bytes == pytest.approx(spec.sorted_db_bytes / 3)
