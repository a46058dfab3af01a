"""End-to-end MegIS pipeline tests, including the accuracy-equivalence claim."""

import pytest

from repro.megis.abundance import merge_species_indexes
from repro.megis.accelerator import accelerator_report, scale_area
from repro.megis.commands import CommandProcessor
from repro.megis.index import MegisIndex
from repro.megis.session import AnalysisSession, MegisConfig
from repro.ssd.config import ssd_c
from repro.ssd.device import SSD
from repro.taxonomy.metrics import f1_score
from repro.tools.mapping import ColumnarSpeciesIndex, SpeciesIndex
from repro.workloads.cami import CamiDiversity, make_cami_sample
from tests.oracles import build_unified_index, merge_unified_index
from tests.strategies import reference_view


@pytest.fixture(scope="module")
def session(sorted_db, sketch_db, sample):
    """One session serves both MegIS and the Metalign baseline mode."""
    return AnalysisSession(MegisIndex(sorted_db, sketch_db, sample.references))


class TestEquivalenceWithMetalign:
    """MegIS must match the accuracy-optimized baseline exactly (§5)."""

    def test_same_intersection(self, session, sample):
        assert (
            session.analyze(sample.reads).intersecting_kmers
            == session.analyze_metalign(sample.reads).intersecting_kmers
        )

    def test_same_candidates_and_profile(self, session, sample):
        ours = session.analyze(sample.reads)
        theirs = session.analyze_metalign(sample.reads)
        assert ours.candidates == theirs.candidates
        assert ours.profile.fractions == theirs.profile.fractions

    @pytest.mark.parametrize("diversity", list(CamiDiversity))
    @pytest.mark.parametrize("seed", [3, 19])
    def test_equivalence_across_samples(self, diversity, seed):
        from repro.databases.sketch import SketchDatabase
        from repro.databases.sorted_db import SortedKmerDatabase

        sample = make_cami_sample(
            diversity, n_reads=150, n_genera=3, species_per_genus=2,
            genome_length=1000, seed=seed,
        )
        db = SortedKmerDatabase.build(sample.references, k=20)
        sketch = SketchDatabase.build(sample.references, k_max=20, smaller_ks=(12, 8))
        index = MegisIndex(db, sketch, sample.references)
        megis = AnalysisSession(index).analyze(sample.reads)
        metalign = AnalysisSession(index).analyze_metalign(sample.reads)
        assert megis.intersecting_kmers == metalign.intersecting_kmers
        assert megis.candidates == metalign.candidates
        assert megis.profile.fractions == metalign.profile.fractions


class TestPipelineBehaviour:
    def test_accuracy_against_truth(self, session, sample):
        result = session.analyze(sample.reads)
        assert f1_score(result.present(), sample.present_species()) > 0.8

    def test_presence_only_mode(self, session, sample):
        result = session.analyze(sample.reads, with_abundance=False)
        assert result.candidates
        assert len(result.profile) == 0
        assert result.merge_stats is None

    def test_stats_populated(self, session, sample):
        result = session.analyze(sample.reads)
        assert result.n_buckets == session.config.n_buckets
        assert result.query_kmers > 0
        assert result.merge_stats is not None
        assert result.merge_stats.entries_written > 0

    def test_multi_sample_matches_individual(self, session, sample):
        halves = [sample.reads[:200], sample.reads[200:]]
        batched = session.analyze_batch(halves)
        individual = [session.analyze(reads) for reads in halves]
        for got, want in zip(batched, individual):
            assert got.candidates == want.candidates
            assert got.profile.fractions == want.profile.fractions

    def test_mismatched_k_rejected(self, sorted_db, sample):
        from repro.databases.sketch import SketchDatabase

        wrong = SketchDatabase.build(sample.references, k_max=16, smaller_ks=(8,))
        with pytest.raises(ValueError):
            AnalysisSession(MegisIndex(sorted_db, wrong, sample.references))

    def test_with_ssd_attached(self, sorted_db, sketch_db, sample):
        index = MegisIndex(sorted_db, sketch_db, sample.references)
        ssd = SSD(ssd_c())
        with CommandProcessor(ssd).analysis(index):
            result = AnalysisSession(index).analyze(sample.reads)
        assert result.candidates
        # Mode restored and baseline metadata resident again.
        assert "baseline_l2p" in ssd.dram.allocations()

    def test_spill_reported_with_tiny_host_dram(self, sorted_db, sketch_db, sample):
        config = MegisConfig(host_dram_bytes=1024)
        session = AnalysisSession(
            MegisIndex(sorted_db, sketch_db, sample.references), config=config
        )
        result = session.analyze(sample.reads, with_abundance=False)
        assert result.spilled_bytes > 0


class TestConfigValidation:
    """Values that would break or silently empty an analysis are refused
    when the config is built, naming the field."""

    @pytest.mark.parametrize("field, value", [
        ("min_containment", float("nan")),
        ("min_containment", float("inf")),
        ("min_containment", float("-inf")),
        ("host_dram_bytes", -1),
    ])
    def test_refused(self, field, value):
        with pytest.raises(ValueError, match=field):
            MegisConfig(**{field: value})

    @pytest.mark.parametrize("min_containment", [0.0, 1.5])
    def test_finite_thresholds_call_species(self, sorted_db, sketch_db,
                                            sample, min_containment):
        """Not capped at 1: candidate scores add weighted levels, so a
        threshold above 1 still calls species."""
        session = AnalysisSession(
            MegisIndex(sorted_db, sketch_db, sample.references),
            config=MegisConfig(min_containment=min_containment),
        )
        assert session.analyze(sample.reads, with_abundance=False).candidates


class TestUnifiedIndexMerge:
    def test_streaming_merge_equals_reference(self, sample):
        refs = sample.references
        taxids = refs.species_taxids[:4]
        indexes = [SpeciesIndex.build(t, refs.sequence(t), 15) for t in taxids]
        merged, stats = merge_species_indexes(indexes)
        reference = merge_unified_index(indexes)
        assert merged.entries == reference.entries
        assert merged.boundaries == reference.boundaries
        assert stats.entries_written == len(reference.entries)

    def test_column_merge_equals_reference_on_real_genomes(self, sample):
        """Same-genus genomes share k-mers: the column arm must place
        every location and count every stat as the heap merge does."""
        refs = sample.references
        taxids = refs.species_taxids[:6]
        rows = [SpeciesIndex.build(t, refs.sequence(t), 15) for t in taxids]
        columns = [
            ColumnarSpeciesIndex.build(t, refs.sequence(t), 15) for t in taxids
        ]
        merged, stats = merge_species_indexes(columns)
        reference, reference_stats = merge_species_indexes(rows)
        assert reference_view(merged) == reference == merge_unified_index(rows)
        assert stats == reference_stats
        assert stats.shared_kmers > 0

    def test_shared_kmers_counted(self, sample):
        refs = sample.references
        # Same genus species share k-mers by construction.
        genus_species = [
            t for t in refs.species_taxids if refs.genus_of(t) == refs.genomes[
                refs.species_taxids[0]
            ].genus_id
        ]
        merged, stats = build_unified_index(refs, genus_species, k=15)
        assert stats.shared_kmers > 0

    def test_empty_candidates(self):
        merged, stats = merge_species_indexes([])
        assert len(merged) == 0
        assert stats.entries_read == 0

    def test_mixed_k_rejected(self, sample):
        refs = sample.references
        a = SpeciesIndex.build(1, refs.sequence(refs.species_taxids[0]), 10)
        b = SpeciesIndex.build(2, refs.sequence(refs.species_taxids[1]), 12)
        with pytest.raises(ValueError):
            merge_species_indexes([a, b])


class TestAccelerator:
    def test_table2_totals(self):
        report = accelerator_report(channels=8)
        assert report.total_area_mm2 == pytest.approx(0.0358, abs=0.005)
        assert report.total_power_mw == pytest.approx(7.658, abs=0.01)

    def test_32nm_area_and_core_fraction(self):
        report = accelerator_report(channels=8)
        assert report.area_mm2_at_32nm == pytest.approx(0.011, abs=0.001)
        assert report.fraction_of_cores == pytest.approx(0.017, abs=0.002)

    def test_power_efficiency(self):
        assert accelerator_report().power_efficiency_vs_cores == pytest.approx(26.85)

    def test_scales_with_channels(self):
        assert accelerator_report(16).total_power_mw > accelerator_report(8).total_power_mw

    def test_scale_area_unknown_node(self):
        with pytest.raises(KeyError):
            scale_area(1.0, 14)

    def test_invalid_channels(self):
        with pytest.raises(ValueError):
            accelerator_report(0)

