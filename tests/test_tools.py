"""Tests for the baseline tools: Kraken2, Bracken, Metalign, mapping."""

import pytest

from repro.megis.index import MegisIndex
from repro.megis.session import AnalysisSession
from repro.sequences.kmers import KmerCounter
from repro.sequences.reads import ReadSimulator
from repro.taxonomy.metrics import f1_score
from repro.taxonomy.tree import ROOT_TAXID, Rank
from repro.tools.bracken import BrackenEstimator
from repro.tools.kraken2 import Kraken2Classifier
from repro.tools.mapping import ReadMapper, SpeciesIndex
from tests.oracles import containment_score, merge_unified_index


def _session(sorted_db, sketch_db, references):
    """A session in Metalign (A-Opt baseline) mode over the fixture world."""
    return AnalysisSession(MegisIndex(sorted_db, sketch_db, references))


def _dict_mapper(references, taxids, k=15):
    """The reference (dict) read mapper over ``taxids``' genomes."""
    return ReadMapper(merge_unified_index(
        [SpeciesIndex.build(t, references.sequence(t), k) for t in sorted(taxids)]
    ))


@pytest.fixture(scope="module")
def clean_reads(sample):
    """Error-free reads with known provenance (easier ground truth)."""
    simulator = ReadSimulator(read_length=100, error_rate=0.0, seed=33)
    return simulator.simulate(sample.references, sample.truth.fractions, 200)


class TestKraken2Classifier:
    def test_clean_read_classified_within_true_clade(self, kraken_db, sample, clean_reads):
        classifier = Kraken2Classifier(kraken_db)
        taxonomy = sample.taxonomy
        indexed = set(kraken_db.indexed_taxids)
        checked = 0
        for read in clean_reads[:60]:
            if read.true_taxid not in indexed:
                continue
            assigned = classifier.classify_read(read.sequence)
            if assigned is None:
                continue
            # The assignment must lie on the true species' root path or in
            # its genus subtree (k-mers shared within the genus).
            genus = taxonomy.parent(read.true_taxid)
            assert taxonomy.lca(assigned, read.true_taxid) in (
                read.true_taxid, genus, ROOT_TAXID,
            )
            checked += 1
        assert checked > 10

    def test_random_read_unclassified(self, kraken_db):
        classifier = Kraken2Classifier(kraken_db)
        # A read of repeated AC never occurs in random genomes of this size.
        assert classifier.classify_read("AC" * 50) is None

    def test_too_short_read(self, kraken_db):
        classifier = Kraken2Classifier(kraken_db)
        assert classifier.classify_read("ACGT") is None

    def test_analyze_partitions_reads(self, kraken_db, clean_reads):
        classifier = Kraken2Classifier(kraken_db)
        result = classifier.analyze(clean_reads)
        assert len(result.assignments) + result.unclassified == len(clean_reads)

    def test_present_species_threshold(self, kraken_db, clean_reads):
        classifier = Kraken2Classifier(kraken_db)
        result = classifier.analyze(clean_reads)
        loose = classifier.present_species(result, min_reads=1)
        strict = classifier.present_species(result, min_reads=10)
        assert strict <= loose

    def test_min_hit_fraction(self, kraken_db, clean_reads):
        strict = Kraken2Classifier(kraken_db, min_hit_fraction=0.99)
        loose = Kraken2Classifier(kraken_db, min_hit_fraction=0.0)
        read = clean_reads[0].sequence
        if loose.classify_read(read) is not None:
            # Strict threshold can only reject, never invent.
            assert strict.classify_read(read) in (None, loose.classify_read(read))

    def test_invalid_min_hit_fraction(self, kraken_db):
        with pytest.raises(ValueError):
            Kraken2Classifier(kraken_db, min_hit_fraction=2.0)


class TestBracken:
    def test_profile_is_species_level(self, kraken_db, sample, clean_reads):
        classifier = Kraken2Classifier(kraken_db)
        result = classifier.analyze(clean_reads)
        profile = BrackenEstimator(kraken_db).estimate(result)
        for taxid in profile.fractions:
            assert sample.taxonomy.rank(taxid) == Rank.SPECIES

    def test_redistribution_conserves_mass(self, kraken_db, clean_reads):
        classifier = Kraken2Classifier(kraken_db)
        result = classifier.analyze(clean_reads)
        profile = BrackenEstimator(kraken_db).estimate(result)
        assert profile.total() == pytest.approx(1.0)

    def test_internal_assignments_pushed_down(self, kraken_db, sample):
        estimator = BrackenEstimator(kraken_db)
        taxonomy = sample.taxonomy
        genus = taxonomy.parent(kraken_db.indexed_taxids[0])
        from repro.tools.kraken2 import Kraken2Result

        result = Kraken2Result(assignments={0: genus})
        profile = estimator.estimate(result)
        assert profile.total() == pytest.approx(1.0)
        assert all(taxonomy.rank(t) == Rank.SPECIES for t in profile.fractions)


class TestMapping:
    def test_species_index_locations(self):
        index = SpeciesIndex.build(7, "ACGTACGT", k=4)
        from repro.sequences.encoding import encode_kmer

        assert index.entries[encode_kmer("ACGT")] == (0, 4)
        assert index.genome_length == 8

    def test_unified_merge_offsets(self):
        a = SpeciesIndex.build(1, "AAAA", k=2)
        b = SpeciesIndex.build(2, "AATT", k=2)
        merged = merge_unified_index([a, b])
        from repro.sequences.encoding import encode_kmer

        aa = encode_kmer("AA")
        assert merged.entries[aa] == (0, 1, 2, 4)  # 3 in genome a, 1 in b at offset 4
        assert merged.boundaries == {1: (0, 4), 2: (4, 8)}

    def test_merge_mixed_k_raises(self):
        a = SpeciesIndex.build(1, "AAAA", k=2)
        b = SpeciesIndex.build(2, "AATT", k=3)
        with pytest.raises(ValueError):
            merge_unified_index([a, b])

    def test_empty_merge(self):
        merged = merge_unified_index([])
        assert len(merged) == 0

    def test_taxid_of_location(self):
        a = SpeciesIndex.build(1, "AAAA", k=2)
        b = SpeciesIndex.build(2, "TTTT", k=2)
        merged = merge_unified_index([a, b])
        assert merged.taxid_of_location(0) == 1
        assert merged.taxid_of_location(5) == 2
        assert merged.taxid_of_location(99) is None

    def test_clean_reads_map_to_source(self, sample, clean_reads):
        candidates = sample.present_species()
        mapper = _dict_mapper(sample.references, candidates)
        correct = total = 0
        for read in clean_reads[:80]:
            mapped = mapper.map_read(read.sequence)
            if mapped is None:
                continue
            total += 1
            correct += mapped == read.true_taxid
        assert total > 30
        assert correct / total > 0.8

    def test_unmappable_read(self, sample):
        mapper = _dict_mapper(sample.references, sample.present_species())
        assert mapper.map_read("A" * 100) is None or isinstance(
            mapper.map_read("A" * 100), int
        )

    def test_abundance_profile_normalized(self, sample, clean_reads):
        mapper = _dict_mapper(sample.references, sample.present_species())
        profile = mapper.estimate_abundance(clean_reads)
        assert profile.total() == pytest.approx(1.0)

    def test_invalid_min_seed(self, sample):
        index = merge_unified_index([])
        with pytest.raises(ValueError):
            ReadMapper(index, min_seed_hits=0)


class TestMetalign:
    def test_pipeline_finds_truth(self, sorted_db, sketch_db, sample):
        session = _session(sorted_db, sketch_db, sample.references)
        result = session.analyze_metalign(sample.reads)
        truth = sample.present_species()
        assert f1_score(result.present(), truth) > 0.8

    def test_intersection_subset_of_db(self, sorted_db, sketch_db, sample):
        session = _session(sorted_db, sketch_db, sample.references)
        counter = KmerCounter(sorted_db.k, canonical=False)
        counter.add_sequences(read.sequence for read in sample.reads)
        query = counter.selected(min_count=1, max_count=None)
        result = session.find_candidates_metalign(query.tolist())
        assert set(result.intersecting_kmers) <= set(sorted_db.kmers)

    def test_candidates_superset_of_final_present(self, sorted_db, sketch_db, sample):
        session = _session(sorted_db, sketch_db, sample.references)
        result = session.analyze_metalign(sample.reads)
        assert result.present() <= result.candidates

    def test_mismatched_k_raises(self, sorted_db, sample):
        from repro.databases.sketch import SketchDatabase

        other = SketchDatabase.build(sample.references, k_max=16, smaller_ks=(8,))
        with pytest.raises(ValueError):
            _session(sorted_db, other, sample.references)

    def test_containment_score_weights_levels(self, sketch_db):
        taxid = next(iter(sketch_db.sketch_sizes))
        kmax_only = containment_score(sketch_db, taxid, {sketch_db.k_max: 10})
        mixed = containment_score(sketch_db, taxid, {sketch_db.k_max: 10, 12: 4})
        assert mixed > kmax_only

    def test_empty_candidates_empty_profile(self, sorted_db, sketch_db, sample):
        session = _session(sorted_db, sketch_db, sample.references)
        profile = session.map_abundance(sample.reads, set())
        assert len(profile) == 0
