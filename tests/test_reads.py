"""Tests for the read simulator and the sequence-only sample."""

import pytest

from repro.sequences.generator import GenomeGenerator
from repro.sequences.reads import BareReads, Read, ReadSimulator, read_sequences


@pytest.fixture(scope="module")
def refs():
    return GenomeGenerator(
        n_genera=2, species_per_genus=2, genome_length=1000, seed=11
    ).generate()


class TestReadSimulator:
    def test_read_count_and_length(self, refs):
        taxids = refs.species_taxids
        reads = ReadSimulator(read_length=80, seed=1).simulate(
            refs, {taxids[0]: 1.0}, 50
        )
        assert len(reads) == 50
        assert all(len(r) == 80 for r in reads)

    def test_read_ids_sequential(self, refs):
        taxids = refs.species_taxids
        reads = ReadSimulator(seed=1).simulate(refs, {taxids[0]: 1.0}, 20)
        assert [r.read_id for r in reads] == list(range(20))

    def test_provenance_respects_profile(self, refs):
        taxids = refs.species_taxids
        reads = ReadSimulator(seed=2).simulate(
            refs, {taxids[0]: 1.0, taxids[1]: 0.0}, 30
        )
        assert {r.true_taxid for r in reads} == {taxids[0]}

    def test_abundance_proportions(self, refs):
        taxids = refs.species_taxids
        reads = ReadSimulator(seed=3).simulate(
            refs, {taxids[0]: 0.9, taxids[1]: 0.1}, 1000
        )
        majority = sum(1 for r in reads if r.true_taxid == taxids[0])
        assert 820 < majority < 960

    def test_unnormalized_weights_accepted(self, refs):
        taxids = refs.species_taxids
        reads = ReadSimulator(seed=4).simulate(refs, {taxids[0]: 5, taxids[1]: 5}, 40)
        assert len(reads) == 40

    def test_zero_error_reads_are_substrings(self, refs):
        taxid = refs.species_taxids[0]
        genome = refs.sequence(taxid)
        reads = ReadSimulator(read_length=60, error_rate=0.0, seed=5).simulate(
            refs, {taxid: 1.0}, 25
        )
        assert all(r.sequence in genome for r in reads)

    def test_errors_introduce_mismatches(self, refs):
        taxid = refs.species_taxids[0]
        genome = refs.sequence(taxid)
        reads = ReadSimulator(read_length=100, error_rate=0.2, seed=6).simulate(
            refs, {taxid: 1.0}, 20
        )
        assert any(r.sequence not in genome for r in reads)

    def test_short_genome_truncates(self, refs):
        taxid = refs.species_taxids[0]
        simulator = ReadSimulator(read_length=10_000, error_rate=0.0, seed=7)
        reads = simulator.simulate(refs, {taxid: 1.0}, 3)
        assert all(len(r) == len(refs.sequence(taxid)) for r in reads)

    def test_unknown_taxid_raises(self, refs):
        with pytest.raises(KeyError):
            ReadSimulator(seed=8).simulate(refs, {99999: 1.0}, 5)

    def test_empty_profile_raises(self, refs):
        with pytest.raises(ValueError):
            ReadSimulator(seed=9).simulate(refs, {refs.species_taxids[0]: 0.0}, 5)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            ReadSimulator(read_length=0)
        with pytest.raises(ValueError):
            ReadSimulator(error_rate=1.0)

    def test_deterministic(self, refs):
        taxids = refs.species_taxids
        profile = {taxids[0]: 0.5, taxids[1]: 0.5}
        a = ReadSimulator(seed=10).simulate(refs, profile, 30)
        b = ReadSimulator(seed=10).simulate(refs, profile, 30)
        assert [r.sequence for r in a] == [r.sequence for r in b]

    def test_reads_to_sequences(self, refs):
        taxid = refs.species_taxids[0]
        reads = ReadSimulator(seed=11).simulate(refs, {taxid: 1.0}, 5)
        assert read_sequences(reads) == [r.sequence for r in reads]


SEQUENCES = ["ACGT", "GGCCA", "T", "", "ACGTACGT"]


class TestBareReads:
    """A request's sequences standing in for the ``Read`` list the
    gateway used to build from them."""

    def built(self):
        return [Read(read_id=i, sequence=seq, true_taxid=0)
                for i, seq in enumerate(SEQUENCES)]

    def test_len_and_indexes(self):
        reads = BareReads(list(SEQUENCES))
        assert len(reads) == len(SEQUENCES)
        assert reads[0] == Read(0, "ACGT", 0)
        assert reads[4] == Read(4, "ACGTACGT", 0)
        # A negative index names the same read, id and all.
        assert reads[-1] == reads[4] == self.built()[-1]
        assert reads[-5] == reads[0]
        for index in (5, -6, 100):
            with pytest.raises(IndexError):
                reads[index]
        with pytest.raises(TypeError):
            reads["0"]

    def test_slices_are_refused(self):
        # Only int indexes: no caller slices a sample.
        reads = BareReads(list(SEQUENCES))
        for cut in (slice(1, 3), slice(None)):
            with pytest.raises(TypeError):
                reads[cut]

    def test_iteration_equals_the_built_list(self):
        reads = BareReads(list(SEQUENCES))
        assert list(reads) == self.built()
        assert list(reversed(reads)) == self.built()[::-1]
        assert Read(2, "T", 0) in reads

    def test_read_sequences_hands_back_the_held_list(self):
        held = list(SEQUENCES)
        assert read_sequences(BareReads(held)) is held
        assert read_sequences(BareReads([])) == []

    def test_read_sequences_of_read_lists_and_tuples(self):
        built = self.built()
        assert read_sequences(built) == SEQUENCES
        assert read_sequences(tuple(built)) == SEQUENCES
        assert read_sequences(()) == []
