"""Tests for k-mer extraction and counting (KMC stand-in)."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.sequences.encoding import EncodingError, canonical_kmer, encode_kmer
from repro.sequences.keys import extract_kmers, extract_kmers_batch, iter_kmers
from repro.sequences.kmers import KmerCounter
from tests.oracles import kmer_spectrum

dna = st.text(alphabet="ACGT", min_size=0, max_size=80)


def naive_kmers(seq, k, canonical=True):
    out = []
    for i in range(len(seq) - k + 1):
        value = encode_kmer(seq[i : i + k])
        out.append(canonical_kmer(value, k) if canonical else value)
    return out


class TestExtraction:
    def test_simple(self):
        assert extract_kmers("ACGT", 2, canonical=False).tolist() == [
            encode_kmer("AC"),
            encode_kmer("CG"),
            encode_kmer("GT"),
        ]

    def test_too_short_returns_empty(self):
        assert extract_kmers("AC", 5).size == 0

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            extract_kmers("ACGT", 0)

    def test_iter_matches_extract(self):
        seq = "GATTACAGATTACA"
        assert list(iter_kmers(seq, 5)) == extract_kmers(seq, 5).tolist()

    def test_long_k_object_dtype(self):
        seq = "ACGT" * 20
        kmers = extract_kmers(seq, 40, canonical=False)
        assert kmers.dtype == object
        assert kmers[0] == encode_kmer(seq[:40])

    @given(dna, st.integers(min_value=1, max_value=12))
    def test_matches_naive(self, seq, k):
        got = extract_kmers(seq, k, canonical=False).tolist()
        assert got == naive_kmers(seq, k, canonical=False)

    @given(dna, st.integers(min_value=1, max_value=12))
    def test_canonical_matches_naive(self, seq, k):
        got = extract_kmers(seq, k, canonical=True).tolist()
        assert got == naive_kmers(seq, k, canonical=True)

    @given(dna, st.integers(min_value=1, max_value=12))
    def test_count_is_positions(self, seq, k):
        assert extract_kmers(seq, k).size == max(0, len(seq) - k + 1)


    def test_non_ascii_base_is_an_invalid_nucleotide(self):
        with pytest.raises(EncodingError, match="invalid nucleotide 'é' in sequence"):
            extract_kmers("ACGé", 2)


class TestBatchExtractorSweep:
    """Every binary digit pattern of k through the doubling pack, against
    the per-read extractor (whose rolling pack shares no code with it)."""

    @staticmethod
    def _reads(k):
        rng = np.random.default_rng(k)
        bases = np.array(list("ACGTacgt"))
        return [
            "".join(rng.choice(bases, size=length))
            for length in (k - 1, k, k + 1, 2 * k + 1, 100)
        ]

    @pytest.mark.parametrize("k", range(1, 32))
    def test_equals_per_read_extraction(self, k):
        reads = self._reads(k)
        for batch in [[read] for read in reads] + [reads, reads[::-1]]:
            per_read = [extract_kmers(read, k, canonical=False) for read in batch]
            kmers, ids = extract_kmers_batch(batch, k)
            assert kmers.dtype == np.uint64 and ids.dtype == np.int64
            assert kmers.tolist() == np.concatenate(
                [np.empty(0, dtype=np.uint64), *per_read]
            ).tolist()
            assert ids.tolist() == [
                i for i, x in enumerate(per_read) for _ in range(x.size)
            ]

    def test_non_ascii_base_is_an_invalid_nucleotide(self):
        reads = ["ACGTACGT", "ACGéACGT"]
        with pytest.raises(EncodingError) as per_read:
            for read in reads:
                extract_kmers(read, 3, canonical=False)
        with pytest.raises(EncodingError) as batch:
            extract_kmers_batch(reads, 3)
        assert str(batch.value) == str(per_read.value)
        assert "'é'" in str(batch.value)


class TestSpectrum:
    def test_counts(self):
        spectrum = kmer_spectrum("AAAA", 2, canonical=False)
        assert spectrum == {encode_kmer("AA"): 3}


class TestKmerCounter:
    def test_total_and_distinct(self):
        counter = KmerCounter(k=3, canonical=False)
        counter.add_sequence("AAAAA")  # 3 x AAA
        counter.add_sequence("AAACT")  # AAA, AAC, ACT
        assert counter.total() == 6
        assert counter.distinct() == 3

    def test_selected_sorted_and_excluded(self):
        counter = KmerCounter(k=3, canonical=False)
        counter.add_sequences(["AAAAA", "AAACT"])
        selected = counter.selected(min_count=2)
        assert selected.tolist() == [encode_kmer("AAA")]
        all_kmers = counter.selected(min_count=1)
        assert all_kmers.tolist() == sorted(all_kmers.tolist())

    def test_max_count_excludes_common(self):
        counter = KmerCounter(k=3, canonical=False)
        counter.add_sequences(["AAAAA", "AAACT"])
        selected = counter.selected(min_count=1, max_count=1)
        assert encode_kmer("AAA") not in selected.tolist()

    def test_invalid_min_count(self):
        counter = KmerCounter(k=3)
        with pytest.raises(ValueError):
            counter.selected(min_count=0)

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            KmerCounter(k=0)

    @given(st.lists(dna.filter(lambda s: len(s) >= 4), min_size=1, max_size=5))
    def test_selected_is_distinct_subset(self, seqs):
        counter = KmerCounter(k=4, canonical=False)
        counter.add_sequences(seqs)
        selected = counter.selected().tolist()
        assert len(selected) == len(set(selected))
        assert set(selected) <= set(counter.counts)
