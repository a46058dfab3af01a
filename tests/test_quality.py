"""Tests for quality-aware read preprocessing."""

import pytest
from hypothesis import given, strategies as st

from repro.sequences.quality import (
    QualityFilter,
    char_to_phred,
    decode_quality,
    trim_tail,
)


def encode_quality(scores):
    """Phred scores as a FASTQ quality string (offset 33)."""
    return "".join(chr(score + 33) for score in scores)


class TestPhred:
    def test_known_values(self):
        assert char_to_phred("!") == 0
        assert char_to_phred("~") == 93
        assert char_to_phred("I") == 40

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            char_to_phred(chr(32))  # score -1
        with pytest.raises(ValueError):
            char_to_phred(chr(127))  # score 94
        with pytest.raises(ValueError):
            char_to_phred(" ")

    @given(st.lists(st.integers(0, 93), max_size=50))
    def test_roundtrip(self, scores):
        assert decode_quality(encode_quality(scores)) == scores


class TestTrimTail:
    def test_no_trim_on_high_quality(self):
        seq, qual = trim_tail("ACGT", "IIII", threshold=20)
        assert (seq, qual) == ("ACGT", "IIII")

    def test_trims_low_quality_tail(self):
        quality = encode_quality([40, 40, 40, 2, 2, 2])
        seq, qual = trim_tail("ACGTAC", quality, threshold=20)
        assert seq == "ACG"
        assert len(qual) == 3

    def test_keeps_good_bases_after_one_bad(self):
        # One mid-read dip should not truncate a long good tail.
        quality = encode_quality([40, 40, 2, 40, 40, 40, 40, 40])
        seq, _ = trim_tail("ACGTACGT", quality, threshold=20)
        assert len(seq) >= 7

    def test_all_bad_trims_everything(self):
        quality = encode_quality([2, 2, 2, 2])
        seq, qual = trim_tail("ACGT", quality, threshold=20)
        assert seq == ""

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            trim_tail("ACGT", "II")

    @given(st.text(alphabet="ACGT", min_size=0, max_size=40),
           st.lists(st.integers(0, 93), max_size=40))
    def test_trim_is_prefix(self, seq, scores):
        scores = scores[: len(seq)] + [30] * (len(seq) - len(scores))
        trimmed, qual = trim_tail(seq, encode_quality(scores))
        assert seq.startswith(trimmed)
        assert len(trimmed) == len(qual)


class TestQualityFilter:
    def test_keeps_good_reads(self):
        records = [("r0", "ACGT" * 20, "I" * 80)]
        kept = QualityFilter().apply(records)
        assert len(kept) == 1
        assert kept[0].sequence == "ACGT" * 20

    def test_drops_short_reads(self):
        records = [("r0", "ACGT", "IIII")]
        assert QualityFilter(min_length=30).apply(records) == []

    def test_drops_low_mean_quality(self):
        records = [("r0", "ACGT" * 10, encode_quality([12] * 40))]
        assert QualityFilter(trim_threshold=0, min_mean_quality=15).apply(records) == []

    def test_trimming_can_rescue_reads(self):
        # Good head, terrible tail: trimming keeps the head.
        quality = encode_quality([40] * 40 + [2] * 40)
        records = [("r0", "ACGT" * 20, quality)]
        kept = QualityFilter(min_length=30).apply(records)
        assert len(kept) == 1
        assert len(kept[0].sequence) == 40

    def test_read_ids_sequential(self):
        records = [("a", "ACGT" * 10, "I" * 40), ("b", "TTTT" * 10, "I" * 40)]
        kept = QualityFilter(min_length=10).apply(records)
        assert [r.read_id for r in kept] == [0, 1]
