"""Unit and property tests for the 2-bit nucleotide encoding."""

import pytest
from hypothesis import given, strategies as st

from repro.sequences.encoding import (
    _BYTE_TO_CODE,
    ALPHABET,
    EncodingError,
    canonical_kmer,
    decode_kmer,
    decode_sequence,
    encode_kmer,
    encode_sequence,
    kmer_prefix,
    reverse_complement,
    reverse_complement_code,
)

dna = st.text(alphabet=ALPHABET, min_size=0, max_size=64)
dna1 = st.text(alphabet=ALPHABET, min_size=1, max_size=31)


class TestSequenceEncoding:
    def test_codes_are_lexicographic(self):
        assert encode_sequence("ACGT").tolist() == [0, 1, 2, 3]

    def test_roundtrip_simple(self):
        assert decode_sequence(encode_sequence("GATTACA")) == "GATTACA"

    def test_lowercase_accepted(self):
        assert encode_sequence("acgt").tolist() == [0, 1, 2, 3]

    def test_invalid_character_raises(self):
        with pytest.raises(EncodingError):
            encode_sequence("ACGN")

    def test_non_ascii_character_is_an_invalid_nucleotide(self):
        with pytest.raises(EncodingError, match="invalid nucleotide 'é'"):
            encode_sequence("ACGé")
        with pytest.raises(EncodingError, match="invalid nucleotide '😀'"):
            encode_sequence("😀ACG")

    def test_empty_sequence(self):
        assert decode_sequence(encode_sequence("")) == ""

    @given(dna)
    def test_roundtrip_property(self, seq):
        assert decode_sequence(encode_sequence(seq)) == seq


def _table_codes(text):
    """``text`` through ``_BYTE_TO_CODE`` one character at a time: the
    codes, or the message for the first character the table marks
    invalid (every character past one byte is invalid)."""
    codes = []
    for char in text:
        code = int(_BYTE_TO_CODE[ord(char)]) if ord(char) < 256 else 255
        if code == 255:
            return f"invalid nucleotide {char!r} in sequence"
        codes.append(code)
    return codes


class TestEncoderMatchesTable:
    """The encoder's translation and the ``_BYTE_TO_CODE`` table cannot
    drift: every byte value, in either case, alone and inside a read."""

    @pytest.mark.parametrize("byte", range(256))
    def test_every_byte_value(self, byte):
        char = chr(byte)
        for variant in {char, char.upper(), char.lower()}:
            for text in (variant, f"AC{variant}gt"):
                want = _table_codes(text)
                if isinstance(want, str):
                    with pytest.raises(EncodingError) as error:
                        encode_sequence(text)
                    assert str(error.value) == want
                else:
                    codes = encode_sequence(text)
                    assert codes.dtype == _BYTE_TO_CODE.dtype
                    assert codes.tolist() == want

    def test_table_accepts_exactly_acgt_in_either_case(self):
        valid = {chr(b) for b in range(256) if _BYTE_TO_CODE[b] != 255}
        assert valid == set("ACGTacgt")


class TestKmerPacking:
    def test_known_values(self):
        assert encode_kmer("A") == 0
        assert encode_kmer("T") == 3
        assert encode_kmer("AC") == 1
        assert encode_kmer("CA") == 4

    def test_roundtrip(self):
        assert decode_kmer(encode_kmer("GATTACA"), 7) == "GATTACA"

    def test_out_of_range_decode(self):
        with pytest.raises(ValueError):
            decode_kmer(1 << 10, 4)

    def test_invalid_char(self):
        with pytest.raises(EncodingError):
            encode_kmer("AXG")

    @given(dna1)
    def test_roundtrip_property(self, kmer):
        assert decode_kmer(encode_kmer(kmer), len(kmer)) == kmer

    @given(st.lists(dna1.filter(lambda s: len(s) == 10), min_size=2, max_size=8))
    def test_integer_order_equals_lexicographic(self, kmers):
        packed = [encode_kmer(k) for k in kmers]
        assert sorted(kmers) == [decode_kmer(v, 10) for v in sorted(packed)]


class TestReverseComplement:
    def test_known(self):
        assert reverse_complement("ACGT") == "ACGT"
        assert reverse_complement("AAAA") == "TTTT"
        assert reverse_complement("GAT") == "ATC"

    @given(dna)
    def test_involution(self, seq):
        assert reverse_complement(reverse_complement(seq)) == seq

    @given(dna1)
    def test_code_matches_string(self, kmer):
        k = len(kmer)
        expected = encode_kmer(reverse_complement(kmer))
        assert reverse_complement_code(encode_kmer(kmer), k) == expected


class TestCanonicalKmer:
    @given(dna1)
    def test_strand_invariance(self, kmer):
        k = len(kmer)
        forward = encode_kmer(kmer)
        backward = encode_kmer(reverse_complement(kmer))
        assert canonical_kmer(forward, k) == canonical_kmer(backward, k)

    @given(dna1)
    def test_is_minimum(self, kmer):
        k = len(kmer)
        value = encode_kmer(kmer)
        assert canonical_kmer(value, k) <= value


class TestKmerPrefix:
    def test_known(self):
        assert kmer_prefix(encode_kmer("ACGT"), 4, 2) == encode_kmer("AC")

    def test_full_prefix_is_identity(self):
        value = encode_kmer("GATTACA")
        assert kmer_prefix(value, 7, 7) == value

    def test_invalid_length(self):
        with pytest.raises(ValueError):
            kmer_prefix(0, 4, 5)
        with pytest.raises(ValueError):
            kmer_prefix(0, 4, 0)

    @given(dna1, st.integers(min_value=1, max_value=31))
    def test_prefix_matches_string_prefix(self, kmer, plen):
        k = len(kmer)
        plen = min(plen, k)
        expected = encode_kmer(kmer[:plen])
        assert kmer_prefix(encode_kmer(kmer), k, plen) == expected
