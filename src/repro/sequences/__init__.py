"""DNA sequence substrate: 2-bit encoding, k-mers, synthetic genomes, reads.

MegIS (paper §4.2) encodes all sequences with two bits per nucleotide and
operates on lexicographically sorted k-mer sets.  This package provides the
encoding, k-mer extraction, and the synthetic genome/read generators used in
place of the paper's NCBI reference genomes and CAMI read sets.
"""

from repro.sequences.encoding import (
    ALPHABET,
    canonical_kmer,
    decode_kmer,
    decode_sequence,
    encode_kmer,
    encode_sequence,
    reverse_complement,
    reverse_complement_code,
)
from repro.sequences.generator import GenomeGenerator, mutate_sequence, random_sequence
from repro.sequences.keys import extract_kmers, extract_kmers_batch, iter_kmers
from repro.sequences.kmers import KmerCounter
from repro.sequences.reads import Read, ReadSimulator

__all__ = [
    "ALPHABET",
    "GenomeGenerator",
    "KmerCounter",
    "Read",
    "ReadSimulator",
    "canonical_kmer",
    "decode_kmer",
    "decode_sequence",
    "encode_kmer",
    "encode_sequence",
    "extract_kmers",
    "extract_kmers_batch",
    "iter_kmers",
    "mutate_sequence",
    "random_sequence",
    "reverse_complement",
    "reverse_complement_code",
]
