"""K-mer streams and counting.

Extraction itself — per k-mer, per sequence and over a whole sample's
reads in one pass — lives in :mod:`repro.sequences.keys`, which decides
how a k-mer is held.  This module holds what is built on it:
:class:`KmerStream` — a sample's k-mers sorted with their reads, which
Step 1 builds once per sample and the columnar Step-3 vote reads its
seeds from (the paper extracts and sorts a sample once, §4.2.1, and maps
the same reads in Step 3, §4.4) — and :class:`KmerCounter`, which
mirrors KMC (the counting tool MegIS's Step 1 improves upon, §4.2.1):
canonical k-mers, with optional frequency-based exclusion (§4.2.3).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.sequences.keys import as_column, column_dtype, extract_kmers, extract_kmers_batch
from repro.sequences.keys import spare_bits


def read_id_bits(n_reads: int) -> int:
    """Bits a read id ``0 .. n_reads - 1`` takes below a k-mer in one word."""
    return max(0, n_reads - 1).bit_length()


@dataclass(frozen=True)
class KmerStream:
    """The k-mers of a sample's reads in key order, each tagged with its read.

    ``words`` holds ``kmer << read_bits | read`` for every k-mer of every
    read (repeats kept), ascending — so the k-mers come in key order, ties
    by read.  ``lengths[r]`` is read ``r``'s length and, for a read at
    least ``k`` bases long, ``last_kmers[r]`` is its last k-mer (0 for a
    shorter read): the stream's k-mers' ``j``-prefixes are the ``j``-mers
    of every read but those of its last ``k - 1`` bases, which are
    substrings of that last k-mer.
    """

    k: int
    read_bits: int
    words: np.ndarray
    lengths: np.ndarray
    last_kmers: np.ndarray

    @classmethod
    def build(
        cls,
        sequences: Sequence[str],
        k: int,
        extracted: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    ) -> Optional["KmerStream"]:
        """Sort the k-mers of ``sequences`` with their reads, or ``None``
        when a read id does not fit the bits a k-mer leaves free in its
        word (:func:`~repro.sequences.keys.spare_bits`).

        ``extracted`` is what :func:`extract_kmers_batch` returned for
        ``(sequences, k)``, if the caller has it; its k-mer column becomes
        the stream's words (tagged and sorted in place).
        """
        read_bits = read_id_bits(len(sequences))
        if read_bits > spare_bits(k):
            return None
        kmers, read_ids = (
            extract_kmers_batch(sequences, k) if extracted is None else extracted
        )
        lengths = np.fromiter(
            map(len, sequences), dtype=np.int64, count=len(sequences)
        )
        last_kmers = np.zeros(len(sequences), dtype=np.uint64)
        held = lengths >= k
        last_kmers[held] = kmers[(lengths[held] - (k - 1)).cumsum() - 1]
        kmers <<= np.uint64(read_bits)
        kmers |= read_ids.view(np.uint64)
        kmers.sort()
        return cls(k, read_bits, kmers, lengths, last_kmers)

    def kmers(self) -> np.ndarray:
        """The k-mers, ascending (repeats kept)."""
        return self.words >> np.uint64(self.read_bits)

    def reads(self) -> np.ndarray:
        """The read of each k-mer, as ``int64``."""
        return (self.words & np.uint64((1 << self.read_bits) - 1)).view(np.int64)


class KmerCounter:
    """Accumulates k-mer counts across many sequences (KMC stand-in).

    Supports the frequency-based exclusion of §4.2.3: overly common
    (indiscriminative) k-mers and singletons that likely represent
    sequencing errors can both be dropped before Step 2.
    """

    def __init__(self, k: int, canonical: bool = True):
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        self.k = k
        self.canonical = canonical
        self._counts: Counter = Counter()

    def add_sequence(self, seq: str) -> None:
        """Count every k-mer of ``seq``."""
        self._counts.update(extract_kmers(seq, self.k, canonical=self.canonical).tolist())

    def add_sequences(self, seqs: Iterable[str]) -> None:
        for seq in seqs:
            self.add_sequence(seq)

    @property
    def counts(self) -> Dict[int, int]:
        return dict(self._counts)

    def total(self) -> int:
        """Total number of k-mer occurrences counted."""
        return sum(self._counts.values())

    def distinct(self) -> int:
        """Number of distinct k-mers counted."""
        return len(self._counts)

    def selected(self, min_count: int = 1, max_count: int | None = None) -> np.ndarray:
        """Distinct k-mers passing the exclusion thresholds, sorted ascending.

        Sorted order is what MegIS transfers to the SSD: the Intersect units
        require both query and database streams to be lexicographically
        sorted (§4.3.1).
        """
        if min_count < 1:
            raise ValueError(f"min_count must be >= 1, got {min_count}")
        kept = [
            kmer
            for kmer, count in self._counts.items()
            if count >= min_count and (max_count is None or count <= max_count)
        ]
        kept.sort()
        return as_column(kept, column_dtype(self.k))
