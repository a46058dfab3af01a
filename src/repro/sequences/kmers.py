"""K-mer extraction and counting.

Provides a readable per-k-mer iterator, a vectorized per-sequence extractor
used when building databases, a batch extractor that packs the k-mers of a
whole sample's reads in one pass, and :class:`KmerStream` — those k-mers
sorted with their reads, which Step 1 builds once per sample and the
columnar Step-3 vote reads its seeds from (the paper extracts and sorts a
sample once, §4.2.1, and maps the same reads in Step 3, §4.4).
Extraction mirrors the behaviour of KMC (the counting tool MegIS's Step 1
improves upon, §4.2.1): canonical k-mers, with optional frequency-based
exclusion (§4.2.3).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, Optional, Sequence, Tuple

import numpy as np

from repro.sequences.encoding import (
    BITS_PER_BASE,
    canonical_kmer,
    encode_sequence,
)


def iter_kmers(seq: str, k: int, canonical: bool = True) -> Iterator[int]:
    """Yield packed k-mers of a DNA string in order of appearance."""
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    if len(seq) < k:
        return
    codes = encode_sequence(seq)
    mask = (1 << (BITS_PER_BASE * k)) - 1
    value = 0
    for i, code in enumerate(codes):
        value = ((value << BITS_PER_BASE) | int(code)) & mask
        if i >= k - 1:
            yield canonical_kmer(value, k) if canonical else value


def extract_kmers(seq: str, k: int, canonical: bool = True) -> np.ndarray:
    """Extract all packed k-mers of a sequence as a numpy array.

    Vectorized for ``k <= 31`` (fits in uint64); falls back to the iterator
    for longer k-mers, returning an object array of Python integers so that
    the 120-bit k-mers used by Metalign/MegIS (k = 60) are supported.
    """
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    n = len(seq) - k + 1
    if n <= 0:
        return np.empty(0, dtype=np.uint64 if k <= 31 else object)
    if k > 31:
        return np.array(list(iter_kmers(seq, k, canonical=canonical)), dtype=object)
    codes = encode_sequence(seq).astype(np.uint64)
    # Rolling pack: forward[i] = packed k-mer starting at i.
    forward = np.zeros(n, dtype=np.uint64)
    for offset in range(k):
        forward = (forward << np.uint64(BITS_PER_BASE)) | codes[offset : offset + n]
    if not canonical:
        return forward
    reverse = np.zeros(n, dtype=np.uint64)
    complement = np.uint64(3) - codes
    # Reverse complement of window [i, i+k): complement codes in reverse order.
    for offset in range(k - 1, -1, -1):
        reverse = (reverse << np.uint64(BITS_PER_BASE)) | complement[offset : offset + n]
    return np.minimum(forward, reverse)


#: Word of the doubling pack's window of ``2**j`` bases, by ``j``: the
#: narrowest unsigned integer holding its ``2 * 2**j`` bits.
_WINDOW_DTYPES = (np.uint8, np.uint8, np.uint8, np.uint16, np.uint32)


def extract_kmers_batch(
    sequences: Sequence[str], k: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Forward k-mers of many sequences in one pass, with their origins.

    Returns ``(kmers, read_ids)``: ``kmers`` equals ``np.concatenate(
    [extract_kmers(s, k, canonical=False) for s in sequences])`` and
    ``read_ids[i]`` is the index into ``sequences`` that ``kmers[i]`` came
    from.  One encode and one pack run over the concatenation of the
    sequences (the §4.2.1 streaming extraction over the sample) instead of
    k numpy operations per read; the windows that straddle a join between
    two reads are dropped by a validity mask.

    The pack doubles: the window of ``2**j`` bases starting at ``i`` is
    the window of ``2**(j - 1)`` bases at ``i`` times ``4**(2**(j - 1))``,
    or-ed with the one at ``i + 2**(j - 1)``, for windows of 1, 2, 4, 8
    and 16 bases held in ``uint8``, ``uint8``, ``uint8``, ``uint16`` and
    ``uint32``.  K-mer ``i`` then joins one window per binary digit of
    ``k``, largest first, each starting where the last ended — in
    ``uint32`` while its ``2k`` bits fit (``k <= 16``), else in
    ``uint64`` — so a k-mer costs ``floor(log2(k))`` doubling passes and
    ``popcount(k) - 1`` joins instead of ``k`` rolling ones.  The
    doubling steps multiply rather than shift: numpy's ``uint8`` shift is
    a scalar loop, several times slower than a ``uint8`` multiply.

    Sequences shorter than ``k`` hold no k-mer and are left out of the
    concatenation unencoded, exactly as :func:`extract_kmers` returns
    before encoding them.  Only ``k <= 31`` (a k-mer fits ``uint64``).

    Step 1 calls this once per sample at the database k; for a mapping
    analysis it keeps both columns, sorted, as a :class:`KmerStream`, from
    which the Step-3 vote derives its shorter seeds.  The vote extracts at
    its own k only for reads shorter than the database k, or when it
    holds no stream.
    """
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    if k > 31:
        raise ValueError(f"batch extraction packs into uint64; k must be <= 31, got {k}")
    lengths = np.fromiter(map(len, sequences), dtype=np.int64, count=len(sequences))
    kept = np.flatnonzero(lengths >= k)
    if kept.size == 0:
        return np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.int64)
    codes = encode_sequence("".join([seq for seq in sequences if len(seq) >= k]))
    n = codes.size - k + 1
    windows = [codes]  # windows[j][i]: the 2**j bases from i
    while 1 << len(windows) <= k:
        half, dtype = 1 << (len(windows) - 1), _WINDOW_DTYPES[len(windows)]
        window = windows[-1][:-half].astype(dtype)
        window *= dtype(1 << (BITS_PER_BASE * half))
        window |= windows[-1][half:]
        windows.append(window)
    top = len(windows) - 1
    word = np.uint32 if BITS_PER_BASE * k <= 32 else np.uint64
    forward = windows[top][:n].astype(word)
    offset = 1 << top
    for j in range(top - 1, -1, -1):
        if k >> j & 1:
            forward <<= word(BITS_PER_BASE << j)
            forward |= windows[j][offset : offset + n]
            offset += 1 << j
    # A window is a k-mer of one read unless it starts within k - 1 bases
    # of a join: the last k - 1 starts before every read end but the last.
    valid = np.ones(n, dtype=bool)
    joins = np.cumsum(lengths[kept])[:-1]
    valid[(joins[:, None] - np.arange(1, k)).ravel()] = False
    kmers = forward[valid].astype(np.uint64, copy=False)
    return kmers, np.repeat(kept, lengths[kept] - k + 1)


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
        when a k-mer and a read id do not fit one ``uint64`` word
        (``2k + read_id_bits(len(sequences)) > 64``).

        ``extracted`` is what :func:`extract_kmers_batch` returned for
        ``(sequences, k)``, if the caller has it; its k-mer column becomes
        the stream's words (tagged and sorted in place).
        """
        read_bits = read_id_bits(len(sequences))
        if BITS_PER_BASE * k + read_bits > 64:
            return None
        kmers, read_ids = (
            extract_kmers_batch(sequences, k) if extracted is None else extracted
        )
        lengths = np.fromiter(
            map(len, sequences), dtype=np.int64, count=len(sequences)
        )
        last_kmers = np.zeros(len(sequences), dtype=np.uint64)
        held = lengths >= k
        last_kmers[held] = kmers[np.cumsum(lengths[held] - (k - 1)) - 1]
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


def kmer_spectrum(seq: str, k: int, canonical: bool = True) -> Dict[int, int]:
    """Return the multiset of k-mers of a sequence as ``{kmer: count}``."""
    return dict(Counter(extract_kmers(seq, k, canonical=canonical).tolist()))


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
        if self.k <= 31:
            return np.array(kept, dtype=np.uint64)
        return np.array(kept, dtype=object)
