"""MegIS Step 1: preparing the input queries on the host (paper §4.2).

The host extracts k-mers from the sample, partitions them into buckets —
each covering a lexicographic range — sorts each bucket, and applies the
user-defined frequency exclusion.  Bucketing is what enables the pipeline
overlap: as soon as bucket *i* is sorted it can be shipped to the SSD and
intersected (the database is sorted too, so the matching range is known)
while bucket *i+1* is still being sorted.

Step 1 is *backend-aware*: buckets are emitted in the Step-2 backend's
native container — sorted ``np.ndarray`` columns for the default
``numpy`` columnar engine, plain Python int lists for the register-level
``python`` reference named as the oracle — so the partition→intersect
hand-off never converts containers per call.  Both containers hold
identical k-mer sequences; the cross-backend equivalence tests enforce
it.  Extraction follows the same split: the reference extracts read by
read into a ``Counter``; the columnar path packs the whole sample into
one key column (:mod:`repro.sequences.keys`) in one streaming pass,
:func:`~repro.sequences.keys.extract_kmers_batch`, then sorts,
deduplicates and frequency-excludes that whole stream at once and cuts
the buckets out of the result as views.  When the session will map the
sample's reads in Step 3, that one sort is of read-tagged words
(:class:`~repro.sequences.kmers.KmerStream`, ``kmer << read_bits |
read``) and deduplicates on the k-mer above the read bits, so the buckets
are the same and the sorted ``(k-mer, read)`` stream rides on the
:class:`BucketSet` to the vote, which then extracts and sorts nothing of
its own for the reads at least ``k`` long.

When the extracted k-mers exceed host DRAM, MegIS pins as many buckets as
fit and spills the rest to the SSD through dedicated sequential write
buffers, avoiding the page-swap thrashing a flat k-mer array would suffer
(§4.2.1); the partitioner reports the spill so the performance model can
charge for it.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Union

import numpy as np

from repro.backends import (
    DEFAULT_BACKEND,
    BucketSlice,
    StepTwoBackend,
    column_to_list,
    get_backend,
)
from repro.sequences.keys import edge_cuts, extract_kmers, extract_kmers_batch, kmer_record_bytes
from repro.sequences.kmers import KmerStream
from repro.sequences.reads import Read, read_sequences

#: A bucket's sorted k-mers in the backend's native container.
KmerColumn = Union[List[int], np.ndarray]

#: How many k-mers off the head of the extracted stream the preliminary
#: boundary pass looks at.
PRELIMINARY_SAMPLE = 4096

#: Width of the k-mer prefix that decides its bucket: every bucket edge
#: is a multiple of ``1 << (2k - 16)`` (for ``2k > 16``), so a k-mer's
#: bucket is a function of its 16-bit prefix alone.
PREFIX_BITS = 16

__all__ = [
    "Bucket",
    "BucketSet",
    "KmerBucketPartitioner",
    "KmerColumn",
    "column_to_list",
]


@dataclass
class Bucket:
    """One lexicographic k-mer bucket.

    ``lo`` is inclusive, ``hi`` exclusive; ``kmers`` is sorted ascending
    after :meth:`KmerBucketPartitioner.partition` completes, held in the
    Step-2 backend's native column container.
    """

    index: int
    lo: int
    hi: int
    kmers: KmerColumn = field(default_factory=list)
    pinned: bool = True  # False -> spilled to the SSD during extraction

    def byte_size(self, kmer_bytes: int) -> int:
        return len(self.kmers) * kmer_bytes


@dataclass
class BucketSet:
    """All buckets of a sample, in ascending range order.

    ``stream`` is the sample's sorted, read-tagged k-mer stream when
    :meth:`KmerBucketPartitioner.partition` was asked to keep it and it
    fits ``uint64`` words; ``None`` otherwise.
    """

    k: int
    buckets: List[Bucket]
    spilled_bytes: int = 0
    stream: Optional[KmerStream] = None

    def slices(self) -> List[BucketSlice]:
        """The buckets as the Step-2 kernel's ``(lo, hi, kmers)`` slices."""
        return [(b.lo, b.hi, b.kmers) for b in self.buckets]

    def merged_sorted(self) -> List[int]:
        """Global sorted k-mer list (bucket concatenation in range order)."""
        merged: List[int] = []
        for bucket in self.buckets:
            merged.extend(column_to_list(bucket.kmers))
        return merged

    def merged_column(self) -> KmerColumn:
        """Bucket concatenation in the native container (globally sorted).

        ndarray buckets concatenate into one ndarray column with no
        per-element conversion; list buckets fall back to a flat int list.
        """
        columns = [b.kmers for b in self.buckets]
        if columns and all(isinstance(c, np.ndarray) for c in columns):
            return np.concatenate(columns)
        return self.merged_sorted()

    def total_kmers(self) -> int:
        return sum(len(b.kmers) for b in self.buckets)

    def __len__(self) -> int:
        return len(self.buckets)


class KmerBucketPartitioner:
    """Implements Step 1: extract, bucket, sort, exclude.

    ``n_buckets`` is the user-defined bucket count (the paper defaults to
    512; tests use fewer).  Range boundaries come from a preliminary pass
    over a sample of the k-mers so bucket sizes stay balanced, mirroring the
    paper's preliminary-bucket-then-merge scheme.

    ``backend`` is the Step-2 engine whose native container the bucket
    columns use ("numpy" ndarray columns, the default; "python" lists) —
    an :class:`AnalysisSession` hands over its own instance.  The numpy
    path also vectorizes the frequency exclusion itself (one sort and a
    run flag over the whole sample instead of a Python ``Counter``),
    producing bit-identical bucket contents.
    """

    def __init__(
        self,
        k: int,
        n_buckets: int = 16,
        min_count: int = 1,
        max_count: Optional[int] = None,
        host_dram_bytes: Optional[int] = None,
        backend: Union[str, StepTwoBackend] = DEFAULT_BACKEND,
    ):
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if n_buckets <= 0:
            raise ValueError(f"n_buckets must be positive, got {n_buckets}")
        if min_count < 1:
            raise ValueError(f"min_count must be >= 1, got {min_count}")
        if max_count is not None and max_count < min_count:
            raise ValueError(
                f"max_count ({max_count}) must be >= min_count ({min_count})"
            )
        if host_dram_bytes is not None and host_dram_bytes < 0:
            raise ValueError(f"host_dram_bytes must be >= 0, got {host_dram_bytes}")
        self.k = k
        self.n_buckets = n_buckets
        self.min_count = min_count
        self.max_count = max_count
        self.host_dram_bytes = host_dram_bytes
        self._backend = get_backend(backend)

    @property
    def kmer_bytes(self) -> int:
        return kmer_record_bytes(self.k)

    # -- boundary selection ----------------------------------------------------

    @property
    def prefix_shift(self) -> int:
        """Bits below a k-mer's 16-bit prefix (0 once ``2k <= 16``).

        Every bucket edge is a multiple of ``1 << prefix_shift``, so a
        k-mer's bucket is a function of ``kmer >> prefix_shift`` alone.
        """
        return max(0, 2 * self.k - PREFIX_BITS)

    def _boundaries(self, sample: KmerColumn) -> List[int]:
        """Equal-frequency, prefix-aligned boundaries from a preliminary
        k-mer subset.

        Each preliminary pick — a quantile of the sorted head, or an
        equal-width cut of the key space when the head is empty — is
        rounded down to a multiple of ``1 << prefix_shift``.  The head's
        picks are then deduplicated, merging preliminary buckets as the
        paper describes, so a degenerate sample yields fewer, wider
        buckets.  For ``k <= 8`` the shift is 0 and the edges are the
        quantiles themselves.  An ndarray head is sorted in numpy; either
        container gives the same ascending picks, so both backends cut
        the same buckets.
        """
        shift = self.prefix_shift
        n = len(sample)
        cuts = range(1, self.n_buckets)
        if not n:
            space = 1 << (2 * self.k)
            return [space * i // self.n_buckets >> shift << shift for i in cuts]
        ordered = np.sort(sample) if isinstance(sample, np.ndarray) else sorted(sample)
        picks = [int(ordered[min(n - 1, n * i // self.n_buckets)]) for i in cuts]
        return sorted({pick >> shift << shift for pick in picks})

    # -- main entry --------------------------------------------------------------

    def partition(
        self, reads: Sequence[Read], keep_stream: bool = False
    ) -> BucketSet:
        """Run Step 1 over a sample's reads.

        Extraction and the preliminary boundary pass run first.  Because
        the buckets tile the key space in ascending order, the sample's
        globally sorted, deduplicated, frequency-excluded k-mers split at
        the edges into exactly the per-bucket results — bucket contents are
        bit-identical on either path.

        The vectorized path (every columnar backend) packs the whole
        sample's k-mers into one key column in one pass
        (:func:`~repro.sequences.keys.extract_kmers_batch` — the stream
        in read order, whose ndarray head is the preliminary sample the
        boundary pass sorts in numpy), selects over the whole stream with
        one sort (:meth:`_select_sorted`) and cuts each bucket as a view
        at ``np.searchsorted(selected, boundaries)``.  With
        ``keep_stream`` that sort is of read-tagged words
        (:meth:`KmerStream.build <repro.sequences.kmers.KmerStream.build>`),
        selection reads the k-mers above the read bits, and the stream is
        kept as :attr:`BucketSet.stream` — unless a k-mer and a read id do
        not fit one word, when the bare k-mers are sorted and no stream is
        kept.  The Counter path — the ``python`` reference's — extracts
        read by read and folds each in immediately so peak memory stays
        O(distinct k-mers), then scatters the counts into buckets and
        selects per bucket; it keeps no stream.
        """
        stream: Optional[KmerStream] = None
        columns: List[KmerColumn]
        sequences = read_sequences(reads)
        if self._backend.columnar:
            merged, read_ids = extract_kmers_batch(sequences, self.k)
            boundaries = self._boundaries(merged[:PRELIMINARY_SAMPLE])
            if keep_stream:  # tags and sorts ``merged`` in place
                stream = KmerStream.build(sequences, self.k, (merged, read_ids))
            selected = self._select_sorted(
                np.sort(merged) if stream is None else stream.kmers()
            )
            bounds = [0, *edge_cuts(selected, boundaries), len(selected)]
            columns = [selected[a:b] for a, b in zip(bounds, bounds[1:])]
        else:
            counts: Counter = Counter()
            head: List[int] = []
            for sequence in sequences:
                kmers = extract_kmers(sequence, self.k, canonical=False)
                counts.update(kmers.tolist())
                remaining = PRELIMINARY_SAMPLE - len(head)
                if remaining > 0:
                    head.extend(int(x) for x in kmers[:remaining].tolist())
            boundaries = self._boundaries(head)
            columns = [
                self._select(raw)
                for raw in self._group_counted(counts, boundaries, len(boundaries) + 1)
            ]
        edges = [0, *boundaries, 1 << (2 * self.k)]
        buckets = [
            Bucket(index=i, lo=edges[i], hi=edges[i + 1], kmers=kmers)
            for i, kmers in enumerate(columns)
        ]
        bucket_set = BucketSet(k=self.k, buckets=buckets, stream=stream)
        self._assign_pinning(bucket_set)
        return bucket_set

    @staticmethod
    def _group_counted(
        counts: Counter, boundaries: Sequence[int], n_buckets: int
    ) -> List[Counter]:
        """Scatter the accumulated (k-mer -> count) pairs into buckets."""
        raw_buckets: List[Counter] = [Counter() for _ in range(n_buckets)]
        for kmer, count in counts.items():
            raw_buckets[bisect_right(boundaries, kmer)][kmer] = count
        return raw_buckets

    def _select_sorted(self, ordered: np.ndarray) -> KmerColumn:
        """Deduplicate and frequency-exclude an ascending k-mer stream.

        An adjacent-difference flag on the first of each run of equal
        k-mers, and one take at its ``flatnonzero`` (on 50-60k sorted
        keys, 25-40% kept, a mask gather costs 3-5x the take); run
        lengths (the counts) are taken only when ``min_count > 1`` or
        ``max_count`` is set.  Produces the identical sorted k-mer
        sequence as :meth:`_select`, wrapped by the backend's
        :meth:`~repro.backends.StepTwoBackend.query_column` (a no-op for
        the ndarray it already holds).
        """
        first = np.ones(len(ordered), dtype=bool)
        np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
        starts = np.flatnonzero(first)
        if self.min_count == 1 and self.max_count is None:
            return self._backend.query_column(ordered[starts], self.k)
        counts = np.diff(starts, append=len(ordered))
        keep = counts >= self.min_count
        if self.max_count is not None:
            keep &= counts <= self.max_count
        return self._backend.query_column(ordered[starts[keep]], self.k)

    def _select(self, counts: Counter) -> KmerColumn:
        """Frequency exclusion over accumulated counts, sorted, columnar."""
        selected = sorted(
            kmer
            for kmer, count in counts.items()
            if count >= self.min_count
            and (self.max_count is None or count <= self.max_count)
        )
        return self._backend.query_column(selected, self.k)

    def _assign_pinning(self, bucket_set: BucketSet) -> None:
        """Pin buckets to host DRAM until capacity runs out (Fig 5)."""
        if self.host_dram_bytes is None:
            return
        used = 0
        for bucket in bucket_set.buckets:
            size = bucket.byte_size(self.kmer_bytes)
            if used + size <= self.host_dram_bytes:
                bucket.pinned = True
                used += size
            else:
                bucket.pinned = False
                bucket_set.spilled_bytes += size
