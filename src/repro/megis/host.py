"""MegIS Step 1: preparing the input queries on the host (paper §4.2).

The host extracts k-mers from the sample, partitions them into buckets —
each covering a lexicographic range — sorts each bucket, and applies the
user-defined frequency exclusion.  Bucketing is what enables the pipeline
overlap: as soon as bucket *i* is sorted it can be shipped to the SSD and
intersected (the database is sorted too, so the matching range is known)
while bucket *i+1* is still being sorted.

Step 1 is *backend-aware*: buckets are emitted in the Step-2 backend's
native container — plain Python int lists for the register-level
``python`` reference, sorted ``np.ndarray`` columns for the ``numpy``
columnar engine — so the partition→intersect hand-off never converts
containers per call.  Both containers hold identical k-mer sequences; the
cross-backend equivalence tests enforce it.  Extraction follows the same
split: the reference extracts read by read into a ``Counter``; the
columnar path (k-mers fit ``uint64``) packs the whole sample in one
streaming pass, :func:`~repro.sequences.kmers.extract_kmers_batch` — the
extractor the columnar Step-3 vote shares.

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

from repro.backends import BucketSlice, StepTwoBackend, column_to_list, get_backend
from repro.sequences.kmers import extract_kmers, extract_kmers_batch
from repro.sequences.reads import Read

#: A bucket's sorted k-mers in the backend's native container.
KmerColumn = Union[List[int], np.ndarray]

#: How many k-mers off the head of the extracted stream the preliminary
#: boundary pass looks at.
PRELIMINARY_SAMPLE = 4096

#: Width of the k-mer prefix that decides its bucket: edges are aligned
#: to it, so bucket ids are one lookup in a table of at most ``1 << 16``
#: entries.
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

    def is_sorted(self) -> bool:
        if isinstance(self.kmers, np.ndarray):
            return len(self.kmers) < 2 or bool(
                np.all(np.asarray(self.kmers[:-1] <= self.kmers[1:], dtype=bool))
            )
        # Pairwise scan with early exit — no repeated indexing, O(1) space.
        iterator = iter(self.kmers)
        previous = next(iterator, None)
        for current in iterator:
            if current < previous:
                return False
            previous = current
        return True


@dataclass
class BucketSet:
    """All buckets of a sample, in ascending range order."""

    k: int
    buckets: List[Bucket]
    spilled_bytes: int = 0

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

    ``backend`` selects the Step-2 engine whose native container the bucket
    columns use ("python" lists, "numpy" ndarray columns; ``None`` resolves
    the process default).  The numpy path also vectorizes the frequency
    exclusion itself (a sort and a run flag per bucket instead of a Python
    ``Counter``), producing bit-identical bucket contents.
    """

    def __init__(
        self,
        k: int,
        n_buckets: int = 16,
        min_count: int = 1,
        max_count: Optional[int] = None,
        host_dram_bytes: Optional[int] = None,
        backend: Union[str, StepTwoBackend, None] = None,
    ):
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
        return (2 * self.k + 7) // 8

    @property
    def backend_name(self) -> str:
        return self._backend.name

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
        quantiles themselves.  An ndarray head is sorted and indexed in
        numpy; either container gives the same ascending Python ints, so
        both backends cut the same buckets.
        """
        shift = self.prefix_shift
        n = len(sample)
        cuts = range(1, self.n_buckets)
        if not n:
            space = 1 << (2 * self.k)
            return [space * i // self.n_buckets >> shift << shift for i in cuts]
        picks = [min(n - 1, n * i // self.n_buckets) for i in cuts]
        if isinstance(sample, np.ndarray):
            picked = np.sort(sample)[np.asarray(picks, dtype=np.intp)]
            aligned = picked >> np.uint64(shift) << np.uint64(shift)
            return list(np.unique(aligned).tolist())
        ordered = sorted(sample)
        return sorted({ordered[i] >> shift << shift for i in picks})

    # -- main entry --------------------------------------------------------------

    def partition(self, reads: Sequence[Read]) -> BucketSet:
        """Run Step 1 over a sample's reads.

        The serial head — extraction, the preliminary boundary pass, and
        bucket *assignment* — runs first; each bucket's
        sort/dedup/frequency-exclusion then runs per bucket.  Because the
        buckets partition the key space, per-bucket dedup + exclusion
        concatenates to exactly the global result the single-pass layout
        produced — bucket contents are bit-identical.

        The vectorized path (columnar backend, k-mers fit uint64) packs
        the whole sample's k-mers in one pass
        (:func:`~repro.sequences.kmers.extract_kmers_batch` — the stream
        in read order, whose ndarray head is the preliminary sample the
        boundary pass sorts in numpy) and groups it by bucket with one
        prefix-table lookup and one stable argsort over the bucket ids
        (:meth:`_group_vectorized`); the Counter path extracts
        read by read and folds each in immediately so peak memory stays
        O(distinct k-mers).
        """
        vectorized = self._backend.columnar and self.k <= 31
        counts: Counter = Counter()
        preliminary: KmerColumn
        if vectorized:
            merged, _ = extract_kmers_batch(
                [read.sequence for read in reads], self.k
            )
            preliminary = merged[:PRELIMINARY_SAMPLE]
        else:
            head: List[int] = []
            for read in reads:
                kmers = extract_kmers(read.sequence, self.k, canonical=False)
                counts.update(kmers.tolist())
                remaining = PRELIMINARY_SAMPLE - len(head)
                if remaining > 0:
                    head.extend(int(x) for x in kmers[:remaining].tolist())
            preliminary = head

        boundaries = self._boundaries(preliminary)
        space = 1 << (2 * self.k)
        edges = [0] + boundaries + [space]
        if vectorized:
            raw_buckets = self._group_vectorized(merged, edges)
        else:
            raw_buckets = self._group_counted(counts, boundaries, len(edges) - 1)

        buckets = [
            Bucket(
                index=i, lo=edges[i], hi=edges[i + 1],
                kmers=self._select_vectorized(raw) if vectorized else self._select(raw),
            )
            for i, raw in enumerate(raw_buckets)
        ]
        bucket_set = BucketSet(k=self.k, buckets=buckets)
        self._assign_pinning(bucket_set)
        return bucket_set

    def _group_vectorized(
        self, merged: np.ndarray, edges: Sequence[int],
    ) -> List[np.ndarray]:
        """Group the raw (unsorted, with duplicates) stream by bucket.

        ``edges`` are ``[0, *boundaries, 4^k]``, every one prefix-aligned
        (:meth:`_boundaries`), so a k-mer's bucket id is one lookup on its
        prefix, ``lut[kmer >> prefix_shift]``.  The table is one
        ``np.repeat`` of each bucket id over its prefix width, in the
        narrowest unsigned dtype that holds the ids.  One stable argsort
        over the ids then groups the stream — NumPy sorts keys of at most
        16 bits by radix, in O(n) — the scatter pass of the paper's
        bucketing.  Within-bucket order stays the arrival order;
        :meth:`_select_vectorized` does the actual sorting, per bucket.
        """
        n_buckets = len(edges) - 1
        if n_buckets == 1:
            return [merged]
        shift = self.prefix_shift
        if any(edge & ((1 << shift) - 1) for edge in edges):
            raise ValueError(f"bucket edges must be multiples of 1 << {shift}")
        widths = np.diff(np.asarray(edges, dtype=np.int64)) >> shift
        lut = np.repeat(
            np.arange(n_buckets, dtype=np.min_scalar_type(n_buckets - 1)), widths
        )
        # Prefixes are below 1 << 16: the int64 view indexes without a cast.
        ids = lut[(merged >> np.uint64(shift)).view(np.int64)]
        grouped = merged[np.argsort(ids, kind="stable")]
        offsets = np.zeros(n_buckets + 1, dtype=np.int64)
        np.cumsum(np.bincount(ids, minlength=n_buckets), out=offsets[1:])
        return [
            grouped[offsets[i]:offsets[i + 1]] for i in range(n_buckets)
        ]

    @staticmethod
    def _group_counted(
        counts: Counter, boundaries: Sequence[int], n_buckets: int
    ) -> List[Counter]:
        """Scatter the accumulated (k-mer -> count) pairs into buckets."""
        raw_buckets: List[Counter] = [Counter() for _ in range(n_buckets)]
        for kmer, count in counts.items():
            raw_buckets[bisect_right(boundaries, kmer)][kmer] = count
        return raw_buckets

    def _select_vectorized(self, raw: np.ndarray) -> KmerColumn:
        """Sort, deduplicate and frequency-exclude one bucket.

        One ``np.sort`` and an adjacent-difference flag on the first of
        each run of equal k-mers; run lengths (the counts) are taken only
        when ``min_count > 1`` or ``max_count`` is set.  Produces the
        identical sorted k-mer sequence as :meth:`_select`, wrapped by the
        backend's :meth:`~repro.backends.StepTwoBackend.query_column` (a
        no-op for the ndarray it already holds).
        """
        ordered = np.sort(raw)
        first = np.ones(len(ordered), dtype=bool)
        np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
        if self.min_count == 1 and self.max_count is None:
            return self._backend.query_column(ordered[first], self.k)
        starts = np.flatnonzero(first)
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
