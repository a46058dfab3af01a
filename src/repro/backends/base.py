"""Backend abstraction for MegIS Step 2 (paper §4.3).

A :class:`StepTwoBackend` supplies the two data-path kernels Step 2 is
made of: :meth:`~StepTwoBackend.intersect_bucketed_multi`, which streams
every database interval from flash once and intersects it against all
buffered samples' sorted buckets before advancing (§4.7), and
:meth:`~StepTwoBackend.retrieve`, the KSS taxID retrieval (§4.3.2).
:meth:`~StepTwoBackend.step_two` is the two over one shard for a batch —
what every Step-2 engine calls.  One sample is the batch of one; an
un-bucketed query is the one bucket spanning the key space
(:meth:`~StepTwoBackend.intersect`).

Backends must be *functionally identical*: the paper's accuracy-identity
claim rests on MegIS computing exactly what the software pipeline computes,
so every backend has to produce the same intersecting k-mers and the same
per-level taxID sets as the reference implementations
(:meth:`SortedKmerDatabase.intersect`, :meth:`KssTables.retrieve`).  The
test suite enforces this with randomized cross-backend equivalence tests.

:class:`PhaseTimings` records per-phase wall time and streaming counters so
experiments can attribute cost to extraction, intersection, retrieval, and
abundance estimation without re-instrumenting each backend.
"""

from __future__ import annotations

import abc
import time
from bisect import bisect_left
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.backends.retrieval import (  # noqa: F401
    IntColumn,
    RetrievalResult,
)

#: One query bucket: (lo, hi, sorted k-mers), covering ``[lo, hi)``.
BucketSlice = Tuple[int, int, IntColumn]

#: One sample's Step-2 output: (sorted intersecting k-mers, signature columns).
#: The k-mers are the result's ``queries``: an int list on the
#: ``python`` backend, a column in the database's dtype on ``numpy``.
StepTwoResult = Tuple[IntColumn, RetrievalResult]


@dataclass
class PhaseTimings:
    """Per-phase timing breakdown and streaming counters for one analysis.

    Wall times are in milliseconds; the counters record modeled data-path
    work (how many database / query k-mers were streamed) so the batched
    multi-sample mode can demonstrate that the database is streamed once
    for all buffered samples rather than once per sample.
    """

    #: Registry name of the engine that ran; empty until one is named.
    backend: str = ""
    extract_ms: float = 0.0
    intersect_ms: float = 0.0
    retrieve_ms: float = 0.0
    abundance_ms: float = 0.0
    db_kmers_streamed: int = 0
    query_kmers_streamed: int = 0
    #: Modeled KSS-table bytes streamed during taxID retrieval (§4.3.2's
    #: second flash stream).  Counted by the paced backend so the
    #: intersect/retrieve overlap ratio is reproducible in serving runs.
    kss_bytes_streamed: int = 0
    buckets_processed: int = 0
    db_stream_passes: int = 0
    samples_batched: int = 1
    #: Elapsed wall-clock time of the Step-2 dispatch (submission of the
    #: first bucket/shard task to completion of the last).  With a serial
    #: executor this tracks ``intersect_ms + retrieve_ms``; with a
    #: concurrent executor it is smaller — the gap is *measured* overlap.
    step2_wall_ms: float = 0.0
    channel_matches: Dict[int, int] = field(default_factory=dict)

    @property
    def total_ms(self) -> float:
        return self.extract_ms + self.intersect_ms + self.retrieve_ms + self.abundance_ms

    @property
    def measured_overlap_saved_ms(self) -> float:
        """Measured (not modeled) wall time hidden by concurrent Step 2.

        Per-task busy time (``intersect_ms + retrieve_ms``) minus the
        elapsed dispatch window: zero for the serial loop, positive when
        a ``threads[:N]`` pool genuinely overlapped shard work.
        """
        if self.step2_wall_ms <= 0:
            return 0.0
        return max(0.0, self.intersect_ms + self.retrieve_ms - self.step2_wall_ms)

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Time a block into ``<name>_ms`` (e.g. ``with t.phase("intersect")``)."""
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed_ms = (time.perf_counter() - start) * 1e3
            setattr(self, f"{name}_ms", getattr(self, f"{name}_ms") + elapsed_ms)

    def add_channel_matches(self, channel: int, count: int) -> None:
        if count:
            self.channel_matches[channel] = self.channel_matches.get(channel, 0) + count

    def merge(self, other: "PhaseTimings") -> None:
        """Accumulate another breakdown into this one.

        Counters add; ``samples_batched`` takes the max (it records the
        widest batch that shared a database stream, not a running total).
        """
        self.samples_batched = max(self.samples_batched, other.samples_batched)
        self.extract_ms += other.extract_ms
        self.intersect_ms += other.intersect_ms
        self.retrieve_ms += other.retrieve_ms
        self.abundance_ms += other.abundance_ms
        self.db_kmers_streamed += other.db_kmers_streamed
        self.query_kmers_streamed += other.query_kmers_streamed
        self.kss_bytes_streamed += other.kss_bytes_streamed
        self.buckets_processed += other.buckets_processed
        self.db_stream_passes += other.db_stream_passes
        self.step2_wall_ms += other.step2_wall_ms
        for channel, count in other.channel_matches.items():
            self.add_channel_matches(channel, count)

    def as_dict(self) -> Dict[str, object]:
        return {
            "backend": self.backend,
            "extract_ms": self.extract_ms,
            "intersect_ms": self.intersect_ms,
            "retrieve_ms": self.retrieve_ms,
            "abundance_ms": self.abundance_ms,
            "total_ms": self.total_ms,
            "db_kmers_streamed": self.db_kmers_streamed,
            "query_kmers_streamed": self.query_kmers_streamed,
            "kss_bytes_streamed": self.kss_bytes_streamed,
            "buckets_processed": self.buckets_processed,
            "db_stream_passes": self.db_stream_passes,
            "samples_batched": self.samples_batched,
            "step2_wall_ms": self.step2_wall_ms,
            "measured_overlap_saved_ms": self.measured_overlap_saved_ms,
        }


def interval_edges(samples: Sequence[Sequence[BucketSlice]]) -> List[int]:
    """Union of all samples' bucket boundaries, sorted ascending.

    Consecutive pairs form the database streaming intervals of the batched
    multi-sample Step 2: every bucket of every sample is a whole number of
    intervals, so intersecting per interval is equivalent to intersecting
    per bucket — while the database slice for each interval is read once.

    The equivalence requires each sample's buckets to be in ascending,
    non-overlapping range order with their k-mers inside the declared
    range (what :class:`~repro.megis.host.KmerBucketPartitioner`
    produces); violations are rejected rather than silently mis-sliced.
    """
    edges: Set[int] = set()
    for buckets in samples:
        prev_hi = None
        for lo, hi, kmers in buckets:
            lo, hi = int(lo), int(hi)
            if hi < lo or (prev_hi is not None and lo < prev_hi):
                raise ValueError(
                    "multi-sample buckets must be in ascending, "
                    "non-overlapping range order"
                )
            if len(kmers) and not (lo <= int(kmers[0]) and int(kmers[-1]) < hi):
                raise ValueError(
                    f"bucket k-mers fall outside the declared range [{lo}, {hi})"
                )
            prev_hi = hi
            edges.add(lo)
            edges.add(hi)
    return sorted(edges)


def bisect_column(column: IntColumn, value: int, lo: int = 0) -> int:
    """``bisect_left`` that is safe for values beyond an ndarray's dtype.

    Range edges reach the key-space bound ``1 << 2k``, which overflows a
    ``uint64`` column's dtype for k = 32; NumPy 1.x would then compare via
    ``float64`` and misplace the boundary.  Out-of-range values resolve
    positionally instead: every representable element lies below them.
    """
    value = int(value)
    dtype = getattr(column, "dtype", None)
    if dtype is not None and getattr(dtype, "kind", "") in "ui":
        bits = 8 * dtype.itemsize - (0 if dtype.kind == "u" else 1)
        if value > (1 << bits) - 1:
            return len(column)
        if value < (0 if dtype.kind == "u" else -(1 << bits)):
            return lo
        # Same-dtype comparisons are exact; a bare Python int >= 2**63
        # would coerce uint64 elements through float64 on NumPy 1.x.
        value = dtype.type(value)
    return bisect_left(column, value, lo=lo)


def clip_buckets(
    buckets: Sequence[BucketSlice], lo: int, hi: int
) -> List[BucketSlice]:
    """Restrict a sample's ascending buckets to the shard range ``[lo, hi)``.

    A bucket wholly inside the range passes through as it is (its k-mers
    already lie in its own range); only a bucket crossing a shard
    boundary is split at it (range and k-mers both, two bisections), so
    each shard sees buckets that satisfy the :func:`interval_edges`
    invariants; buckets with no overlap are dropped.
    """
    clipped: List[BucketSlice] = []
    for blo, bhi, kmers in buckets:
        new_lo, new_hi = max(int(blo), int(lo)), min(int(bhi), int(hi))
        if new_hi <= new_lo:
            continue
        if (new_lo, new_hi) != (blo, bhi):  # crosses a shard edge: cut it
            i = bisect_column(kmers, new_lo)
            kmers = kmers[i:bisect_column(kmers, new_hi, lo=i)]
        clipped.append((new_lo, new_hi, kmers))
    return clipped


class StepTwoBackend(abc.ABC):
    """Execution engine for intersection and KSS retrieval kernels."""

    #: Registry name ("python", "numpy", ...).
    name: str = "abstract"

    #: True when the backend's kernels consume ndarray columns natively.
    #: Step 1 (:class:`~repro.megis.host.KmerBucketPartitioner`) uses this
    #: to emit bucket columns the backend can stream with zero conversion.
    columnar: bool = False

    # -- query columns (Step-1 output containers) -----------------------------

    def query_column(self, values: IntColumn, k: int) -> IntColumn:
        """Materialize sorted k-mers in this backend's native bucket container.

        The reference backend keeps plain Python int lists; columnar
        backends override this to return ndarray columns so no downstream
        kernel ever converts per call.
        """
        return [int(v) for v in values]

    # -- intersection ---------------------------------------------------------

    def intersect(
        self,
        database: Any,
        sorted_query: IntColumn,
        n_channels: int = 8,
        timings: Optional[PhaseTimings] = None,
    ) -> IntColumn:
        """Intersect one sorted query stream against the whole database:
        the one-sample batch of the one bucket spanning the key space."""
        [result] = self.intersect_bucketed_multi(
            database, [[(0, 1 << (2 * database.k), sorted_query)]],
            n_channels, timings,
        )
        return result

    @abc.abstractmethod
    def intersect_bucketed_multi(
        self,
        database: Any,
        samples: Sequence[Sequence[BucketSlice]],
        n_channels: int = 8,
        timings: Optional[PhaseTimings] = None,
    ) -> Sequence[IntColumn]:
        """The intersect kernel: bucketed (§4.2.1), batched (§4.7).

        Each sample is its ascending ``(lo, hi, sorted k-mers)`` buckets;
        only the database range ``[lo, hi)`` can match a bucket.  Streams
        every database interval (:func:`interval_edges`) once, intersecting
        it against all buffered samples' query slices before advancing.
        Returns one sorted
        intersection per sample, in the backend's native container (an
        int list, or an ndarray column), each identical to what that
        sample alone would produce.
        """

    # -- retrieval ------------------------------------------------------------

    @abc.abstractmethod
    def retrieve(
        self,
        kss: Any,
        sorted_intersecting: IntColumn,
        timings: Optional[PhaseTimings] = None,
    ) -> RetrievalResult:
        """KSS taxID retrieval over the sorted intersecting k-mers (§4.3.2)."""

    # -- one shard's batch ----------------------------------------------------

    def step_two(
        self,
        shard: Any,
        samples: Sequence[Sequence[BucketSlice]],
        n_channels: int = 8,
        timings: Optional[PhaseTimings] = None,
    ) -> List[StepTwoResult]:
        """Step 2 of one shard for a batch of samples already clipped to
        its range: the intersect kernel over ``shard.database``, then each
        sample's :meth:`retrieve` from ``shard.kss``.  Returns one
        ``(intersecting, retrieved)`` pair per sample."""
        timings = timings if timings is not None else PhaseTimings(backend=self.name)
        partials = self.intersect_bucketed_multi(
            shard.database, samples, n_channels, timings
        )
        return [
            (partial, self.retrieve(shard.kss, partial, timings))
            for partial in partials
        ]
