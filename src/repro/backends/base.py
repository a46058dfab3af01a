"""Backend abstraction for MegIS Step 2 (paper §4.3).

A :class:`StepTwoBackend` is one method, :meth:`~StepTwoBackend.step_two`:
one SSD's in-storage pass over a shard for a batch of buffered samples.
The shard's database stream feeds the Intersect units — every database
interval read from flash once and intersected against all the samples'
sorted buckets before advancing (§4.2.1, §4.7) — and each sample's
intersecting k-mers feed taxID retrieval from the shard's KSS range
(§4.3.2).  One sample is the batch of one; one SSD is the whole-range
shard.

Backends must be *functionally identical*: the paper's accuracy-identity
claim rests on MegIS computing exactly what the software pipeline computes,
so every backend has to produce the same intersecting k-mers and the same
per-level taxID sets as the reference implementations
(:meth:`SortedKmerDatabase.intersect`, :meth:`KssTables.retrieve`).  The
test suite enforces this with randomized cross-backend equivalence tests.

:class:`PhaseTimings` records per-phase wall time and streaming counters so
experiments can attribute cost to extraction, intersection, retrieval, the
candidate call and abundance estimation without re-instrumenting each
backend.
"""

from __future__ import annotations

import abc
import time
from bisect import bisect_left
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields
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

    Wall times are in milliseconds — Step 1's extraction, Step 2's
    intersect and retrieval, the candidate call and Step 3's abundance
    estimate, which add up to :attr:`total_ms`; the counters record
    modeled data-path work (how many database / query k-mers were
    streamed) so the batched multi-sample mode can demonstrate that the
    database is streamed once for all buffered samples rather than once
    per sample.
    """

    #: Registry name of the engine that ran; empty until one is named.
    backend: str = ""
    extract_ms: float = 0.0
    intersect_ms: float = 0.0
    retrieve_ms: float = 0.0
    #: Hit accumulation and candidate call (``_finish_step_two``).
    candidates_ms: float = 0.0
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

    @property
    def total_ms(self) -> float:
        return (self.extract_ms + self.intersect_ms + self.retrieve_ms
                + self.candidates_ms + self.abundance_ms)

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

    def merge(self, other: "PhaseTimings") -> None:
        """Accumulate another breakdown into this one.

        Times and counters add; ``samples_batched`` takes the max (it
        records the widest batch that shared a database stream, not a
        running total) and ``backend`` is kept.
        """
        for name in (f.name for f in fields(self)):
            if name == "samples_batched":
                self.samples_batched = max(self.samples_batched, other.samples_batched)
            elif name != "backend":
                setattr(self, name, getattr(self, name) + getattr(other, name))

    def as_dict(self) -> Dict[str, object]:
        return {
            **asdict(self),
            "total_ms": self.total_ms,
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
    """Execution engine of one shard's batch Step 2."""

    #: Registry name ("python", "numpy", ...).
    name: str = "abstract"

    #: True when the backend's kernels consume ndarray columns natively.
    #: Step 1 (:class:`~repro.megis.host.KmerBucketPartitioner`) uses this
    #: to emit bucket columns the backend can stream with zero conversion.
    columnar: bool = False

    def query_column(self, values: IntColumn, k: int) -> IntColumn:
        """Materialize sorted k-mers in this backend's native bucket container.

        The reference backend keeps plain Python int lists; columnar
        backends override this to return ndarray columns so no downstream
        kernel ever converts per call.
        """
        return [int(v) for v in values]

    @abc.abstractmethod
    def step_two(
        self,
        shard: Any,
        samples: Sequence[Sequence[BucketSlice]],
        n_channels: int = 8,
        timings: Optional[PhaseTimings] = None,
    ) -> List[StepTwoResult]:
        """Step 2 of one shard for a batch of samples already clipped to
        its range (:func:`clip_buckets`).

        Each sample is its ascending ``(lo, hi, sorted k-mers)`` buckets;
        only the database range ``[lo, hi)`` can match a bucket.  Streams
        every interval of ``shard.database`` (:func:`interval_edges`) once,
        intersecting it against all samples' query slices before
        advancing, then retrieves each sample's taxIDs from ``shard.kss``.
        Returns one ``(intersecting, retrieved)`` pair per sample, the
        k-mers sorted and in the backend's native container (an int list,
        or an ndarray column), each identical to what that sample alone
        would produce.
        """
