"""The §4.2.1 bucket pipeline: event-queue scheduler and overlap model.

Bucket *i*'s in-storage intersection can overlap bucket *i+1*'s host
sort.  :class:`BucketPipelineScheduler` simulates that pipeline over
per-bucket durations; :func:`model_overlap` replays one sample's
measured Step-1 / Step-2 wall times through it and records
``serialized_ms`` / ``overlapped_ms`` on the sample's
:class:`~repro.backends.PhaseTimings`.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.backends import PhaseTimings
from repro.databases.sorted_db import SortedKmerDatabase
from repro.megis.host import BucketSet
from repro.megis.sorting import sort_cost_weights


@dataclass(frozen=True)
class ScheduledBucket:
    """One bucket's placement on the sort/intersect timeline."""

    index: int
    sort_start_ms: float
    sort_end_ms: float
    intersect_start_ms: float
    intersect_end_ms: float


@dataclass
class BucketSchedule:
    """Outcome of the §4.2.1 bucket-pipeline simulation."""

    buckets: List[ScheduledBucket]
    #: Total time with no overlap: every sort, then every intersection.
    serialized_ms: float
    #: Makespan with bucket *i*'s intersection overlapping bucket *i+1*'s
    #: sort — the §4.2.1 pipeline.
    overlapped_ms: float

    @property
    def saved_ms(self) -> float:
        return max(0.0, self.serialized_ms - self.overlapped_ms)


class BucketPipelineScheduler:
    """Event-queue model of the §4.2.1 sort/intersect bucket pipeline.

    Two resources contend: the host sorter (strictly serial — buckets are
    sorted in range order) and a pool of ``n_engines`` in-storage intersect
    engines (one per SSD).  Bucket *i*'s intersection starts as soon as its
    sort completes *and* an engine frees up, which is exactly the overlap
    that hides Step-1 sorting behind Step-2 streaming; with one bucket (or
    one of the two phases empty) the schedule degenerates to the serial
    MS-NOL behaviour.
    """

    def __init__(self, n_engines: int = 1):
        if n_engines < 1:
            raise ValueError(f"n_engines must be >= 1, got {n_engines}")
        self.n_engines = n_engines

    def schedule(
        self,
        sort_ms: Sequence[float],
        intersect_ms: Sequence[float],
        lead_ms: float = 0.0,
    ) -> BucketSchedule:
        """Simulate the pipeline over per-bucket sort/intersect durations.

        ``lead_ms`` is serial head work (k-mer extraction and frequency
        selection) that must finish before any bucket sort can start — it
        delays the whole pipeline and is never hidden by the overlap.
        """
        if len(sort_ms) != len(intersect_ms):
            raise ValueError(
                f"per-bucket duration lists must match: "
                f"{len(sort_ms)} sorts vs {len(intersect_ms)} intersects"
            )
        n = len(sort_ms)
        serialized = float(lead_ms) + float(sum(sort_ms)) + float(sum(intersect_ms))
        events: List = []  # (time, seq, kind, bucket) min-heap
        seq = itertools.count()
        sort_windows: List = []
        clock = float(lead_ms)
        for i, duration in enumerate(sort_ms):
            start, clock = clock, clock + float(duration)
            sort_windows.append((start, clock))
            heapq.heappush(events, (clock, next(seq), "sorted", i))
        ready: deque = deque()
        free_engines = self.n_engines
        placed: Dict[int, tuple] = {}
        makespan = float(lead_ms)
        while events:
            now, _, kind, index = heapq.heappop(events)
            makespan = max(makespan, now)
            if kind == "sorted":
                ready.append(index)
            else:  # "intersected": an engine frees up
                free_engines += 1
            while free_engines and ready:
                bucket = ready.popleft()
                free_engines -= 1
                end = now + float(intersect_ms[bucket])
                placed[bucket] = (now, end)
                heapq.heappush(events, (end, next(seq), "intersected", bucket))
        scheduled = [
            ScheduledBucket(i, *sort_windows[i], *placed[i]) for i in range(n)
        ]
        return BucketSchedule(
            buckets=scheduled, serialized_ms=serialized, overlapped_ms=makespan
        )


def model_overlap(
    timings: PhaseTimings,
    bucket_set: BucketSet,
    database: SortedKmerDatabase,
    n_engines: int,
    intersect_share: float = 1.0,
) -> None:
    """Model the §4.2.1 bucket pipeline over the measured phase times.

    The measured Step-1 (extract) wall time splits into a serial head
    (extraction, boundary selection, and bucket assignment — it
    precedes every bucket and is never hidden) plus per-bucket sort
    components.  When the partitioner recorded real per-bucket wall
    times (``BucketSet.measured_step_one_ms``) those are the split
    weights; otherwise the ``n log n`` comparison-count model
    apportions.  Likewise the Step-2
    (intersect) time is apportioned by streamed volume (database range
    plus query bucket) — *unless* the backends recorded real per-bucket
    wall times covering this sample's buckets exactly
    (``timings.measured_buckets``), in which case the scheduler replays
    the measured durations instead of the cost model.  Replaying those
    through the event-queue scheduler,
    ``serialized_ms``/``overlapped_ms`` expose how much of the serial
    chain the bucket overlap can hide.
    """
    sizes = [len(b.kmers) for b in bucket_set.buckets]
    intersect_total = timings.intersect_ms * intersect_share
    if not sizes or sum(sizes) == 0 or intersect_total <= 0:
        return
    step_one_weights = bucket_set.measured_step_one_ms()
    if step_one_weights is None:
        step_one_weights = [float(sum(sizes))] + sort_cost_weights(sizes)
    step_one = _apportion(step_one_weights, timings.extract_ms)
    lead_ms, sort_ms = step_one[0], step_one[1:]
    weights = measured_bucket_ms(timings, bucket_set)
    if weights is None:
        db_lens = [
            database.count_range(b.lo, b.hi) for b in bucket_set.buckets
        ]
        weights = [
            float(db + q) for db, q in zip(db_lens, sizes)
        ]
    intersect_ms = _apportion(weights, intersect_total)
    scheduler = BucketPipelineScheduler(n_engines=max(1, n_engines))
    schedule = scheduler.schedule(sort_ms, intersect_ms, lead_ms=lead_ms)
    timings.serialized_ms += schedule.serialized_ms
    timings.overlapped_ms += schedule.overlapped_ms


def measured_bucket_ms(
    timings: PhaseTimings, bucket_set: BucketSet
) -> Optional[List[float]]:
    """Per-bucket measured intersect durations, or ``None`` to model.

    Valid only when the backends logged exactly one measured slice per
    bucket, keyed by the bucket's ``[lo, hi)`` range — the kernel logs
    one slice per streamed interval, so a sharded or batched Step 2
    (whose intervals split at shard edges and at every sample's
    boundaries) logs different slices and falls back to the cost
    model (ROADMAP "measured, not modeled").  The durations drive the
    schedule as apportionment weights over the measured phase total,
    so ``serialized_ms`` remains exactly the measured Step-1 + Step-2
    chain while each bucket's share is measured rather than modeled.
    """
    measured = timings.measured_buckets
    if len(measured) != len(bucket_set.buckets):
        return None
    by_range = {(lo, hi): ms for lo, hi, ms in measured}
    if len(by_range) != len(measured):
        return None
    try:
        return [by_range[(b.lo, b.hi)] for b in bucket_set.buckets]
    except KeyError:
        return None


def _apportion(weights: Sequence[float], total_ms: float) -> List[float]:
    """Split a measured wall time across buckets proportionally to weights.

    Degenerate weight vectors (all zero) split evenly so the scheduler
    still sees one slot per bucket.
    """
    weight_sum = float(sum(weights))
    if weight_sum <= 0:
        return [total_ms / len(weights)] * len(weights) if weights else []
    return [total_ms * float(w) / weight_sum for w in weights]


__all__ = [
    "BucketPipelineScheduler",
    "BucketSchedule",
    "ScheduledBucket",
    "measured_bucket_ms",
    "model_overlap",
]
