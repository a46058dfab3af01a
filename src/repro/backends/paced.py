"""Paced Step-2 backend: modeled flash streaming as real wall time.

The repository is a *functional* reproduction — the Step-2 kernels compute
on in-memory columns and only count the flash traffic they model
(``db_kmers_streamed``).  That makes the paper's central overlap claims
(§4.2.1 bucket pipeline, §4.7 multi-sample batching, §6.1 multi-SSD
fan-out) invisible to a wall clock: a concurrent executor has nothing to
hide when streams take zero time.

:class:`PacedStepTwoBackend` closes that gap.  It wraps another backend
(the vectorized ``numpy`` engine by default) and, after each kernel call,
*waits* for the time the modeled flash stream would have taken at a
configured sequential-read bandwidth.  Results are bit-identical to the
inner backend — pacing adds wall time, never work — but the serving
economics become measurable:

- batched multi-sample Step 2 streams each database interval once per
  batch, so a batch of four pays one paced stream instead of four;
- per-shard tasks on a ``threads[:N]`` pool
  (:func:`~repro.megis.executors.shard_pool`) overlap their paced
  waits (``time.sleep`` releases the GIL), exactly like independent SSD
  channels;
- :class:`~repro.megis.service.AnalysisService` throughput scales with
  workers/batching even on a single CPU core, because serving an
  SSD-resident database is stream-bound, not compute-bound.

Select it as ``backend="paced"``; the bandwidth defaults to the
``REPRO_PACED_MBPS`` environment variable (or 64 MB/s, a deliberately
scaled-down rate matched to the test-scale databases).
"""

from __future__ import annotations

import os
import time
from typing import Any, List, Optional, Sequence

from repro.backends.base import (
    BucketSlice,
    IntColumn,
    PhaseTimings,
    StepTwoBackend,
    StepTwoResult,
)
from repro.backends.retrieval import RetrievalResult
from repro.sequences.keys import kmer_record_bytes

#: Default modeled sequential-read bandwidth (MB/s) when neither the
#: constructor nor ``REPRO_PACED_MBPS`` specifies one.
DEFAULT_MBPS = 64.0

#: Sleeps shorter than this are skipped — the OS cannot honour them
#: accurately and the scheduling overhead would exceed the pace.
_MIN_SLEEP_S = 50e-6


class PacedStepTwoBackend(StepTwoBackend):
    """Delegate to an inner backend, pacing by its modeled stream volume."""

    name = "paced"

    def __init__(
        self,
        inner: "StepTwoBackend | str" = "numpy",
        mb_per_s: Optional[float] = None,
    ) -> None:
        from repro.backends import get_backend

        self._inner = get_backend(inner)
        if mb_per_s is None:
            mb_per_s = float(os.environ.get("REPRO_PACED_MBPS", DEFAULT_MBPS))
        if mb_per_s <= 0:
            raise ValueError(f"mb_per_s must be positive, got {mb_per_s}")
        self.mb_per_s = mb_per_s
        self.columnar = self._inner.columnar

    @property
    def inner(self) -> StepTwoBackend:
        return self._inner

    # -- pacing ---------------------------------------------------------------

    def _stream(self, streamed_bytes: int) -> float:
        """Wait out the modeled flash-stream time of ``streamed_bytes`` at
        the configured bandwidth; returns the milliseconds slept, which
        the caller adds to its phase so the stream shows in
        ``PhaseTimings``."""
        wait_s = streamed_bytes / (self.mb_per_s * 1e6)
        if wait_s < _MIN_SLEEP_S:
            return 0.0
        time.sleep(wait_s)
        return wait_s * 1e3

    # -- query columns --------------------------------------------------------

    def query_column(self, values: IntColumn, k: int) -> IntColumn:
        return self._inner.query_column(values, k)

    # -- intersection ---------------------------------------------------------

    def intersect_bucketed_multi(
        self,
        database: Any,
        samples: Sequence[Sequence[BucketSlice]],
        n_channels: int = 8,
        timings: Optional[PhaseTimings] = None,
    ) -> Sequence[IntColumn]:
        scratch = PhaseTimings(backend=self.name)
        result = self._inner.intersect_bucketed_multi(
            database, samples, n_channels, scratch
        )
        self._pace_database(scratch, database.k)
        if timings is not None:
            timings.merge(scratch)
        return result

    def _pace_database(self, scratch: PhaseTimings, k: int) -> None:
        # The batch shares one database stream (§4.7): the inner kernel
        # charged each interval once — each database k-mer record read
        # once, at the size the serialization format derives — so the
        # paced wait is paid once for the whole batch, not per sample.
        scratch.intersect_ms += self._stream(
            scratch.db_kmers_streamed * kmer_record_bytes(k)
        )

    # -- retrieval ------------------------------------------------------------

    def retrieve(
        self,
        kss: Any,
        sorted_intersecting: IntColumn,
        timings: Optional[PhaseTimings] = None,
    ) -> RetrievalResult:
        # Retrieval streams the KSS range — §4.3.2's second flash stream.
        # Its volume is the (sliced) KSS table size: a sharded Step 2
        # passes each shard's prefix-aligned KSS range, so per-shard
        # retrieval pays only its own range's stream time, and the
        # intersect/retrieve overlap ratio matches the model.
        scratch = PhaseTimings(backend=self.name)
        result = self._inner.retrieve(kss, sorted_intersecting, scratch)
        self._pace_kss(scratch, kss)
        if timings is not None:
            timings.merge(scratch)
        return result

    def _pace_kss(self, scratch: PhaseTimings, kss: Any) -> None:
        streamed = int(kss.size_bytes())
        scratch.kss_bytes_streamed += streamed
        scratch.retrieve_ms += self._stream(streamed)

    # -- one shard's batch ----------------------------------------------------

    def step_two(
        self,
        shard: Any,
        samples: Sequence[Sequence[BucketSlice]],
        n_channels: int = 8,
        timings: Optional[PhaseTimings] = None,
    ) -> List[StepTwoResult]:
        """The inner engine's shard batch, paced by the same two streams
        as :meth:`intersect_bucketed_multi` then :meth:`retrieve` per
        sample: each database interval once per batch, the shard's KSS
        range once per sample."""
        scratch = PhaseTimings(backend=self.name)
        results = self._inner.step_two(shard, samples, n_channels, scratch)
        self._pace_database(scratch, shard.database.k)
        for _ in results:
            self._pace_kss(scratch, shard.kss)
        if timings is not None:
            timings.merge(scratch)
        return results
