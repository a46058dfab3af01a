"""Paced Step-2 backend: modeled flash streaming as real wall time.

The repository is a *functional* reproduction — the Step-2 kernels compute
on in-memory columns and only count the flash traffic they model
(``db_kmers_streamed``).  That makes the paper's central overlap claims
(§4.2.1 bucket pipeline, §4.7 multi-sample batching, §6.1 multi-SSD
fan-out) invisible to a wall clock: concurrent shards have nothing to
hide when streams take zero time.

:class:`PacedStepTwoBackend` closes that gap.  It wraps another backend
(the vectorized ``numpy`` engine by default) and, after each shard's
Step 2, *waits* for the time its two modeled flash streams would have
taken at a configured sequential-read bandwidth: the database stream,
once per batch, and the shard's KSS range, once per sample.  Results
are bit-identical to the inner backend — pacing adds wall time, never
work — but the serving economics become measurable:

- batched multi-sample Step 2 streams each database interval once per
  batch, so a batch of four pays one paced stream instead of four;
- per-shard tasks on a thread pool (the one
  :mod:`repro.experiments.overlap_report` hands
  :func:`~repro.megis.multissd.step_two_over_shards`) overlap their paced
  waits (``time.sleep`` releases the GIL), exactly like independent SSDs;
- :class:`~repro.megis.service.AnalysisService` throughput scales with
  workers/batching even on a single CPU core, because serving an
  SSD-resident database is stream-bound, not compute-bound.

Select it as ``backend="paced"``; the bandwidth defaults to the
``REPRO_PACED_MBPS`` environment variable (or 64 MB/s, a deliberately
scaled-down rate matched to the test-scale databases) and must be a
finite number > 0.
"""

from __future__ import annotations

import math
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
        source, given = "REPRO_PACED_MBPS", os.environ.get("REPRO_PACED_MBPS", DEFAULT_MBPS)
        if mb_per_s is not None:
            source, given = "mb_per_s", mb_per_s
        try:
            self.mb_per_s = float(given)
        except ValueError:
            self.mb_per_s = math.nan
        if not (math.isfinite(self.mb_per_s) and self.mb_per_s > 0):
            raise ValueError(f"{source} must be a finite number > 0, got {given!r}")
        self.columnar = self._inner.columnar

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

    def query_column(self, values: IntColumn, k: int) -> IntColumn:
        return self._inner.query_column(values, k)

    def step_two(
        self,
        shard: Any,
        samples: Sequence[Sequence[BucketSlice]],
        n_channels: int = 8,
        timings: Optional[PhaseTimings] = None,
    ) -> List[StepTwoResult]:
        """The inner engine's shard batch, paced by its two streams."""
        scratch = PhaseTimings(backend=self.name)
        results = self._inner.step_two(shard, samples, n_channels, scratch)
        # The batch shares one database stream (§4.7): the inner kernel
        # charged each interval once — each database k-mer record read
        # once, at the size the serialization format derives — so the
        # paced wait is paid once for the whole batch, not per sample.
        scratch.intersect_ms += self._stream(
            scratch.db_kmers_streamed * kmer_record_bytes(shard.database.k)
        )
        # Retrieval streams the shard's KSS range — §4.3.2's second flash
        # stream — once per sample: a sharded Step 2 pays only its own
        # prefix-aligned range, so the intersect/retrieve overlap ratio
        # matches the model.
        streamed = int(shard.kss.size_bytes())
        for _ in results:
            scratch.kss_bytes_streamed += streamed
            scratch.retrieve_ms += self._stream(streamed)
        if timings is not None:
            timings.merge(scratch)
        return results
