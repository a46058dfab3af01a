"""MegIS Step 2: finding candidate species inside the SSD (paper §4.3).

The in-storage data path is modelled at the register level by the
``python`` reference backend (:mod:`repro.backends.python_backend`):

- :class:`IntersectUnit` — one per channel.  Holds two k-mer registers
  (current + next) fed directly from the flash stream, so the unit computes
  on data as it arrives without staging it in internal DRAM (§4.3.1).  It
  merges its channel's slice of the sorted database against the sorted
  query stream.
- :class:`TaxIdRetriever` — streams the sorted intersecting k-mers against
  the KSS tables.  A lightweight Index Generator compares the k-prefixes of
  consecutive k_max entries; when they differ it advances the smaller-k
  table (§4.3.2, Fig 8).

:class:`IspStepTwo` orchestrates Step 2 through a pluggable
:class:`~repro.backends.StepTwoBackend` — the register-level ``python``
backend above, or the vectorized ``numpy`` columnar backend.  All backends
must agree exactly with the software references
(:meth:`SortedKmerDatabase.intersect`, :meth:`KssTables.retrieve`) — the
test suite enforces this.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Tuple, Union

from repro.backends import (
    PhaseTimings,
    RetrievalResult as Retrieved,
    StepTwoBackend,
    get_backend,
)
from repro.databases.kss import KssTables
from repro.databases.sorted_db import SortedKmerDatabase
from repro.megis.executors import ExecutorSpec, get_executor


@dataclass
class IspStepTwo:
    """Step 2 orchestration: per-channel intersection, then taxID retrieval.

    ``backend`` selects the execution engine ("python" register-level
    reference or "numpy" columnar kernels; ``None`` uses the process
    default).  ``executor`` selects the execution policy
    (:mod:`repro.megis.executors`): with a concurrent executor,
    :meth:`run_bucket_set` dispatches each bucket's intersect + retrieve
    as its own task — the §4.2.1 pipeline actually running, rather than
    being modeled — while results stay bit-identical to the serial order
    (buckets cover ascending disjoint ranges, so their per-bucket outputs
    concatenate).  ``self.timings`` accumulates per-phase wall time and
    streaming counters across every call.
    """

    database: SortedKmerDatabase
    kss: KssTables
    n_channels: int = 8
    backend: Union[str, StepTwoBackend, None] = None
    executor: ExecutorSpec = None
    timings: PhaseTimings = field(default_factory=PhaseTimings)

    def __post_init__(self):
        self._backend = get_backend(self.backend)
        self._executor = get_executor(self.executor)
        self._timings_lock = threading.Lock()
        self.timings.backend = self._backend.name

    @property
    def backend_name(self) -> str:
        return self._backend.name

    @property
    def executor_name(self) -> str:
        return self._executor.name

    def run(
        self, sorted_query: Sequence[int], timings: Optional[PhaseTimings] = None
    ) -> Tuple[List[int], Retrieved]:
        """Return (intersecting k-mers, per-query level taxID sets)."""
        t = PhaseTimings(backend=self._backend.name)
        start = time.perf_counter()
        intersecting = self._backend.intersect(
            self.database, sorted_query, self.n_channels, t
        )
        retrieved = self._backend.retrieve(self.kss, intersecting, t)
        t.step2_wall_ms += (time.perf_counter() - start) * 1e3
        self._record(t, timings)
        return intersecting, retrieved

    def run_bucket_set(
        self, bucket_set, timings: Optional[PhaseTimings] = None
    ) -> Tuple[List[int], Retrieved]:
        """Step 2 over a partitioned sample's native bucket columns.

        The :class:`~repro.megis.host.BucketSet` carries its k-mers in the
        backend's native container (ndarray columns for ``numpy``), so this
        hand-off streams Step-1 output into the kernels with no conversion.

        With a concurrent executor and more than one non-trivial bucket,
        each bucket becomes an independent (intersect + retrieve) task:
        the per-bucket results concatenate in range order into exactly the
        serial output, and ``step2_wall_ms`` captures the overlapped
        dispatch window (the wall-clock realization of the §4.2.1 bucket
        pipeline the scheduler otherwise only models).
        """
        buckets = [(b.lo, b.hi, b.kmers) for b in bucket_set.buckets]
        if self._executor.workers <= 1 or len(buckets) <= 1:
            return self.run_bucketed(buckets, timings=timings)
        t = PhaseTimings(backend=self._backend.name)

        def bucket_task(bucket):
            bt = PhaseTimings(backend=self._backend.name)
            partial = self._backend.intersect_bucketed(
                self.database, [bucket], self.n_channels, bt
            )
            retrieved = self._backend.retrieve(self.kss, partial, bt)
            return partial, retrieved, bt

        start = time.perf_counter()
        outcomes = self._executor.map_ordered(bucket_task, buckets)
        t.step2_wall_ms += (time.perf_counter() - start) * 1e3
        for _, _, bt in outcomes:
            t.merge(bt)
        # One logical pass over the database: each bucket task streamed a
        # disjoint range of it, concurrently.
        t.db_stream_passes = 1
        intersecting = [kmer for partial, _, _ in outcomes for kmer in partial]
        retrieved = Retrieved.concatenate(
            [retrieved for _, retrieved, _ in outcomes]
        )
        self._record(t, timings)
        return intersecting, retrieved

    def run_bucketed(
        self,
        buckets: Iterable[Tuple[int, int, Sequence[int]]],
        timings: Optional[PhaseTimings] = None,
    ) -> Tuple[List[int], Retrieved]:
        """Pipelined variant: intersect each bucket against its db range.

        Each item is ``(lo, hi, sorted_kmers)``; since both sides are
        sorted, only the database slice in ``[lo, hi)`` can match (§4.2.1).
        """
        t = PhaseTimings(backend=self._backend.name)
        start = time.perf_counter()
        intersecting = self._backend.intersect_bucketed(
            self.database, list(buckets), self.n_channels, t
        )
        retrieved = self._backend.retrieve(self.kss, intersecting, t)
        t.step2_wall_ms += (time.perf_counter() - start) * 1e3
        self._record(t, timings)
        return intersecting, retrieved

    def run_bucketed_multi(
        self,
        samples: Sequence[Sequence[Tuple[int, int, Sequence[int]]]],
        timings: Optional[PhaseTimings] = None,
    ) -> List[Tuple[List[int], Retrieved]]:
        """Batched multi-sample Step 2 (§4.7).

        Every database interval is streamed from flash once and intersected
        against all buffered samples' query slices before advancing; each
        sample's result is identical to running :meth:`run_bucketed` on it
        alone, which is how multi-sample mode preserves accuracy.
        """
        t = PhaseTimings(backend=self._backend.name, samples_batched=len(samples))
        start = time.perf_counter()
        per_sample = self._backend.intersect_bucketed_multi(
            self.database, [list(buckets) for buckets in samples], self.n_channels, t
        )
        results = [
            (intersecting, self._backend.retrieve(self.kss, intersecting, t))
            for intersecting in per_sample
        ]
        t.step2_wall_ms += (time.perf_counter() - start) * 1e3
        self._record(t, timings)
        return results

    def _record(self, t: PhaseTimings, timings: Optional[PhaseTimings]) -> None:
        with self._timings_lock:
            self.timings.merge(t)
        if timings is not None:
            timings.merge(t)
