"""Shard-per-process analysis execution (the process-pool serving tier).

The GIL caps what :class:`~repro.megis.service.AnalysisService` can get
out of threads: Step 1 (k-mer extraction) and mapping-based Step 3 are
pure-Python loops, so thread workers serialize exactly where the paper's
pipeline is busiest.  :class:`ProcessAnalysisRunner` moves those phases —
and the sharded Step-2 kernels — into a :class:`ProcessExecutor` pool
forked *after* the index file is mapped (``MegisIndex.open``) and the
session warmed, so every worker shares
the parent's engine state copy-on-write: zero per-worker index
duplication, verifiable through :meth:`probe_workers` against the
database's column-build counters.

Data parallelism is shard-per-process (§6.1 mapped onto processes):
the sorted database is cut into ``max(n_ssds, workers)`` contiguous
lexicographic ranges and each worker *owns* a contiguous group of
shards for the session's lifetime (tasks are pinned with
``ProcessExecutor.submit_to``).  A batch runs in three fan-outs —

1. Step 1 per sample on any worker (extraction parallelizes freely);
2. Step 2 per worker-group: each worker runs
   :func:`~repro.megis.multissd.step_two_over_shards` over its own shard
   group, streaming each shard once for the whole batch;
3. Step 3 per sample on any worker (mapping/EM over the merged
   retrieval).

— and the parent gathers the per-group results in ascending range order
(:func:`~repro.megis.multissd.gather`), so the
output is bit-identical to the serial engines (the golden-fixture tests
pin this).  Task functions are module-level (they cross the worker pipe
by reference) and reach the forked state through
:func:`~repro.megis.executors.worker_state`.

Crash semantics come from the pool: a worker that dies mid-task is
respawned (a fresh fork of the *current* parent, shards intact) and the
task retried once; a second death surfaces as
:class:`~repro.megis.executors.WorkerCrashed` from ``analyze_batch``,
which :class:`~repro.megis.service.AnalysisService` turns into a
structured per-request error without dropping queued samples.
"""

from __future__ import annotations

import os
import threading
import time
from typing import TYPE_CHECKING, Any, Dict, List, Sequence, Tuple

from repro.backends import BucketSlice, PhaseTimings, get_backend
from repro.backends.retrieval import RetrievalResult
from repro.megis.executors import ProcessExecutor, worker_state
from repro.megis.multissd import (
    DatabaseShard,
    StepTwoResult,
    gather,
    step_two_over_shards,
    warm_shards,
)
from repro.sequences.reads import Read

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.megis.session import AnalysisSession, MegisResult


# -- module-level task functions (pickled by reference across the pipe) -------

def _task_step1(reads: Sequence[Read]) -> Tuple[Any, float]:
    """Step 1 for one sample inside a worker: partition + wall time."""
    runner = worker_state()
    start = time.perf_counter()
    buckets = runner.session._partitioner.partition(reads)
    return buckets, (time.perf_counter() - start) * 1e3


def _task_step2(
    shard_indexes: Sequence[int],
    sample_buckets: List[List[BucketSlice]],
) -> Tuple[List[StepTwoResult], PhaseTimings]:
    """Step 2 over this worker's shard group, batched across samples:
    the group's gathered per-sample partials and its merged timings."""
    runner = worker_state()
    return step_two_over_shards(
        runner.backend, [runner.shards[index] for index in shard_indexes],
        sample_buckets, runner.channels,
    )


def _task_step3(
    reads: Sequence[Read], retrieved: RetrievalResult, with_abundance: bool
) -> Tuple[Dict, set, Any, Any, float]:
    """Step 3 for one sample inside a worker: hits, candidates, profile."""
    from repro.megis.session import MegisResult

    runner = worker_state()
    session = runner.session
    result = MegisResult()
    session._finish_step_two(result, [], retrieved)
    abundance_ms = 0.0
    if with_abundance:
        start = time.perf_counter()
        session._estimate_abundance(result, reads, retrieved)
        abundance_ms = (time.perf_counter() - start) * 1e3
    return (
        result.sketch_hits, result.candidates, result.profile,
        result.merge_stats, abundance_ms,
    )


def _task_probe() -> Dict[str, int]:
    """Counters read from *inside* a worker — the COW-sharing witness.

    If the fork duplicated (rather than COW-shared) the parent's warmed
    engine state, the worker's database would have to rebuild its
    columns and these counters would exceed the parent's snapshot.
    """
    runner = worker_state()
    database = runner.session.database
    return {
        "pid": os.getpid(),
        "column_builds": database.column_builds,
        "owner_column_builds": database.owner_column_builds,
        "shards": len(runner.shards),
    }


class ProcessAnalysisRunner:
    """Drive one session's analyses through a forked worker pool.

    Built by :meth:`AnalysisSession.warm` when the session's executor
    spec is ``processes``/``processes:N``; the constructor is the fork
    point — everything warmed before it (columns, KSS blocks, memmap
    sections, shard handles) is inherited copy-on-write by the workers.
    The runner itself is the pool's ``state`` object: it crosses into
    the children by fork inheritance, never by pickling.
    """

    def __init__(self, session: "AnalysisSession", workers: int):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.session = session
        self.workers = workers
        self.backend = get_backend(session._backend_spec)
        self.channels = session._n_channels
        #: At least one shard per worker; honoring a larger configured
        #: SSD count keeps the modeled fan-out width.
        shard_count = max(session.config.n_ssds, workers)
        self.shards: List[DatabaseShard] = list(session.index.shards(shard_count))
        # Materialized pre-fork: the copy-on-write prerequisite.
        warm_shards(self.shards, self.backend.columnar)
        #: Contiguous shard groups: worker *w* owns ``groups[w]``.  The
        #: groups partition ``range(shard_count)`` in ascending order, so
        #: iterating workers then shards yields ascending ranges — the
        #: precondition for ``RetrievalResult.concatenate``.
        self.groups: List[List[int]] = [
            list(range(
                shard_count * w // workers, shard_count * (w + 1) // workers
            ))
            for w in range(workers)
        ]
        self.pool = ProcessExecutor(workers, state=self)
        self.pool.start()  # <- the fork

    def after_fork(self) -> None:
        """Child-side repair, run first thing inside every forked worker.

        A respawn fork can happen while serving threads hold the session
        lock in the parent, so the child gets a fresh lock; nulling the
        runner hook makes any in-worker ``session.analyze`` take the
        plain serial path instead of recursing into the (parent-owned)
        pool.
        """
        session = self.session
        session._lock = threading.RLock()
        session._process_workers = None
        session._runner = None

    # -- serving ---------------------------------------------------------------

    def analyze_batch(
        self, samples: Sequence[Sequence[Read]], with_abundance: bool = True
    ) -> List["MegisResult"]:
        """The three fan-outs; semantics match ``AnalysisSession.analyze_batch``.

        Thread-safe — :class:`AnalysisService` workers call this
        concurrently and the pool interleaves their tasks; each batch's
        results are assembled from its own futures only.
        """
        if not samples:
            return []
        pool = self.pool

        # Fan-out 1 — Step 1 per sample, any worker.
        step1 = [pool.submit(_task_step1, list(reads)) for reads in samples]
        partitioned = [future.result() for future in step1]
        bucket_sets = [buckets for buckets, _ in partitioned]
        sample_buckets = [buckets.slices() for buckets in bucket_sets]

        # Fan-out 2 — Step 2 per worker-group, pinned to the shard owner;
        # each worker streams its shard group once for the whole batch.
        batch_timings = PhaseTimings(
            backend=self.backend.name, samples_batched=len(samples)
        )
        start = time.perf_counter()
        step2 = [
            pool.submit_to(worker, _task_step2, group, sample_buckets)
            for worker, group in enumerate(self.groups) if group
        ]
        outcomes = [future.result() for future in step2]
        batch_timings.step2_wall_ms += (time.perf_counter() - start) * 1e3
        for _, group_timings in outcomes:
            batch_timings.merge(group_timings)
        merged = gather([partials for partials, _ in outcomes])

        # Fan-out 3 — Step 3 per sample, any worker.
        step3 = [
            pool.submit(_task_step3, list(reads), retrieved, with_abundance)
            for reads, (_, retrieved) in zip(samples, merged)
        ]

        results = self.session._batch_results(
            bucket_sets, [ms for _, ms in partitioned], batch_timings
        )
        for result, (intersecting, _), future in zip(results, merged, step3):
            (result.sketch_hits, result.candidates, result.profile,
             result.merge_stats, abundance_ms) = future.result()
            result.intersecting_kmers = intersecting
            result.timings.abundance_ms += abundance_ms
        return results

    # -- introspection / lifecycle ---------------------------------------------

    @property
    def respawns(self) -> int:
        return self.pool.respawns

    def probe_workers(self) -> List[Dict[str, int]]:
        """Each worker's in-process view of the shared engine counters."""
        futures = [
            self.pool.submit_to(worker, _task_probe)
            for worker in range(self.workers)
        ]
        return [future.result() for future in futures]

    def close(self) -> None:
        self.pool.shutdown(wait=True)


__all__ = ["ProcessAnalysisRunner"]
