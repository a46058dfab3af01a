"""Process-backed analysis: the warmed session, forked (the process-pool tier).

The GIL caps what :class:`~repro.megis.service.AnalysisService` can get
out of threads: Step 1 (k-mer extraction) and mapping-based Step 3 are
pure-Python loops, so thread workers serialize exactly where the paper's
pipeline is busiest.  :class:`ProcessAnalysisRunner` forks a
:class:`ProcessExecutor` pool *after* the index file is mapped and the
session warmed, so every worker is that session, sharing the parent's
engine state copy-on-write (:meth:`probe_workers` is the witness).

A worker does the session's own job.  One batch is one task: the child
runs the inherited session's ``analyze_batch`` — the serial path, since
:meth:`ProcessAnalysisRunner.after_fork` unhooks the pool there — and
sends its ``MegisResult`` list back, so a process-backed result is the
serial session's, ``PhaseTimings`` counters included.  Parallelism is
across batches: the service's worker threads submit concurrently and
each batch lands on an idle worker.

Crash semantics come from the pool: a worker that dies mid-batch is
respawned (a fresh fork of the *current* parent) and the batch retried
once; a second death surfaces as
:class:`~repro.megis.executors.WorkerCrashed` from ``analyze_batch``,
which :class:`~repro.megis.service.AnalysisService` turns into a
structured per-request error without dropping queued samples.
"""

from __future__ import annotations

import os
import threading
from typing import TYPE_CHECKING, Dict, List, Sequence

from repro.megis.executors import ProcessExecutor, worker_state
from repro.sequences.reads import Read

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.megis.session import AnalysisSession, MegisResult


# -- module-level task functions (pickled by reference across the pipe) -------

def _task_analyze(
    samples: Sequence[Sequence[Read]], with_abundance: bool
) -> List["MegisResult"]:
    """One batch inside a worker: the forked session's own analysis."""
    runner: ProcessAnalysisRunner = worker_state()
    results: List["MegisResult"] = runner.session.analyze_batch(samples, with_abundance)
    return results


def _task_probe() -> Dict[str, int]:
    """Counters read from *inside* a worker — the COW-sharing witness: a
    fork that duplicated the parent's warmed state would have to rebuild
    its columns, and these would exceed the parent's snapshot."""
    runner: ProcessAnalysisRunner = worker_state()
    database = runner.session.database
    return {
        "pid": os.getpid(),
        "column_builds": database.column_builds,
        "owner_column_builds": database.owner_column_builds,
    }


class ProcessAnalysisRunner:
    """Drive one session's analyses through a forked worker pool.

    Built by :meth:`AnalysisSession.warm` when the session's executor
    spec is ``processes``/``processes:N``; the constructor is the fork
    point — everything warmed before it (columns, KSS blocks, memmap
    sections, shard handles) is inherited copy-on-write by the workers.
    The runner is the pool's ``state`` object: it reaches the children
    by fork inheritance, never by pickling.
    """

    def __init__(self, session: "AnalysisSession", workers: int) -> None:
        self.session = session
        self.pool = ProcessExecutor(workers, state=self)
        self.pool.start()  # <- the fork

    def after_fork(self) -> None:
        """Child-side repair, run first thing inside every forked worker.

        A respawn fork can happen while serving threads hold the session
        lock in the parent, so the child gets a fresh lock; nulling the
        runner hook puts the child's ``session.analyze_batch`` on the
        plain serial path instead of recursing into the (parent-owned)
        pool.
        """
        session = self.session
        session._lock = threading.RLock()
        session._process_workers = None
        session._runner = None

    def analyze_batch(
        self, samples: Sequence[Sequence[Read]], with_abundance: bool = True
    ) -> List["MegisResult"]:
        """One batch, one worker; thread-safe — concurrent callers'
        batches run on different workers."""
        future = self.pool.submit(_task_analyze, samples, with_abundance)
        results: List["MegisResult"] = future.result()
        return results

    @property
    def respawns(self) -> int:
        respawns: int = self.pool.respawns
        return respawns

    def probe_workers(self) -> List[Dict[str, int]]:
        """Each worker's in-process view of the shared engine counters."""
        futures = [
            self.pool.submit_to(w, _task_probe) for w in range(self.pool.workers)
        ]
        return [future.result() for future in futures]

    def close(self) -> None:
        self.pool.shutdown(wait=True)


__all__ = ["ProcessAnalysisRunner"]
