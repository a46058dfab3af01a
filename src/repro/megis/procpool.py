"""Process-backed analysis: the warmed session, forked N times (the process tier).

The GIL caps what :class:`~repro.megis.service.AnalysisService` can get
out of threads wherever the pipeline runs Python bytecode: the
``python``-backend reference throughout, a Step 3 whose mapper k-mer
does not fit one key word (:mod:`repro.sequences.keys`), and
on the columnar path the glue between the NumPy kernels (Steps 1-3 are
column kernels there, which release the GIL).  What a fork buys over a
thread on that columnar path was measured for ISSUE 22, which is why
this tier is kept: the ledger's ``map_short`` inputs (12 samples,
mapping Step 3, ``numpy`` backend) through ``AnalysisService(session,
workers=2)``, 12 rounds x 12 samples a run, 16 pairs of runs in
alternating order on a 2-vCPU shared VM — ``processes:2`` 65.1 against
``threads:2`` 55.0 samples/s on seed 29 and 74.2 against 57.7 on seed
11 (medians; 16 of 16 pairs each; threads' inter-quartile range 7.2 and
5.1), one service worker on the serial session 56.4 / 53.7.  2 vCPUs;
behaviour on >= 4 CPUs is unmeasured.
:class:`ProcessAnalysisRunner` forks the session N
times *after* the index file is mapped and the session warmed, so every
worker is that session, sharing the parent's engine state copy-on-write
(:meth:`~ProcessAnalysisRunner.probe_workers` is the witness: each child
reports where its database key column and KSS taxID column live, and an
inherited buffer keeps the parent's address where a copy would not), and
does the session's own job: the child runs :func:`_worker_main` over the
inherited session — on the serial path, since the loop first unhooks the
runner there — so a process-backed result is the serial session's,
``PhaseTimings`` counters included.

There is no task queue and no thread in here.  Whoever calls
:meth:`~ProcessAnalysisRunner.analyze_batch` — a service worker thread,
or the caller's own — checks a worker handle out of the idle queue,
drives the child over its pipe, and checks the handle back in; callers
beyond N wait for a handle.  Parallelism is across batches, one caller
thread per busy worker.

Crash semantics live in that one call: a worker that dies mid-batch
(seen on its process sentinel) is reaped and respawned — a fresh fork of
the *current* parent — and the batch retried once; a second death
surfaces as :class:`WorkerCrashed`, which
:class:`~repro.megis.service.AnalysisService` turns into a structured
per-request error without dropping queued samples.  Either way the
handle goes back with a live child behind it.
"""

from __future__ import annotations

import multiprocessing
import os
import queue
import threading
from multiprocessing.connection import Connection, wait
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.sequences.reads import Read

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.megis.session import AnalysisSession, MegisResult

#: The worker message asking for the COW witness instead of an analysis.
_PROBE = "probe"


class WorkerCrashed(RuntimeError):
    """Structured failure: a forked worker died while running a batch.

    Raised by :meth:`ProcessAnalysisRunner.analyze_batch` after the batch
    has already been retried once on a freshly respawned worker.  Carries
    the attempt count and the last observed exit code so serving layers
    can emit it as a structured error object without losing queued work.
    """

    def __init__(
        self, label: str, attempts: int, exitcode: Optional[int] = None
    ) -> None:
        detail = f" (worker exit code {exitcode})" if exitcode is not None else ""
        super().__init__(
            f"process-pool worker died running {label}; "
            f"gave up after {attempts} attempt(s){detail}"
        )
        self.label = label
        self.attempts = attempts
        self.exitcode = exitcode


def _worker_main(conn: Connection, session: "AnalysisSession") -> None:
    """Forked worker loop: answer ``(samples, with_abundance)`` with the
    session's ``analyze_batch`` and ``"probe"`` with the COW witness,
    until the parent sends ``None`` or closes the pipe.

    Exits via ``os._exit`` so the forked copy never runs the parent's
    atexit hooks or flushes its inherited stdio buffers.
    """
    # Child-side repair.  A respawn fork can happen while serving threads
    # hold the session lock in the parent, so the child gets a fresh one;
    # unhooking the runner puts ``analyze_batch`` on the serial path.
    session._lock = threading.RLock()
    session._process_workers = None
    session._runner = None
    try:
        while True:
            try:
                message = conn.recv()
            except EOFError:
                break
            if message is None:
                break
            reply: Tuple[bool, Any]
            try:
                if message == _PROBE:
                    # Read *inside* the worker: a column the child copied
                    # would sit at another address than the parent's.
                    database = session.database
                    signatures = session.kss.store().signatures
                    reply = (True, {
                        "pid": os.getpid(),
                        "column_address": database.column().ctypes.data,
                        "signatures_address": signatures.ctypes.data,
                        "signatures_mapped": isinstance(signatures, np.memmap),
                        "row_materializations": database.row_materializations,
                    })
                else:
                    reply = (True, session.analyze_batch(*message))
            except BaseException as exc:  # noqa: BLE001 - relayed to the caller
                reply = (False, exc)
            try:
                conn.send(reply)
            except Exception as exc:  # unpicklable result/exception
                conn.send((False, RuntimeError(
                    f"worker payload did not survive the pipe: {exc!r}"
                )))
    finally:
        try:
            conn.close()
        finally:
            os._exit(0)


class _Worker:
    """Parent-side handle on one forked child: a slot that outlives the
    processes behind it (:meth:`respawn`)."""

    def __init__(self, index: int, session: "AnalysisSession") -> None:
        self._index = index
        self._session = session
        #: Children of this slot that died and were replaced; written
        #: only by whoever has the handle checked out.
        self.respawns = 0
        self.fork()

    def fork(self) -> None:
        """Fork a child of the *current* parent — whatever it has
        materialized by now is inherited copy-on-write, nothing pickled."""
        ctx = multiprocessing.get_context("fork")
        self.conn, child_conn = ctx.Pipe(duplex=True)
        self.process = ctx.Process(
            target=_worker_main,
            args=(child_conn, self._session),
            name=f"megis-procworker-{self._index}",
            daemon=True,
        )
        self.process.start()
        child_conn.close()

    def exchange(self, message: Any) -> Optional[Tuple[bool, Any]]:
        """Send one message and wait for its ``(ok, payload)`` reply.

        ``None`` means the child died.  Death is detected via the process
        sentinel, not pipe EOF — sibling workers forked later inherit
        this pipe's fds, so EOF alone would never arrive.
        """
        try:
            self.conn.send(message)
        except OSError:
            return None
        except Exception as exc:  # unpicklable samples: nothing was sent
            return (False, exc)
        if self.conn in wait([self.conn, self.process.sentinel]):
            try:
                reply: Tuple[bool, Any] = self.conn.recv()
                return reply
            except (EOFError, OSError):
                pass
        return None

    def reap(self) -> Optional[int]:
        """Collect a dead (or told-to-stop) child; returns its exit code."""
        self.conn.close()
        self.process.join(timeout=5)
        if self.process.is_alive():  # pragma: no cover - defensive
            self.process.kill()
            self.process.join(timeout=5)
        return self.process.exitcode

    def respawn(self) -> Optional[int]:
        """Replace a dead child; returns the dead one's exit code."""
        exitcode = self.reap()
        self.respawns += 1
        self.fork()
        return exitcode

    def retire(self) -> None:
        """Graceful shutdown of an idle child."""
        try:
            self.conn.send(None)
        except OSError:
            pass
        self.reap()


class ProcessAnalysisRunner:
    """Drive one session's analyses through N forked copies of it.

    Built by :meth:`AnalysisSession.warm` when the session's executor
    spec is ``processes``/``processes:N``; the constructor is the fork
    point — everything warmed before it (columns, KSS blocks, memmap
    sections, shard handles) is inherited copy-on-write by the workers,
    forked synchronously on the caller's thread before any serving
    thread can race the fork; nothing is pickled.
    """

    def __init__(self, session: "AnalysisSession", workers: int) -> None:
        if "fork" not in multiprocessing.get_all_start_methods():
            raise RuntimeError(
                "process-backed analysis needs the fork start method "
                "(POSIX); it is unavailable on this platform"
            )
        self._closed = False
        #: Serializes :meth:`probe_workers` and :meth:`close`: each collects
        #: every handle, and two holding half each would wait forever.
        self._lock = threading.Lock()
        self._workers = [
            _Worker(index, session) for index in range(workers)  # <- the fork
        ]
        #: Checked-in handles; ``None`` (put by :meth:`close`, passed on
        #: by each caller it wakes) means the runner is closed.
        self._idle: "queue.SimpleQueue[Optional[_Worker]]" = queue.SimpleQueue()
        for worker in self._workers:
            self._idle.put(worker)

    @property
    def respawns(self) -> int:
        """Workers respawned after a death (never decremented)."""
        return sum(worker.respawns for worker in self._workers)

    def analyze_batch(
        self, samples: Sequence[Sequence[Read]], with_abundance: bool = True
    ) -> List["MegisResult"]:
        """One batch on one worker, driven by the calling thread;
        thread-safe — concurrent callers' batches run on different
        workers, callers beyond N wait for a handle."""
        worker = self._checkout()
        try:
            results: List["MegisResult"] = self._drive(
                worker, (samples, with_abundance), "analyze_batch"
            )
            return results
        finally:
            self._idle.put(worker)

    def probe_workers(self) -> List[Dict[str, int]]:
        """Each worker's in-process view of the shared engine columns."""
        held: List[_Worker] = []
        with self._lock:
            try:
                for _ in self._workers:
                    held.append(self._checkout())
                return [self._drive(worker, _PROBE, "probe") for worker in held]
            finally:
                for worker in held:
                    self._idle.put(worker)

    def close(self) -> None:
        """Wait for the batches in flight, reap every child, and release
        callers still waiting for a worker with a ``RuntimeError``."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            for _ in self._workers:
                self._idle.get()
            self._idle.put(None)
        for worker in self._workers:
            worker.retire()

    def _checkout(self) -> _Worker:
        worker = self._idle.get()
        if worker is None or self._closed:
            # Hand it on: to close(), which is collecting the handles, or
            # to the next waiter it has to wake.
            self._idle.put(worker)
            raise RuntimeError("the process-backed runner is closed")
        return worker

    def _drive(self, worker: _Worker, message: Any, label: str) -> Any:
        """One message on one checked-out worker: a dead child is reaped
        and respawned, a death mid-message retried once."""
        if not worker.process.is_alive():
            # Died while idle (external SIGKILL, OOM): nothing was in
            # flight, so there is nothing to retry.
            worker.respawn()
        exitcode = None
        for _ in range(2):
            reply = worker.exchange(message)
            if reply is not None:
                ok, payload = reply
                if ok:
                    return payload
                raise payload
            exitcode = worker.respawn()
        raise WorkerCrashed(label, attempts=2, exitcode=exitcode)


__all__ = ["ProcessAnalysisRunner", "WorkerCrashed"]
