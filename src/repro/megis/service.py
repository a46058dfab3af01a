"""Streaming-first concurrent serving: one resident session, many clients.

The paper's deployment keeps the databases SSD-resident and serves a
*stream* of metagenomic samples (§4.7).  :class:`AnalysisService` is the
daemon-shaped API over one read-only
:class:`~repro.megis.session.AnalysisSession`, designed around
*incremental emission* — it can sit under an infinite input stream without
ever buffering the world:

- :meth:`submit` enqueues one sample and returns a
  ``concurrent.futures.Future`` resolving to its
  :class:`~repro.megis.session.MegisResult`.  Admission is *bounded*:
  with ``max_queue`` set, a full queue makes ``submit`` block
  (backpressure) or — with ``block=False`` / an expired ``timeout`` —
  reject with a structured :class:`AdmissionFull` error, so queue memory
  stays at the configured bound no matter how fast clients push;
- :meth:`submit_batch` enqueues several samples at once;
- :meth:`results` iterates *completed* requests the
  moment they finish (tagged by request id, optionally in strict
  submission order), ending once the service is closed to submissions and
  everything accepted has been emitted;
- :meth:`drain` blocks until everything submitted so far has completed;
- the service is a context manager — leaving the ``with`` block drains
  and stops the workers.

``workers`` threads share the session (its engines and Step-3 caches are
lock-protected; :meth:`~repro.megis.session.AnalysisSession.warm` runs at
construction so the threads only ever read shared structures).  Each
worker *coalesces* up to ``max_batch`` queued samples into one
:meth:`~repro.megis.session.AnalysisSession.analyze_batch` call — the
§4.7 multi-sample mode, which streams each database interval once for the
whole batch.  ``batch_window_ms`` makes that coalescing an explicit knob
instead of an accident of drain timing: an idle worker holds admission of
a forming batch for up to the window (measured from the head request's
enqueue) so trickling arrivals amortize one database stream, trading tail
latency for throughput — the §4.7 batching trade the window tests of
``tests/test_service.py`` pin.  Per-request ``deadline_ms`` bounds queue
wait: a sample still queued past its deadline fails with
:class:`DeadlineExceeded` instead of occupying a batch slot.

Results are bit-identical to serial ``session.analyze`` calls no matter
how submissions interleave, because batching itself is result-preserving
(the equivalence tests pin it).  Every completed request carries
:class:`RequestMetrics` (queue wait, batch width, service and end-to-end
wall time) and :class:`ServiceStats` aggregates them.

``repro serve`` (:mod:`repro.cli`) exposes this as a JSONL stdin/stdout
protocol that emits each result as it completes.
"""

from __future__ import annotations

import math
import time
import threading
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Deque, Dict, Iterator, List, Optional, Sequence

from repro.megis.session import AnalysisSession, MegisResult
from repro.sequences.reads import Read


def check_ms(name: str, value: Optional[float]) -> None:
    """Refuse a negative or non-finite millisecond knob named ``name``;
    ``None`` (the knob is off) passes."""
    if value is not None and not (math.isfinite(value) and value >= 0):
        raise ValueError(f"{name} must be a finite number >= 0, got {value!r}")


class AdmissionFull(RuntimeError):
    """Structured rejection: the bounded admission queue is full.

    Raised by :meth:`AnalysisService.submit` when ``block=False`` (or a
    blocking wait times out) and the queue already holds ``max_queue``
    samples.  Carries the observed depth so callers can shed load or
    retry with backoff.
    """

    def __init__(self, queued: int, max_queue: int):
        super().__init__(
            f"admission queue full ({queued}/{max_queue} samples queued)"
        )
        self.queued = queued
        self.max_queue = max_queue


class ServiceClosed(RuntimeError):
    """Submission refused because the service is closed (or draining).

    A subclass of the historical bare ``RuntimeError`` so existing
    ``except RuntimeError`` callers keep working; the gateway catches it
    specifically to answer late submissions with a structured
    ``draining`` error frame instead of tearing down the connection.
    """

    def __init__(self) -> None:
        super().__init__("AnalysisService is closed")


class DeadlineExceeded(RuntimeError):
    """A sample spent longer queued than its per-request deadline."""

    def __init__(self, tag: object, waited_ms: float, deadline_ms: float):
        super().__init__(
            f"request {tag!r} queued {waited_ms:.1f} ms, "
            f"deadline was {deadline_ms:.1f} ms"
        )
        self.tag = tag
        self.waited_ms = waited_ms
        self.deadline_ms = deadline_ms


@dataclass
class RequestMetrics:
    """Per-request serving measurements (filled in as the request ends).

    ``queue_wait_ms`` is enqueue → worker claim, ``service_ms`` the wall
    time of the batch execution the request rode in (zero for cancelled /
    expired requests), ``latency_ms`` the end-to-end enqueue → completion
    wall, and ``batch_size`` the §4.7 batch width it shared (zero when it
    never dispatched).
    """

    queue_wait_ms: float = 0.0
    service_ms: float = 0.0
    latency_ms: float = 0.0
    batch_size: int = 0


@dataclass
class CompletedRequest:
    """One emitted entry of the completion stream.

    ``future`` is already resolved: ``future.result()`` returns the
    :class:`~repro.megis.session.MegisResult`, raises the per-sample
    failure (:class:`DeadlineExceeded` included), or raises
    ``CancelledError`` for a client-cancelled sample.
    """

    tag: object
    future: "Future[MegisResult]"
    metrics: RequestMetrics


@dataclass
class ServiceStats:
    """Serving counters (updated under the queue lock).

    ``samples_submitted`` counts *accepted* samples only; rejected
    submissions (:class:`AdmissionFull`) count in ``samples_rejected``
    and expired deadlines in ``samples_expired``, so
    ``submitted == completed + cancelled + expired`` once drained.
    """

    samples_submitted: int = 0
    samples_completed: int = 0
    samples_cancelled: int = 0
    samples_rejected: int = 0
    samples_expired: int = 0
    batches_dispatched: int = 0
    widest_batch: int = 0
    #: High-water mark of the admission queue (samples queued, not yet
    #: claimed by a worker) — bounded by ``max_queue`` when set.
    peak_queued: int = 0
    #: Aggregated queue-wait wall time over every claimed sample.
    queue_wait_total_ms: float = 0.0
    queue_wait_max_ms: float = 0.0

    @property
    def mean_queue_wait_ms(self) -> float:
        claimed = self.samples_completed + self.samples_expired
        return self.queue_wait_total_ms / claimed if claimed else 0.0

    @property
    def mean_batch(self) -> float:
        if not self.batches_dispatched:
            return 0.0
        return self.samples_completed / self.batches_dispatched


@dataclass
class _Request:
    """Internal queue entry: one accepted sample and its bookkeeping."""

    seq: int
    tag: object
    reads: Sequence[Read]
    future: "Future[MegisResult]"
    enqueued_at: float
    deadline_ms: Optional[float] = None
    claimed_at: Optional[float] = None

    def queue_wait_ms(self, now: float) -> float:
        return (now - self.enqueued_at) * 1e3

    def expired(self, now: float) -> bool:
        return (
            self.deadline_ms is not None
            and self.queue_wait_ms(now) > self.deadline_ms
        )


class AnalysisService:
    """Futures-based concurrent serving over one shared session.

    ``workers`` sets both the thread count and (by default) ``max_batch``,
    the widest §4.7 batch one worker may coalesce from the queue.  With
    ``workers=1`` / ``max_batch=1`` the service degenerates to strictly
    serial, in-order analysis — the reference behaviour the determinism
    suite compares against.  ``max_queue`` bounds the admission queue
    (``None`` = unbounded, the historical behaviour) and
    ``batch_window_ms`` holds a forming batch for up to that long after
    its head request arrived, letting trickling arrivals coalesce.
    """

    def __init__(
        self,
        session: AnalysisSession,
        workers: int = 1,
        max_batch: Optional[int] = None,
        with_abundance: bool = True,
        *,
        max_queue: Optional[int] = None,
        batch_window_ms: float = 0.0,
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if max_batch is not None and max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_queue is not None and max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        check_ms("batch_window_ms", batch_window_ms)
        self.session = session
        self.workers = workers
        self.max_batch = max_batch if max_batch is not None else workers
        self.max_queue = max_queue
        self.batch_window_ms = float(batch_window_ms)
        self.with_abundance = with_abundance
        self.stats = ServiceStats()
        session.warm()
        self._queue: Deque[_Request] = deque()
        self._state = threading.Condition()
        self._open = True
        self._inflight = 0
        self._seq = 0
        #: Completion stream: finished requests keyed by admission seq,
        #: plus the completion-order ledger.  ``results`` pops from these;
        #: ``_unemitted`` counts accepted-but-not-yet-emitted requests so
        #: the stream knows when it has ended.
        self._done: Dict[int, CompletedRequest] = {}
        self._done_order: Deque[int] = deque()
        self._emit_cursor = 0
        self._unemitted = 0
        self._threads = [
            threading.Thread(
                target=self._worker, name=f"megis-serve-{i}", daemon=True
            )
            for i in range(workers)
        ]
        for thread in self._threads:
            thread.start()

    # -- client API -----------------------------------------------------------

    def submit(
        self,
        reads: Sequence[Read],
        *,
        tag: object = None,
        deadline_ms: Optional[float] = None,
        block: bool = True,
        timeout: Optional[float] = None,
    ) -> "Future[MegisResult]":
        """Enqueue one sample; the future resolves to its MegisResult.

        ``tag`` labels the request in the completion stream (defaults to
        its admission sequence number).  ``deadline_ms`` bounds queue
        wait (finite and >= 0; anything else is a ``ValueError``).  With a
        bounded queue, ``block=True`` waits for space (``timeout`` seconds
        at most) and ``block=False`` raises
        :class:`AdmissionFull` immediately when full.
        """
        [future] = self.submit_batch(
            [reads], tag=tag, deadline_ms=deadline_ms, block=block,
            timeout=timeout,
        )
        return future

    def submit_batch(
        self,
        samples: Sequence[Sequence[Read]],
        *,
        tag: object = None,
        deadline_ms: Optional[float] = None,
        block: bool = True,
        timeout: Optional[float] = None,
    ) -> List["Future[MegisResult]"]:
        """Enqueue several samples at once (one future each, input order).

        The keywords are :meth:`submit`'s and apply to every sample.
        Enqueuing together maximizes the §4.7 coalescing opportunity: the
        lock is held across the run, so an idle worker picks it up whole
        as one batched Step 2.  With a bounded queue each sample is still
        admitted individually (waiting for space releases the lock), so a
        long run cannot overrun the bound.
        """
        check_ms("deadline_ms", deadline_ms)
        futures: List["Future[MegisResult]"] = []
        with self._state:
            for reads in samples:
                self._admit(block, timeout)
                future: "Future[MegisResult]" = Future()
                self._enqueue(reads, future, tag, deadline_ms)
                futures.append(future)
                # notify_all: workers, results() consumers, and blocked
                # submitters all share this condition.
                self._state.notify_all()
        return futures

    def results(self, strict_order: bool = False) -> Iterator[CompletedRequest]:
        """Iterate completed requests the moment they finish.

        Yields each accepted request exactly once as a
        :class:`CompletedRequest` — in completion order by default, or in
        admission order with ``strict_order=True`` (a finished request is
        then held back until everything admitted before it has finished).
        The iterator ends once the service has been closed to submissions
        (:meth:`close_submissions` / :meth:`close`) and every accepted
        request has been yielded; while the service is open it blocks
        waiting for the next completion.  One consumer at a time: each
        emitted entry is handed to exactly one iterator.
        """
        while True:
            with self._state:
                self._state.wait_for(
                    lambda: self._emittable(strict_order) is not None
                    or (not self._open and self._unemitted == 0)
                )
                seq = self._emittable(strict_order)
                if seq is None:
                    return
                self._done_order.remove(seq)
                entry = self._done.pop(seq)
                self._emit_cursor = max(self._emit_cursor, seq + 1)
                self._unemitted -= 1
                self._state.notify_all()
            yield entry

    def drain(self) -> None:
        """Block until every sample submitted so far has completed."""
        with self._state:
            self._state.wait_for(lambda: self._inflight == 0)

    def close_submissions(self) -> None:
        """Stop accepting work; queued samples still run to completion.

        Workers drain the queue and exit; a :meth:`results` iterator ends
        once everything accepted has been emitted.  Blocked submitters
        are woken and raise :class:`ServiceClosed`.
        """
        with self._state:
            self._open = False
            self._state.notify_all()

    def close(self, wait: bool = True) -> None:
        """Stop accepting work; workers exit once the queue is empty."""
        self.close_submissions()
        if wait:
            for thread in self._threads:
                thread.join()

    def __enter__(self) -> "AnalysisService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(wait=True)

    # -- admission ------------------------------------------------------------

    def _admit(self, block: bool, timeout: Optional[float]) -> None:
        """Wait for (or demand) queue space; caller holds the lock."""
        if not self._open:
            raise ServiceClosed()
        if self.max_queue is None:
            return
        if not block:
            if len(self._queue) >= self.max_queue:
                self.stats.samples_rejected += 1
                raise AdmissionFull(len(self._queue), self.max_queue)
            return
        admitted = self._state.wait_for(
            lambda: len(self._queue) < self.max_queue or not self._open,
            timeout=timeout,
        )
        if not self._open:
            raise ServiceClosed()
        if not admitted:
            self.stats.samples_rejected += 1
            raise AdmissionFull(len(self._queue), self.max_queue)

    def _enqueue(
        self,
        reads: Sequence[Read],
        future: "Future[MegisResult]",
        tag: object,
        deadline_ms: Optional[float],
    ) -> None:
        """Append one accepted request; caller holds the lock."""
        request = _Request(
            seq=self._seq,
            tag=tag if tag is not None else self._seq,
            reads=reads,
            future=future,
            enqueued_at=time.perf_counter(),
            deadline_ms=deadline_ms,
        )
        self._seq += 1
        self._queue.append(request)
        self._inflight += 1
        self._unemitted += 1
        self.stats.samples_submitted += 1
        self.stats.peak_queued = max(self.stats.peak_queued, len(self._queue))

    # -- completion stream ----------------------------------------------------

    def _emittable(self, strict_order: bool) -> Optional[int]:
        """The next seq :meth:`results` may yield, or None; lock held."""
        if not self._done_order:
            return None
        if not strict_order:
            return self._done_order[0]
        return self._emit_cursor if self._emit_cursor in self._done else None

    def _record_done(self, request: _Request, metrics: RequestMetrics) -> None:
        """File one finished request on the completion stream; lock held."""
        self._done[request.seq] = CompletedRequest(
            tag=request.tag, future=request.future, metrics=metrics
        )
        self._done_order.append(request.seq)

    # -- worker loop ----------------------------------------------------------

    def _worker(self) -> None:
        while True:
            with self._state:
                self._state.wait_for(lambda: self._queue or not self._open)
                if not self._queue:
                    return  # closed and drained
                self._await_batch_window()
                if not self._queue:
                    continue  # another worker claimed the forming batch
                width = min(self.max_batch, len(self._queue))
                popped = [self._queue.popleft() for _ in range(width)]
                # Wake blocked submitters: queue space just freed up.
                self._state.notify_all()
            self._dispatch(popped)

    def _await_batch_window(self) -> None:
        """Hold a forming batch for up to ``batch_window_ms``; lock held.

        The window is measured from the *head* request's enqueue — an
        admission delay, not a fixed sleep — and collapses as soon as the
        batch is full or the service is closing (drain fast).
        """
        if self.batch_window_ms <= 0:
            return
        while (
            self._open
            and self._queue
            and len(self._queue) < self.max_batch
        ):
            remaining_s = (
                self._queue[0].enqueued_at + self.batch_window_ms / 1e3
                - time.perf_counter()
            )
            if remaining_s <= 0:
                return
            self._state.wait(remaining_s)

    def _dispatch(self, popped: List[_Request]) -> None:
        """Claim each popped request and run the survivors as one batch.

        Claiming (RUNNING blocks late cancellation) drops requests a
        client already cancelled while queued and fails requests whose
        deadline passed — neither may poison batch-mates' results nor
        leave ``drain()`` waiting forever.
        """
        now = time.perf_counter()
        batch: List[_Request] = []
        cancelled: List[_Request] = []
        expired: List[_Request] = []
        for request in popped:
            request.claimed_at = now
            if not request.future.set_running_or_notify_cancel():
                cancelled.append(request)
            elif request.expired(now):
                request.future.set_exception(DeadlineExceeded(
                    request.tag, request.queue_wait_ms(now),
                    request.deadline_ms,
                ))
                expired.append(request)
            else:
                batch.append(request)
        with self._state:
            if batch:
                self.stats.batches_dispatched += 1
                self.stats.widest_batch = max(
                    self.stats.widest_batch, len(batch)
                )
            for request in cancelled:
                self.stats.samples_cancelled += 1
                self._record_done(request, RequestMetrics(
                    queue_wait_ms=request.queue_wait_ms(now),
                    latency_ms=request.queue_wait_ms(now),
                ))
            for request in expired:
                self.stats.samples_expired += 1
                wait_ms = request.queue_wait_ms(now)
                self.stats.queue_wait_total_ms += wait_ms
                self.stats.queue_wait_max_ms = max(
                    self.stats.queue_wait_max_ms, wait_ms
                )
                self._record_done(request, RequestMetrics(
                    queue_wait_ms=wait_ms, latency_ms=wait_ms,
                ))
            if cancelled or expired:
                self._inflight -= len(cancelled) + len(expired)
                self._state.notify_all()
        if batch:
            self._run_batch(batch)

    def _run_batch(self, batch: List[_Request]) -> None:
        samples = [request.reads for request in batch]
        started = time.perf_counter()
        try:
            results = self.session.analyze_batch(samples, self.with_abundance)
            for request, result in zip(batch, results):
                request.future.set_result(result)
        except BaseException as exc:
            # A failing sample fails its whole batch: each future carries
            # the exception (a lost future would deadlock drain()); queued
            # requests outside the batch are untouched.
            for request in batch:
                if not request.future.done():
                    request.future.set_exception(exc)
        finally:
            finished = time.perf_counter()
            service_ms = (finished - started) * 1e3
            with self._state:
                self._inflight -= len(batch)
                self.stats.samples_completed += len(batch)
                for request in batch:
                    wait_ms = request.queue_wait_ms(request.claimed_at)
                    self.stats.queue_wait_total_ms += wait_ms
                    self.stats.queue_wait_max_ms = max(
                        self.stats.queue_wait_max_ms, wait_ms
                    )
                    self._record_done(request, RequestMetrics(
                        queue_wait_ms=wait_ms,
                        service_ms=service_ms,
                        latency_ms=(finished - request.enqueued_at) * 1e3,
                        batch_size=len(batch),
                    ))
                self._state.notify_all()


__all__ = [
    "AdmissionFull",
    "AnalysisService",
    "CompletedRequest",
    "DeadlineExceeded",
    "RequestMetrics",
    "ServiceClosed",
    "ServiceStats",
    "check_ms",
]
