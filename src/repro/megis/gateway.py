"""Asyncio gateway in front of a shared :class:`AnalysisService`.

The one serving front end: every request — from a TCP client of
``repro gateway`` / ``repro cluster``, or from the stdin/stdout pair
``repro serve`` hands to :meth:`AnalysisGateway.handle_connection` —
crosses the same parse → admit → stream → drain path, speaking the
schema-1 JSONL wire format (:mod:`repro.megis.wire`) over one warmed
:class:`~repro.megis.session.AnalysisSession`:

- **Per-client rate limiting.** Each connection gets its own
  :class:`TokenBucket` (``rate_limit`` requests/s refill, ``rate_burst``
  capacity).  A request arriving with an empty bucket is answered with a
  structured ``rate_limited`` error frame carrying ``retry_after_ms`` —
  the connection stays up and later requests are served.
- **Bounded global admission.** The shared service's ``max_queue`` bound
  still applies; ``admission_timeout_ms`` decides how long a submission
  may wait for space.  :class:`~repro.megis.service.AdmissionFull` and
  :class:`~repro.megis.service.DeadlineExceeded` become per-request
  error frames, never dropped connections.
- **Per-client fairness.** Every connection owns a private outbox queue
  and writer coroutine; a client that stops reading stalls only its own
  ``writer.drain()``, and each client's submissions are sequential, so
  one flooding or slow client cannot starve the others' completion
  streams.  A client whose write side fails stops being read: its
  pipelined requests are not parsed or analysed for nobody.
- **Event-loop bridge.** The threaded service's completion stream is
  pumped from a dedicated thread into the loop via
  ``loop.call_soon_threadsafe``.  A request is submitted as its parsed
  sequences (a :class:`~repro.sequences.reads.BareReads`, no per-read
  object), on the loop thread when the submit cannot block; a gateway
  whose bounded queue may wait for space submits on a thread pool via
  ``run_in_executor`` instead, so backpressure never blocks the loop.
- **Graceful drain + resume.** :meth:`AnalysisGateway.drain` stops
  admitting, finishes every accepted request, emits a drain summary
  frame on each open connection, and leaves the session warm —
  :meth:`AnalysisGateway.start` afterwards resumes serving on the same
  warmed columns (a fresh :class:`AnalysisService` is built per
  serving period).
"""

from __future__ import annotations

import asyncio
import functools
import math
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.megis import wire
from repro.megis.service import (
    AdmissionFull,
    AnalysisService,
    ServiceClosed,
    check_ms,
)
from repro.megis.session import AnalysisSession
from repro.sequences.reads import BareReads

#: Default ``batch_window_ms``.  Each client's request reaches the service
#: through the loop, so requests two clients send at once are queued a
#: fraction of a millisecond apart; without a window the worker woken by
#: the first runs it alone or with its peer as thread scheduling falls.
#: Only a gateway whose ``max_batch`` exceeds 1 ever waits.
DEFAULT_BATCH_WINDOW_MS = 1.0


class TokenBucket:
    """Classic token bucket: ``rate`` tokens/s refill, ``burst`` capacity.

    Starts full so a client may burst up to ``burst`` requests
    immediately; sustained throughput converges to ``rate``.  Monotonic
    clock, injectable for tests.
    """

    def __init__(self, rate: float, burst: float, clock=time.monotonic):
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        if burst < 1:
            raise ValueError(f"burst must be at least 1, got {burst}")
        self.rate = float(rate)
        self.burst = float(burst)
        self._clock = clock
        self._tokens = float(burst)
        self._refilled_at = clock()

    def _refill(self) -> None:
        now = self._clock()
        self._tokens = min(
            self.burst, self._tokens + (now - self._refilled_at) * self.rate
        )
        self._refilled_at = now

    def try_acquire(self) -> bool:
        """Consume one token if available; never blocks."""
        self._refill()
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return True
        return False

    def retry_after_ms(self) -> float:
        """Wall time until one full token will have refilled."""
        self._refill()
        return max(0.0, (1.0 - self._tokens) / self.rate * 1e3)


@dataclass
class ClientStats:
    """Per-connection counters, reported in the drain summary frame."""

    submitted: int = 0
    completed: int = 0
    failed: int = 0
    malformed: int = 0
    rate_limited: int = 0
    rejected: int = 0


@dataclass
class GatewayStats:
    """Lifetime counters across all connections and serving periods."""

    clients_connected: int = 0
    clients_rejected: int = 0
    requests_admitted: int = 0
    requests_completed: int = 0
    requests_failed: int = 0
    malformed: int = 0
    rate_limited: int = 0
    admission_rejected: int = 0
    #: Completions whose client had already disconnected.
    results_dropped: int = 0
    drains: int = 0


#: Outbox sentinel: flush everything queued before it, then end the writer.
_CLOSE = object()


class _Client:
    """One live connection: outbox, writer task, counters, rate bucket."""

    def __init__(self, cid: int, writer: asyncio.StreamWriter,
                 bucket: Optional[TokenBucket]):
        self.cid = cid
        self.writer = writer
        self.bucket = bucket
        self.outbox: "asyncio.Queue[object]" = asyncio.Queue()
        self.stats = ClientStats()
        self.seen_ids: set = set()
        self.connected = True
        self.writer_task: Optional[asyncio.Task] = None
        # Loop-thread state, like the counters: requests begin in the
        # reader and end in the pump callback or the reader's rejection.
        self._inflight = 0
        self._eof = False
        self.drained = asyncio.Event()

    def begin_request(self) -> None:
        self._inflight += 1

    def end_request(self) -> bool:
        """Drop one in-flight request; True when EOF'd and now idle."""
        self._inflight -= 1
        return self._eof and self._inflight == 0

    def mark_eof(self) -> bool:
        """Client half-closed its send side; True when already idle."""
        self._eof = True
        return self._inflight == 0


class AnalysisGateway:
    """Multi-client front door over one warmed analysis session.

    The session must outlive the gateway; :meth:`open` warms it (a
    no-op after the first time) and builds a fresh
    :class:`AnalysisService` for this serving period, so
    ``start → drain → start`` resumes against the same warmed columns
    without re-reading the index.  :meth:`start` is :meth:`open` plus a
    TCP listener; either way each connection is one
    :meth:`handle_connection` call.
    """

    def __init__(
        self,
        session: AnalysisSession,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 1,
        max_batch: Optional[int] = None,
        with_abundance: bool = True,
        max_queue: Optional[int] = None,
        batch_window_ms: float = DEFAULT_BATCH_WINDOW_MS,
        deadline_ms: Optional[float] = None,
        rate_limit: Optional[float] = None,
        rate_burst: float = 8.0,
        max_clients: Optional[int] = None,
        admission_timeout_ms: Optional[float] = None,
        max_line_bytes: int = wire.MAX_LINE_BYTES,
        strict_order: bool = False,
    ):
        # Refused here, not per connection or at the first submit.
        for name, value in (("batch_window_ms", batch_window_ms),
                            ("deadline_ms", deadline_ms),
                            ("admission_timeout_ms", admission_timeout_ms)):
            check_ms(name, value)
        if rate_limit is not None and not (
            math.isfinite(rate_limit) and rate_limit > 0
        ):
            raise ValueError(
                f"rate_limit must be a finite number > 0, got {rate_limit!r}"
            )
        if not (math.isfinite(rate_burst) and rate_burst >= 1):
            raise ValueError(
                f"rate_burst must be a finite number >= 1, got {rate_burst!r}"
            )
        self.session = session
        self.host = host
        self.port = port
        self.workers = workers
        self.max_batch = max_batch
        self.with_abundance = with_abundance
        self.max_queue = max_queue
        self.batch_window_ms = batch_window_ms
        self.deadline_ms = deadline_ms
        self.rate_limit = rate_limit
        self.rate_burst = rate_burst
        self.max_clients = max_clients
        self.admission_timeout_ms = admission_timeout_ms
        self.max_line_bytes = max_line_bytes
        #: Emit completions in submission order, not completion order.
        self.strict_order = strict_order

        self.stats = GatewayStats()
        #: Stats of the service most recently drained (for CLI summaries).
        self.last_service_stats = None

        self._service: Optional[AnalysisService] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._submit_pool: Optional[ThreadPoolExecutor] = None
        self._pump_thread: Optional[threading.Thread] = None
        self._pump_done: Optional[asyncio.Event] = None
        self._clients: Dict[int, _Client] = {}
        self._reader_tasks: Dict[int, asyncio.Task] = {}
        self._next_cid = 0
        self._started = False
        self._draining = False

    @property
    def bound_address(self) -> Tuple[str, int]:
        """The (host, port) actually bound (port 0 picks a free one)."""
        if self._server is None:
            raise RuntimeError("gateway is not started")
        sock = self._server.sockets[0]
        addr = sock.getsockname()
        return addr[0], addr[1]

    # -- lifecycle -------------------------------------------------------------

    async def open(self) -> None:
        """Begin (or resume) a serving period without listening.

        Connections are then served by :meth:`handle_connection`, called
        by :meth:`start`'s listener or handed a stream pair directly.
        """
        if self._started:
            raise RuntimeError("gateway is already started")
        self._loop = asyncio.get_running_loop()
        await self._loop.run_in_executor(None, self.session.warm)
        self._service = AnalysisService(
            self.session,
            workers=self.workers,
            max_batch=self.max_batch,
            with_abundance=self.with_abundance,
            max_queue=self.max_queue,
            batch_window_ms=self.batch_window_ms,
        )
        self._submit_pool = ThreadPoolExecutor(
            max_workers=self.max_clients or 16,
            thread_name_prefix="gateway-submit",
        )
        self._pump_done = asyncio.Event()
        self._pump_thread = threading.Thread(
            target=self._pump, name="gateway-pump", daemon=True
        )
        self._pump_thread.start()
        self._draining = False
        self._started = True

    async def start(self) -> Tuple[str, int]:
        """:meth:`open`, then listen on TCP; returns the bound address."""
        await self.open()
        self._server = await asyncio.start_server(
            self.handle_connection, host=self.host, port=self.port
        )
        return self.bound_address

    def _pump(self) -> None:
        """Service completion stream -> loop thread, one callback each."""
        try:
            for completed in self._service.results(self.strict_order):
                self._loop.call_soon_threadsafe(self._route, completed)
        finally:
            self._loop.call_soon_threadsafe(self._pump_done.set)

    def _route(self, completed) -> None:
        """Deliver one completion to its client's outbox (loop thread)."""
        request_id, line_no, n_reads, cid = completed.tag
        try:
            result = completed.future.result()
        except Exception as exc:
            record = wire.error_record(request_id, str(exc), line_no)
            failed = True
        else:
            record = wire.result_record(
                request_id, n_reads, result, completed.metrics
            )
            failed = False
        client = self._clients.get(cid)
        if client is not None and client.connected:
            if failed:
                client.stats.failed += 1
                self.stats.requests_failed += 1
            else:
                client.stats.completed += 1
                self.stats.requests_completed += 1
            client.outbox.put_nowait(record)
        else:
            self.stats.results_dropped += 1
            if failed:
                self.stats.requests_failed += 1
            else:
                self.stats.requests_completed += 1
        if client is not None and client.end_request():
            client.drained.set()

    async def drain(self) -> None:
        """Stop admitting, finish every accepted request, close clients.

        Safe to call on a never-started or already-drained gateway (a
        no-op then).  After it returns the session is still warm and
        :meth:`start` resumes serving.
        """
        if not self._started or self._draining:
            return
        self._draining = True

        # No new connections.
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()

        # Stop the per-connection readers: no further submissions begin.
        for task in list(self._reader_tasks.values()):
            task.cancel()
        if self._reader_tasks:
            await asyncio.gather(
                *self._reader_tasks.values(), return_exceptions=True
            )
        self._reader_tasks.clear()

        # Every submission already handed to the pool settles (its done
        # callback counts it and queues any rejection frame before this
        # coroutine resumes), then the service stops admitting.
        pool = self._submit_pool
        await self._loop.run_in_executor(
            None, lambda: pool.shutdown(wait=True)
        )
        self._service.close_submissions()

        # The pump ends only after the completion stream is exhausted —
        # every accepted request has been routed to an outbox.
        await self._pump_done.wait()
        await self._loop.run_in_executor(None, self._service.close)
        # The pump already signalled _pump_done, but its thread may still
        # be between the signal and its last bytecode; reap it off-loop —
        # a bare .join() here is a blocking call on the event loop (RPR001).
        await self._loop.run_in_executor(None, self._pump_thread.join)

        # Per-connection drain summary, then flush and close.
        writer_tasks = []
        for client in self._clients.values():
            if client.connected:
                client.outbox.put_nowait(
                    wire.drain_record(client.cid, client.stats)
                )
                client.outbox.put_nowait(_CLOSE)
                if client.writer_task is not None:
                    writer_tasks.append(client.writer_task)
        if writer_tasks:
            await asyncio.gather(*writer_tasks, return_exceptions=True)
        # A snapshot: a connection finishing on its own meanwhile pops itself.
        for client in list(self._clients.values()):
            client.connected = False
            await self._close_transport(client.writer)
        self._clients.clear()

        self.last_service_stats = self._service.stats
        self._service = None
        self._submit_pool = None
        self._pump_thread = None
        self._server = None
        self._started = False
        self.stats.drains += 1

    async def __aenter__(self) -> "AnalysisGateway":
        await self.start()
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.drain()

    # -- per-connection handling -----------------------------------------------

    async def handle_connection(
        self, reader: wire.ByteSource, writer: asyncio.StreamWriter
    ) -> bool:
        """Serve one connection until its read side ends.

        ``reader`` needs ``read(n)`` and ``writer`` ``write`` / ``drain``
        / ``close`` / ``wait_closed`` — asyncio's stream pair, or any
        duck-typed equivalent.  Returns ``False`` when the peer stopped
        taking output (its reader was cancelled and undelivered results
        were dropped), ``True`` otherwise.
        """
        if self._draining or (
            self.max_clients is not None
            and len(self._clients) >= self.max_clients
        ):
            self.stats.clients_rejected += 1
            reason = (
                "gateway is draining"
                if self._draining
                else f"too many clients (max {self.max_clients})"
            )
            try:
                writer.write(wire.encode(wire.error_record(None, reason, None)))
                await writer.drain()
            except (ConnectionError, OSError):
                pass
            await self._close_transport(writer)
            return True

        cid = self._next_cid
        self._next_cid += 1
        bucket = (
            TokenBucket(self.rate_limit, self.rate_burst)
            if self.rate_limit is not None
            else None
        )
        client = _Client(cid, writer, bucket)
        self._clients[cid] = client
        self.stats.clients_connected += 1
        client.writer_task = asyncio.ensure_future(self._write_outbox(client))
        task = asyncio.ensure_future(self._read_requests(client, reader))
        self._reader_tasks[cid] = task
        try:
            await asyncio.shield(task)
        except asyncio.CancelledError:
            if client.connected:
                # Drain cancelled the reader; it leaves the connection to
                # drain() (summary frame + close). Nothing more to do here.
                return True
            # The client's own writer failed and stopped its reader.
        finally:
            self._reader_tasks.pop(cid, None)
        return await self._finish_client(client)

    async def _write_outbox(self, client: _Client) -> bool:
        """The client's private writer: a slow reader stalls only itself.

        ``False`` when a write failed: nobody is reading, so the client's
        reader is cancelled rather than left parsing and submitting its
        pipelined requests (in-flight ones finish and are dropped).
        """
        while True:
            record = await client.outbox.get()
            if record is _CLOSE:
                return True
            try:
                client.writer.write(wire.encode(record))
                await client.writer.drain()
            except (ConnectionError, OSError):
                client.connected = False
                reader_task = self._reader_tasks.get(client.cid)
                if reader_task is not None:
                    reader_task.cancel()
                return False

    async def _read_requests(
        self, client: _Client, reader: wire.ByteSource
    ) -> None:
        """Parse and submit this client's requests, one at a time."""
        frames = wire.FrameReader(reader, self.max_line_bytes)
        while True:
            try:
                frame = await frames.next_frame()
            except (ConnectionError, OSError):
                client.connected = False
                return
            if frame is None:
                return
            line_no, line = frame
            if isinstance(line, bytes):
                request_id, reads, error = wire.parse_request_line(
                    line, line_no, seen_ids=client.seen_ids,
                    max_bytes=self.max_line_bytes,
                )
            else:
                request_id, reads, error = None, None, line
            if error is not None:
                client.stats.malformed += 1
                self.stats.malformed += 1
                client.outbox.put_nowait(
                    wire.error_record(request_id, error, line_no)
                )
                continue
            if client.bucket is not None and not client.bucket.try_acquire():
                client.stats.rate_limited += 1
                self.stats.rate_limited += 1
                client.outbox.put_nowait(wire.error_record(
                    request_id,
                    "rate_limited: retry_after_ms="
                    f"{client.bucket.retry_after_ms():.0f}",
                    line_no,
                ))
                continue
            # Submitted here, so the loop (and other clients) keep moving;
            # a request that may wait for queue space is awaited on the
            # submit pool so this client's requests stay sequential.
            client.begin_request()
            sample = BareReads(reads)
            tag = (request_id, line_no, len(reads), client.cid)
            if self._admission_waits:
                await self._submit_waiting(client, request_id, line_no,
                                           sample, tag)
                continue
            self._settle(client, request_id, line_no,
                         self._submit(sample, tag))
            # A pipelined burst arrives without suspending the reader:
            # yield, so other clients' requests queue between this one's,
            # not behind all of them.
            await asyncio.sleep(0)

    @property
    def _admission_waits(self) -> bool:
        """Whether a submit may block: a bounded queue whose
        ``admission_timeout_ms`` is unset or above 0.  Any other submit
        returns at once and runs on the loop thread."""
        timeout_ms = self.admission_timeout_ms
        return self.max_queue is not None and (
            timeout_ms is None or timeout_ms > 0
        )

    async def _submit_waiting(self, client: _Client, request_id,
                              line_no: int, sample: BareReads,
                              tag: tuple) -> None:
        """Wait for queue space on a submit-pool thread.

        A request read in the instant drain shuts the submit pool down
        races the shutdown: dispatching onto the dead pool raises
        RuntimeError — answered with the same structured draining frame a
        service-side rejection gets, never a bare reset.
        """
        try:
            submission = self._loop.run_in_executor(
                self._submit_pool, self._submit, sample, tag
            )
        except RuntimeError:
            self._settle(client, request_id, line_no, "gateway is draining")
            return
        # Settled by callback, not after the await: drain cancels this
        # reader, and a submission already on a pool thread still lands
        # in the service and must be counted.
        submission.add_done_callback(functools.partial(
            self._settle_submission, client, request_id, line_no
        ))
        await asyncio.shield(submission)

    def _submit(self, sample: BareReads, tag: tuple) -> Optional[str]:
        """Hand one request to the service; touches no counter (a waiting
        submit runs on a pool thread).  Returns ``None`` when the service
        accepted it, else the rejection message."""
        timeout_ms = self.admission_timeout_ms
        try:
            self._service.submit(
                sample,
                tag=tag,
                deadline_ms=self.deadline_ms,
                block=self._admission_waits,
                timeout=timeout_ms / 1e3 if timeout_ms else None,
            )
        except AdmissionFull as exc:
            return f"admission_full: {exc}"
        except ServiceClosed:
            return "gateway is draining"
        except Exception as exc:
            return f"submit failed: {exc}"
        return None

    def _settle_submission(self, client: _Client, request_id, line_no: int,
                           submission: "asyncio.Future[Optional[str]]") -> None:
        self._settle(client, request_id, line_no, submission.result())

    def _settle(self, client: _Client, request_id, line_no: int,
                rejection: Optional[str]) -> None:
        """All accounting for one submission's outcome (loop thread)."""
        if rejection is None:
            client.stats.submitted += 1
            self.stats.requests_admitted += 1
            return
        client.stats.rejected += 1
        self.stats.admission_rejected += 1
        client.outbox.put_nowait(
            wire.error_record(request_id, rejection, line_no)
        )
        if client.end_request():
            client.drained.set()

    async def _finish_client(self, client: _Client) -> bool:
        """Client EOF: finish its in-flight requests, flush, close.

        Returns whether the writer delivered everything it was handed.
        """
        if client.mark_eof():
            client.drained.set()
        await client.drained.wait()
        client.outbox.put_nowait(_CLOSE)
        delivered = await client.writer_task
        client.connected = False
        await self._close_transport(client.writer)
        self._clients.pop(client.cid, None)
        return delivered

    @staticmethod
    async def _close_transport(writer: asyncio.StreamWriter) -> None:
        try:
            writer.close()
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


__all__ = [
    "AnalysisGateway",
    "ClientStats",
    "GatewayStats",
    "TokenBucket",
]
