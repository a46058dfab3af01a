"""``repro cluster``: the scatter-gather router in front of N nodes.

The router is the client-facing front door of the cluster tier.  It *is*
the asyncio gateway — per-client writer/outbox fairness, token-bucket
rate limiting, bounded admission, graceful drain, all inherited verbatim
from :class:`~repro.megis.gateway.AnalysisGateway` — driving a
:class:`ClusterAnalysisSession` instead of a local one:

- **Step 1 local.**  The router partitions each sample's reads into the
  sorted query column on its own host (it holds the same index file).
- **Step 2 scattered.**  :class:`ClusterStepTwo` sends every node the
  part of each column inside that node's key range (its contiguous shard
  group's span under the router's own ``index.shards``, clipped with
  :func:`~repro.backends.base.clip_buckets`) over a connection it keeps
  between scatters, then concatenates the partial signature columns in
  node order — nodes own ascending shard groups, so the gather is exactly the
  single-host :meth:`RetrievalResult.concatenate` merge and the final
  result is bit-identical to single-node serving.  Columns cross the
  wire as binary container frames (a JSON header line plus a
  ``MEGISIDX`` body, :func:`~repro.megis.wire.step2_frame`), never as
  JSON int lists; the ids decode against the router's own index's
  signature table (:meth:`ClusterStepTwo.bind`), and a reply naming
  another table fails its attempt.
- **Step 3 local.**  Hit accumulation, candidate selection, and
  abundance estimation run on the gathered columns.

**Failure semantics** mirror the serving tiers' crash contract: a dead or
timed-out node fails one scatter *attempt*; the router retries exactly
once — against the same address (a respawned node picks up there) or the
node's configured replica — and only if the retry also fails does the
request fail, with a structured ``node_failed`` error frame.  A kept
connection that the node closed before replying (it restarted since the
last scatter) is reopened once inside the attempt and costs no retry.
Accepted requests never silently drop.  Node liveness is tracked by
heartbeat ping/pong frames on a background task, each on a connection
of its own; a node marked dead is routed around (replica first) without
waiting for its timeout.
"""

from __future__ import annotations

import asyncio
import itertools
import math
import socket
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.backends import IntColumn, PhaseTimings, SignatureTable, StepTwoResult
from repro.backends.base import clip_buckets
from repro.megis import wire
from repro.megis.cluster.placement import ClusterMap
from repro.megis.gateway import AnalysisGateway
from repro.megis.multissd import gather, whole_range
from repro.megis.session import AnalysisSession, MegisResult
from repro.sequences.reads import Read

Address = Tuple[str, int]

#: Connect-and-pong budget of one heartbeat ping, in seconds.
HEARTBEAT_TIMEOUT_S = 1.0

class NodeFailed(RuntimeError):
    """A node failed its scatter attempt *and* the one retry.

    ``str()`` is the structured wire message — the gateway's completion
    router puts it verbatim into the ``{"schema", "id", "error", "line"}``
    frame, following the ``rate_limited:`` / ``admission_full:`` /
    ``WorkerCrashed`` precedent.
    """

    def __init__(self, node_id: int, attempts: int, reason: str) -> None:
        self.node_id = node_id
        self.attempts = attempts
        self.reason = reason
        super().__init__(
            f"node_failed: node={node_id} after {attempts} attempts: {reason}"
        )


@dataclass(frozen=True)
class NodeEndpoint:
    """Where one node (and optionally its standby replica) listens."""

    node_id: int
    address: Address
    replica: Optional[Address] = None


@dataclass
class NodeHealth:
    """Heartbeat-tracked liveness of one node."""

    #: ``None`` until the first contact, then the last known state.
    alive: Optional[bool] = None
    last_seen: float = 0.0
    failures: int = 0
    #: The node's own served counter from its last pong.
    served: int = 0


@dataclass
class ClusterStats:
    """Lifetime scatter/heartbeat counters (read by experiments/tests)."""

    scatters: int = 0
    samples: int = 0
    node_retries: int = 0
    node_failures: int = 0
    heartbeats: int = 0
    pongs: int = 0


class _NoReply(ConnectionError):
    """The node closed or reset the connection before the reply's first
    byte: on a kept connection, the node may simply have restarted."""


class _ConnectionPool:
    """Idle scatter connections per node address, under one lock.

    A connection is checked out by one request at a time and returns
    only after its reply was read whole, so no reply is pending on a
    pooled socket.  Idle connections per address never outnumber the
    scatters that ran at once, which the service's worker threads bound.
    :meth:`close` closes every idle connection; the pool stays usable and
    the next request opens afresh.
    """

    def __init__(self) -> None:
        self._idle: Dict[Address, List[socket.socket]] = {}
        self._lock = threading.Lock()

    def take(self, address: Address) -> Optional[socket.socket]:
        with self._lock:
            idle = self._idle.get(address)
            return idle.pop() if idle else None

    def put(self, address: Address, sock: socket.socket) -> None:
        with self._lock:
            self._idle.setdefault(address, []).append(sock)

    def close(self) -> None:
        with self._lock:
            idle, self._idle = self._idle, {}
        for socks in idle.values():
            for sock in socks:
                sock.close()


@dataclass
class _Attempt:
    """One request to one address: the frame, the socket it went out on
    (``None`` once closed or pooled), whether that socket was a kept
    one, and the error that failed the attempt."""

    address: Address
    frame: bytes
    sock: Optional[socket.socket] = None
    reused: bool = False
    error: Optional[Exception] = None

    def close(self) -> None:
        sock, self.sock = self.sock, None
        if sock is not None:
            ClusterStepTwo._close(sock)


class ClusterStepTwo:
    """Blocking scatter-gather client over the cluster's node endpoints.

    Lives on the service worker threads (submissions already run off the
    event loop), so it uses plain sockets: per scatter it sends to
    *every* node first, then reads replies in node order — the nodes
    compute their partials concurrently while the router reads.  Each
    node is sent only the query k-mers inside its key range (the ranges
    :meth:`bind` takes).  Connections are kept: a request goes out on an
    idle connection to its address from the :class:`_ConnectionPool` when
    there is one, and a connection returns there once its reply was read
    whole — a connection left unread, or one whose reply failed, is
    closed, never pooled.  A kept connection that fails before its
    reply's first byte (the node restarted since) is replaced by a fresh
    one once, inside the same attempt; any other failure fails the
    attempt, and the one retry goes to the other address (or the same
    one, where a respawned node answers).  :meth:`close` closes the idle
    connections.

    ``k`` is the served index's k-mer length (the query records' width);
    it defaults to the one ``cluster_map``'s index fingerprint pins.
    ``timeout_s`` bounds each connect, send and reply read, and must be a
    finite number > 0.  The signature table replies decode against is
    bound before the first scatter (:meth:`bind`;
    :class:`ClusterAnalysisSession` binds its local index's).
    """

    def __init__(
        self,
        cluster_map: ClusterMap,
        endpoints: Sequence[NodeEndpoint],
        *,
        k: Optional[int] = None,
        timeout_s: float = 10.0,
    ) -> None:
        if not (math.isfinite(timeout_s) and timeout_s > 0):
            raise ValueError(
                f"timeout_s must be a finite number > 0, got {timeout_s!r}"
            )
        if len(endpoints) != cluster_map.n_nodes:
            raise ValueError(
                f"cluster map expects {cluster_map.n_nodes} nodes, got "
                f"{len(endpoints)} endpoints"
            )
        ids = [ep.node_id for ep in endpoints]
        if ids != list(range(cluster_map.n_nodes)):
            raise ValueError(
                f"endpoints must be node ids 0..{cluster_map.n_nodes - 1} "
                f"in order, got {ids}"
            )
        pinned = (cluster_map.fingerprint or {}).get("k") if k is None else k
        if not isinstance(pinned, int):
            raise ValueError(
                "the router needs the index's k: pass k= or a cluster map "
                "pinned to the index (ClusterMap.for_index)"
            )
        self.k = pinned
        self.cluster_map = cluster_map
        self.endpoints = list(endpoints)
        self.timeout_s = timeout_s
        self.stats = ClusterStats()
        self.health: Dict[int, NodeHealth] = {
            ep.node_id: NodeHealth() for ep in endpoints
        }
        self._lock = threading.Lock()
        self._seq = itertools.count()
        self._pool = _ConnectionPool()
        self.signatures: Optional[SignatureTable] = None
        self.ranges: List[Tuple[int, int]] = []

    def bind(self, signatures: SignatureTable,
             ranges: Sequence[Tuple[int, int]]) -> None:
        """Decode node replies against ``signatures``: the router's own
        index's table, which must be the one the map's fingerprint pins.

        ``ranges`` are the nodes' key ranges ``[lo, hi)`` in node order
        (:meth:`ClusterMap.key_ranges` of the same index); each scatter
        sends a node only its range's query k-mers.
        """
        pinned = (self.cluster_map.fingerprint or {}).get("signatures")
        if pinned is not None and pinned != signatures.digest:
            raise ValueError(
                f"cluster map was computed for a different index build: map "
                f"signature table {pinned!r}, index {signatures.digest!r}"
            )
        if len(ranges) != len(self.endpoints):
            raise ValueError(
                f"expected one key range per node ({len(self.endpoints)}), "
                f"got {len(ranges)}"
            )
        self.signatures = signatures
        self.ranges = [(int(lo), int(hi)) for lo, hi in ranges]

    def close(self) -> None:
        """Close the idle kept connections (the next scatter reconnects)."""
        self._pool.close()

    # -- scatter-gather --------------------------------------------------------

    def scatter(self, queries: Sequence[IntColumn]) -> List[StepTwoResult]:
        """Step 2 for a batch: scatter to all nodes, gather in node order.

        Returns one ``(intersecting, RetrievalResult)`` per sample —
        the same shape :meth:`AnalysisSession.step_two_partial` gives a
        single node, concatenated over every node's shard group.
        Raises :class:`NodeFailed` when a node fails both its attempt
        and the single retry.
        """
        if self.signatures is None:
            raise ValueError("bind the index's signature table before scattering")
        with self._lock:
            request_id = next(self._seq)
            self.stats.scatters += 1
            self.stats.samples += len(queries)
        n_samples = len(queries)

        # Send to every node up front so their partials compute
        # concurrently; replies are then read in node order.
        attempts = [
            self._send(self._first_address(endpoint),
                       wire.step2_frame(request_id, self.k,
                                        self._node_queries(queries, node)))
            for node, endpoint in enumerate(self.endpoints)
        ]
        per_node: List[List[StepTwoResult]] = []
        try:
            for endpoint, attempt in zip(self.endpoints, attempts):
                partials = self._receive(attempt, request_id, endpoint,
                                         n_samples)
                address = attempt.address
                if partials is None:
                    address = self._second_address(endpoint, address)
                    partials = self._retry(endpoint, address, attempt.frame,
                                           request_id, n_samples,
                                           attempt.error)
                # ``alive`` describes the primary: a replica's answer must
                # not send the next scatter back to a dead primary first.
                if address == endpoint.address:
                    self._mark_alive(endpoint.node_id)
                per_node.append(partials)
        finally:
            # Every socket not read and pooled: when a node fails for
            # good the NodeFailed leaves the later nodes' connections
            # unread, and they must not be left to the garbage collector.
            for attempt in attempts:
                attempt.close()

        return gather(per_node)

    def _node_queries(self, queries: Sequence[IntColumn],
                      node: int) -> List[IntColumn]:
        """Each sample's query k-mers inside ``node``'s key range."""
        lo, hi = self.ranges[node]
        clipped: List[IntColumn] = []
        for query in queries:
            inside = clip_buckets(whole_range(query, self.k), lo, hi)
            clipped.append(inside[0][2] if inside else query[:0])
        return clipped

    def _send(self, address: Address, frame: bytes) -> _Attempt:
        """``frame`` sent to ``address`` on an idle kept connection, else
        on a new one; a send error is kept on the attempt."""
        sock = self._pool.take(address)
        if sock is not None:
            try:
                sock.sendall(frame)
                return _Attempt(address, frame, sock, reused=True)
            except OSError:
                # The kept connection's one reopen.
                self._close(sock)
        try:
            return _Attempt(address, frame, self._connect_send(address, frame))
        except OSError as exc:
            return _Attempt(address, frame, error=exc)

    def _receive(self, attempt: _Attempt, request_id: int,
                 endpoint: NodeEndpoint,
                 n_samples: int) -> Optional[List[StepTwoResult]]:
        """The attempt's decoded reply, its connection pooled; ``None``
        (the reason on ``attempt.error``) when the attempt failed."""
        sock = attempt.sock
        if sock is None:
            return None
        try:
            partials = self._read_reply(sock, request_id, endpoint, n_samples)
        except (OSError, ValueError) as exc:
            attempt.close()
            attempt.error = exc
            if not (attempt.reused and isinstance(exc, _NoReply)):
                return None
            # The node closed a kept connection (it restarted since): the
            # attempt's one reopen.
            attempt.reused = False
            try:
                attempt.sock = self._connect_send(attempt.address, attempt.frame)
            except OSError as reopen_error:
                attempt.error = reopen_error
                return None
            return self._receive(attempt, request_id, endpoint, n_samples)
        attempt.sock = None
        self._pool.put(attempt.address, sock)
        return partials

    def _retry(self, endpoint: NodeEndpoint, retry_address: Address,
               frame: bytes, request_id: int, n_samples: int,
               last_error: Optional[Exception]) -> List[StepTwoResult]:
        """The single retry after a failed attempt, then :class:`NodeFailed`."""
        self._mark_down(endpoint.node_id)
        with self._lock:
            self.stats.node_retries += 1
        attempt = self._send(retry_address, frame)
        if attempt.sock is None:
            assert attempt.error is not None
            raise self._fail(endpoint, attempt.error) from attempt.error
        try:
            partials = self._receive(attempt, request_id, endpoint, n_samples)
        finally:
            attempt.close()
        if partials is None:
            assert attempt.error is not None
            raise self._fail(endpoint, attempt.error,
                             first=last_error) from attempt.error
        return partials

    def _fail(self, endpoint: NodeEndpoint, error: Exception,
              first: Optional[Exception] = None) -> NodeFailed:
        """Record the failure and build the ``NodeFailed`` for the caller
        to raise (so control flow stays visible at the raise site)."""
        with self._lock:
            self.stats.node_failures += 1
        reason = str(error) or type(error).__name__
        if first is not None and str(first) != str(error):
            reason = f"{first}; retry: {reason}"
        return NodeFailed(endpoint.node_id, attempts=2, reason=reason)

    def _first_address(self, endpoint: NodeEndpoint) -> Address:
        """Primary, unless heartbeats marked it dead and a replica exists."""
        health = self.health[endpoint.node_id]
        if health.alive is False and endpoint.replica is not None:
            return endpoint.replica
        return endpoint.address

    @staticmethod
    def _second_address(endpoint: NodeEndpoint,
                        failed: Address) -> Address:
        """The retry target: the other address if configured (replica or
        primary), else the same one — a respawned node answers there."""
        if endpoint.replica is not None and failed == endpoint.address:
            return endpoint.replica
        return endpoint.address

    # -- heartbeat -------------------------------------------------------------

    def check_health(self) -> Dict[int, NodeHealth]:
        """Ping every node once; update and return the health map."""
        for endpoint in self.endpoints:
            with self._lock:
                seq = next(self._seq)
                self.stats.heartbeats += 1
            frame = wire.encode(wire.ping_record(seq))
            try:
                sock = self._connect_send(endpoint.address, frame,
                                          timeout=HEARTBEAT_TIMEOUT_S)
                try:
                    reply, _ = self._read_frame(sock,
                                                timeout=HEARTBEAT_TIMEOUT_S)
                finally:
                    self._close(sock)
                if reply.get("op") != "pong" or reply.get("id") != seq:
                    raise ValueError(f"bad pong: {reply!r}")
            except (OSError, ValueError):
                self._mark_down(endpoint.node_id)
            else:
                self._mark_alive(endpoint.node_id,
                                 served=int(reply.get("served", 0)))
                with self._lock:
                    self.stats.pongs += 1
        return self.health

    def _mark_alive(self, node_id: int, served: Optional[int] = None) -> None:
        with self._lock:
            health = self.health[node_id]
            health.alive = True
            health.last_seen = time.monotonic()
            if served is not None:
                health.served = served

    def _mark_down(self, node_id: int) -> None:
        with self._lock:
            health = self.health[node_id]
            health.alive = False
            health.failures += 1

    # -- socket plumbing -------------------------------------------------------

    def _connect_send(self, address: Address, frame: bytes,
                      timeout: Optional[float] = None) -> socket.socket:
        timeout = self.timeout_s if timeout is None else timeout
        sock = socket.create_connection(address, timeout=timeout)
        try:
            sock.settimeout(timeout)
            sock.sendall(frame)
        except OSError:
            self._close(sock)
            raise
        return sock

    def _read_reply(self, sock: socket.socket, request_id: int,
                    endpoint: NodeEndpoint,
                    n_samples: int) -> List[StepTwoResult]:
        """One validated *and decoded* step2_result frame — a reply that
        does not decode fails the attempt like one that never arrived —
        or ``ValueError``/``OSError``."""
        record, body = self._read_frame(sock)
        schema_error = wire.check_schema(record)
        if schema_error is not None:
            raise ValueError(schema_error)
        if "error" in record:
            raise ValueError(f"node error: {record['error']}")
        if record.get("op") != "step2_result":
            raise ValueError(f"expected step2_result, got {record.get('op')!r}")
        if record.get("id") != request_id:
            raise ValueError(
                f"reply id {record.get('id')!r} != request {request_id}"
            )
        if record.get("node") != endpoint.node_id:
            raise ValueError(
                f"node {record.get('node')!r} answered for "
                f"node {endpoint.node_id}"
            )
        assert self.signatures is not None  # scatter checks it
        partials = wire.parse_step2_result_frame(record, body, self.k,
                                                 self.signatures)
        if len(partials) != n_samples:
            raise ValueError(
                f"expected {n_samples} sample partials, got {len(partials)}"
            )
        return partials

    def _read_frame(self, sock: socket.socket,
                    timeout: Optional[float] = None
                    ) -> Tuple[Dict[str, Any], bytes]:
        """One reply: its header line and the body the header declares
        (none for pongs and error frames), each bounded by the wire's
        line limit.  A connection closed or reset before the first byte
        raises :class:`_NoReply`."""
        if timeout is not None:
            sock.settimeout(timeout)
        try:
            chunk = sock.recv(65536)
        except ConnectionError as exc:
            raise _NoReply(f"node reset the connection before replying ({exc})") from exc
        if not chunk:
            raise _NoReply("node closed the connection before replying")
        buf = bytearray()
        while (newline := chunk.find(b"\n")) < 0:
            buf.extend(chunk)
            if len(buf) > wire.MAX_LINE_BYTES:
                raise ValueError(
                    f"reply exceeds {wire.MAX_LINE_BYTES} bytes without a newline"
                )
            chunk = sock.recv(65536)
            if not chunk:
                raise ConnectionError("node closed the connection mid-reply")
        buf.extend(chunk[:newline])
        rest = chunk[newline + 1:]
        record = wire.decode(buf.decode("utf-8"))
        if not isinstance(record, dict):
            raise ValueError(f"expected an object frame, got {record!r}")
        length = wire.body_length(record, wire.MAX_LINE_BYTES)
        parts = [rest[:length]]
        received = len(parts[0])
        while received < length:
            chunk = sock.recv(min(length - received, 1 << 20))
            if not chunk:
                raise ConnectionError("node closed the connection mid-body")
            parts.append(chunk)
            received += len(chunk)
        return record, b"".join(parts)

    @staticmethod
    def _close(sock: socket.socket) -> None:
        try:
            sock.close()
        except OSError:
            pass


class ClusterAnalysisSession:
    """The router's session: Steps 1/3 local, Step 2 scattered.

    Implements the session surface
    :class:`~repro.megis.service.AnalysisService` drives (``warm`` /
    ``analyze`` / ``analyze_batch`` / ``close``, ``process_workers``), so
    the whole gateway stack — workers, §4.7 batch coalescing, bounded
    admission, completion streaming — serves the cluster unchanged.
    ``session`` is a *full* local session over the same index (its
    partitioner, sketch columns, and Step-3 caches are what run
    locally); Step-2 engines on it are never exercised.
    """

    def __init__(self, session: AnalysisSession, step_two: ClusterStepTwo) -> None:
        if session.shard_range is not None:
            raise ValueError(
                "the router needs a full local session (Steps 1/3 run "
                "here); shard-range sessions belong on nodes"
            )
        if session.process_workers:
            raise ValueError(
                "the router session cannot be process-backed: scatter "
                "sockets must not cross a fork"
            )
        step_two.bind(session.kss.signatures,
                      step_two.cluster_map.key_ranges(session.index))
        self.session = session
        self.step_two = step_two
        #: The service's session contract: how many forked workers its
        #: threads must keep busy.
        self.process_workers = 0

    @property
    def config(self) -> Any:
        return self.session.config

    @property
    def references(self) -> Any:
        return self.session.references

    @property
    def backend_name(self) -> str:
        name: str = self.session.backend_name
        return name

    def warm(self) -> "ClusterAnalysisSession":
        self.session.warm()
        return self

    def close(self) -> None:
        """Close the local session and the scatter's kept connections."""
        self.session.close()
        self.step_two.close()

    def analyze(self, reads: Sequence[Read],
                with_abundance: bool = True) -> MegisResult:
        return self.analyze_batch([reads], with_abundance)[0]

    def analyze_batch(
        self, samples: Sequence[Sequence[Read]], with_abundance: bool = True
    ) -> List[MegisResult]:
        """The local session's analysis sequence with Step 2 scattered:
        one scatter per batch, so every node streams its shard group once
        for all buffered samples (§4.7 across the cluster)."""
        if not samples:
            return []
        results: List[MegisResult] = self.session._analyze(
            samples, with_abundance, self._scatter
        )
        return results

    def _scatter(
        self, bucket_sets: Sequence[Any], timings: PhaseTimings
    ) -> List[StepTwoResult]:
        """The Step-2 stage: the wall time the router spends waiting on
        nodes lands in the intersect phase."""
        queries = [buckets.merged_column() for buckets in bucket_sets]
        with timings.phase("intersect"):
            return self.step_two.scatter(queries)


class ClusterRouter(AnalysisGateway):
    """The gateway, fronting a cluster: same wire format, same QoS
    machinery, plus a heartbeat task tracking node health.

    Everything client-facing is inherited — per-client writer/outbox,
    :class:`~repro.megis.gateway.TokenBucket` rate limiting, bounded
    admission, drain summaries.  A :class:`NodeFailed` raised by the
    scatter path surfaces through the completion stream as a structured
    ``node_failed`` error frame on the owning client's connection.
    """

    def __init__(self, session: ClusterAnalysisSession, *,
                 heartbeat_ms: Optional[float] = 1000.0,
                 **gateway_kwargs: Any) -> None:
        # ``None`` turns the heartbeat off; a ping period must be > 0.
        if heartbeat_ms is not None and not (
            math.isfinite(heartbeat_ms) and heartbeat_ms > 0
        ):
            raise ValueError(
                f"heartbeat_ms must be a finite number > 0, got {heartbeat_ms!r}"
            )
        super().__init__(session, **gateway_kwargs)
        self.heartbeat_ms = heartbeat_ms
        self._heartbeat_task: Optional["asyncio.Task[None]"] = None

    @property
    def cluster(self) -> ClusterStepTwo:
        return self.session.step_two

    async def start(self) -> Tuple[str, int]:
        address = await super().start()
        if self.heartbeat_ms is not None:
            self._heartbeat_task = asyncio.ensure_future(
                self._heartbeat_loop()
            )
        return address

    async def drain(self) -> None:
        """The gateway's drain, then the scatter's idle connections close
        (a resumed router reconnects on its first scatter)."""
        task, self._heartbeat_task = self._heartbeat_task, None
        if task is not None:
            task.cancel()
            try:
                await task
            except asyncio.CancelledError:
                pass
        await super().drain()
        self.cluster.close()

    async def _heartbeat_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while self.heartbeat_ms is not None:
            await asyncio.sleep(self.heartbeat_ms / 1e3)
            await loop.run_in_executor(None, self.cluster.check_health)


__all__ = [
    "ClusterAnalysisSession",
    "ClusterRouter",
    "ClusterStepTwo",
    "NodeEndpoint",
    "NodeFailed",
    "NodeHealth",
    "ClusterStats",
]
