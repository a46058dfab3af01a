"""``repro cluster``: the scatter-gather router in front of N nodes.

The router is the client-facing front door of the cluster tier.  It *is*
the asyncio gateway — per-client writer/outbox fairness, token-bucket
rate limiting, bounded admission, graceful drain, all inherited verbatim
from :class:`~repro.megis.gateway.AnalysisGateway` — driving a
:class:`ClusterAnalysisSession` instead of a local one:

- **Step 1 local.**  The router partitions each sample's reads into the
  sorted query column on its own host (it holds the same index file).
- **Step 2 scattered.**  :class:`ClusterStepTwo` sends the column to
  every node (each intersects/retrieves over its contiguous shard group
  only), then concatenates the partial signature columns in node order —
  nodes own ascending shard groups, so the gather is exactly the
  single-host :meth:`RetrievalResult.concatenate` merge and the final
  result is bit-identical to single-node serving.  Columns cross the
  wire as binary container frames (a JSON header line plus a
  ``MEGISIDX`` body, :func:`~repro.megis.wire.step2_frame`), never as
  JSON int lists; the ids decode against the router's own index's
  signature table (:meth:`ClusterStepTwo.bind`), and a reply naming
  another table fails its attempt.
- **Step 3 local.**  Hit accumulation, candidate selection, and
  abundance estimation run on the gathered columns.

**Failure semantics** mirror the PR 7/8 crash contract: a dead or
timed-out node fails one scatter *attempt*; the router retries exactly
once — against the same address (a respawned node picks up there) or the
node's configured replica — and only if the retry also fails does the
request fail, with a structured ``node_failed`` error frame.  Accepted
requests never silently drop.  Node liveness is tracked by heartbeat
ping/pong frames on a background task; a node marked dead is routed
around (replica first) without waiting for its timeout.
"""

from __future__ import annotations

import asyncio
import itertools
import socket
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.backends import IntColumn, PhaseTimings, SignatureTable
from repro.megis import wire
from repro.megis.cluster.placement import ClusterMap
from repro.megis.gateway import AnalysisGateway
from repro.megis.multissd import StepTwoResult, gather
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


class ClusterStepTwo:
    """Blocking scatter-gather client over the cluster's node endpoints.

    Lives on the service worker threads (submissions already run off the
    event loop), so it uses plain sockets: per scatter it connects and
    sends to *every* node first, then reads replies in node order — the
    nodes compute their partials concurrently while the router reads.
    One connection per (scatter, node) keeps failover trivial: a retry
    is simply a fresh connection, which a respawned node answers.

    ``k`` is the served index's k-mer length (the query records' width);
    it defaults to the one ``cluster_map``'s index fingerprint pins.  The
    signature table replies decode against is bound before the first
    scatter (:meth:`bind`; :class:`ClusterAnalysisSession` binds its
    local index's).
    """

    def __init__(
        self,
        cluster_map: ClusterMap,
        endpoints: Sequence[NodeEndpoint],
        *,
        k: Optional[int] = None,
        timeout_s: float = 10.0,
    ) -> None:
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
        self.signatures: Optional[SignatureTable] = None

    def bind(self, signatures: SignatureTable) -> None:
        """Decode node replies against ``signatures``: the router's own
        index's table, which must be the one the map's fingerprint pins."""
        pinned = (self.cluster_map.fingerprint or {}).get("signatures")
        if pinned is not None and pinned != signatures.digest:
            raise ValueError(
                f"cluster map was computed for a different index build: map "
                f"signature table {pinned!r}, index {signatures.digest!r}"
            )
        self.signatures = signatures

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
        frame = wire.step2_frame(request_id, self.k, queries)
        n_samples = len(queries)

        # Send to every node up front so their partials compute
        # concurrently; replies are then read in node order.
        sends: List[Tuple[Address, Optional[socket.socket],
                          Optional[Exception]]] = []
        for endpoint in self.endpoints:
            address = self._first_address(endpoint)
            try:
                sends.append((address, self._connect_send(address, frame),
                              None))
            except OSError as exc:
                sends.append((address, None, exc))

        per_node: List[List[StepTwoResult]] = []
        try:
            for endpoint, (address, sock, send_error) in zip(self.endpoints,
                                                             sends):
                partials: Optional[List[StepTwoResult]] = None
                last_error: Optional[Exception] = send_error
                if sock is not None:
                    try:
                        partials = self._read_reply(sock, request_id,
                                                    endpoint, n_samples)
                    except (OSError, ValueError) as exc:
                        last_error = exc
                if partials is None:
                    address = self._second_address(endpoint, address)
                    partials = self._retry(endpoint, address, frame,
                                           request_id, n_samples, last_error)
                # ``alive`` describes the primary: a replica's answer must
                # not send the next scatter back to a dead primary first.
                if address == endpoint.address:
                    self._mark_alive(endpoint.node_id)
                per_node.append(partials)
        finally:
            # Every first-attempt socket, read or not: when a node fails
            # for good the NodeFailed leaves the later nodes' connections
            # unread, and they must not be left to the garbage collector.
            for _, sock, _ in sends:
                if sock is not None:
                    self._close(sock)

        return gather(per_node)

    def _retry(self, endpoint: NodeEndpoint, retry_address: Address,
               frame: bytes, request_id: int, n_samples: int,
               last_error: Optional[Exception]) -> List[StepTwoResult]:
        """The single retry after a failed attempt, then :class:`NodeFailed`."""
        self._mark_down(endpoint.node_id)
        with self._lock:
            self.stats.node_retries += 1
        try:
            sock = self._connect_send(retry_address, frame)
        except OSError as exc:
            raise self._fail(endpoint, exc) from exc
        try:
            return self._read_reply(sock, request_id, endpoint, n_samples)
        except (OSError, ValueError) as exc:
            raise self._fail(endpoint, exc, first=last_error) from exc
        finally:
            self._close(sock)

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
        line limit."""
        if timeout is not None:
            sock.settimeout(timeout)
        buf = bytearray()
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                raise ConnectionError("node closed the connection mid-reply")
            newline = chunk.find(b"\n")
            if newline >= 0:
                buf.extend(chunk[:newline])
                rest = chunk[newline + 1:]
                break
            buf.extend(chunk)
            if len(buf) > wire.MAX_LINE_BYTES:
                raise ValueError(
                    f"reply exceeds {wire.MAX_LINE_BYTES} bytes without a newline"
                )
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
        step_two.bind(session.kss.signatures)
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
        self.session.close()

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
        task, self._heartbeat_task = self._heartbeat_task, None
        if task is not None:
            task.cancel()
            try:
                await task
            except asyncio.CancelledError:
                pass
        await super().drain()

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
