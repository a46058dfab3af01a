"""``repro node``: one cluster node serving partial Step 2 over TCP.

A node opens the shared index on *its shard subset only* — an
:class:`~repro.megis.session.AnalysisSession` constructed with
``shard_range`` — and answers the router's scatter frames on the
schema-1 JSONL wire format:

- ``{"schema": 1, "op": "step2", "id": ..., "queries": [[...], ...]}``
  runs :meth:`AnalysisSession.step_two_partial` over the node's
  contiguous shard group and replies with the serialized partial owner
  columns (:func:`~repro.megis.wire.step2_result_record`);
- ``{"schema": 1, "op": "ping", "id": ...}`` is the heartbeat; the pong
  carries the node id, its shard range, and a served counter;
- anything else — bad JSON, a missing/unknown ``schema``, an unknown
  ``op``, malformed queries (not int lists, bools, unsorted, k-mers
  outside ``[0, 4^k)``) — yields a structured error frame and the
  connection stays up (same resilience contract as serve/gateway).

Step-2 work runs in a thread pool so concurrent router scatters overlap
(the kernels release the GIL on the numpy path, and the paced backend's
flash waits sleep); the engine structures are read-only after
:meth:`start` warms the session, exactly like the gateway's service.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List, Mapping, Optional, Set, Tuple

import numpy as np
import numpy.typing as npt

from repro.backends.numpy_backend import as_column, column_dtype
from repro.megis import wire
from repro.megis.cluster.placement import ClusterMap
from repro.megis.session import AnalysisSession


#: Concurrent partial-Step-2 executions per node.
STEP_WORKERS = 4


def _query_columns(queries: object, k: int) -> List[npt.NDArray[Any]]:
    """A step2 frame's ``queries`` as sorted k-mer columns, or ``ValueError``.

    The kernel bisects each column at shard edges, so an unsorted column
    would yield a silently wrong partial and an out-of-range k-mer
    overflows the column dtype: both are refused here, once per request.
    JSON ``true``/``false`` are not k-mers although ``bool`` is an ``int``.
    """
    if not isinstance(queries, list):
        raise ValueError("'queries' must be a list of k-mer int lists")
    space = 1 << (2 * k)
    columns = []
    for query in queries:
        if not isinstance(query, list) or not all(
            type(kmer) is int for kmer in query
        ):
            raise ValueError("'queries' must be a list of k-mer int lists")
        if query and not (0 <= min(query) and max(query) < space):
            raise ValueError(f"query k-mers must lie in [0, 4^{k})")
        column = as_column(query, column_dtype(k))
        if np.any(np.asarray(column[1:] < column[:-1], dtype=bool)):
            raise ValueError("each query column must be sorted ascending")
        columns.append(column)
    return columns


class ClusterNode:
    """Asyncio server answering scatter/heartbeat frames for one node.

    ``session`` must be a shard-range session whose range matches
    ``cluster_map.group(node_id)`` — the constructor enforces it, so a
    misconfigured node fails at bring-up rather than returning columns
    for the wrong shards.
    """

    def __init__(
        self,
        session: AnalysisSession,
        node_id: int,
        cluster_map: ClusterMap,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        max_line_bytes: int = wire.MAX_LINE_BYTES,
    ) -> None:
        expected = cluster_map.group(node_id)
        if session.shard_range != expected:
            raise ValueError(
                f"node {node_id} must serve shards {expected} of "
                f"{cluster_map.n_shards}, but the session covers "
                f"{session.shard_range} of {session.config.n_ssds}"
            )
        if session.config.n_ssds != cluster_map.n_shards:
            raise ValueError(
                f"session opened with n_ssds={session.config.n_ssds}, "
                f"cluster map expects {cluster_map.n_shards} shards"
            )
        self.session = session
        self.node_id = node_id
        self.cluster_map = cluster_map
        self.host = host
        self.port = port
        self.max_line_bytes = max_line_bytes
        #: step2 frames answered (reported in heartbeat pongs).
        self.served = 0
        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._pool: Optional[ThreadPoolExecutor] = None
        self._writers: Set[asyncio.StreamWriter] = set()
        self._handlers: Set["asyncio.Task[None]"] = set()
        self._started = False

    @property
    def bound_address(self) -> Tuple[str, int]:
        if self._server is None:
            raise RuntimeError("node is not started")
        addr = self._server.sockets[0].getsockname()
        return addr[0], addr[1]

    # -- lifecycle -------------------------------------------------------------

    async def start(self) -> Tuple[str, int]:
        """Warm the shard subset and begin serving; returns the address."""
        if self._started:
            raise RuntimeError("node is already started")
        self._loop = asyncio.get_running_loop()
        await self._loop.run_in_executor(None, self.session.warm)
        self._pool = ThreadPoolExecutor(
            max_workers=STEP_WORKERS,
            thread_name_prefix=f"node{self.node_id}-step2",
        )
        self._server = await asyncio.start_server(
            self._handle, host=self.host, port=self.port
        )
        self._started = True
        return self.bound_address

    async def stop(self) -> None:
        """Graceful shutdown: stop accepting, close the open connections."""
        if not self._started:
            return
        self._started = False
        server, self._server = self._server, None
        if server is not None:
            server.close()
            await server.wait_closed()
        for task in list(self._handlers):
            task.cancel()
        if self._handlers:
            await asyncio.gather(*self._handlers, return_exceptions=True)
        self._handlers.clear()
        for writer in list(self._writers):
            try:
                writer.close()
            except (ConnectionError, OSError):
                pass
        self._writers.clear()
        pool, self._pool = self._pool, None
        if pool is not None:
            await asyncio.get_running_loop().run_in_executor(
                None, lambda: pool.shutdown(wait=True)
            )

    def kill(self) -> None:
        """Simulate a node crash: abort every transport, stop listening.

        Routers mid-request see a connection reset (no error frame, no
        flush) — exactly what a killed process produces.  Used by the
        failover tests and the failure-injection experiment scenario.
        """
        self._started = False
        if self._server is not None:
            self._server.close()
            self._server = None
        for task in list(self._handlers):
            task.cancel()
        self._handlers.clear()
        for writer in list(self._writers):
            transport = writer.transport
            if transport is not None:
                transport.abort()
        self._writers.clear()

    async def __aenter__(self) -> "ClusterNode":
        await self.start()
        return self

    async def __aexit__(self, exc_type: object, exc: object, tb: object) -> None:
        await self.stop()

    # -- per-connection handling -----------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._handlers.add(task)
        self._writers.add(writer)
        try:
            await self._serve_frames(reader, writer)
        except asyncio.CancelledError:
            pass
        except (ConnectionError, OSError):
            pass
        finally:
            self._writers.discard(writer)
            if task is not None:
                self._handlers.discard(task)
            try:
                writer.close()
            except (ConnectionError, OSError):
                pass

    async def _serve_frames(self, reader: asyncio.StreamReader,
                            writer: asyncio.StreamWriter) -> None:
        frames = wire.FrameReader(reader, self.max_line_bytes)
        while True:
            frame = await frames.next_frame()
            if frame is None:
                return
            line_no, line = frame
            if isinstance(line, bytes):
                record = await self._dispatch(line, line_no)
            else:
                record = wire.error_record(None, line, line_no)
            await self._reply(writer, record)

    async def _dispatch(self, payload: bytes, line_no: int) -> wire.Record:
        """One frame -> one reply record."""
        try:
            request = wire.decode(payload.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            return wire.error_record(None, f"bad JSON ({exc})", line_no)
        if not isinstance(request, dict):
            return wire.error_record(
                None, "expected an object with 'schema' and 'op'", line_no
            )
        request_id = request.get("id")
        schema_error = wire.check_schema(request)
        if schema_error is not None:
            return wire.error_record(request_id, schema_error, line_no)
        op = request.get("op")
        if op == "ping":
            return wire.pong_record(
                request_id, self.node_id, self.session.shard_range,
                self.served,
            )
        if op == "step2":
            return await self._step2(request_id, request, line_no)
        return wire.error_record(
            request_id, f"unknown op {op!r} (node speaks step2/ping)",
            line_no,
        )

    async def _step2(
        self, request_id: object, request: Dict[str, Any], line_no: int
    ) -> wire.Record:
        try:
            queries = _query_columns(
                request.get("queries"), self.session.database.k
            )
        except ValueError as exc:
            return wire.error_record(request_id, str(exc), line_no)
        try:
            partials = await asyncio.get_running_loop().run_in_executor(
                self._pool, self.session.step_two_partial, queries
            )
        except Exception as exc:
            return wire.error_record(
                request_id, f"step2 failed: {exc}", line_no
            )
        self.served += 1
        return wire.step2_result_record(request_id, self.node_id, partials)

    @staticmethod
    async def _reply(
        writer: asyncio.StreamWriter, record: Mapping[str, object]
    ) -> None:
        writer.write(wire.encode(record))
        await writer.drain()


__all__ = ["ClusterNode"]
