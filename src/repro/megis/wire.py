"""The versioned JSONL wire format shared by every serving front door.

``repro serve`` (stdin/stdout), ``repro gateway`` (asyncio TCP), and the
cluster tier's ``repro node`` / ``repro cluster`` all speak the same
schema-1 newline-delimited JSON protocol, and this module is its single
source of truth so the surfaces can never drift:

- a **request** is one line: ``{"schema": 1, "id": ...,
  "reads": ["ACGT...", ...]}`` (:func:`request_record` builds it;
  :func:`parse_request_line` validates it and returns the rejection
  message for malformed input instead of raising).  The ``schema`` key
  is *enforced on ingest*: a missing or unknown value is rejected with a
  structured error record, so a client built against a future schema
  fails loudly instead of being misparsed;
- a **result** line carries ``{"schema", "id", "n_reads", "candidates",
  "profile", "samples_batched", "queue_wait_ms", "latency_ms"}``
  (:func:`result_record`);
- an **error** line carries ``{"schema", "id", "error", "line"}``
  (:func:`error_record`) — malformed frames, per-sample failures,
  deadline expiries, rate-limit / admission rejections, and the cluster
  router's ``node_failed`` frames all use it;
- the gateway additionally emits **event** frames (``{"schema",
  "event": "drain", ...}``) at drain time — same schema version, an
  ``event`` key instead of ``id`` (:func:`drain_record`);
- the cluster tier's router↔node leg rides the same framing with an
  ``op`` key: :func:`step2_request_record` scatters each sample's sorted
  query column, :func:`step2_result_record` returns the node's partial
  Step-2 owner columns (CSR ``RetrievalResult`` serialized per level via
  :func:`retrieval_columns` / :func:`parse_retrieval`), and
  :func:`ping_record` / :func:`pong_record` are the heartbeat pair.

Framing is here too: :class:`FrameReader` cuts a byte stream into numbered
lines for every ingest loop (gateway connections, ``repro serve``'s stdin,
the node's scatter socket).

Every emitted line carries ``"schema": `` :data:`SCHEMA` so clients can
version-gate their parsers.  These constructors are also the registry
the ``repro check`` RPR004 rule enforces: a frame dict built anywhere
else, or an op no constructor emits, is a finding.
"""

from __future__ import annotations

import json
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterable,
    List,
    Mapping,
    MutableSet,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    Union,
)

if TYPE_CHECKING:
    from repro.backends.retrieval import RetrievalResult

#: Wire-format version stamped on every output line.
SCHEMA = 1

#: One decoded JSONL frame.  Values are heterogeneous JSON scalars and
#: containers, so ``object`` is the honest element type.
Record = Dict[str, object]

#: ``(request_id, reads, rejection message)`` — exactly one of ``reads``
#: / rejection is ``None``.
ParsedRequest = Tuple[object, Optional[List[str]], Optional[str]]


def _refuse_constant(name: str) -> object:
    raise ValueError(f"{name} is not a JSON value")


def decode(text: str) -> Any:
    """``json.loads`` for every ingest path, refusing ``NaN`` /
    ``Infinity`` / ``-Infinity``: echoed back (as an id, say), they would
    make a frame strict JSON parsers reject."""
    return json.loads(text, parse_constant=_refuse_constant)


def parse_request_line(line: Union[bytes, str], line_no: int,
                       seen_ids: Optional[MutableSet[object]] = None,
                       max_bytes: Optional[int] = None) -> ParsedRequest:
    """One JSONL request -> (id, read sequences, error).

    Accepts ``bytes`` (the production paths read raw byte streams) or
    ``str``.  Every rejection returns an error *message*; the caller wraps
    it into the structured ``{"schema", "id", "error", "line"}`` object.
    ``seen_ids`` (a mutable set) makes duplicate ids a rejection;
    ``max_bytes`` bounds the accepted line length.  Requests must carry
    ``"schema": `` :data:`SCHEMA`; a missing or unknown value is a
    rejection (emitted since PR 6, enforced on ingest since the cluster
    tier landed).
    """
    raw_len = len(line) if isinstance(line, bytes) else len(line.encode("utf-8"))
    if max_bytes is not None and raw_len > max_bytes:
        return line_no, None, (
            f"line too long ({raw_len} bytes > --max-line-bytes {max_bytes})"
        )
    if isinstance(line, bytes):
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            return line_no, None, f"not valid UTF-8 ({exc})"
    try:
        request = decode(line)
    except ValueError as exc:
        return line_no, None, f"bad JSON ({exc})"
    if not isinstance(request, dict):
        return line_no, None, "expected an object with 'schema' and 'reads'"
    request_id: object = request.get("id", line_no)
    if request_id is not None and not isinstance(request_id,
                                                 (str, int, float, bool)):
        return line_no, None, (
            f"'id' must be a JSON scalar, got {type(request_id).__name__}"
        )
    schema_error = check_schema(request)
    if schema_error is not None:
        return request_id, None, schema_error
    if "reads" not in request:
        return request_id, None, "expected an object with 'reads'"
    if seen_ids is not None:
        if request_id in seen_ids:
            return request_id, None, f"duplicate id {request_id!r}"
        seen_ids.add(request_id)
    reads = request["reads"]
    if not isinstance(reads, list) or not all(
        isinstance(seq, str) for seq in reads
    ):
        return request_id, None, "'reads' must be a list of sequence strings"
    return request_id, reads, None


def check_schema(record: Mapping[str, object]) -> Optional[str]:
    """The rejection message for a frame's ``schema`` key, or ``None``.

    Shared by every ingest path — serve, gateway, and both sides of the
    cluster router↔node leg — so version gating cannot drift between
    surfaces.
    """
    if "schema" not in record:
        return f"missing 'schema' (this server speaks schema {SCHEMA})"
    if record["schema"] != SCHEMA:
        return (
            f"unsupported schema {record['schema']!r} "
            f"(this server speaks schema {SCHEMA})"
        )
    return None


def request_record(request_id: object, reads: Sequence[str]) -> Record:
    """The client->server request frame :func:`parse_request_line` accepts.

    Clients (experiment drivers, smoke tests, benchmarks) build their
    frames here instead of hand-rolling ``{"schema": 1, ...}`` dicts, so
    a schema bump is one constructor edit — not a repo-wide grep.
    """
    return {"schema": SCHEMA, "id": request_id, "reads": list(reads)}


def result_record(request_id: object, n_reads: int, result: Any,
                  metrics: Any) -> Record:
    """The schema-1 result line for one completed sample.

    ``result`` is a :class:`~repro.megis.session.MegisResult` and
    ``metrics`` a :class:`~repro.megis.service.RequestMetrics`; both are
    duck-typed here to keep the wire layer import-light.
    """
    return {
        "schema": SCHEMA,
        "id": request_id,
        "n_reads": n_reads,
        "candidates": sorted(int(t) for t in result.candidates),
        "profile": {
            str(t): f for t, f in sorted(result.profile.fractions.items())
        },
        "samples_batched": result.timings.samples_batched,
        "queue_wait_ms": round(metrics.queue_wait_ms, 3),
        "latency_ms": round(metrics.latency_ms, 3),
    }


def error_record(request_id: object, message: str,
                 line_no: Optional[int]) -> Record:
    """The schema-1 structured error line (malformed input, per-sample
    failure, rate-limit / admission rejection, node failure, ...)."""
    return {"schema": SCHEMA, "id": request_id, "error": message,
            "line": line_no}


def drain_record(client: int, stats: Any) -> Record:
    """The gateway's per-connection drain summary frame."""
    return {
        "schema": SCHEMA,
        "event": "drain",
        "client": client,
        "submitted": stats.submitted,
        "completed": stats.completed,
        "failed": stats.failed,
        "malformed": stats.malformed,
        "rate_limited": stats.rate_limited,
        "rejected": stats.rejected,
    }


# -- cluster router <-> node frames -------------------------------------------


def retrieval_columns(retrieved: "RetrievalResult") -> Record:
    """Serialize a ``RetrievalResult``'s CSR columns as plain JSON lists.

    The layout mirrors the in-memory columns exactly — ``queries`` plus,
    per sketch level, the flat ``taxids`` owner column and its
    ``offsets`` — so a round trip through :func:`parse_retrieval`
    reconstructs a bit-identical result (ndarray columns come back as
    int64 ndarrays, the numpy backend's native container).
    """
    return {
        "queries": [int(q) for q in retrieved.queries],
        "levels": {
            str(k): {
                "taxids": [int(t) for t in hits.taxids],
                "offsets": [int(o) for o in hits.offsets],
            }
            for k, hits in retrieved.levels.items()
        },
    }


def parse_retrieval(payload: Mapping[str, Any]) -> "RetrievalResult":
    """Rebuild a ``RetrievalResult`` from :func:`retrieval_columns` output.

    Columns come back as int64 ndarrays so every downstream kernel (hit
    accumulation, containment, the statistical estimator) takes its
    vectorized path — results are bit-identical either way (the
    cross-backend suite pins list and ndarray columns equal).  Anything
    that is not such output — unsorted queries, a level block without its
    two integer columns, offsets that are not a CSR index over
    ``queries`` into ``taxids`` — raises ``ValueError`` here, so a
    malformed reply fails its scatter attempt instead of the gather.
    """
    import numpy as np

    from repro.backends.retrieval import LevelHits, RetrievalResult

    if not isinstance(payload, dict) or not isinstance(
        payload.get("queries"), list
    ):
        raise ValueError(
            "retrieval payload must be an object with a 'queries' list"
        )
    blocks = payload.get("levels", {})
    if not isinstance(blocks, dict):
        raise ValueError("retrieval 'levels' must be an object")
    try:
        queries = [int(q) for q in payload["queries"]]
    except (TypeError, ValueError) as exc:
        raise ValueError(f"retrieval 'queries' must be integers: {exc}") from exc
    if any(a > b for a, b in zip(queries, queries[1:])):
        raise ValueError("retrieval 'queries' must be sorted")
    levels: Dict[int, "LevelHits"] = {}
    for key, block in blocks.items():
        if not (
            isinstance(block, dict)
            and isinstance(block.get("taxids"), list)
            and isinstance(block.get("offsets"), list)
        ):
            raise ValueError(
                f"retrieval level {key!r} must carry 'taxids' and "
                f"'offsets' lists"
            )
        try:
            level = int(key)
            taxids = np.asarray(block["taxids"], dtype=np.int64)
            offsets = np.asarray(block["offsets"], dtype=np.int64)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(
                f"retrieval level {key!r}: key and columns must be "
                f"integers: {exc}"
            ) from exc
        if (
            taxids.ndim != 1
            or offsets.shape != (len(queries) + 1,)
            or offsets[0] != 0
            or offsets[-1] != len(taxids)
            or bool(np.any(offsets[1:] < offsets[:-1]))
        ):
            raise ValueError(
                f"retrieval level {key!r}: offsets must rise from 0 to "
                f"len(taxids) over len(queries) + 1 entries"
            )
        levels[level] = LevelHits(taxids=taxids, offsets=offsets)
    return RetrievalResult(queries=queries, levels=levels)


def step2_request_record(request_id: object,
                         queries: Sequence[Sequence[int]]) -> Record:
    """The router's scatter frame: one sorted query column per sample.

    The node intersects each column against *its* shard subset only (the
    backend's range split discards everything outside a shard's
    ``[lo, hi)``), so the router sends the full column and placement
    stays entirely node-side.
    """
    return {
        "schema": SCHEMA,
        "op": "step2",
        "id": request_id,
        "queries": [[int(k) for k in query] for query in queries],
    }


def step2_result_record(
    request_id: object, node: int,
    partials: Iterable[Tuple[Sequence[int], "RetrievalResult"]],
) -> Record:
    """A node's gather frame: per-sample partial owner columns.

    ``partials`` is what :meth:`AnalysisSession.step_two_partial`
    returns — one ``(intersecting, RetrievalResult)`` per sample, over
    the node's contiguous shard group.  The intersecting k-mers *are*
    the retrieval result's ``queries`` column, so only the columns ship.
    """
    return {
        "schema": SCHEMA,
        "op": "step2_result",
        "id": request_id,
        "node": node,
        "samples": [retrieval_columns(retrieved) for _, retrieved in partials],
    }


def parse_step2_result(
    record: Mapping[str, object],
) -> List[Tuple[List[int], "RetrievalResult"]]:
    """Decode a gather frame back into per-sample partial results."""
    samples = record.get("samples")
    if not isinstance(samples, list):
        raise ValueError("step2_result frame must carry a 'samples' list")
    partials: List[Tuple[List[int], "RetrievalResult"]] = []
    for payload in samples:
        retrieved = parse_retrieval(payload)
        partials.append((list(retrieved.queries), retrieved))
    return partials


def ping_record(seq: int) -> Record:
    """The router's heartbeat frame."""
    return {"schema": SCHEMA, "op": "ping", "id": seq}


def pong_record(seq: object, node: int, shard_range: Tuple[int, int],
                served: int) -> Record:
    """A node's heartbeat reply: identity, shard group, served count."""
    return {
        "schema": SCHEMA,
        "op": "pong",
        "id": seq,
        "node": node,
        "shards": [int(shard_range[0]), int(shard_range[1])],
        "served": served,
    }


def encode(record: Mapping[str, object]) -> bytes:
    """One wire frame: the record as compact JSON plus the newline."""
    return json.dumps(record).encode("utf-8") + b"\n"


class ByteSource(Protocol):
    """What :class:`FrameReader` pulls from: ``asyncio.StreamReader``, or
    any object with the same ``read`` (``repro serve`` wraps stdin)."""

    async def read(self, n: int, /) -> bytes: ...


#: Longest frame any endpoint buffers (gateway and node requests, the
#: router's node replies): one line limit for the whole wire.
MAX_LINE_BYTES = 32 * 1024 * 1024

#: One framed input line: ``(line_no, line)``, where ``line`` is the
#: payload ``bytes`` — or, for a discarded over-long line, the ``str``
#: rejection message.
Frame = Tuple[int, Union[bytes, str]]


class FrameReader:
    """Newline framing over raw reads, resilient to oversized frames.

    ``StreamReader.readline`` raises ``LimitOverrunError`` and leaves the
    buffer mid-frame; this reader instead discards an oversized frame
    through its terminating newline and reports it as a rejection, so one
    huge line costs an error record — not the connection.  Lines are
    numbered from 1 in arrival order; blank lines are counted but not
    delivered.
    """

    def __init__(self, reader: ByteSource, max_line_bytes: int) -> None:
        self._reader = reader
        self._max = max_line_bytes
        self._buf = bytearray()
        self._eof = False
        self._line_no = 0

    async def next_frame(self) -> Optional[Frame]:
        """The next non-blank line (a final unterminated one included),
        or ``None`` at end of stream."""
        while True:
            newline = self._buf.find(b"\n")
            if newline >= 0:
                line = bytes(self._buf[:newline])
                del self._buf[: newline + 1]
            elif len(self._buf) > self._max:
                self._line_no += 1
                dropped = await self._discard_to_newline()
                return self._line_no, (
                    f"line too long ({dropped} bytes > "
                    f"--max-line-bytes {self._max})"
                )
            elif not self._eof:
                chunk = await self._reader.read(65536)
                if chunk:
                    self._buf.extend(chunk)
                else:
                    self._eof = True
                continue
            elif self._buf:
                line = bytes(self._buf)
                self._buf.clear()
            else:
                return None
            self._line_no += 1
            if line.strip():
                return self._line_no, line

    async def _discard_to_newline(self) -> int:
        dropped = len(self._buf)
        self._buf.clear()
        while not self._eof:
            chunk = await self._reader.read(65536)
            if not chunk:
                self._eof = True
                break
            newline = chunk.find(b"\n")
            if newline >= 0:
                self._buf.extend(chunk[newline + 1:])
                return dropped + newline
            dropped += len(chunk)
        return dropped


__all__ = [
    "SCHEMA",
    "ByteSource",
    "Frame",
    "FrameReader",
    "Record",
    "check_schema",
    "decode",
    "drain_record",
    "encode",
    "error_record",
    "parse_request_line",
    "parse_retrieval",
    "parse_step2_result",
    "ping_record",
    "pong_record",
    "request_record",
    "result_record",
    "retrieval_columns",
    "step2_request_record",
    "step2_result_record",
]
