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
- the cluster tier's router↔node leg (internal; no client sees it) keys
  its frames by ``op``.  A Step-2 frame is a schema-1 JSON **header
  line** followed by a binary **body** of exactly ``bytes`` bytes: one
  ``MEGISIDX`` container (:func:`~repro.databases.serialization.pack_sections`,
  the index file's own format).  :func:`step2_frame` scatters each
  sample's sorted query column as k-mer records (section ``q<i>``);
  :func:`step2_result_frame` returns the node's partial Step-2 columns —
  the sample's intersecting k-mers (``q<i>``) and, per sketch level, the
  ``int32`` owner-set signature ids (``s<i>/<level>``), with the digest
  of the signature table they refer to in the header.
  :func:`parse_step2_frame` / :func:`parse_step2_result_frame` take the
  columns back as dtype views and refuse, with ``ValueError``, anything
  that is not such a frame — a signature table other than the reader's
  included.
  :func:`ping_record` / :func:`pong_record` are the header-only
  heartbeat pair;
- the JSON step-2 codec (:func:`step2_request_record`,
  :func:`step2_result_record`, :func:`parse_step2_result`) is no longer
  spoken by any process: the perf ledger's probe still times it.  It
  expands for the probe — per-query taxID lists, as it always carried.

Framing is here too: :class:`FrameReader` cuts a byte stream into numbered
lines for every ingest loop (gateway connections, ``repro serve``'s stdin,
the node's scatter socket), and reads a Step-2 frame's body after its
header (:meth:`FrameReader.read_exact`).  :data:`MAX_LINE_BYTES` bounds a
header line and a declared body alike.

Every emitted line carries ``"schema": `` :data:`SCHEMA` so clients can
version-gate their parsers.  These constructors are also the registry
the ``repro check`` RPR004 rule enforces: a frame dict built anywhere
else, or an op no constructor emits, is a finding.
"""

from __future__ import annotations

import json
from typing import (
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

import numpy as np
import numpy.typing as npt

from repro.backends.retrieval import IntColumn, RetrievalResult
from repro.backends.signatures import SignatureTable
from repro.databases.serialization import (
    pack_i32,
    pack_sections,
    parse_i32,
    parse_kmer_column,
    unpack_sections,
)
from repro.sequences.keys import kmer_record_bytes, pack_kmer_column

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
    make a frame strict JSON parsers reject.  Nesting too deep for the
    parser is a ``ValueError`` too, not a ``RecursionError``."""
    try:
        return json.loads(text, parse_constant=_refuse_constant)
    except RecursionError as exc:
        raise ValueError("JSON nested too deeply") from exc


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


# -- the JSON step-2 codec (ledger probe only) ---------------------------------


def retrieval_columns(retrieved: RetrievalResult) -> Record:
    """Serialize a ``RetrievalResult`` as plain JSON lists (ledger probe
    only: the cluster leg ships :func:`step2_result_frame`).

    The result expands for the probe (:meth:`RetrievalResult.expand`):
    ``queries`` plus, per sketch level, the flat ``taxids`` owner column
    and its ``offsets``, so a round trip through :func:`parse_retrieval`
    gives back the same owner sets.
    """
    return {
        "queries": [int(q) for q in retrieved.queries],
        "levels": {
            str(k): {
                "taxids": taxids.tolist(),
                "offsets": offsets.tolist(),
            }
            for k, (taxids, offsets) in retrieved.expand().items()
        },
    }


def parse_retrieval(payload: Mapping[str, Any]) -> RetrievalResult:
    """Rebuild a ``RetrievalResult`` from :func:`retrieval_columns` output
    (ledger probe only), its owner sets interned into a fresh signature
    table.

    Anything that is not such output — unsorted queries, a level block
    without its two integer columns, offsets that are not a CSR index over
    ``queries`` into ``taxids`` — raises ``ValueError`` here.
    """
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
    levels: Dict[int, Tuple[npt.NDArray[np.int64], npt.NDArray[np.int64]]] = {}
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
        levels[level] = (taxids, offsets)
    return RetrievalResult.from_csr(queries, levels)


def step2_request_record(request_id: object,
                         queries: Sequence[Sequence[int]]) -> Record:
    """The JSON scatter frame: one sorted query column per sample (ledger
    probe only: the router sends :func:`step2_frame`)."""
    return {
        "schema": SCHEMA,
        "op": "step2",
        "id": request_id,
        "queries": [[int(k) for k in query] for query in queries],
    }


def step2_result_record(
    request_id: object, node: int,
    partials: Iterable[Tuple[Sequence[int], RetrievalResult]],
) -> Record:
    """The JSON gather frame: per-sample partial owner columns, expanded
    for the probe (ledger probe only: a node answers with
    :func:`step2_result_frame`)."""
    return {
        "schema": SCHEMA,
        "op": "step2_result",
        "id": request_id,
        "node": node,
        "samples": [retrieval_columns(retrieved) for _, retrieved in partials],
    }


def parse_step2_result(
    record: Mapping[str, object],
) -> List[Tuple[List[int], RetrievalResult]]:
    """Decode a JSON gather frame back into per-sample partial results
    (ledger probe only)."""
    samples = record.get("samples")
    if not isinstance(samples, list):
        raise ValueError("step2_result frame must carry a 'samples' list")
    partials: List[Tuple[List[int], RetrievalResult]] = []
    for payload in samples:
        retrieved = parse_retrieval(payload)
        partials.append((list(retrieved.queries), retrieved))
    return partials


# -- cluster router <-> node frames: header line + MEGISIDX body ---------------

def step2_header_record(request_id: object, k: int, counts: Sequence[int],
                        body_bytes: int) -> Record:
    """The header line of a :func:`step2_frame`: ``counts[i]`` k-mers in
    sample ``i``'s query section, ``body_bytes`` bytes of body after it."""
    return {"schema": SCHEMA, "op": "step2", "id": request_id, "k": k,
            "counts": list(counts), "bytes": body_bytes}


def step2_result_header_record(request_id: object, node: int, k: int,
                               counts: Sequence[int], levels: Sequence[int],
                               signatures: str, body_bytes: int) -> Record:
    """The header line of a :func:`step2_result_frame`: per-sample
    intersecting k-mer counts, the sketch levels every sample carries and
    the digest of the signature table their ids refer to."""
    return {"schema": SCHEMA, "op": "step2_result", "id": request_id,
            "node": node, "k": k, "counts": list(counts),
            "levels": list(levels), "signatures": signatures,
            "bytes": body_bytes}


def step2_frame(request_id: object, k: int,
                queries: Sequence[IntColumn]) -> bytes:
    """The router's scatter frame: one sorted query column per sample.

    The router sends each node only the k-mers inside that node's key
    range (:meth:`~repro.megis.cluster.router.ClusterStepTwo.bind`), so
    ``counts`` are per-node; the node still clips each column to each of
    its shards, so a column that reaches past its range only costs bytes.
    """
    body = pack_sections({
        f"q{i}": pack_kmer_column(query, k) for i, query in enumerate(queries)
    })
    header = step2_header_record(request_id, k,
                                 [len(query) for query in queries], len(body))
    return encode(header) + body


def step2_result_frame(request_id: object, node: int, k: int,
                       signatures: SignatureTable,
                       partials: Sequence[Tuple[Any, RetrievalResult]]) -> bytes:
    """A node's gather frame: per-sample partial signature columns.

    ``partials`` is what :meth:`AnalysisSession.step_two_partial`
    returns — one ``(intersecting, RetrievalResult)`` per sample, over the
    node's contiguous shard group, every one answering from
    ``signatures`` (the node's index's table).  The intersecting k-mers
    *are* the retrieval result's ``queries`` column, so only the columns
    ship: the k-mers and one ``int32`` id per query and level.
    """
    results = [retrieved for _, retrieved in partials]
    levels = [int(level) for level in results[0].levels] if results else []
    sections: Dict[str, bytes] = {}
    for i, retrieved in enumerate(results):
        if retrieved.levels.keys() != set(levels):
            raise ValueError(
                "every sample of a step2_result frame must carry the same levels"
            )
        if retrieved.signatures is not signatures:
            raise ValueError(
                "every sample of a step2_result frame must answer from its "
                "node's signature table"
            )
        sections[f"q{i}"] = pack_kmer_column(retrieved.queries, k)
        for level in levels:
            sections[f"s{i}/{level}"] = pack_i32(retrieved.levels[level])
    body = pack_sections(sections)
    header = step2_result_header_record(
        request_id, node, k, [len(r.queries) for r in results], levels,
        signatures.digest, len(body),
    )
    return encode(header) + body


def body_length(header: Mapping[str, object], limit: int) -> int:
    """The body length a header line declares (0 when it declares none).

    Refused above ``limit`` — the wire's line limit — so a reader checks
    it before it reads a single body byte.
    """
    length = header.get("bytes", 0)
    if type(length) is not int or length < 0:
        raise ValueError(f"'bytes' must be a non-negative integer, got {length!r}")
    if length > limit:
        raise ValueError(
            f"declared body of {length} bytes exceeds --max-line-bytes {limit}"
        )
    return length


def parse_step2_frame(header: Mapping[str, object], body: bytes,
                      k: int) -> List[npt.NDArray[Any]]:
    """A :func:`step2_frame` back as sorted k-mer columns, or ``ValueError``.

    The columns are ``uint64`` (``object`` past 32-base k-mers), the
    dtype a k-``k`` database's key column has.  The kernel bisects each
    column at shard edges, so an unsorted one would yield a silently
    wrong partial: it is refused here, once per request.
    """
    counts = _frame_counts(header, body, "step2", k)
    sections = _frame_sections(body, [f"q{i}" for i in range(len(counts))])
    return [
        _kmer_section(sections, f"q{i}", k, count)
        for i, count in enumerate(counts)
    ]


def parse_step2_result_frame(
    header: Mapping[str, object], body: bytes, k: int,
    signatures: SignatureTable,
) -> List[Tuple[npt.NDArray[Any], RetrievalResult]]:
    """A :func:`step2_result_frame` back as per-sample partials over the
    reader's ``signatures``, or ``ValueError``.

    The frame must name ``signatures`` by its digest: ids from another
    index build would decode into the wrong owner sets.  Each sample's
    intersecting k-mers come back as the parsed k-mer column (``uint64``;
    ``object`` past 32-base k-mers), which is also its
    ``RetrievalResult.queries``; its signature columns as ``int32`` views
    of ``body``, one id per query and each in ``[0, len(signatures))``.
    The k-mers must be strictly ascending — intersecting k-mers are
    distinct, and a repeated one would count its hits twice — so a
    malformed reply fails its scatter attempt instead of the gather.
    """
    counts = _frame_counts(header, body, "step2_result", k)
    if header.get("signatures") != signatures.digest:
        raise ValueError(
            f"frame answers from signature table {header.get('signatures')!r}; "
            f"this index's is {signatures.digest!r} (a different index build)"
        )
    levels = header.get("levels")
    if not isinstance(levels, list) or not all(
        type(level) is int for level in levels
    ):
        raise ValueError("step2_result 'levels' must be a list of integers")
    names: List[str] = []
    for i in range(len(counts)):
        names.append(f"q{i}")
        names += [f"s{i}/{level}" for level in levels]
    sections = _frame_sections(body, names)
    partials: List[Tuple[npt.NDArray[Any], RetrievalResult]] = []
    for i, count in enumerate(counts):
        queries = _kmer_section(sections, f"q{i}", k, count, strict=True)
        columns: Dict[int, npt.NDArray[np.int32]] = {}
        for level in levels:
            name = f"s{i}/{level}"
            ids = parse_i32(sections[name])
            if len(ids) != count:
                raise ValueError(
                    f"section {name!r} holds {len(ids)} signatures for "
                    f"{count} queries"
                )
            if bool(np.any(ids.view(np.uint32) >= len(signatures))):
                raise ValueError(
                    f"section {name!r} names a signature outside "
                    f"[0, {len(signatures)})"
                )
            columns[level] = ids
        partials.append((queries, RetrievalResult(
            queries=queries, levels=columns, signatures=signatures
        )))
    return partials


def _frame_counts(header: Mapping[str, object], body: bytes, op: str,
                  k: int) -> List[int]:
    """Check a Step-2 header against its body; its per-sample counts."""
    if header.get("op") != op:
        raise ValueError(f"expected a {op} frame, got op {header.get('op')!r}")
    if type(header.get("k")) is not int or header.get("k") != k:
        raise ValueError(
            f"frame k-mers have k={header.get('k')!r}; this index has k={k}"
        )
    if header.get("bytes") != len(body):
        raise ValueError(
            f"frame declares {header.get('bytes')!r} body bytes, got {len(body)}"
        )
    counts = header.get("counts")
    if not isinstance(counts, list) or not all(
        type(count) is int and count >= 0 for count in counts
    ):
        raise ValueError(f"{op} 'counts' must be a list of non-negative integers")
    return counts


def _frame_sections(body: bytes,
                    names: List[str]) -> Dict[str, npt.NDArray[np.uint8]]:
    """The body's sections, which must be exactly ``names`` in order."""
    sections = unpack_sections(body)
    if list(sections) != names:
        raise ValueError(
            f"frame section table {list(sections)[:6]} does not match its "
            f"header (expected {names[:6]})"
        )
    return sections


def _kmer_section(sections: Mapping[str, npt.NDArray[np.uint8]], name: str,
                  k: int, count: int, strict: bool = False) -> npt.NDArray[Any]:
    """One section of ``count`` sorted k-mer records, parsed.

    A record's width already bounds its k-mer to ``[0, 4^k)`` unless the
    padding bits below the ``2k`` key bits are set: those are refused.
    ``strict`` refuses equal neighbours too (distinct k-mers).
    """
    raw = sections[name]
    width = kmer_record_bytes(k)
    if len(raw) != count * width:
        raise ValueError(
            f"section {name!r} holds {len(raw)} bytes, not {count} k-mer "
            f"records of {width} bytes"
        )
    padding = width * 8 - 2 * k
    if padding and bool(np.any(raw[width - 1::width] & ((1 << padding) - 1))):
        raise ValueError(f"section {name!r}: k-mer records have padding bits set")
    column = parse_kmer_column(raw, k, count)
    out_of_order = column[1:] <= column[:-1] if strict else column[1:] < column[:-1]
    if bool(np.any(np.asarray(out_of_order, dtype=bool))):
        order = "sorted ascending and distinct" if strict else "sorted ascending"
        raise ValueError(f"section {name!r}: k-mers must be {order}")
    return column


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
#: router's node replies): one limit for the whole wire, on a header line
#: and on the body a Step-2 header declares.
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

    async def read_exact(self, n: int) -> bytes:
        """The next ``n`` raw bytes after the last frame — a Step-2
        frame's body — or fewer only at end of stream.  Bytes past them
        stay buffered for :meth:`next_frame`."""
        while len(self._buf) < n and not self._eof:
            chunk = await self._reader.read(max(65536, n - len(self._buf)))
            if chunk:
                self._buf.extend(chunk)
            else:
                self._eof = True
        body = bytes(self._buf[:n])
        del self._buf[:n]
        return body

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
    "body_length",
    "check_schema",
    "decode",
    "drain_record",
    "encode",
    "error_record",
    "parse_request_line",
    "parse_retrieval",
    "parse_step2_frame",
    "parse_step2_result",
    "parse_step2_result_frame",
    "ping_record",
    "pong_record",
    "request_record",
    "result_record",
    "retrieval_columns",
    "step2_frame",
    "step2_header_record",
    "step2_request_record",
    "step2_result_frame",
    "step2_result_header_record",
    "step2_result_record",
]
