"""Codec and cluster-leg probes: the ``wire.*`` functions timed directly.

The served workloads see the wire and the router↔node leg only as part
of a round trip.  These probes call the same public functions on the
very payloads the round trips carried and time each call, so the codec's
cost stands beside the compute it wraps.  All results are mean ms (or
bytes) per sample.
"""

from __future__ import annotations

import json
import time
from typing import Dict, List

from repro.backends import PhaseTimings
from repro.megis import wire
from repro.megis.service import RequestMetrics
from repro.megis.session import MegisResult
from repro.taxonomy.profiles import AbundanceProfile

from megis_ledger.oracle import Answer
from megis_ledger.tracing import mean


def _timed(function, *args):
    start = time.perf_counter()
    value = function(*args)
    return value, (time.perf_counter() - start) * 1e3


def client_wire(ops, oracle: Dict[str, Answer]) -> Dict[str, float]:
    """Request parse and result encode, per request of one round."""
    parse_ms, encode_ms, request_bytes, result_bytes = [], [], [], []
    for op in ops:
        frame = op.payload
        (request_id, reads, error), ms = _timed(
            wire.parse_request_line, frame[:-1], 1
        )
        if error is not None:
            raise ValueError(f"probe frame rejected: {error}")
        parse_ms.append(ms)
        request_bytes.append(len(frame))
        # The reference answer as the result object the gateway encodes;
        # zeroed request metrics keep the byte count exact.
        candidates, profile = oracle[op.keys[0]]
        result = MegisResult(
            candidates=set(candidates),
            profile=AbundanceProfile(
                {int(taxid): f for taxid, f in profile.items()}
            ),
        )
        line, ms = _timed(_encode_result, request_id, len(reads), result)
        encode_ms.append(ms)
        result_bytes.append(len(line))
    return {
        "wire.parse_request_ms": mean(parse_ms),
        "wire.encode_result_ms": mean(encode_ms),
        "wire.request_bytes": mean(request_bytes),
        "wire.result_bytes": mean(result_bytes),
    }


def cluster_leg(program, partitioner, samples) -> Dict[str, float]:
    """The router↔node leg, one sample per scatter, call by call.

    Encode the scatter frame, decode it once per node, run
    ``step_two_partial`` on each node's own session with the decoded
    queries, encode each node's gather frame and parse it back — each
    step timed — then ``ClusterStepTwo.scatter`` itself over the live
    nodes.  Decode is ``json.loads`` + ``wire.check_schema``; the node's
    inline list validation has no public function and is not counted.
    """
    columns: Dict[str, List[float]] = {
        name: [] for name in (
            "wire.step2_request_encode_ms", "wire.step2_request_decode_ms",
            "wire.step2_result_encode_ms", "wire.step2_result_parse_ms",
            "wire.step2_request_bytes", "wire.step2_result_bytes",
            "cluster.node_compute_ms", "cluster.scatter_ms",
        )
    }
    decoded_queries = []
    for sample in samples:
        query = partitioner.partition(sample.reads).merged_column()
        frame, ms = _timed(_encode_scatter, query)
        columns["wire.step2_request_encode_ms"].append(ms)
        columns["wire.step2_request_bytes"].append(len(frame))
        decode_ms = compute_ms = encode_ms = parse_ms = 0.0
        result_bytes = 0
        for node_id, session in enumerate(program.node_sessions):
            request, ms = _timed(_decode_frame, frame)
            decode_ms += ms
            partials, ms = _timed(session.step_two_partial, request["queries"])
            compute_ms += ms
            line, ms = _timed(_encode_gather, node_id, partials)
            encode_ms += ms
            result_bytes += len(line)
            _, ms = _timed(_parse_gather, line)
            parse_ms += ms
        decoded_queries.append(request["queries"][0])
        columns["wire.step2_request_decode_ms"].append(decode_ms)
        columns["cluster.node_compute_ms"].append(compute_ms)
        columns["wire.step2_result_encode_ms"].append(encode_ms)
        columns["wire.step2_result_parse_ms"].append(parse_ms)
        columns["wire.step2_result_bytes"].append(result_bytes)
        _, ms = _timed(program.step_two.scatter, [query])
        columns["cluster.scatter_ms"].append(ms)
    metrics = {name: mean(values) for name, values in columns.items()}
    metrics["cluster.codec_ms"] = sum(
        metrics[name] for name in (
            "wire.step2_request_encode_ms", "wire.step2_request_decode_ms",
            "wire.step2_result_encode_ms", "wire.step2_result_parse_ms",
        )
    )
    compute = metrics["cluster.node_compute_ms"]
    metrics["cluster.codec_to_compute_ratio"] = (
        metrics["cluster.codec_ms"] / compute if compute else 0.0
    )
    # Database stream passes one node makes for a 2-sample batch, per
    # shard it owns (the router coalesces at most 2 samples per scatter).
    node = program.node_sessions[0]
    timings = PhaseTimings()
    node.step_two_partial(decoded_queries[:2], timings=timings)
    metrics["cluster.node.db_stream_passes_per_batch"] = (
        timings.db_stream_passes / len(node.cluster_shards())
    )
    return metrics


def _encode_result(request_id, n_reads: int, result: MegisResult) -> bytes:
    return wire.encode(
        wire.result_record(request_id, n_reads, result, RequestMetrics())
    )


def _encode_scatter(query) -> bytes:
    return wire.encode(wire.step2_request_record(0, [query]))


def _encode_gather(node_id: int, partials) -> bytes:
    return wire.encode(wire.step2_result_record(0, node_id, partials))


def _parse_gather(line: bytes):
    return wire.parse_step2_result(_decode_frame(line))


def _decode_frame(frame: bytes) -> dict:
    record = json.loads(frame.decode("utf-8"))
    error = wire.check_schema(record)
    if error is not None:
        raise ValueError(error)
    return record
