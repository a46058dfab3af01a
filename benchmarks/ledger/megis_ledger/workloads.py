"""The five workloads: what each builds, what one round of it runs.

A workload owns its seeded inputs, brings the program up (timed as
``setup_s`` by the caller), and runs *rounds*: one pass over its fixed
operation list, identical work every time, in one or more *segments*.  Operations hold their raw
outcome; decoding and the oracle comparison happen after the round's
clock has stopped.  With a :class:`~megis_ledger.tracing.Recorder` a
round also records spans — for the in-process workloads by running the
public-call :class:`~megis_ledger.tracing.Chain` in place of
``analyze``, for the served ones at the client's socket.

Why each workload exists is in the README's workload table; the one-line
form is the ``why`` in ``BENCHMARK.json``.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import json
import os
import socket
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.backends.paced import PacedStepTwoBackend
from repro.megis.cluster import (
    ClusterAnalysisSession,
    ClusterMap,
    ClusterNode,
    ClusterRouter,
    ClusterStepTwo,
    NodeEndpoint,
)
from repro.megis.gateway import AnalysisGateway
from repro.megis.index import IndexBuilder, MegisIndex
from repro.megis.service import AnalysisService
from repro.megis.session import AnalysisSession, MegisConfig

from megis_ledger import inputs
from megis_ledger.inputs import Sample, WorldShape
from megis_ledger.oracle import Answer, answer_of_frame, answer_of_result
from megis_ledger.tracing import OP, Chain, Recorder

#: Seconds a blocking wait on the program may take before the operation
#: counts as failed (a hung server must not hang the benchmark).
OP_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class Op:
    """One operation: its payload and the oracle keys of its samples."""

    keys: Tuple[str, ...]
    #: Read tuples (in-process) or one pre-encoded request frame (served).
    payload: object
    size_class: str = "large"


@dataclass
class Outcome:
    """What one operation returned, decoded after the round ends."""

    op: Op
    latency_s: float
    #: Results, reply bytes, or the exception the operation raised.
    raw: object
    #: Decoded result frame (served workloads), kept for the trace.
    frame: Optional[dict] = None


@dataclass
class Program:
    """The program under test, up and warm."""

    index_path: str
    session: AnalysisSession
    #: Wall seconds of each set-up stage, by per-layer metric name.
    parts: Dict[str, float] = field(default_factory=dict)
    service: Optional[AnalysisService] = None
    completions: object = None
    gateway: Optional[AnalysisGateway] = None
    address: Optional[Tuple[str, int]] = None
    loops: List["LoopThread"] = field(default_factory=list)
    nodes: List[ClusterNode] = field(default_factory=list)
    node_sessions: List[AnalysisSession] = field(default_factory=list)
    step_two: Optional[ClusterStepTwo] = None
    #: Set by the traced pass, off the set-up clock.
    chain: Optional[Chain] = None


class LoopThread:
    """An asyncio event loop on its own thread, for one in-process server."""

    def __init__(self, name: str) -> None:
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(
            target=self.loop.run_forever, name=name, daemon=True
        )
        self.thread.start()

    def call(self, coroutine):
        """Run ``coroutine`` on the loop and wait for its result."""
        future = asyncio.run_coroutine_threadsafe(coroutine, self.loop)
        return future.result(OP_TIMEOUT_S)

    def close(self) -> None:
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(OP_TIMEOUT_S)
        self.loop.close()


@contextmanager
def _stopwatch(parts: Dict[str, float], name: str) -> Iterator[None]:
    """Adds the wall time of the ``with`` block to ``parts[name]``."""
    start = time.perf_counter()
    try:
        yield
    finally:
        parts[name] = parts.get(name, 0.0) + time.perf_counter() - start


class Workload:
    """Base: inputs from the seed, index lifecycle, the round loop."""

    name = ""
    #: World and sample sizes, full and toy (the smoke test's scale).
    full: dict = {}
    toy: dict = {}
    abundance_method = "mapping"
    with_abundance = True
    #: Shards the index is saved with (the cluster opens it sharded).
    n_shards = 1
    #: Samples per Step-2 stream when the work is replayed in-process.
    replay_batch = 1
    served = False
    #: True when a traced operation *is* the public-call chain (one
    #: caller, in-process); otherwise the chain runs as a separate replay.
    chain_is_op = False
    #: Operations per timed segment of a round; ``None`` times a round as
    #: one segment.  A segment should last a few tenths of a second: the
    #: host changes speed every second or so, and its speed is read only
    #: between segments.
    segment_ops: Optional[int] = None

    def __init__(self, seed: int, toy: bool = False) -> None:
        self.seed = seed
        self.size = self.toy if toy else self.full
        self.references = inputs.make_world(self.size["world"], seed)
        communities = inputs.make_communities(
            self.size["world"], self.references,
            self.size["communities"], seed,
        )
        self.base_samples = inputs.make_samples(
            self.references, communities, self.size["samples"],
            self.size["reads"], self.size["read_length"], seed, "s",
        )
        #: Every distinct sample an operation refers to, by oracle key.
        self.distinct: Dict[str, Sample] = {}
        self.ops: List[Op] = self.make_ops()

    # -- inputs ----------------------------------------------------------------

    def make_ops(self) -> List[Op]:
        raise NotImplementedError

    def _use(self, sample: Sample) -> Sample:
        self.distinct[sample.key] = sample
        return sample

    def backend(self):
        """The Step-2 backend the sessions are opened with."""
        return "numpy"

    def config(self) -> MegisConfig:
        return MegisConfig(abundance_method=self.abundance_method)

    def replay_batches(self) -> List[List[Sample]]:
        """The distinct samples grouped as the program batches them."""
        samples = list(self.distinct.values())
        width = self.replay_batch
        return [samples[i:i + width] for i in range(0, len(samples), width)]

    # -- program lifecycle -----------------------------------------------------

    def setup(self, workdir: str) -> Program:
        """Build, save, open, warm, start: everything ``setup_s`` covers."""
        parts: Dict[str, float] = {}
        path = os.path.join(workdir, f"{self.name}.megis")
        with _stopwatch(parts, "index.build_s"):
            built = IndexBuilder(k=20).build(self.references)
        with _stopwatch(parts, "index.save_s"):
            built.save(path, n_shards=self.n_shards)
        session = self.open_session(path, parts)
        program = Program(index_path=path, session=session, parts=parts)
        self.start(program)
        return program

    def open_session(self, path: str, parts: Dict[str, float],
                     **session_kwargs) -> AnalysisSession:
        """``MegisIndex.open(mmap=True)`` + a warmed session over it."""
        with _stopwatch(parts, "index.open_mmap_s"):
            index = MegisIndex.open(path, mmap=True)
        with _stopwatch(parts, "session.warm_s"):
            session = AnalysisSession(
                index, self.config(), backend=self.backend(), **session_kwargs
            )
            session.warm()
        return session

    def replay_session(self, path: str) -> AnalysisSession:
        """A fresh in-process session doing the program's Step 1/2/3 work
        (sharded like the program when the program is)."""
        sharding = {"n_ssds": self.n_shards} if self.n_shards > 1 else {}
        return self.open_session(path, {}, **sharding)

    def start(self, program: Program) -> None:
        """Start the servers (served workloads)."""

    def teardown(self, program: Program) -> None:
        program.session.close()

    # -- rounds ----------------------------------------------------------------

    def segments(self) -> List[Sequence[Op]]:
        """One round's operations, cut into the stretches the caller times
        (and reads the host's speed around) one at a time."""
        return _chunks(self.ops, self.segment_ops or len(self.ops))

    def run_segment(self, program: Program, ops: Sequence[Op],
                    recorder: Optional[Recorder] = None,
                    tag: str = "r0") -> List[Outcome]:
        """One caller, closed loop: each operation after the previous."""
        outcomes = []
        for i, op in enumerate(ops):
            start = time.perf_counter()
            try:
                raw = self.run_op(program, op, recorder, f"{tag}-{i}")
            except Exception as exc:  # the op failed; the round goes on
                raw = exc
            outcomes.append(Outcome(op, time.perf_counter() - start, raw))
        return outcomes

    def run_op(self, program: Program, op: Op, recorder: Optional[Recorder],
               op_id: str):
        raise NotImplementedError

    def answers(self, outcome: Outcome) -> List[Answer]:
        """Decode one outcome; raises if the operation failed."""
        if isinstance(outcome.raw, Exception):
            raise outcome.raw
        # The traced chain answers directly; ``analyze`` returns results.
        return [item if isinstance(item, tuple) else answer_of_result(item)
                for item in outcome.raw]


# -- in-process workloads ------------------------------------------------------

WORLD_A = WorldShape(n_genera=4, species_per_genus=3, genome_length=2000)
WORLD_A_TOY = WorldShape(n_genera=3, species_per_genus=2, genome_length=500)
SIZE_A = {"world": WORLD_A, "communities": 6, "samples": 12,
          "reads": 600, "read_length": 100}
SIZE_A_TOY = {"world": WORLD_A_TOY, "communities": 2, "samples": 4,
              "reads": 60, "read_length": 100}


class MapShort(Workload):
    """One caller, ``analyze`` with mapping Step 3 — Step 3 does the work."""

    name = "map_short"
    full, toy = SIZE_A, SIZE_A_TOY
    chain_is_op = True
    segment_ops = 3

    def make_ops(self) -> List[Op]:
        return [Op((s.key,), (self._use(s).reads,)) for s in self.base_samples]

    def run_op(self, program, op, recorder, op_id):
        if recorder is not None:
            return program.chain.run(op.payload, self.with_abundance,
                                     recorder, op_id)
        return [program.session.analyze(op.payload[0], self.with_abundance)]


class StatShortBatch(Workload):
    """``analyze_batch`` of 4 with statistical Step 3 — Step 1 does the
    work and ``tools.mapping`` never runs."""

    name = "stat_short_batch"
    full, toy = SIZE_A, SIZE_A_TOY
    abundance_method = "statistical"
    replay_batch = 4
    chain_is_op = True

    def make_ops(self) -> List[Op]:
        return [
            Op(tuple(s.key for s in batch),
               tuple(self._use(s).reads for s in batch))
            for batch in _chunks(self.base_samples, self.replay_batch)
        ]

    def run_op(self, program, op, recorder, op_id):
        if recorder is not None:
            return program.chain.run(op.payload, self.with_abundance,
                                     recorder, op_id)
        return program.session.analyze_batch(op.payload, self.with_abundance)


class BurstPaced(Workload):
    """Waves of 8 small samples into ``AnalysisService`` over the paced
    backend — the stream-bound regime, where batching sets throughput."""

    name = "burst_paced"
    full = dict(SIZE_A, burst_reads=50, burst_samples=32)
    toy = dict(SIZE_A_TOY, burst_reads=10, burst_samples=8)
    abundance_method = "statistical"
    replay_batch = 4
    wave = 8
    mb_per_s = 4.0

    def __init__(self, seed: int, toy: bool = False) -> None:
        # One instance: the service and the replay must pace the same way.
        self._backend = PacedStepTwoBackend("numpy", mb_per_s=self.mb_per_s)
        super().__init__(seed, toy)

    def backend(self):
        return self._backend

    def make_ops(self) -> List[Op]:
        n_base = len(self.base_samples)
        reads = self.size["burst_reads"]
        small = [
            self._use(inputs.slice_sample(
                self.base_samples[i % n_base], reads * (i // n_base), reads,
                f"b{i}",
            ))
            for i in range(self.size["burst_samples"])
        ]
        return [
            Op(tuple(s.key for s in wave), tuple(s.reads for s in wave))
            for wave in _chunks(small, self.wave)
        ]

    def start(self, program: Program) -> None:
        program.service = AnalysisService(
            program.session, workers=2, max_batch=self.replay_batch
        )
        program.completions = program.service.results()

    def teardown(self, program: Program) -> None:
        program.service.close()
        super().teardown(program)

    def run_op(self, program, op, recorder, op_id):
        start = time.perf_counter()
        futures = program.service.submit_batch(op.payload)
        submitted = time.perf_counter()
        concurrent.futures.wait(futures, timeout=OP_TIMEOUT_S)
        end = time.perf_counter()
        # Take this wave's entries off the completion stream so it does
        # not grow; they carry each request's queue wait.
        completed = [next(program.completions) for _ in futures]
        if recorder is not None:
            root = recorder.add(OP, start, end, None, op_id)
            recorder.add("service.submit", start, submitted, root, op_id)
            recorder.add("service.wait", submitted, end, root, op_id)
            for entry in completed:
                recorder.count("service.queue_wait_ms",
                               entry.metrics.queue_wait_ms)
        return [future.result(0) for future in futures]


# -- served workloads ----------------------------------------------------------


class Served(Workload):
    """Two closed-loop connections over localhost TCP.

    Each segment opens fresh connections (request ids are unique per
    connection, and the gateway rejects a repeated id) and sends each
    connection's pre-encoded frames one at a time, the next only after
    the previous reply's newline.
    """

    served = True
    connections = 2

    def _request(self, conn: int, i: int, sample: Sample,
                 size_class: str = "large") -> Op:
        self._use(sample)
        return Op((sample.key,),
                  inputs.request_frame(f"c{conn}-{i}", sample), size_class)

    def segments(self) -> List[Sequence[Op]]:
        """``segment_ops`` operations of every connection to a segment."""
        per = len(self.ops) // self.connections
        width = self.segment_ops or per
        return [
            [op for conn in range(self.connections)
             for op in self.ops[conn * per + i:conn * per + min(i + width, per)]]
            for i in range(0, per, width)
        ]

    def run_segment(self, program: Program, ops: Sequence[Op],
                    recorder: Optional[Recorder] = None,
                    tag: str = "r0") -> List[Outcome]:
        """``ops`` is every connection's share, one after the other."""
        per = len(ops) // self.connections
        per_connection = [ops[c * per:(c + 1) * per]
                          for c in range(self.connections)]
        results: List[List[Outcome]] = [[] for _ in per_connection]

        def drive(conn: int) -> None:
            results[conn] = _drive_connection(
                program.address, per_connection[conn], recorder,
                f"{tag}-c{conn}",
            )

        threads = [
            threading.Thread(target=drive, args=(conn,), name=f"client-{conn}")
            for conn in range(1, self.connections)
        ]
        for thread in threads:
            thread.start()
        drive(0)
        for thread in threads:
            thread.join()
        return [outcome for per in results for outcome in per]

    def answers(self, outcome: Outcome) -> List[Answer]:
        if isinstance(outcome.raw, Exception):
            raise outcome.raw
        outcome.frame = json.loads(outcome.raw)
        return [answer_of_frame(outcome.frame)]

    def start_gateway(self, program: Program, gateway: AnalysisGateway) -> None:
        loop = LoopThread(f"{self.name}-gateway")
        program.loops.append(loop)
        program.gateway = gateway
        program.address = loop.call(gateway.start())

    def restart(self, program: Program) -> None:
        """Drain and start again on the same warm session: a fresh
        ``AnalysisService``, so its stats cover what follows only."""
        loop = program.loops[-1]
        loop.call(program.gateway.drain())
        program.address = loop.call(program.gateway.start())

    def teardown(self, program: Program) -> None:
        program.loops[-1].call(program.gateway.drain())
        # Node loops were started before the gateway's (cluster only).
        for node, loop in zip(program.nodes, program.loops):
            loop.call(node.stop())
        for loop in reversed(program.loops):
            loop.close()
        for session in program.node_sessions:
            session.close()
        super().teardown(program)


def _drive_connection(address, ops: Sequence[Op],
                      recorder: Optional[Recorder],
                      prefix: str) -> List[Outcome]:
    """Send ``ops`` closed-loop on one connection; never raises."""
    outcomes: List[Outcome] = []
    try:
        sock = socket.create_connection(address, timeout=OP_TIMEOUT_S)
    except OSError as exc:
        return [Outcome(op, 0.0, exc) for op in ops]
    with sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        buffered = bytearray()
        for i, op in enumerate(ops):
            start = time.perf_counter()
            try:
                sock.sendall(op.payload)
                sent = time.perf_counter()
                first = None
                while b"\n" not in buffered:
                    chunk = sock.recv(1 << 16)
                    if not chunk:
                        raise ConnectionError("server closed the connection")
                    if first is None:
                        first = time.perf_counter()
                    buffered.extend(chunk)
                end = time.perf_counter()
            except OSError as exc:
                # The connection is gone: this and every later op failed.
                failed_at = time.perf_counter() - start
                outcomes.append(Outcome(op, failed_at, exc))
                outcomes.extend(Outcome(rest, 0.0, exc) for rest in ops[i + 1:])
                break
            newline = buffered.find(b"\n")
            outcome = Outcome(op, end - start, bytes(buffered[:newline]))
            del buffered[:newline + 1]
            if recorder is not None:
                op_id = f"{prefix}-{i}"
                first = first if first is not None else sent
                root = recorder.add(OP, start, end, None, op_id)
                recorder.add("client.send", start, sent, root, op_id)
                recorder.add("client.wait", sent, first, root, op_id)
                recorder.add("client.recv", first, end, root, op_id)
            outcomes.append(outcome)
    return outcomes


class GatewayMixed(Served):
    """Small and large mapping requests through wire → gateway → service."""

    name = "gateway_mixed"
    full = dict(SIZE_A, small_reads=40, small_per_large=4)
    toy = dict(SIZE_A_TOY, small_reads=10, small_per_large=4)
    segment_ops = 5  # s s L s s on each connection

    def make_ops(self) -> List[Op]:
        n_large = self.size["communities"]
        ratio = self.size["small_per_large"]
        reads = self.size["small_reads"]
        large = self.base_samples[:n_large]
        donors = self.base_samples[n_large:]
        small = [
            inputs.slice_sample(donors[j % len(donors)],
                                reads * (j // len(donors)), reads, f"m{j}")
            for j in range(n_large * ratio)
        ]
        # Per large request, `ratio` small ones around it: s s L s s.
        per = n_large // self.connections
        ops = []
        for conn in range(self.connections):
            i = 0
            for slot in range(per):
                which = conn * per + slot
                group = small[which * ratio:(which + 1) * ratio]
                half = ratio // 2
                for sample in group[:half]:
                    ops.append(self._request(conn, i, sample, "small"))
                    i += 1
                ops.append(self._request(conn, i, large[which]))
                i += 1
                for sample in group[half:]:
                    ops.append(self._request(conn, i, sample, "small"))
                    i += 1
        return ops

    def start(self, program: Program) -> None:
        self.start_gateway(program, AnalysisGateway(program.session, workers=2))


WORLD_B = WorldShape(n_genera=8, species_per_genus=4, genome_length=4000,
                     genera_per_community=3)
WORLD_B_TOY = WorldShape(n_genera=4, species_per_genus=2, genome_length=600)


class ClusterLong(Served):
    """Long reads, presence/absence only, through router → 2 nodes: the
    un-paced cluster floor, where the router↔node codec does the work."""

    name = "cluster_long"
    full = {"world": WORLD_B, "communities": 8, "samples": 8,
            "reads": 120, "read_length": 500}
    toy = {"world": WORLD_B_TOY, "communities": 2, "samples": 4,
           "reads": 12, "read_length": 200}
    with_abundance = False
    n_shards = 4
    n_nodes = 2

    def make_ops(self) -> List[Op]:
        per = len(self.base_samples) // self.connections
        return [
            self._request(conn, i, self.base_samples[conn * per + i])
            for conn in range(self.connections)
            for i in range(per)
        ]

    def start(self, program: Program) -> None:
        parts = program.parts
        cluster_map = ClusterMap.for_index(
            program.session.index, self.n_nodes, self.n_shards
        )
        endpoints = []
        for node_id in range(self.n_nodes):
            # Each node opens the index file itself, as `repro node` does.
            session = self.open_session(
                program.index_path, parts,
                n_ssds=self.n_shards, shard_range=cluster_map.group(node_id),
            )
            node = ClusterNode(session, node_id, cluster_map)
            loop = LoopThread(f"{self.name}-node{node_id}")
            program.loops.append(loop)
            program.nodes.append(node)
            program.node_sessions.append(session)
            endpoints.append(NodeEndpoint(node_id, loop.call(node.start())))
        program.step_two = ClusterStepTwo(cluster_map, endpoints)
        router = ClusterRouter(
            ClusterAnalysisSession(program.session, program.step_two),
            heartbeat_ms=None, workers=2, max_batch=2,
            with_abundance=self.with_abundance,
        )
        self.start_gateway(program, router)


def _chunks(items: Sequence, width: int) -> List[Sequence]:
    return [items[i:i + width] for i in range(0, len(items), width)]


WORKLOADS = {
    cls.name: cls
    for cls in (MapShort, StatShortBatch, GatewayMixed, ClusterLong,
                BurstPaced)
}
