"""Gateway behaviour: wire fidelity, QoS, failure paths, drain/resume.

Every test but ``TestHandedConnection`` drives a real asyncio TCP
connection against an :class:`~repro.megis.gateway.AnalysisGateway` over
the golden-fixture world, so the per-client framing, the
thread/event-loop bridge, and the socket lifecycle are all exercised for
real — no mocked transports.  ``TestHandedConnection`` hands the gateway
duck-typed stream ends directly, the way ``repro serve`` hands it
stdin/stdout.
The async scenarios run under ``asyncio.run`` with a hard timeout so a
regression hangs a test, not the suite.
"""

import asyncio
import json
import socket
import struct
import threading
import time
from pathlib import Path

import pytest

from repro.databases.sketch import SketchDatabase
from repro.databases.sorted_db import SortedKmerDatabase
from repro.megis.gateway import AnalysisGateway, TokenBucket
from repro.megis.index import MegisIndex
from repro.megis.session import AnalysisSession, MegisConfig
from repro.sequences.reads import Read
from repro.workloads.cami import CamiDiversity, make_cami_sample

GOLDEN = Path(__file__).parent / "data" / "golden_pipeline.json"

N_CHUNKS = 5
SCENARIO_TIMEOUT_S = 60


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def golden_world(golden):
    p = golden["params"]
    sample = make_cami_sample(
        CamiDiversity.MEDIUM,
        n_reads=p["n_reads"],
        n_genera=p["n_genera"],
        species_per_genus=p["species_per_genus"],
        genome_length=p["genome_length"],
        seed=p["seed"],
    )
    sorted_db = SortedKmerDatabase.build(sample.references, k=p["k"])
    sketch = SketchDatabase.build(
        sample.references,
        k_max=p["k"],
        smaller_ks=tuple(p["smaller_ks"]),
        sketch_fraction=p["sketch_fraction"],
    )
    return sample, MegisIndex(sorted_db, sketch, sample.references)


@pytest.fixture(scope="module")
def session(golden_world, golden):
    """One warmed session shared by every gateway in the module — each
    gateway start() builds its own AnalysisService on top."""
    p = golden["params"]
    _, index = golden_world
    session = AnalysisSession(
        index,
        MegisConfig(n_buckets=p["n_buckets"],
                    min_containment=p["min_containment"],
                    abundance_method="statistical"),
    )
    session.warm()
    return session


@pytest.fixture(scope="module")
def chunks(golden_world):
    sample, _ = golden_world
    size = len(sample.reads) // N_CHUNKS
    return [
        sample.reads[i * size:(i + 1) * size] for i in range(N_CHUNKS)
    ]


@pytest.fixture(scope="module")
def requests_wire(chunks):
    """The chunks as schema-1 request objects, ids c0..c4."""
    return [
        {"schema": 1, "id": f"c{i}", "reads": [r.sequence for r in chunk]}
        for i, chunk in enumerate(chunks)
    ]


@pytest.fixture(scope="module")
def serial_records(session, chunks):
    """What the wire's (candidates, profile) must be, per request id."""
    expected = {}
    for i, chunk in enumerate(chunks):
        result = session.analyze([
            Read(read_id=j, sequence=r.sequence, true_taxid=0)
            for j, r in enumerate(chunk)
        ])
        expected[f"c{i}"] = (
            sorted(int(t) for t in result.candidates),
            {str(t): f
             for t, f in sorted(result.profile.fractions.items())},
        )
    return expected


def run_scenario(coro):
    """asyncio.run with a hard timeout: a deadlock fails, never hangs."""
    async def bounded():
        return await asyncio.wait_for(coro, timeout=SCENARIO_TIMEOUT_S)
    return asyncio.run(bounded())


async def send_frames(writer, frames):
    for frame in frames:
        raw = frame if isinstance(frame, bytes) else (
            json.dumps(frame) + "\n"
        ).encode("utf-8")
        writer.write(raw)
        await writer.drain()


def _refuse_constant(name):
    raise AssertionError(f"reply frame holds {name}, which is not JSON")


async def read_all(reader):
    """Every record until EOF, each parsed as strict JSON."""
    records = []
    while True:
        line = await reader.readline()
        if not line:
            return records
        records.append(json.loads(line, parse_constant=_refuse_constant))


async def client_roundtrip(host, port, frames):
    """Send frames, half-close, collect every record until EOF."""
    reader, writer = await asyncio.open_connection(host, port)
    await send_frames(writer, frames)
    writer.write_eof()
    records = await read_all(reader)
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionError, OSError):
        pass
    return records


class ListReader:
    """A connection's read side holding pre-framed requests: one frame
    per ``read``, then EOF."""

    def __init__(self, frames):
        self.unread = [(json.dumps(f) + "\n").encode("utf-8") for f in frames]

    async def read(self, n):
        return self.unread.pop(0) if self.unread else b""


class ListWriter:
    """A connection's write side collecting records; with ``fail_after``
    the consumer goes away once that many were delivered."""

    def __init__(self, fail_after=None):
        self.records = []
        self.fail_after = fail_after
        self._pending = b""

    def write(self, data):
        self._pending += data

    async def drain(self):
        if self.fail_after is not None and len(self.records) >= self.fail_after:
            raise BrokenPipeError(32, "Broken pipe")
        self.records.extend(
            json.loads(line) for line in self._pending.splitlines()
        )
        self._pending = b""

    def close(self):
        pass

    async def wait_closed(self):
        pass


def assert_result_matches(record, serial_records):
    assert record["schema"] == 1
    expected = serial_records[record["id"]]
    assert (record["candidates"], record["profile"]) == expected, (
        "gateway result must be bit-identical to serial analyze"
    )


class TestTokenBucket:
    def test_burst_then_refill(self):
        clock = [0.0]
        bucket = TokenBucket(rate=2.0, burst=3, clock=lambda: clock[0])
        assert [bucket.try_acquire() for _ in range(4)] == [
            True, True, True, False
        ]
        assert bucket.retry_after_ms() == pytest.approx(500.0)
        clock[0] += 0.5  # one token refilled
        assert bucket.try_acquire()
        assert not bucket.try_acquire()

    def test_capacity_is_capped(self):
        clock = [0.0]
        bucket = TokenBucket(rate=10.0, burst=2, clock=lambda: clock[0])
        clock[0] += 100.0  # refill far past the burst
        assert [bucket.try_acquire() for _ in range(3)] == [
            True, True, False
        ]

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0, burst=1)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, burst=0.5)


class TestRoundtrip:
    def test_single_client_bit_identical(self, session, requests_wire,
                                         serial_records):
        gateway = AnalysisGateway(session, workers=2)

        async def scenario():
            async with gateway:
                host, port = gateway.bound_address
                return await client_roundtrip(host, port, requests_wire)

        records = run_scenario(scenario())
        assert {r["id"] for r in records} == {f"c{i}" for i in range(N_CHUNKS)}
        for record in records:
            assert_result_matches(record, serial_records)

    def test_four_concurrent_clients(self, session, requests_wire,
                                     serial_records):
        """>= 4 clients served concurrently, all bit-identical."""
        gateway = AnalysisGateway(session, workers=4)

        async def scenario():
            async with gateway:
                host, port = gateway.bound_address
                return await asyncio.gather(*(
                    client_roundtrip(host, port, requests_wire)
                    for _ in range(4)
                ))

        per_client = run_scenario(scenario())
        assert len(per_client) == 4
        for records in per_client:
            assert len(records) == N_CHUNKS
            for record in records:
                assert_result_matches(record, serial_records)
        assert gateway.stats.clients_connected == 4
        assert gateway.stats.requests_completed == 4 * N_CHUNKS


class TestHandedConnection:
    def test_open_serves_without_a_socket_then_start_resumes(
        self, session, requests_wire, serial_records
    ):
        """open() binds nothing yet serves a connection handed to it;
        start -> drain -> start afterwards still resumes over TCP."""
        gateway = AnalysisGateway(session, workers=2)

        async def scenario():
            await gateway.open()
            with pytest.raises(RuntimeError):
                _ = gateway.bound_address
            writer = ListWriter()
            delivered = await gateway.handle_connection(
                ListReader(requests_wire), writer
            )
            await gateway.drain()
            over_tcp = []
            for _ in range(2):
                host, port = await gateway.start()
                over_tcp.append(
                    await client_roundtrip(host, port, requests_wire)
                )
                await gateway.drain()
            return delivered, writer.records, over_tcp

        delivered, handed, over_tcp = run_scenario(scenario())
        assert delivered
        assert gateway.stats.drains == 3
        for records in (handed, *over_tcp):
            assert {r["id"] for r in records} == set(serial_records)
            for record in records:
                assert_result_matches(record, serial_records)

    def test_dead_consumer_stops_its_own_reader(self, session, requests_wire,
                                                monkeypatch):
        """A write side that fails after one record: the connection's
        pipelined requests stop being read and admitted (they used to be
        parsed and analysed for nobody), max_queue=1 backpressure does
        not deadlock the teardown, and the caller is told."""
        real_analyze = session.analyze_batch

        def slow_analyze(samples, with_abundance=True):
            time.sleep(0.05)  # completions, not parsing, pace the reader
            return real_analyze(samples, with_abundance)

        monkeypatch.setattr(session, "analyze_batch", slow_analyze)
        gateway = AnalysisGateway(session, workers=1, max_batch=1,
                                  max_queue=1)
        pipelined = requests_wire + [dict(requests_wire[0], id="c5")]
        reader = ListReader(pipelined)
        writer = ListWriter(fail_after=1)

        async def scenario():
            await gateway.open()
            try:
                return await gateway.handle_connection(reader, writer)
            finally:
                await gateway.drain()

        assert run_scenario(scenario()) is False
        assert len(writer.records) == 1
        assert reader.unread, "a dead consumer's requests must stay unread"
        assert gateway.stats.requests_admitted < len(pipelined)
        # Conservation: what was admitted still finished (and was dropped).
        assert (gateway.stats.requests_completed
                + gateway.stats.requests_failed
                ) == gateway.stats.requests_admitted
        assert gateway.stats.results_dropped >= 1


class TestStrictOrder:
    def test_frames_come_back_in_submission_order(self, session, chunks):
        """strict_order reaches the service's completion stream: with two
        workers and no batching the small requests finish first, yet the
        large one submitted ahead of them is still emitted first."""
        gateway = AnalysisGateway(session, workers=2, max_batch=1,
                                  strict_order=True)
        everything = [r.sequence for chunk in chunks for r in chunk]
        frames = [{"schema": 1, "id": "large", "reads": everything}] + [
            {"schema": 1, "id": f"small{i}", "reads": everything[i:i + 2]}
            for i in range(6)
        ]

        async def scenario():
            async with gateway:
                host, port = gateway.bound_address
                return await client_roundtrip(host, port, frames)

        records = run_scenario(scenario())
        assert all("candidates" in r for r in records)
        assert [r["id"] for r in records] == [f["id"] for f in frames]


class TestMalformedFrames:
    def test_errors_do_not_stop_the_stream(self, session, requests_wire,
                                           serial_records):
        gateway = AnalysisGateway(session, workers=1, max_line_bytes=16384)
        huge = b'{"id": "big", "reads": ["' + b"A" * 32768 + b'"]}\n'
        frames = [
            b"this is not json\n",
            {"schema": 1, "note": "no reads key"},
            requests_wire[0],
            dict(requests_wire[1], id="c0"),  # duplicate id
            huge,
            {"id": "unversioned", "reads": []},  # schema is mandatory
            dict(requests_wire[1], schema=2),  # wrong version
            requests_wire[1],
        ]

        async def scenario():
            async with gateway:
                host, port = gateway.bound_address
                return await client_roundtrip(host, port, frames)

        records = run_scenario(scenario())
        errors = [r for r in records if "error" in r]
        results = [r for r in records if "candidates" in r]
        assert len(errors) == 6
        assert all(r["schema"] == 1 and "line" in r for r in errors)
        assert any("bad JSON" in r["error"] for r in errors)
        assert any("'reads'" in r["error"] for r in errors)
        assert any("duplicate id" in r["error"] for r in errors)
        assert any("line too long" in r["error"] for r in errors)
        assert any("missing 'schema'" in r["error"] for r in errors)
        assert any("unsupported schema 2" in r["error"] for r in errors)
        assert {r["id"] for r in results} == {"c0", "c1"}
        for record in results:
            assert_result_matches(record, serial_records)
        assert gateway.stats.malformed == 6

    def test_non_finite_ids_are_bad_json(self, session, requests_wire,
                                         serial_records):
        """An id of NaN / Infinity / -Infinity is a ``bad JSON`` rejection,
        never echoed into a reply frame strict parsers reject."""
        gateway = AnalysisGateway(session, workers=1)
        frames = [
            f'{{"schema": 1, "id": {constant}, "reads": ["ACGT"]}}\n'.encode()
            for constant in ("NaN", "Infinity", "-Infinity")
        ] + [requests_wire[0]]

        async def scenario():
            async with gateway:
                host, port = gateway.bound_address
                return await client_roundtrip(host, port, frames)

        records = run_scenario(scenario())
        errors = [r for r in records if "error" in r]
        assert [r["id"] for r in errors] == [1, 2, 3]
        assert all(r["error"].startswith("bad JSON (") for r in errors)
        [result] = [r for r in records if "candidates" in r]
        assert_result_matches(result, serial_records)
        assert gateway.stats.malformed == 3

    def test_one_bad_client_does_not_affect_another(self, session,
                                                    requests_wire,
                                                    serial_records):
        gateway = AnalysisGateway(session, workers=2)

        async def scenario():
            async with gateway:
                host, port = gateway.bound_address
                return await asyncio.gather(
                    client_roundtrip(host, port, [b"garbage\n"] * 3),
                    client_roundtrip(host, port, requests_wire[:2]),
                )

        bad, good = run_scenario(scenario())
        assert len(bad) == 3 and all("error" in r for r in bad)
        assert {r["id"] for r in good} == {"c0", "c1"}
        for record in good:
            assert_result_matches(record, serial_records)


class TestRateLimiting:
    def test_over_limit_requests_get_structured_rejections(
        self, session, requests_wire, serial_records
    ):
        # Refill is ~0 within the test, so exactly burst=2 are admitted.
        gateway = AnalysisGateway(session, workers=1, rate_limit=0.001,
                                  rate_burst=2)

        async def scenario():
            async with gateway:
                host, port = gateway.bound_address
                return await client_roundtrip(host, port, requests_wire)

        records = run_scenario(scenario())
        limited = [r for r in records if "error" in r]
        served = [r for r in records if "candidates" in r]
        assert len(served) == 2
        assert len(limited) == N_CHUNKS - 2
        for record in limited:
            assert "rate_limited" in record["error"]
            assert "retry_after_ms=" in record["error"]
        for record in served:
            assert_result_matches(record, serial_records)
        assert gateway.stats.rate_limited == N_CHUNKS - 2

    def test_buckets_are_per_client(self, session, requests_wire):
        """One client's exhausted bucket never throttles another."""
        gateway = AnalysisGateway(session, workers=2, rate_limit=0.001,
                                  rate_burst=N_CHUNKS)

        async def scenario():
            async with gateway:
                host, port = gateway.bound_address
                return await asyncio.gather(*(
                    client_roundtrip(host, port, requests_wire)
                    for _ in range(2)
                ))

        per_client = run_scenario(scenario())
        for records in per_client:
            assert sum(1 for r in records if "candidates" in r) == N_CHUNKS
        assert gateway.stats.rate_limited == 0


class TestFairness:
    def test_flooding_client_cannot_starve_others(self, session,
                                                  requests_wire,
                                                  serial_records):
        """A rate-limited flooder collects rejections; the fair clients
        complete every request (the ISSUE's fairness acceptance)."""
        gateway = AnalysisGateway(session, workers=2, rate_limit=0.001,
                                  rate_burst=2)
        flood = [dict(requests_wire[i % 2], id=f"f{i}") for i in range(12)]

        async def scenario():
            async with gateway:
                host, port = gateway.bound_address
                return await asyncio.gather(
                    client_roundtrip(host, port, flood),
                    client_roundtrip(host, port, requests_wire[:2]),
                    client_roundtrip(host, port, requests_wire[2:4]),
                )

        flooder, fair_a, fair_b = run_scenario(scenario())
        assert sum(1 for r in flooder if "error" in r) == 10
        assert sum(1 for r in flooder if "candidates" in r) == 2
        for records, expected_ids in ((fair_a, {"c0", "c1"}),
                                      (fair_b, {"c2", "c3"})):
            served = [r for r in records if "candidates" in r]
            assert {r["id"] for r in served} == expected_ids
            for record in served:
                assert_result_matches(record, serial_records)


class TestAdmission:
    def _gated_session(self, session, monkeypatch):
        """Block analyze until ``gate`` is set (single worker held busy)."""
        started, gate = threading.Event(), threading.Event()
        real_analyze = session.analyze_batch

        def gated_analyze(samples, with_abundance=True):
            started.set()
            assert gate.wait(timeout=30)
            return real_analyze(samples, with_abundance)

        monkeypatch.setattr(session, "analyze_batch", gated_analyze)
        return started, gate

    def test_admission_full_is_an_error_frame(self, session, requests_wire,
                                              monkeypatch):
        """A full --max-queue yields admission_full frames, and the
        connection keeps streaming the accepted results."""
        started, gate = self._gated_session(session, monkeypatch)
        gateway = AnalysisGateway(session, workers=1, max_queue=1,
                                  admission_timeout_ms=0)

        async def scenario():
            async with gateway:
                host, port = gateway.bound_address
                reader, writer = await asyncio.open_connection(host, port)
                await send_frames(writer, [requests_wire[0]])
                # Worker claims c0 and blocks on the gate.
                await asyncio.get_running_loop().run_in_executor(
                    None, started.wait, 10
                )
                # c1 fills the queue; c2 and c3 find it full.
                await send_frames(writer, requests_wire[1:4])
                writer.write_eof()
                await asyncio.sleep(0.3)  # let the rejections land
                gate.set()
                records = await read_all(reader)
                writer.close()
                return records

        records = run_scenario(scenario())
        rejected = [r for r in records if "error" in r]
        served = [r for r in records if "candidates" in r]
        assert len(rejected) == 2
        assert all("admission_full" in r["error"] for r in rejected)
        assert {r["id"] for r in served} == {"c0", "c1"}
        assert gateway.stats.admission_rejected == 2

    def test_counters_are_exact_under_contention(self, session, chunks):
        """8 connections x 50 lines into a one-slot queue: every line is
        counted exactly once — admitted, rejected, malformed or rate
        limited — and each drain frame's counts sum to the gateway's.
        (All of it is loop-thread accounting: the submit pool only
        reports an outcome.)"""
        n_clients, n_lines = 8, 50
        gateway = AnalysisGateway(session, workers=2, max_queue=1,
                                  admission_timeout_ms=0,
                                  rate_limit=0.001, rate_burst=40)
        reads = [r.sequence for r in chunks[0][:4]]

        def frames(client):
            return [
                b"{not json\n" if i % 10 == 9 else
                {"schema": 1, "id": f"k{client}-{i}", "reads": reads}
                for i in range(n_lines)
            ]

        async def client(index):
            host, port = gateway.bound_address
            reader, writer = await asyncio.open_connection(host, port)
            await send_frames(writer, frames(index))
            # No EOF: one answer per line, then wait for the drain frame.
            answers = [json.loads(await reader.readline())
                       for _ in range(n_lines)]
            return reader, writer, answers

        async def scenario():
            await gateway.start()
            connections = await asyncio.gather(
                *(client(i) for i in range(n_clients))
            )
            await gateway.drain()
            tails = []
            for reader, writer, _ in connections:
                tails.append(await read_all(reader))
                writer.close()
            return [answers for _, _, answers in connections], tails

        answers, tails = run_scenario(scenario())
        stats = gateway.stats
        # Per client: 5 junk lines, and 45 well-formed ones against a
        # 40-token bucket that does not refill within the test.
        assert stats.malformed == n_clients * 5
        assert stats.rate_limited == n_clients * 5
        assert (stats.requests_admitted + stats.admission_rejected
                + stats.malformed + stats.rate_limited) == n_clients * n_lines
        assert stats.requests_completed + stats.requests_failed \
            == stats.requests_admitted
        assert stats.results_dropped == 0
        drains = [tail[-1] for tail in tails]
        assert all(tail[-1].get("event") == "drain" and len(tail) == 1
                   for tail in tails)
        for ours, total in (
            ("submitted", stats.requests_admitted),
            ("rejected", stats.admission_rejected),
            ("malformed", stats.malformed),
            ("rate_limited", stats.rate_limited),
            ("completed", stats.requests_completed),
            ("failed", stats.requests_failed),
        ):
            assert sum(frame[ours] for frame in drains) == total, ours
        for frame, got in zip(drains, answers):
            assert frame["submitted"] == frame["completed"] + frame["failed"]
            assert frame["submitted"] == sum("candidates" in r for r in got)
            assert frame["rejected"] == sum(
                "admission_full" in r.get("error", "") for r in got)
        assert stats.admission_rejected > 0 and stats.requests_admitted > 0

    def test_submission_caught_by_drain_is_still_counted(
        self, session, requests_wire, monkeypatch
    ):
        """Drain cancels a reader whose submission is blocked on a full
        queue in the submit pool; that submission still lands in the
        service, so it is still counted and answered."""
        started, gate = self._gated_session(session, monkeypatch)
        gateway = AnalysisGateway(session, workers=1, max_batch=1,
                                  max_queue=1)

        async def scenario():
            loop = asyncio.get_running_loop()
            host, port = await gateway.start()
            reader, writer = await asyncio.open_connection(host, port)
            await send_frames(writer, [requests_wire[0]])
            await loop.run_in_executor(None, started.wait, 10)
            # c1 fills the queue; c2's submission blocks behind it.
            await send_frames(writer, requests_wire[1:3])
            await asyncio.sleep(0.3)
            loop.call_later(0.3, gate.set)
            await gateway.drain()
            records = await read_all(reader)
            writer.close()
            return records

        records = run_scenario(scenario())
        assert {r["id"] for r in records if "candidates" in r} \
            == {"c0", "c1", "c2"}
        assert records[-1]["event"] == "drain"
        assert records[-1]["submitted"] == records[-1]["completed"] == 3
        assert gateway.stats.requests_admitted == 3

    def test_max_clients_refused_with_error_frame(self, session,
                                                  requests_wire):
        started_first = asyncio.Event()

        async def scenario():
            gateway = AnalysisGateway(session, workers=1, max_clients=1)
            async with gateway:
                host, port = gateway.bound_address

                async def holder():
                    reader, writer = await asyncio.open_connection(host, port)
                    await send_frames(writer, requests_wire[:1])
                    started_first.set()
                    await asyncio.sleep(0.3)
                    writer.write_eof()
                    records = await read_all(reader)
                    writer.close()
                    return records

                async def refused():
                    await started_first.wait()
                    reader, writer = await asyncio.open_connection(host, port)
                    records = await read_all(reader)
                    writer.close()
                    return records

                held, turned_away = await asyncio.gather(holder(), refused())
            return held, turned_away, gateway.stats

        held, turned_away, stats = run_scenario(scenario())
        assert any("candidates" in r for r in held)
        assert len(turned_away) == 1
        assert "too many clients" in turned_away[0]["error"]
        assert stats.clients_rejected == 1


class TestDisconnect:
    def test_client_disconnect_mid_request(self, session, requests_wire,
                                           monkeypatch):
        """A client that vanishes with work in flight: in-flight work
        still completes, undeliverable results are dropped (counted), the
        gateway keeps serving other clients, and drain does not hang."""
        # Per-call gates so the test controls exactly when c0 and c1
        # finish relative to the client's disappearance.
        started = [threading.Event(), threading.Event()]
        gates = [threading.Event(), threading.Event()]
        calls = []
        real_analyze = session.analyze_batch

        def gated_analyze(samples, with_abundance=True):
            i = len(calls)
            calls.append(i)
            if i < len(gates):
                started[i].set()
                assert gates[i].wait(timeout=30)
            return real_analyze(samples, with_abundance)

        monkeypatch.setattr(session, "analyze_batch", gated_analyze)
        gateway = AnalysisGateway(session, workers=1, max_batch=1)

        async def scenario():
            loop = asyncio.get_running_loop()
            async with gateway:
                host, port = gateway.bound_address
                reader, writer = await asyncio.open_connection(host, port)
                await send_frames(writer, requests_wire[:2])
                await loop.run_in_executor(None, started[0].wait, 10)
                # Vanish with c0 in service and c1 queued.  SO_LINGER(0)
                # makes the close a genuine RST — a plain close() is an
                # orderly FIN, indistinguishable from a graceful
                # half-close the gateway is supposed to serve out.
                sock = writer.get_extra_info("socket")
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                                struct.pack("ii", 1, 0))
                writer.transport.abort()
                await asyncio.sleep(0.2)
                # c0 completes; its write hits the reset socket and the
                # gateway marks the client gone.
                gates[0].set()
                await loop.run_in_executor(None, started[1].wait, 10)
                await asyncio.sleep(0.3)
                # c1 completes against an already-dead client: dropped.
                gates[1].set()
                # A fresh client must still be served.
                survivor = await client_roundtrip(
                    host, port, requests_wire[2:3]
                )
            return survivor

        survivor = run_scenario(scenario())
        assert any("candidates" in r for r in survivor)
        assert gateway.stats.results_dropped >= 1
        # Nothing was lost silently: every admitted request is accounted
        # for as completed (delivered or dropped) once drain returns.
        assert gateway.stats.requests_admitted == 3
        assert (gateway.stats.requests_completed
                + gateway.stats.requests_failed) == 3


class TestDrainResume:
    def test_drain_finishes_accepted_requests_and_summarizes(
        self, session, requests_wire, serial_records
    ):
        """Drain with a persistent (non-EOF) client: zero accepted
        requests lost, one drain summary frame, then EOF."""
        gateway = AnalysisGateway(session, workers=2)

        async def scenario():
            host, port = await gateway.start()
            reader, writer = await asyncio.open_connection(host, port)
            await send_frames(writer, requests_wire)
            records = []
            while sum(1 for r in records if "candidates" in r) < N_CHUNKS:
                records.append(json.loads(await reader.readline()))
            # The client never EOFs — drain must still close it cleanly.
            await gateway.drain()
            records.extend(await read_all(reader))
            writer.close()
            return records

        records = run_scenario(scenario())
        results = [r for r in records if "candidates" in r]
        drains = [r for r in records if r.get("event") == "drain"]
        assert len(results) == N_CHUNKS, "drain must lose zero requests"
        for record in results:
            assert_result_matches(record, serial_records)
        assert len(drains) == 1
        assert drains[0]["submitted"] == N_CHUNKS
        assert drains[0]["completed"] == N_CHUNKS
        assert drains[0]["schema"] == 1

    def test_drained_gateway_resumes_on_same_session(self, session,
                                                     requests_wire,
                                                     serial_records):
        """start -> serve -> drain -> start again: the second period's
        results stay bit-identical on the same warmed session."""
        gateway = AnalysisGateway(session, workers=2)

        async def one_period():
            async with gateway:
                host, port = gateway.bound_address
                return await client_roundtrip(host, port, requests_wire)

        first = run_scenario(one_period())
        assert gateway.stats.drains == 1
        second = run_scenario(one_period())
        assert gateway.stats.drains == 2
        for records in (first, second):
            served = [r for r in records if "candidates" in r]
            assert len(served) == N_CHUNKS
            for record in served:
                assert_result_matches(record, serial_records)

    def test_request_racing_drain_gets_structured_frame(self, session,
                                                        requests_wire):
        """A request read in the instant drain tears down the submit pool
        must come back as a structured draining frame, not a bare reset
        (dispatching onto the shut-down pool raises RuntimeError, which
        used to kill the reader task silently)."""
        gateway = AnalysisGateway(session, workers=1)

        async def scenario():
            async with gateway:
                host, port = gateway.bound_address
                reader, writer = await asyncio.open_connection(host, port)
                # Freeze the exact race: the pool is already shut down
                # (as drain does first) while the reader is still alive.
                pool = gateway._submit_pool
                await asyncio.get_running_loop().run_in_executor(
                    None, lambda: pool.shutdown(wait=True)
                )
                await send_frames(writer, requests_wire[:1])
                writer.write_eof()
                records = await read_all(reader)
                writer.close()
                return records

        records = run_scenario(scenario())
        assert len(records) == 1
        assert records[0]["schema"] == 1
        assert records[0]["id"] == "c0"
        assert "gateway is draining" in records[0]["error"]
        assert gateway.stats.admission_rejected == 1

    def test_drain_is_idempotent_and_start_after_drain(self, session):
        gateway = AnalysisGateway(session, workers=1)

        async def scenario():
            await gateway.drain()  # never started: a no-op
            await gateway.start()
            await gateway.drain()
            await gateway.drain()  # double drain: a no-op
            with pytest.raises(RuntimeError):
                _ = gateway.bound_address

        run_scenario(scenario())
        assert gateway.stats.drains == 1
