"""Concurrency determinism suite for the serving API (tentpole lock).

``AnalysisService`` workers share one session; the executor layer runs
Step-2 bucket/shard tasks on threads.  None of that may change a single
bit of output: every test here compares concurrent serving against the
strictly serial path on the golden-fixture world — both backends, both
abundance methods — and checks that the lock-protected Step-3 cache
counters stay accurate under concurrent submits.
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path

import pytest

from repro.databases.sketch import SketchDatabase
from repro.databases.sorted_db import SortedKmerDatabase
from repro.megis.index import MegisIndex
from repro.megis.service import (
    AdmissionFull,
    AnalysisService,
    DeadlineExceeded,
)
from repro.megis.session import AnalysisSession, MegisConfig
from repro.workloads.cami import CamiDiversity, make_cami_sample

GOLDEN = Path(__file__).parent / "data" / "golden_pipeline.json"

N_CHUNKS = 5


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


def _golden_config(golden, **overrides) -> MegisConfig:
    p = golden["params"]
    defaults = dict(
        n_buckets=p["n_buckets"], min_containment=p["min_containment"]
    )
    defaults.update(overrides)
    return MegisConfig(**defaults)


def _chunks(reads):
    size = len(reads) // N_CHUNKS
    return [reads[i * size:(i + 1) * size] for i in range(N_CHUNKS)]


def _signature(result):
    return (
        result.intersecting_kmers,
        result.sketch_hits,
        sorted(result.candidates),
        sorted(result.profile.fractions.items()),
    )


#: The marked sample: a batch holding it raises in :class:`_StubSession`.
_POISON = ["poison"]


class _StubSession:
    """The session surface the service drives, and nothing else: each
    sample's result is ``("ok", sample)``, a batch holding
    :data:`_POISON` raises :attr:`error` once :attr:`gate` is set."""

    def __init__(self):
        self.gate = threading.Event()
        self.gate.set()
        self.error = RuntimeError("poisoned batch")

    def warm(self):
        return self

    def analyze_batch(self, samples, with_abundance=True):
        if any(reads is _POISON for reads in samples):
            assert self.gate.wait(timeout=30)
            raise self.error
        return [("ok", reads) for reads in samples]


class TestConcurrentDeterminism:
    @pytest.mark.parametrize("backend", ["python", "numpy"])
    @pytest.mark.parametrize("method", ["mapping", "statistical"])
    def test_service_bit_identical_to_serial(self, golden_world, golden,
                                             backend, method):
        """4 workers + ThreadedExecutor sharded Step 2 == the serial path."""
        sample, index = golden_world
        chunks = _chunks(sample.reads)
        serial_session = AnalysisSession(
            index, _golden_config(golden, backend=backend,
                                  abundance_method=method),
        )
        expected = [_signature(serial_session.analyze(c)) for c in chunks]
        assert any(sig[2] for sig in expected), "chunks must call candidates"

        concurrent_session = AnalysisSession(
            index, _golden_config(golden, backend=backend,
                                  abundance_method=method, n_ssds=3,
                                  executor="threads:4"),
        )
        with AnalysisService(concurrent_session, workers=4) as service:
            futures = service.submit_batch(chunks)
            got = [_signature(future.result()) for future in futures]
        assert got == expected

    @pytest.mark.parametrize("method", ["mapping", "statistical"])
    def test_service_reproduces_golden_numbers(self, golden_world, golden,
                                               method):
        """The whole golden sample served concurrently hits the fixture."""
        sample, index = golden_world
        session = AnalysisSession(
            index, _golden_config(golden, backend="numpy",
                                  abundance_method=method, n_ssds=3,
                                  executor="threads:4"),
        )
        with AnalysisService(session, workers=4) as service:
            result = service.submit(sample.reads).result()
        expected = golden["expected"][method]
        assert len(result.intersecting_kmers) == expected["n_intersecting"]
        assert sum(result.intersecting_kmers) == expected["intersecting_sum"]
        assert sorted(result.candidates) == expected["candidates"]
        got_profile = {str(t): f for t, f in result.profile.fractions.items()}
        assert set(got_profile) == set(expected["profile"])
        for taxid, fraction in expected["profile"].items():
            assert got_profile[taxid] == pytest.approx(
                fraction, rel=1e-12, abs=1e-15
            )

    def test_interleaved_submits_preserve_order(self, golden_world, golden):
        """Futures resolve to their own sample however batches coalesce."""
        sample, index = golden_world
        chunks = _chunks(sample.reads)
        serial_session = AnalysisSession(
            index, _golden_config(golden, backend="numpy",
                                  abundance_method="statistical"),
        )
        expected = [_signature(serial_session.analyze(c)) for c in chunks]
        session = AnalysisSession(
            index, _golden_config(golden, backend="numpy",
                                  abundance_method="statistical"),
        )
        with AnalysisService(session, workers=3, max_batch=2) as service:
            futures = [service.submit(c) for c in chunks * 3]
            got = [_signature(future.result()) for future in futures]
        assert got == expected * 3


class TestCacheCountersUnderContention:
    def test_unified_cache_counters_account_for_every_lookup(
        self, sample, sorted_db, sketch_db
    ):
        """hits + misses == submitted samples, exactly, under 4 workers."""
        index = MegisIndex(sorted_db, sketch_db, sample.references)
        chunks = _chunks(sample.reads)[:2]
        session = AnalysisSession(
            index, MegisConfig(backend="numpy", abundance_method="mapping"),
        )
        with AnalysisService(session, workers=4) as service:
            futures = service.submit_batch(chunks * 4)
            results = [future.result() for future in futures]
        with_candidates = sum(1 for r in results if r.candidates)
        assert with_candidates == 8, "every chunk must map candidates"
        unified = session.cache_stats["unified"]
        assert unified.lookups == 8
        distinct = len({frozenset(r.candidates) for r in results})
        assert unified.misses >= distinct
        assert unified.hits == 8 - unified.misses
        species = session.cache_stats["species"]
        all_species = {t for r in results for t in r.candidates}
        assert species.misses >= len(all_species)
        # The cache holds one canonical entry per distinct candidate set,
        # however many threads raced to build it.
        assert len(session._unified_cache) == distinct

    def test_serial_counters_are_exact(self, sample, sorted_db, sketch_db):
        index = MegisIndex(sorted_db, sketch_db, sample.references)
        chunks = _chunks(sample.reads)[:2]
        session = AnalysisSession(
            index, MegisConfig(backend="numpy", abundance_method="mapping"),
        )
        with AnalysisService(session, workers=1, max_batch=1) as service:
            results = [f.result() for f in service.submit_batch(chunks * 3)]
        distinct = len({frozenset(r.candidates) for r in results})
        unified = session.cache_stats["unified"]
        assert unified.lookups == 6
        assert unified.misses == distinct
        assert unified.hits == 6 - distinct


class TestServiceLifecycle:
    def test_submit_after_close_raises(self, golden_world, golden):
        sample, index = golden_world
        session = AnalysisSession(
            index, _golden_config(golden, abundance_method="statistical")
        )
        service = AnalysisService(session, workers=2)
        service.close()
        with pytest.raises(RuntimeError):
            service.submit(sample.reads[:5])

    def test_failures_propagate_per_future(self, golden_world, golden):
        """A failing sample rejects its future; drain() still returns."""
        sample, index = golden_world
        no_refs = MegisIndex(index.database, index.sketch, references=None)
        session = AnalysisSession(
            no_refs, _golden_config(golden, abundance_method="mapping")
        )
        with AnalysisService(session, workers=2) as service:
            future = service.submit(sample.reads[:40])
            service.drain()
            with pytest.raises(ValueError, match="no reference sequences"):
                future.result()
        assert service.stats.samples_completed == 1

    def test_failed_batch_fails_only_its_futures(self):
        """When a batch raises, exactly that batch's futures carry the
        exception on the completion stream; samples queued behind it
        still complete, and drain() returns."""
        session = _StubSession()
        session.gate.clear()
        with AnalysisService(session, workers=1, max_batch=2) as service:
            # One locked run: the idle worker claims both as one batch.
            failed = service.submit_batch([["a"], _POISON])
            # The one worker is held inside that batch: b and c queue
            # behind it.
            queued = [service.submit(["b"]), service.submit(["c"])]
            session.gate.set()
            drained = threading.Event()
            threading.Thread(
                target=lambda: (service.drain(), drained.set()), daemon=True
            ).start()
            assert drained.wait(timeout=30)
            service.close_submissions()
            emitted = list(service.results())
        assert len(emitted) == 4
        for future in failed:
            with pytest.raises(RuntimeError) as raised:
                future.result()
            assert raised.value is session.error
        assert [f.result() for f in queued] == [("ok", ["b"]), ("ok", ["c"])]
        by_future = {id(entry.future): entry for entry in emitted}
        assert [by_future[id(f)].metrics.batch_size for f in failed] == [2, 2]
        stats = service.stats
        assert stats.samples_submitted == stats.samples_completed == 4

    def test_scope_wraps_a_service_batch(self, golden_world, golden):
        """A session carries no SSD, so the service serves any session;
        a caller who wants the device side wraps the served batch in one
        §4.6 command scope, which changes no result."""
        from repro.megis.commands import CommandProcessor, SsdMode
        from repro.ssd.config import ssd_c
        from repro.ssd.device import SSD

        sample, index = golden_world
        config = _golden_config(golden, abundance_method="statistical")
        chunks = _chunks(sample.reads)
        expected = [
            _signature(r)
            for r in AnalysisSession(index, config).analyze_batch(chunks)
        ]
        processor = CommandProcessor(SSD(ssd_c()))
        with AnalysisService(AnalysisSession(index, config), workers=2) as svc:
            with processor.analysis(index):
                futures = svc.submit_batch(chunks)
                svc.drain()
        assert [_signature(f.result()) for f in futures] == expected
        assert processor.mode is SsdMode.BASELINE

    def test_cancelled_future_does_not_poison_its_batch(self, golden_world,
                                                        golden):
        """Cancelling a queued sample drops only that sample: batch-mates
        still resolve to their results and drain() still returns."""
        sample, index = golden_world
        chunks = _chunks(sample.reads)[:4]
        session = AnalysisSession(
            index, _golden_config(golden, abundance_method="statistical")
        )
        # One worker, wide backlog: while the worker chews the first
        # batch, later futures sit queued and can be cancelled before a
        # worker claims them (claimed futures refuse cancellation).
        with AnalysisService(session, workers=1, max_batch=2) as svc:
            futures = svc.submit_batch(chunks * 4)
            cancelled = [f for f in futures if f.cancel()]
            svc.drain()
            kept = [f for f in futures if not f.cancelled()]
            results = [f.result() for f in kept]
        assert len(cancelled) + len(kept) == len(futures)
        assert all(r.candidates is not None for r in results)
        assert svc.stats.samples_cancelled == len(cancelled)
        assert svc.stats.samples_completed == len(kept)

    def test_submit_after_close_submissions_raises(self, golden_world,
                                                   golden):
        sample, index = golden_world
        session = AnalysisSession(
            index, _golden_config(golden, abundance_method="statistical")
        )
        with AnalysisService(session, workers=1) as service:
            future = service.submit(sample.reads[:20])
            service.close_submissions()
            with pytest.raises(RuntimeError, match="closed"):
                service.submit(sample.reads[:20])
            assert future.result().profile is not None

    def test_drain_from_another_thread(self, golden_world, golden):
        sample, index = golden_world
        session = AnalysisSession(
            index, _golden_config(golden, abundance_method="statistical")
        )
        with AnalysisService(session, workers=2) as service:
            futures = service.submit_batch(_chunks(sample.reads))
            drained = threading.Event()

            def waiter():
                service.drain()
                drained.set()

            threading.Thread(target=waiter, daemon=True).start()
            [future.result() for future in futures]
            assert drained.wait(timeout=30)
        stats = service.stats
        assert stats.samples_submitted == stats.samples_completed == N_CHUNKS
        assert stats.widest_batch <= 2  # default max_batch == workers


class TestBoundedAdmission:
    """Backpressure and rejection semantics of the bounded queue."""

    def _gated_session(self, golden_world, golden):
        """A session whose analyze blocks until ``gate`` is set, plus the
        ``started`` event it sets on first entry (so tests can hold the
        single worker busy deterministically)."""
        _, index = golden_world
        session = AnalysisSession(
            index, _golden_config(golden, abundance_method="statistical")
        )
        started, gate = threading.Event(), threading.Event()
        real_analyze = session.analyze_batch

        def gated_analyze(samples, with_abundance=True):
            started.set()
            assert gate.wait(timeout=30)
            return real_analyze(samples, with_abundance)

        session.analyze_batch = gated_analyze
        return session, started, gate

    def test_full_queue_rejects_and_counts(self, golden_world, golden):
        """block=False (or a timed-out blocking submit) raises a
        structured AdmissionFull; stats count rejections separately from
        accepted samples."""
        sample, index = golden_world
        session, started, gate = self._gated_session(golden_world, golden)
        chunks = _chunks(sample.reads)
        with AnalysisService(session, workers=1, max_queue=2) as service:
            head = service.submit(chunks[0])
            assert started.wait(timeout=10)  # worker busy, queue empty
            queued = [service.submit(chunks[1]), service.submit(chunks[2])]
            with pytest.raises(AdmissionFull) as excinfo:
                service.submit(chunks[3], block=False)
            assert excinfo.value.queued == 2
            assert excinfo.value.max_queue == 2
            with pytest.raises(AdmissionFull):
                service.submit(chunks[3], timeout=0.05)
            assert service.stats.samples_rejected == 2
            assert service.stats.samples_submitted == 3
            gate.set()
            results = [f.result(timeout=30) for f in [head] + queued]
        assert all(r.profile is not None for r in results)
        stats = service.stats
        assert stats.samples_completed == 3
        assert stats.samples_rejected == 2
        assert stats.peak_queued == 2

    def test_blocked_submit_admits_when_space_frees(self, golden_world,
                                                    golden):
        """A blocking submit parks until a worker claims from the queue,
        so the high-water mark never exceeds the bound."""
        sample, _ = golden_world
        session, started, gate = self._gated_session(golden_world, golden)
        chunks = _chunks(sample.reads)
        with AnalysisService(session, workers=1, max_queue=1) as service:
            head = service.submit(chunks[0])
            assert started.wait(timeout=10)
            service.submit(chunks[1])  # fills the queue
            admitted = []
            blocked = threading.Thread(
                target=lambda: admitted.append(service.submit(chunks[2]))
            )
            blocked.start()
            time.sleep(0.1)
            assert not admitted, "submit must park while the queue is full"
            gate.set()  # worker drains; the parked submit admits
            blocked.join(timeout=30)
            assert admitted
            head.result(timeout=30)
            service.drain()
        stats = service.stats
        assert stats.samples_submitted == stats.samples_completed == 3
        assert stats.peak_queued == 1


class TestDeadlines:
    def test_expired_request_fails_without_running(self, golden_world,
                                                   golden):
        """deadline_ms=0 always expires (claim strictly follows enqueue);
        the future carries DeadlineExceeded and nothing is analyzed."""
        sample, index = golden_world
        session = AnalysisSession(
            index, _golden_config(golden, abundance_method="statistical")
        )
        with AnalysisService(session, workers=1) as service:
            future = service.submit(sample.reads[:40], tag="late",
                                    deadline_ms=0)
            with pytest.raises(DeadlineExceeded) as excinfo:
                future.result(timeout=30)
            service.drain()
        assert excinfo.value.tag == "late"
        assert excinfo.value.deadline_ms == 0
        stats = service.stats
        assert stats.samples_expired == 1
        assert stats.samples_completed == 0
        assert stats.batches_dispatched == 0

    def test_expired_request_still_reaches_the_stream(self, golden_world,
                                                      golden):
        sample, index = golden_world
        session = AnalysisSession(
            index, _golden_config(golden, abundance_method="statistical")
        )
        with AnalysisService(session, workers=1) as service:
            service.submit(sample.reads[:30], tag="dead", deadline_ms=0)
            service.submit(sample.reads[30:60], tag="alive")
            service.close_submissions()
            emitted = list(service.results())
        by_tag = {entry.tag: entry for entry in emitted}
        assert set(by_tag) == {"dead", "alive"}
        with pytest.raises(DeadlineExceeded):
            by_tag["dead"].future.result()
        assert by_tag["dead"].metrics.batch_size == 0
        assert by_tag["alive"].future.result().profile is not None
        assert by_tag["alive"].metrics.batch_size == 1

    @pytest.mark.parametrize("max_queue", [None, 8])
    def test_submit_batch_takes_submits_keywords_only(self, golden_world,
                                                      golden, max_queue):
        """``submit_batch`` is ``submit`` per sample, bounded queue or not:
        a misspelt keyword is a ``TypeError`` (the unbounded arm used to
        drop it, silently disabling the deadline) and ``deadline_ms``
        expires every queued sample of the run."""
        sample, index = golden_world
        session = AnalysisSession(
            index, _golden_config(golden, abundance_method="statistical")
        )
        run = [sample.reads[:30], sample.reads[30:60]]
        with AnalysisService(session, workers=1,
                             max_queue=max_queue) as service:
            with pytest.raises(TypeError, match="deadline"):
                service.submit_batch(run, deadline=0)
            futures = service.submit_batch(run, deadline_ms=0)
            for future in futures:
                with pytest.raises(DeadlineExceeded):
                    future.result(timeout=30)
            service.drain()
        stats = service.stats
        assert stats.samples_submitted == stats.samples_expired == 2
        assert stats.samples_completed == stats.batches_dispatched == 0


class TestKnobValidation:
    """A window or deadline that would stall, kill or silently disable
    serving is refused where it is passed, naming the knob."""

    @pytest.mark.parametrize("window", [float("nan"), float("inf"), -1.0])
    def test_bad_batch_window_is_refused(self, window):
        with pytest.raises(ValueError, match="batch_window_ms"):
            AnalysisService(_StubSession(), max_batch=2,
                            batch_window_ms=window)

    @pytest.mark.parametrize(
        "deadline", [-5.0, float("nan"), float("inf"), float("-inf")]
    )
    def test_bad_deadline_is_refused(self, deadline):
        with AnalysisService(_StubSession()) as service:
            with pytest.raises(ValueError, match="deadline_ms"):
                service.submit(["a"], deadline_ms=deadline)
            with pytest.raises(ValueError, match="deadline_ms"):
                service.submit_batch([["a"], ["b"]], deadline_ms=deadline)
        assert service.stats.samples_submitted == 0

    @pytest.mark.parametrize("window", [0, 0.5])
    @pytest.mark.parametrize("deadline", [None, 60_000.0])
    def test_zero_finite_and_none_still_serve(self, window, deadline):
        with AnalysisService(_StubSession(), max_batch=2,
                             batch_window_ms=window) as service:
            futures = service.submit_batch([["a"], ["b"]],
                                           deadline_ms=deadline)
            assert [f.result(timeout=30) for f in futures] == [
                ("ok", ["a"]), ("ok", ["b"])
            ]


class TestCompletionStream:
    def test_strict_order_restores_submission_order(self, golden_world,
                                                    golden):
        """results(strict_order=True) emits in admission order with the
        same signatures as the serial path, whatever the workers did."""
        sample, index = golden_world
        chunks = _chunks(sample.reads)
        serial = AnalysisSession(
            index, _golden_config(golden, abundance_method="statistical")
        )
        expected = [_signature(serial.analyze(c)) for c in chunks]
        session = AnalysisSession(
            index, _golden_config(golden, abundance_method="statistical")
        )
        with AnalysisService(session, workers=3, max_batch=1) as service:
            for i, chunk in enumerate(chunks):
                service.submit(chunk, tag=f"s{i}")
            service.close_submissions()
            emitted = list(service.results(strict_order=True))
        assert [entry.tag for entry in emitted] == [
            f"s{i}" for i in range(N_CHUNKS)
        ]
        assert [_signature(e.future.result()) for e in emitted] == expected
        for entry in emitted:
            metrics = entry.metrics
            assert metrics.batch_size == 1
            assert metrics.service_ms > 0
            assert metrics.latency_ms >= metrics.queue_wait_ms >= 0

    def test_as_completed_emits_everything_once(self, golden_world, golden):
        sample, index = golden_world
        chunks = _chunks(sample.reads)
        session = AnalysisSession(
            index, _golden_config(golden, abundance_method="statistical")
        )
        with AnalysisService(session, workers=2) as service:
            service.submit_batch(chunks, tag=None)
            service.close_submissions()
            emitted = list(service.as_completed())
        # Untagged requests are labelled by admission sequence.
        assert sorted(entry.tag for entry in emitted) == list(range(N_CHUNKS))
        stats = service.stats
        assert stats.samples_completed == N_CHUNKS
        assert stats.queue_wait_total_ms >= stats.queue_wait_max_ms >= 0
        assert stats.mean_queue_wait_ms >= 0

    def test_results_streams_while_service_runs(self, golden_world, golden):
        """A consumer sees early completions while later samples are
        still being submitted — the incremental-emission contract."""
        sample, index = golden_world
        chunks = _chunks(sample.reads)
        session = AnalysisSession(
            index, _golden_config(golden, abundance_method="statistical")
        )
        seen = []
        with AnalysisService(session, workers=1, max_batch=1) as service:
            consumer_done = threading.Event()

            def consume():
                for entry in service.results():
                    seen.append((entry.tag, time.perf_counter()))
                consumer_done.set()

            threading.Thread(target=consume, daemon=True).start()
            service.submit(chunks[0], tag="first").result(timeout=30)
            deadline = time.monotonic() + 30
            while not seen and time.monotonic() < deadline:
                time.sleep(0.005)
            assert seen and seen[0][0] == "first", (
                "first result must stream out before later submissions"
            )
            submitted_second_at = time.perf_counter()
            service.submit(chunks[1], tag="second").result(timeout=30)
            service.close_submissions()
            assert consumer_done.wait(timeout=30)
        assert [tag for tag, _ in seen] == ["first", "second"]
        assert seen[0][1] < submitted_second_at


class TestBatchWindow:
    def test_window_coalesces_trickling_arrivals(self, golden_world, golden):
        """With a wide-open window, samples arriving over ~50 ms coalesce
        into ONE §4.7 batch; the window collapses the moment the batch
        fills, so the test doesn't pay the full window."""
        sample, index = golden_world
        chunks = _chunks(sample.reads)[:4]
        session = AnalysisSession(
            index, _golden_config(golden, abundance_method="statistical")
        )
        with AnalysisService(session, workers=1, max_batch=4,
                             batch_window_ms=30_000) as service:
            futures = [service.submit(chunks[0])]
            time.sleep(0.05)
            futures += [service.submit(c) for c in chunks[1:]]
            results = [f.result(timeout=60) for f in futures]
        assert all(r.profile is not None for r in results)
        stats = service.stats
        assert stats.batches_dispatched == 1
        assert stats.widest_batch == 4
        assert stats.mean_batch == 4.0

    def test_zero_window_dispatches_eagerly(self, golden_world, golden):
        """The control: no window, one worker, sequential waits — every
        sample rides its own batch."""
        sample, index = golden_world
        chunks = _chunks(sample.reads)[:3]
        session = AnalysisSession(
            index, _golden_config(golden, abundance_method="statistical")
        )
        with AnalysisService(session, workers=1, max_batch=4) as service:
            for chunk in chunks:
                service.submit(chunk).result(timeout=30)
        assert service.stats.batches_dispatched == 3
        assert service.stats.widest_batch == 1

    def test_window_results_stay_bit_identical(self, golden_world, golden):
        sample, index = golden_world
        chunks = _chunks(sample.reads)
        serial = AnalysisSession(
            index, _golden_config(golden, abundance_method="statistical")
        )
        expected = [_signature(serial.analyze(c)) for c in chunks]
        session = AnalysisSession(
            index, _golden_config(golden, abundance_method="statistical")
        )
        with AnalysisService(session, workers=2, max_batch=3,
                             batch_window_ms=20) as service:
            futures = [service.submit(c) for c in chunks]
            got = [_signature(f.result(timeout=60)) for f in futures]
        assert got == expected
