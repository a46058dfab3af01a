"""Executor specs and the shard pool, paced backend, and measured-overlap
plumbing."""

from __future__ import annotations

import concurrent.futures
import multiprocessing
import threading
import time

import pytest

from repro.backends import PhaseTimings, available_backends, get_backend
from repro.backends.base import clip_buckets
from repro.backends.paced import PacedStepTwoBackend
from repro.megis.executors import available_executors, parse_spec, shard_pool
from repro.megis.host import KmerBucketPartitioner
from repro.megis.isp import IspStepTwo
from repro.megis.multissd import (
    MultiSsdStepTwo,
    shard_kss,
    split_database,
    step_two_over_shards,
    whole_range,
    whole_shard,
)
from repro.megis.session import AnalysisSession, MegisConfig
from tests.columns import as_ints, pairs_as_ints, query_dicts


class TestSpecs:
    def test_families(self):
        assert available_executors() == ("serial", "threads", "processes")

    @pytest.mark.parametrize("spec,expected", [
        ("serial", ("serial", None)),
        ("threads", ("threads", None)),
        ("threads:4", ("threads", 4)),
        ("processes", ("processes", None)),
        ("processes:4", ("processes", 4)),
    ])
    def test_parse(self, spec, expected):
        assert parse_spec(spec) == expected

    @pytest.mark.parametrize("spec", [
        "fibers", "serial:2", "threads:zero", "threads:0", "threads:-1",
        "processes:0", "processes:-3", "processes:two",
    ])
    def test_parse_rejects(self, spec):
        with pytest.raises(ValueError):
            parse_spec(spec)

    def test_errors_enumerate_registered_families(self):
        """Usage errors list the live registry, not a hard-coded string."""
        with pytest.raises(ValueError) as unknown:
            parse_spec("fibers")
        for family in available_executors():
            assert family in str(unknown.value)
        assert "'processes:N'" in str(unknown.value)
        with pytest.raises(ValueError, match="spec 'processes:0'"):
            parse_spec("processes:0")

    def test_get_executor_resolution(self):
        """What a spec gives the shard tasks: nothing (a plain loop) for
        no spec or ``serial``, a stdlib thread pool of N for ``threads:N``."""
        assert shard_pool(None) is None and shard_pool("serial") is None
        before = _exec_threads()
        threaded = shard_pool("threads:3")
        try:
            assert isinstance(threaded, concurrent.futures.ThreadPoolExecutor)
            assert threaded._max_workers == 3
            assert _exec_threads() == before  # threads start on demand
            assert threaded.submit(
                lambda: threading.current_thread().name
            ).result().startswith("megis-exec")
        finally:
            threaded.shutdown()

    def test_config_validates_executor(self):
        assert MegisConfig(executor="threads:2").executor == "threads:2"
        with pytest.raises(ValueError):
            MegisConfig(executor="fibers")


class TestExecutorDrivenStepTwo:
    @pytest.mark.parametrize("backend", ["python", "numpy"])
    def test_concurrent_buckets_bit_identical(self, sorted_db, kss_tables,
                                              sample, backend):
        """An executor-dispatched run == the serial bucketed run, exactly."""
        partitioner = KmerBucketPartitioner(k=sorted_db.k, n_buckets=8,
                                            backend=backend)
        bucket_set = partitioner.partition(sample.reads)
        serial = IspStepTwo(sorted_db, kss_tables, backend=backend)
        threaded = IspStepTwo(sorted_db, kss_tables, backend=backend,
                              executor="threads:4")
        expected = serial.run_bucket_set(bucket_set)
        timings = PhaseTimings()
        got = threaded.run_bucket_set(bucket_set, timings)
        assert as_ints(got[0]) == as_ints(expected[0])
        assert query_dicts(got[1]) == query_dicts(expected[1])
        assert threaded.executor_name == "threads:4"
        # One logical pass over the database either way.
        assert timings.db_stream_passes == 1
        assert timings.step2_wall_ms > 0

    def test_standalone_engine_leaves_no_threads(self, sorted_db,
                                                 kss_tables):
        """A standalone ``threads:N`` engine opens its pool for the call
        and shuts it down before returning: no thread outlives a call."""
        engine = MultiSsdStepTwo(sorted_db, kss_tables, n_ssds=4,
                                 backend="numpy", executor="threads:4")
        query = sorted_db.kmers[::3]
        before = _exec_threads()
        assert engine.run(query)
        assert _exec_threads() == before
        assert engine.run_multi([whole_range(query, sorted_db.k)])
        assert _exec_threads() == before

    def test_session_executor_config_is_bit_identical(self, sorted_db,
                                                      sketch_db, references,
                                                      sample):
        from repro.megis.index import MegisIndex

        index = MegisIndex(sorted_db, sketch_db, references)
        serial = AnalysisSession(index, MegisConfig(
            backend="numpy", abundance_method="statistical"))
        threaded = AnalysisSession(index, MegisConfig(
            backend="numpy", abundance_method="statistical",
            executor="threads:2"))
        a = serial.analyze(sample.reads)
        b = threaded.analyze(sample.reads)
        assert a.intersecting_kmers == b.intersecting_kmers
        assert a.sketch_hits == b.sketch_hits
        assert a.candidates == b.candidates
        assert a.profile.fractions == b.profile.fractions

    def test_session_resolves_its_executor_once(self, sorted_db, sketch_db,
                                                sample, monkeypatch):
        """A ``threads:N`` session owns one thread pool between
        ``close()`` calls: one for all its analyses, reaped by
        ``close()``, and exactly one more for the analyses after it."""
        from repro.megis import executors
        from repro.megis.index import MegisIndex

        built = []

        class CountingPool(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                built.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(executors, "ThreadPoolExecutor", CountingPool)
        before = _exec_threads()  # other tests' pools, reaped only by GC
        session = AnalysisSession(
            MegisIndex(sorted_db, sketch_db),
            MegisConfig(backend="numpy", abundance_method="statistical",
                        executor="threads:2", n_ssds=2),
        )
        expected = session.analyze(sample.reads[:40]).sketch_hits
        for _ in range(3):
            session.analyze(sample.reads[:40])
        assert len(built) == 1
        assert _exec_threads() - before, "the shards ran on the session's pool"
        session.close()
        assert not _exec_threads() - before
        for _ in range(2):  # close() is not terminal
            assert session.analyze(sample.reads[:40]).sketch_hits == expected
        assert len(built) == 2
        session.close()
        assert not _exec_threads() - before

    def test_failing_shard_propagates_after_all_were_scheduled(
            self, sorted_db, kss_tables):
        """``pool.map`` submits every shard task before the first result
        is awaited: the first shard's exception reaches the caller, and
        the other shards were running by then (the barrier is passable
        only if all three were scheduled)."""
        shards = split_database(sorted_db, 3)
        shard_kss(kss_tables, shards)
        barrier = threading.Barrier(len(shards), timeout=10)
        inner = get_backend("numpy")

        class FirstShardFails:
            name = inner.name

            @staticmethod
            def step_two(shard, *args):
                barrier.wait()
                if shard is shards[0]:
                    raise RuntimeError("shard 0 failed")
                return inner.step_two(shard, *args)

        pool = shard_pool("threads:3")
        try:
            with pytest.raises(RuntimeError, match="shard 0 failed"):
                step_two_over_shards(FirstShardFails, shards, [[]], 8, pool)
        finally:
            pool.shutdown()
        assert not barrier.broken

    @pytest.mark.parametrize("enter", [
        lambda db, kss, spec: MultiSsdStepTwo(db, kss, n_ssds=2,
                                              executor=spec),
        lambda db, kss, spec: IspStepTwo(db, kss, executor=spec),
        lambda db, kss, spec: step_two_over_shards(
            get_backend("numpy"), [whole_shard(db, kss)], [[]], 8,
            shard_pool(spec)),
    ], ids=["multissd", "isp", "kernel"])
    def test_step_two_refuses_a_process_pool(self, sorted_db, kss_tables,
                                             enter):
        """Shard tasks are closures and cannot cross a pipe: every Step-2
        entry point says so up front — one message, nothing forked —
        instead of dying on a pickling error after the fork."""
        before = set(multiprocessing.active_children())
        for spec in ("processes", "processes:2"):
            with pytest.raises(ValueError, match=r'executor="processes\[:N\]"'):
                enter(sorted_db, kss_tables, spec)
        assert set(multiprocessing.active_children()) <= before


def _exec_threads():
    return {t for t in threading.enumerate() if t.name.startswith("megis-exec")}


class TestMeasuredStepTwoWall:
    def test_merge_adds_step2_wall_ms(self):
        a = PhaseTimings(intersect_ms=5.0, step2_wall_ms=4.0)
        a.merge(PhaseTimings(intersect_ms=1.0, step2_wall_ms=4.0))
        assert a.step2_wall_ms == 8.0
        assert "step2_wall_ms" in a.as_dict()


class TestMeasuredStepOne:
    def test_grouped_partition_is_bit_identical_across_backends(self, sorted_db,
                                                                sample):
        """Bucket contents stay identical between the vectorized (grouped
        by prefix, then sorted per bucket) and Counter paths."""
        columnar = KmerBucketPartitioner(k=sorted_db.k, n_buckets=8,
                                         backend="numpy")
        counted = KmerBucketPartitioner(k=sorted_db.k, n_buckets=8,
                                        backend="python")
        a = columnar.partition(sample.reads)
        b = counted.partition(sample.reads)
        assert [(x.lo, x.hi) for x in a.buckets] == [
            (x.lo, x.hi) for x in b.buckets
        ]
        for bucket_a, bucket_b in zip(a.buckets, b.buckets):
            assert [int(v) for v in bucket_a.kmers] == list(bucket_b.kmers)
            assert bucket_a.is_sorted()


class TestPacedBackend:
    def test_registered(self):
        assert "paced" in available_backends()
        assert get_backend("paced") is get_backend("paced")

    def test_bit_identical_to_inner(self, sorted_db, kss_tables, sample):
        partitioner = KmerBucketPartitioner(k=sorted_db.k, n_buckets=6,
                                            backend="numpy")
        bucket_set = partitioner.partition(sample.reads)
        paced = PacedStepTwoBackend("numpy", mb_per_s=1e9)
        assert paced.columnar is True
        reference = IspStepTwo(sorted_db, kss_tables, backend="numpy")
        timed = IspStepTwo(sorted_db, kss_tables, backend=paced)
        assert timed.backend_name == "paced"
        expected = reference.run_bucket_set(bucket_set)
        got = timed.run_bucket_set(bucket_set)
        assert as_ints(got[0]) == as_ints(expected[0])
        assert query_dicts(got[1]) == query_dicts(expected[1])

    def test_pacing_adds_modeled_stream_wall_time(self, sorted_db):
        query = sorted_db.kmers[::2]
        slow = PacedStepTwoBackend("numpy", mb_per_s=0.05)
        timings = PhaseTimings()
        start = time.perf_counter()
        result = slow.intersect(sorted_db, query, 4, timings)
        elapsed_ms = (time.perf_counter() - start) * 1e3
        streamed_mb = len(sorted_db) * 5 / 1e6  # k=20 -> 5-byte records
        expected_ms = streamed_mb / 0.05 * 1e3
        assert as_ints(result) == as_ints(
            get_backend("numpy").intersect(sorted_db, query, 4)
        )
        assert elapsed_ms >= 0.8 * expected_ms
        assert timings.intersect_ms >= 0.8 * expected_ms

    def test_paced_sharded_batch_matches_numpy(self, sorted_db, kss_tables,
                                               sample):
        partitioner = KmerBucketPartitioner(k=sorted_db.k, n_buckets=6,
                                            backend="numpy")
        samples = [
            [(b.lo, b.hi, b.kmers)
             for b in partitioner.partition(reads).buckets]
            for reads in (sample.reads[:150], sample.reads[150:300])
        ]
        reference = MultiSsdStepTwo(sorted_db, kss_tables, n_ssds=3,
                                    backend="numpy").run_multi(samples)
        paced = MultiSsdStepTwo(
            sorted_db, kss_tables, n_ssds=3,
            backend=PacedStepTwoBackend("numpy", mb_per_s=1e9),
        ).run_multi(samples)
        assert pairs_as_ints(paced) == pairs_as_ints(reference)

    def test_rejects_bad_bandwidth(self):
        with pytest.raises(ValueError):
            PacedStepTwoBackend("numpy", mb_per_s=0)

    def test_env_default_bandwidth(self, monkeypatch):
        monkeypatch.setenv("REPRO_PACED_MBPS", "123.5")
        assert PacedStepTwoBackend("numpy").mb_per_s == 123.5

    def test_retrieve_paces_by_kss_stream_volume(self, sorted_db, kss_tables):
        """KSS retrieval (§4.3.2's second flash stream) is paced too."""
        query = [int(x) for x in sorted_db.kmers[::3]]
        reference = get_backend("numpy").retrieve(kss_tables, query)
        streamed = kss_tables.size_bytes()
        assert streamed > 0
        mb_per_s = streamed / 1e6 / 0.15  # ~150 ms modeled stream
        paced = PacedStepTwoBackend("numpy", mb_per_s=mb_per_s)
        timings = PhaseTimings()
        start = time.perf_counter()
        result = paced.retrieve(kss_tables, query, timings)
        elapsed_ms = (time.perf_counter() - start) * 1e3
        expected_ms = streamed / (mb_per_s * 1e6) * 1e3
        # Pacing adds wall time, never work.
        assert query_dicts(result) == query_dicts(reference)
        assert elapsed_ms >= 0.8 * expected_ms
        assert timings.retrieve_ms >= 0.8 * expected_ms
        assert timings.kss_bytes_streamed == streamed
        assert "kss_bytes_streamed" in timings.as_dict()

    def test_step_two_paces_both_streams(self, sorted_db, kss_tables):
        """A shard batch's Step 2 charges what intersect-then-retrieve did:
        each database interval once per batch, the shard's KSS range once
        per sample — and waits out the KSS stream in ``retrieve_ms``."""
        shards = split_database(sorted_db, 3)
        shard_kss(kss_tables, shards)
        k = sorted_db.k
        batch = [whole_range(sorted_db.column()[i::3], k) for i in range(2)]
        streamed = sum(len(batch) * shard.kss.size_bytes() for shard in shards)
        mb_per_s = streamed / 1e6 / 0.15  # ~150 ms modeled KSS stream
        paced = PacedStepTwoBackend("numpy", mb_per_s=mb_per_s)
        numpy_ = get_backend("numpy")
        timings, intersected = PhaseTimings(), PhaseTimings()
        for shard in shards:
            clipped = [clip_buckets(b, shard.lo, shard.hi) for b in batch]
            got = paced.step_two(shard, clipped, 8, timings)
            partials = numpy_.intersect_bucketed_multi(
                shard.database, clipped, 8, intersected
            )
            expected = [
                (partial, numpy_.retrieve(shard.kss, partial)) for partial in partials
            ]
            assert pairs_as_ints(got) == pairs_as_ints(expected)
        assert timings.kss_bytes_streamed == streamed
        assert timings.db_kmers_streamed == intersected.db_kmers_streamed > 0
        assert timings.retrieve_ms >= 0.8 * streamed / (mb_per_s * 1e6) * 1e3

    def test_kss_bytes_streamed_merges(self):
        a = PhaseTimings(kss_bytes_streamed=100)
        a.merge(PhaseTimings(kss_bytes_streamed=50))
        assert a.kss_bytes_streamed == 150

    def test_session_accepts_backend_instance(self, sorted_db, sketch_db,
                                              sample):
        from repro.megis.index import MegisIndex

        index = MegisIndex(sorted_db, sketch_db)
        paced = PacedStepTwoBackend("numpy", mb_per_s=1e9)
        session = AnalysisSession(
            index, MegisConfig(abundance_method="statistical"), backend=paced
        )
        assert session.config.backend == "paced"
        assert session.backend_name == "paced"
        reference = AnalysisSession(
            index, MegisConfig(abundance_method="statistical",
                               backend="numpy")
        )
        a = session.analyze(sample.reads)
        b = reference.analyze(sample.reads)
        assert a.candidates == b.candidates
        assert a.profile.fractions == b.profile.fractions
