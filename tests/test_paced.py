"""The paced backend, Step 1's bucket identity across backends, and a
failing shard's Step 2."""

from __future__ import annotations

import time

import pytest

from repro.backends import PhaseTimings, available_backends, get_backend
from repro.backends.base import clip_buckets
from repro.backends.paced import PacedStepTwoBackend
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
from tests.oracles import is_sorted


def test_failing_shard_propagates(sorted_db, kss_tables):
    """The shards run one after another: the first shard's exception
    reaches the caller, and no later shard runs after it."""
    shards = split_database(sorted_db, 3)
    shard_kss(kss_tables, shards)
    inner = get_backend("numpy")
    ran = []

    class FirstShardFails:
        name = inner.name

        @staticmethod
        def step_two(shard, *args):
            ran.append(shard.index)
            if shard is shards[0]:
                raise RuntimeError("shard 0 failed")
            return inner.step_two(shard, *args)

    with pytest.raises(RuntimeError, match="shard 0 failed"):
        step_two_over_shards(FirstShardFails, shards, [[]], 8)
    assert ran == [0]


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
            assert is_sorted(bucket_a)


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
        assert timed._backend.name == "paced"
        expected = reference.run_bucket_set(bucket_set)
        got = timed.run_bucket_set(bucket_set)
        assert as_ints(got[0]) == as_ints(expected[0])
        assert query_dicts(got[1]) == query_dicts(expected[1])

    def test_pacing_adds_modeled_stream_wall_time(self, sorted_db, kss_tables):
        shard = whole_shard(sorted_db, kss_tables)
        batch = [whole_range(sorted_db.column()[::2], sorted_db.k)]
        streamed_mb = len(sorted_db) * 5 / 1e6  # k=20 -> 5-byte records
        mb_per_s = streamed_mb / 0.15  # ~150 ms modeled database stream
        slow = PacedStepTwoBackend("numpy", mb_per_s=mb_per_s)
        timings = PhaseTimings()
        start = time.perf_counter()
        result = slow.step_two(shard, batch, 4, timings)
        elapsed_ms = (time.perf_counter() - start) * 1e3
        expected_ms = streamed_mb / mb_per_s * 1e3
        kss_ms = kss_tables.size_bytes() / (mb_per_s * 1e6) * 1e3
        assert pairs_as_ints(result) == pairs_as_ints(
            get_backend("numpy").step_two(shard, batch, 4)
        )
        assert elapsed_ms >= 0.8 * (expected_ms + kss_ms)
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

    @pytest.mark.parametrize("source, given", [
        *[(source, given) for source in ("argument", "environment")
          for given in ("nan", "inf", "-inf", "0", "-1")],
        ("environment", "fast"), ("environment", ""),
    ])
    def test_bandwidth_must_be_finite_and_positive(self, given, source, monkeypatch):
        """A NaN bandwidth would fail every paced Step 2 in ``time.sleep``
        and an infinite one would pace nothing: only a finite number > 0
        is a bandwidth.  The error names where the value came from, also
        when the environment's value is no number at all."""
        name = {"argument": "mb_per_s", "environment": "REPRO_PACED_MBPS"}[source]
        with pytest.raises(ValueError, match=f"{name} must be a finite number > 0"):
            if source == "argument":
                PacedStepTwoBackend("numpy", mb_per_s=float(given))
            else:
                monkeypatch.setenv("REPRO_PACED_MBPS", given)
                PacedStepTwoBackend("numpy")

    def test_env_default_bandwidth(self, monkeypatch):
        monkeypatch.setenv("REPRO_PACED_MBPS", "123.5")
        assert PacedStepTwoBackend("numpy").mb_per_s == 123.5

    def test_retrieve_paces_by_kss_stream_volume(self, sorted_db, kss_tables):
        """KSS retrieval (§4.3.2's second flash stream) is paced too."""
        shard = whole_shard(sorted_db, kss_tables)
        batch = [whole_range(sorted_db.column()[::3], sorted_db.k)]
        [(_, reference)] = get_backend("numpy").step_two(shard, batch)
        streamed = kss_tables.size_bytes()
        assert streamed > 0
        mb_per_s = streamed / 1e6 / 0.15  # ~150 ms modeled stream
        paced = PacedStepTwoBackend("numpy", mb_per_s=mb_per_s)
        timings = PhaseTimings()
        start = time.perf_counter()
        [(_, result)] = paced.step_two(shard, batch, 8, timings)
        elapsed_ms = (time.perf_counter() - start) * 1e3
        expected_ms = streamed / (mb_per_s * 1e6) * 1e3
        # Pacing adds wall time, never work.
        assert query_dicts(result) == query_dicts(reference)
        assert elapsed_ms >= 0.8 * expected_ms
        assert timings.retrieve_ms >= 0.8 * expected_ms
        assert timings.kss_bytes_streamed == streamed
        assert "kss_bytes_streamed" in timings.as_dict()

    def test_step_two_paces_both_streams(self, sorted_db, kss_tables):
        """A shard batch's Step 2 charges each database interval once per
        batch and the shard's KSS range once per sample — and waits out
        the KSS stream in ``retrieve_ms``; its results are numpy's."""
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
            expected = numpy_.step_two(shard, clipped, 8, intersected)
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
