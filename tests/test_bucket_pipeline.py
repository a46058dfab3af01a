"""Tests for the §4.2.1 bucket-pipeline scheduler and its PhaseTimings surface.

The event-queue scheduler models the overlap of bucket *i*'s intersection
with bucket *i+1*'s sort; the pipeline replays its measured Step-1/Step-2
wall times through it and reports overlapped vs. serialized time.
"""

import random

import pytest

from repro.backends import PhaseTimings
from repro.megis.index import MegisIndex
from repro.megis.overlap import BucketPipelineScheduler
from repro.megis.session import AnalysisSession, MegisConfig
from repro.megis.sorting import sort_cost_weights


class TestScheduler:
    def test_hand_example_single_engine(self):
        # Sorts finish at 2/4/6; the single engine runs 2-5, 5-8, 8-11.
        schedule = BucketPipelineScheduler().schedule([2, 2, 2], [3, 3, 3])
        assert schedule.serialized_ms == 15
        assert schedule.overlapped_ms == 11
        assert schedule.saved_ms == 4
        assert [b.intersect_start_ms for b in schedule.buckets] == [2, 5, 8]

    def test_hand_example_two_engines(self):
        # With two engines each bucket starts as soon as it is sorted.
        schedule = BucketPipelineScheduler(n_engines=2).schedule([2, 2, 2], [3, 3, 3])
        assert schedule.overlapped_ms == 9
        assert [b.intersect_start_ms for b in schedule.buckets] == [2, 4, 6]

    def test_serial_lead_delays_and_is_never_hidden(self):
        # Extraction/selection head work precedes every sort and counts
        # fully in both the serialized and the overlapped timelines.
        schedule = BucketPipelineScheduler().schedule([2, 2], [3, 3], lead_ms=5)
        assert schedule.serialized_ms == 15
        assert schedule.overlapped_ms == 13
        assert [b.sort_start_ms for b in schedule.buckets] == [5, 7]

    def test_lead_only(self):
        schedule = BucketPipelineScheduler().schedule([], [], lead_ms=4)
        assert schedule.serialized_ms == schedule.overlapped_ms == 4

    def test_single_bucket_degenerates_to_serial(self):
        schedule = BucketPipelineScheduler().schedule([5], [7])
        assert schedule.overlapped_ms == schedule.serialized_ms == 12

    def test_empty(self):
        schedule = BucketPipelineScheduler().schedule([], [])
        assert schedule.serialized_ms == 0
        assert schedule.overlapped_ms == 0
        assert schedule.buckets == []

    def test_intersections_run_in_bucket_order(self):
        schedule = BucketPipelineScheduler().schedule([1, 1, 1, 1], [4, 1, 1, 1])
        starts = [b.intersect_start_ms for b in schedule.buckets]
        assert starts == sorted(starts)

    def test_invariants_on_random_durations(self):
        rng = random.Random(3)
        for n_engines in (1, 2, 4):
            scheduler = BucketPipelineScheduler(n_engines=n_engines)
            for _ in range(20):
                n = rng.randrange(0, 12)
                sorts = [rng.uniform(0, 5) for _ in range(n)]
                intersects = [rng.uniform(0, 5) for _ in range(n)]
                schedule = scheduler.schedule(sorts, intersects)
                # The pipeline can never beat either serial resource, nor
                # lose to running everything back to back.
                assert schedule.overlapped_ms <= schedule.serialized_ms + 1e-9
                assert schedule.overlapped_ms >= sum(sorts) - 1e-9
                assert schedule.overlapped_ms >= max(
                    [s + i for s, i in zip(sorts, intersects)], default=0.0
                ) - 1e-9
                for bucket in schedule.buckets:
                    assert bucket.intersect_start_ms >= bucket.sort_end_ms - 1e-9

    def test_more_engines_never_slower(self):
        rng = random.Random(9)
        sorts = [rng.uniform(0, 3) for _ in range(10)]
        intersects = [rng.uniform(0, 3) for _ in range(10)]
        makespans = [
            BucketPipelineScheduler(n_engines=n).schedule(sorts, intersects).overlapped_ms
            for n in (1, 2, 4, 8)
        ]
        assert all(a >= b - 1e-9 for a, b in zip(makespans, makespans[1:]))

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            BucketPipelineScheduler().schedule([1, 2], [1])

    def test_invalid_engine_count(self):
        with pytest.raises(ValueError):
            BucketPipelineScheduler(n_engines=0)


class TestSortCostWeights:
    def test_nlogn_shape(self):
        weights = sort_cost_weights([0, 1, 2, 1024])
        assert weights[0] == 0.0
        assert weights[1] == 1.0
        assert weights[2] == 2.0
        assert weights[3] == 1024 * 10.0

    def test_monotonic(self):
        weights = sort_cost_weights(range(1, 50))
        assert weights == sorted(weights)


class TestPhaseTimingsOverlapSurface:
    def test_merge_accumulates_overlap(self):
        a = PhaseTimings(serialized_ms=10.0, overlapped_ms=7.0)
        b = PhaseTimings(serialized_ms=4.0, overlapped_ms=4.0)
        a.merge(b)
        assert a.serialized_ms == 14.0
        assert a.overlapped_ms == 11.0
        assert a.overlap_saved_ms == 3.0

    def test_as_dict_exposes_overlap(self):
        d = PhaseTimings(serialized_ms=5.0, overlapped_ms=3.0).as_dict()
        assert d["serialized_ms"] == 5.0
        assert d["overlapped_ms"] == 3.0
        assert d["overlap_saved_ms"] == 2.0

    def test_saved_never_negative(self):
        assert PhaseTimings(serialized_ms=1.0, overlapped_ms=2.0).overlap_saved_ms == 0.0


class TestPipelineOverlapModel:
    @pytest.mark.parametrize("backend", ["python", "numpy"])
    def test_analyze_reports_overlap(self, sorted_db, sketch_db, sample, backend):
        session = AnalysisSession(
            MegisIndex(sorted_db, sketch_db, sample.references),
            config=MegisConfig(backend=backend),
        )
        result = session.analyze(sample.reads, with_abundance=False)
        timings = result.timings
        assert timings.overlapped_ms > 0
        assert timings.overlapped_ms <= timings.serialized_ms + 1e-9
        # The serial chain is exactly the measured Step-1 + Step-2 stream.
        assert timings.serialized_ms == pytest.approx(
            timings.extract_ms + timings.intersect_ms, rel=1e-6
        )

    def test_multi_sample_reports_overlap_per_sample(
        self, sorted_db, sketch_db, sample
    ):
        session = AnalysisSession(
            MegisIndex(sorted_db, sketch_db, sample.references),
            config=MegisConfig(backend="numpy"),
        )
        results = session.analyze_batch(
            [sample.reads[:150], sample.reads[150:300]], with_abundance=False
        )
        for result in results:
            assert result.timings.overlapped_ms > 0
            assert result.timings.overlapped_ms <= result.timings.serialized_ms + 1e-9

    def test_sharded_pipeline_reports_overlap(self, sorted_db, sketch_db, sample):
        session = AnalysisSession(
            MegisIndex(sorted_db, sketch_db, sample.references),
            config=MegisConfig(backend="numpy", n_ssds=4),
        )
        result = session.analyze(sample.reads, with_abundance=False)
        assert result.timings.overlapped_ms > 0
        assert result.timings.overlapped_ms <= result.timings.serialized_ms + 1e-9
