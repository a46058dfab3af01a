"""Tests for functional multi-SSD database partitioning (Fig 15's premise).

Step 2 of one shard is one kernel (``shard_step_two``: clip, one batched
stream, retrieve) and the shards' results are gathered in range order;
these tests pin the §6.1 claim — sharded Step 2 is bit-identical to
single-SSD Step 2 — across both backends, batched multi-sample mode, and
the boundary edge cases (empty shards, duplicated boundary k-mers,
databases smaller than the shard count).
"""

from bisect import bisect_left

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.backends import PhaseTimings, get_backend
from repro.databases.kss import KssTables
from repro.databases.sketch import SketchDatabase
from repro.databases.sorted_db import SortedKmerDatabase
from repro.megis.host import KmerBucketPartitioner
from repro.megis.isp import IspStepTwo
from repro.megis.multissd import (
    MultiSsdStepTwo,
    gather,
    shard_kss,
    shard_step_two,
    split_database,
    whole_shard,
)
from tests.columns import as_ints, native_column, pairs_as_ints

BACKENDS = ("python", "numpy")

#: The kernel property's world: small enough that random k-mers collide
#: with shard edges and share KSS prefixes.
K, SMALLER_KS = 8, (5, 3)
SPACE = 1 << (2 * K)


@st.composite
def worlds(draw):
    """A random sorted database and the KSS over a random sketch of it."""
    kmers = sorted(draw(st.sets(st.integers(0, SPACE - 1), min_size=1, max_size=40)))
    owners = draw(st.lists(
        st.frozensets(st.integers(1, 4), min_size=1, max_size=2),
        min_size=len(kmers), max_size=len(kmers),
    ))
    sketched = draw(st.lists(st.booleans(), min_size=len(kmers), max_size=len(kmers)))
    tables = {K: {x: own for x, own, keep in zip(kmers, owners, sketched) if keep}}
    for k in SMALLER_KS:
        level = {}
        for kmer, own in tables[K].items():
            prefix = kmer >> (2 * (K - k))
            level[prefix] = level.get(prefix, frozenset()) | own
        # A level-only owner on some rows: the remainder KSS stores beyond
        # the covered k_max owners.
        extra = draw(st.lists(st.booleans(), min_size=len(level), max_size=len(level)))
        tables[k] = {
            prefix: own | {9} if more else own
            for (prefix, own), more in zip(sorted(level.items()), extra)
        }
    sizes = {}
    for own in tables[K].values():
        for taxid in own:
            sizes[taxid] = sizes.get(taxid, 0) + 1
    sketch = SketchDatabase(K, SMALLER_KS, tables, sizes)
    return SortedKmerDatabase(K, kmers, owners), KssTables(sketch)


@st.composite
def batches(draw, database, shards):
    """1-4 bucketed samples: database hits (some repeated), misses, (twice
    each) the k-mers sitting exactly on shard boundaries, and buckets over
    a gap between database k-mers, so some streamed intervals hold no
    database k-mer."""
    edges = [shard.lo for shard in shards[1:]]
    kmers = database.kmers
    gaps = [(a + 1, b) for a, b in zip([-1, *kmers], [*kmers, SPACE]) if b > a + 1]
    samples = []
    for _ in range(draw(st.integers(1, 4))):
        query = draw(st.lists(st.sampled_from(kmers), max_size=20))
        query += 2 * draw(st.lists(st.sampled_from(kmers), max_size=3))
        query += draw(st.lists(st.integers(0, SPACE - 1), max_size=10))
        if edges:
            query += 2 * draw(st.lists(st.sampled_from(edges), max_size=3))
        cuts = draw(st.sets(st.integers(1, SPACE - 1), max_size=4))
        if gaps and draw(st.booleans()):
            gap_lo, gap_hi = draw(st.sampled_from(gaps))
            cuts |= {gap_lo, gap_hi} - {0, SPACE}
            query.append(draw(st.integers(gap_lo, gap_hi - 1)))
        query.sort()
        bounds = [0, *sorted(cuts), SPACE]
        samples.append([
            (lo, hi, query[bisect_left(query, lo):bisect_left(query, hi)])
            for lo, hi in zip(bounds, bounds[1:])
        ])
    return samples


@pytest.mark.parametrize("backend", BACKENDS)
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_kernel_gather_equals_whole_range_and_references(backend, data):
    """The shard kernel + gather, on generated worlds, both backends.

    gather over N shards == the single whole-range shard ==
    ``SortedKmerDatabase.intersect`` + ``KssTables.retrieve``, for N from
    1 up to more shards than k-mers, batches of 1-4 bucketed samples, and
    queries that repeat a boundary k-mer (matched once); and every shard
    streams its slice exactly once whatever the batch width
    (``db_stream_passes == n_shards``).  The whole-range shard is
    :func:`whole_shard` — the database and KSS themselves, nothing sliced.
    On it the whole batch must match the ``python`` reference counter for
    counter: streamed k-mers, buckets, passes, per-channel matches and the
    measured interval ranges.

    This stands for what the direct ``intersect_sharded`` /
    ``intersect_sharded_multi`` tests pinned before sharding stopped being
    a backend entry point: per-shard intersections concatenate to
    ``database.intersect`` for any shard count; the batched sharded result
    equals the whole-database ``intersect_bucketed_multi``; ``numpy``
    agrees with ``python`` (both equal the same references here).  The
    two input checks moved to where shard lists enter — an empty or
    misordered shard list is refused by ``MultiSsdStepTwo`` at construction
    (``TestShardedKernels.test_no_shards``,
    ``TestShardValidation.test_misordered_shards_rejected``).
    """
    database, kss = data.draw(worlds())
    n_shards = data.draw(st.integers(1, 6))
    shards = split_database(database, n_shards)
    shard_kss(kss, shards)
    samples = data.draw(batches(database, shards))
    engine = get_backend(backend)

    outcomes = [shard_step_two(engine, shard, samples, 4) for shard in shards]
    sharded = gather([partials for partials, _ in outcomes])
    assert sum(t.db_stream_passes for _, t in outcomes) == n_shards

    whole = whole_shard(database, kss)
    batched, timings = shard_step_two(engine, whole, samples, 4)
    assert pairs_as_ints(sharded) == pairs_as_ints(batched)

    # The whole batch on the one shard: ``python`` and ``numpy`` give the
    # same results and the same counters, channel attribution included.
    expected, reference = shard_step_two(get_backend("python"), whole, samples, 4)
    assert pairs_as_ints(batched) == pairs_as_ints(expected)
    for counter in ("db_kmers_streamed", "query_kmers_streamed",
                    "buckets_processed", "db_stream_passes", "channel_matches"):
        assert getattr(timings, counter) == getattr(reference, counter), counter

    # One sample on the one shard streams one interval per bucket.
    _, alone = shard_step_two(engine, whole, samples[:1], 4)
    assert alone.buckets_processed == len(samples[0])

    for (intersecting, retrieved), buckets in zip(sharded, samples):
        query = sorted({kmer for _, _, kmers in buckets for kmer in as_ints(kmers)})
        assert as_ints(intersecting) == database.intersect(query)
        assert retrieved == kss.retrieve(intersecting)


class TestSplitDatabase:
    def test_shards_partition_the_database(self, sorted_db):
        shards = split_database(sorted_db, 4)
        combined = [x for s in shards for x in s.database.kmers]
        assert combined == sorted_db.kmers

    def test_ranges_are_contiguous_and_cover_space(self, sorted_db):
        shards = split_database(sorted_db, 3)
        assert shards[0].lo == 0
        assert shards[-1].hi == 1 << (2 * sorted_db.k)
        for a, b in zip(shards, shards[1:]):
            assert a.hi == b.lo

    def test_kmers_lie_in_their_range(self, sorted_db):
        for shard in split_database(sorted_db, 5):
            assert all(shard.lo <= x < shard.hi for x in shard.database.kmers)

    def test_balanced(self, sorted_db):
        shards = split_database(sorted_db, 4)
        sizes = [len(s.database) for s in shards]
        assert max(sizes) - min(sizes) <= 1

    def test_single_shard_is_whole_db(self, sorted_db):
        shards = split_database(sorted_db, 1)
        assert len(shards) == 1
        assert shards[0].database.kmers == sorted_db.kmers

    def test_invalid_count(self, sorted_db):
        with pytest.raises(ValueError):
            split_database(sorted_db, 0)

    def test_owners_preserved(self, sorted_db):
        for shard in split_database(sorted_db, 3):
            for kmer in shard.database.kmers[:10]:
                assert shard.database.owners_of(kmer) == sorted_db.owners_of(kmer)

    def test_more_shards_than_kmers(self):
        database = SortedKmerDatabase(10, [5, 9], [frozenset({1}), frozenset({2})])
        shards = split_database(database, 5)
        assert [x for s in shards for x in s.database.kmers] == [5, 9]
        assert shards[0].lo == 0 and shards[-1].hi == 1 << 20
        for a, b in zip(shards, shards[1:]):
            assert a.hi == b.lo

    def test_empty_database(self):
        shards = split_database(SortedKmerDatabase(10, [], []), 3)
        assert all(len(s.database) == 0 for s in shards)
        assert shards[0].lo == 0 and shards[-1].hi == 1 << 20
        for a, b in zip(shards, shards[1:]):
            assert a.hi == b.lo

    def test_shards_share_parent_column(self, sorted_db):
        column = sorted_db.column()
        for shard in split_database(sorted_db, 4):
            shard_column = shard.database.column()
            assert shard_column.base is column or len(shard_column) == 0


class TestMultiSsdStepTwo:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("n_ssds", [1, 2, 4, 8])
    def test_sharded_equals_single(self, sorted_db, kss_tables, sample,
                                   backend, n_ssds):
        query = KmerBucketPartitioner(k=20, n_buckets=4).partition(
            sample.reads
        ).merged_sorted()
        single = IspStepTwo(sorted_db, kss_tables, n_channels=8,
                            backend=backend).run(query)
        multi = MultiSsdStepTwo(sorted_db, kss_tables, n_ssds=n_ssds,
                                backend=backend).run(query)
        assert as_ints(multi[0]) == as_ints(single[0])
        assert multi[1] == single[1]

    def test_cross_backend_identical(self, sorted_db, kss_tables):
        query = sorted_db.kmers[::5]
        results = {
            backend: MultiSsdStepTwo(sorted_db, kss_tables, n_ssds=3,
                                     backend=backend).run(query)
            for backend in BACKENDS
        }
        assert pairs_as_ints([results["python"]]) == pairs_as_ints([results["numpy"]])

    def test_ndarray_query_accepted(self, sorted_db, kss_tables):
        query = sorted_db.kmers[::7]
        engine = MultiSsdStepTwo(sorted_db, kss_tables, n_ssds=3, backend="numpy")
        from_list = engine.run(query)
        from_column = engine.run(np.asarray(query, dtype=np.uint64))
        assert pairs_as_ints([from_list]) == pairs_as_ints([from_column])

    def test_duplicate_boundary_kmers(self, sorted_db, kss_tables):
        # A query repeating the exact shard-boundary k-mer must intersect it
        # exactly once, like the single-SSD register merge does.
        shards = split_database(sorted_db, 3)
        boundary = shards[1].lo
        query = sorted(sorted_db.kmers[::6] + [boundary, boundary])
        expected = sorted_db.intersect(sorted(set(query)))
        for backend in BACKENDS:
            multi = MultiSsdStepTwo(sorted_db, kss_tables, n_ssds=3,
                                    backend=backend)
            assert as_ints(multi.run(query)[0]) == expected

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_more_ssds_than_kmers(self, kss_tables, sorted_db, backend):
        small = SortedKmerDatabase(
            20, sorted_db.kmers[:3],
            [sorted_db.owners_of(x) for x in sorted_db.kmers[:3]],
        )
        query = sorted_db.kmers[:50:2]
        expected = small.intersect(query)
        multi = MultiSsdStepTwo(small, kss_tables, n_ssds=8, backend=backend)
        assert as_ints(multi.run(query)[0]) == expected

    def test_empty_query(self, sorted_db, kss_tables):
        multi = MultiSsdStepTwo(sorted_db, kss_tables, n_ssds=2)
        intersecting, retrieved = multi.run([])
        assert as_ints(intersecting) == []
        assert retrieved == {}

    def test_n_ssds_property(self, sorted_db, kss_tables):
        assert MultiSsdStepTwo(sorted_db, kss_tables, n_ssds=4).n_ssds == 4

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_timings_threaded(self, sorted_db, kss_tables, backend):
        query = sorted_db.kmers[::4]
        multi = MultiSsdStepTwo(sorted_db, kss_tables, n_ssds=3, backend=backend)
        timings = PhaseTimings(backend=backend)
        intersecting, _ = multi.run(query, timings=timings)
        assert timings.backend == backend
        assert timings.db_kmers_streamed > 0
        assert timings.query_kmers_streamed > 0
        assert timings.intersect_ms > 0
        assert timings.retrieve_ms > 0
        assert sum(timings.channel_matches.values()) == len(intersecting)
        # Counters accumulate in the caller's timings across calls; the
        # engine keeps none of its own.
        once = timings.db_kmers_streamed
        multi.run(query, timings=timings)
        assert timings.db_kmers_streamed == 2 * once

    @given(st.integers(min_value=1, max_value=6))
    @settings(max_examples=6, deadline=None)
    def test_result_invariant_in_shard_count(self, sorted_db, kss_tables, n):
        query = sorted_db.kmers[::9]
        expected = sorted_db.intersect(query)
        multi = MultiSsdStepTwo(sorted_db, kss_tables, n_ssds=n)
        assert as_ints(multi.run(query)[0]) == expected


class TestMultiSsdBatchedMultiSample:
    def _samples(self, sample, backend):
        partitioner = KmerBucketPartitioner(k=20, n_buckets=6, backend=backend)
        return [
            [(b.lo, b.hi, b.kmers) for b in partitioner.partition(reads).buckets]
            for reads in (sample.reads[:150], sample.reads[150:300])
        ]

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("n_ssds", [1, 3])
    def test_batched_equals_single_ssd_batch(self, sorted_db, kss_tables,
                                             sample, backend, n_ssds):
        samples = self._samples(sample, backend)
        single = IspStepTwo(sorted_db, kss_tables,
                            backend=backend).run_bucketed_multi(samples)
        multi = MultiSsdStepTwo(sorted_db, kss_tables, n_ssds=n_ssds,
                                backend=backend).run_multi(samples)
        assert pairs_as_ints(multi) == pairs_as_ints(single)

    def test_numpy_gathers_database_dtype_columns(self, sorted_db, kss_tables, sample):
        """On numpy, every gathered sample's intersecting k-mers are one
        column in the database column's dtype — its retrieval result's
        own ``queries`` — and equal, as ints, to the python backend's."""
        results = {
            backend: MultiSsdStepTwo(sorted_db, kss_tables, n_ssds=3,
                                     backend=backend).run_multi(
                self._samples(sample, backend)
            )
            for backend in BACKENDS
        }
        for (got, retrieved), (want, reference) in zip(results["numpy"],
                                                      results["python"]):
            assert native_column(got, sorted_db) == want
            assert retrieved.queries is got
            assert retrieved == reference

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_batch_streams_each_shard_once(self, sorted_db, kss_tables,
                                           sample, backend):
        samples = self._samples(sample, backend)
        timings = PhaseTimings()
        multi = MultiSsdStepTwo(sorted_db, kss_tables, n_ssds=3, backend=backend)
        multi.run_multi(samples, timings=timings)
        assert timings.samples_batched == 2
        # Each database k-mer streams at most once per batch regardless of
        # the batch width (shards are disjoint).
        assert timings.db_kmers_streamed <= len(sorted_db)

    def test_empty_batch(self, sorted_db, kss_tables):
        multi = MultiSsdStepTwo(sorted_db, kss_tables, n_ssds=2)
        assert multi.run_multi([]) == []

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_empty_sample_in_batch(self, sorted_db, kss_tables, sample, backend):
        samples = self._samples(sample, backend)
        space = 1 << 40
        samples.append([(0, space, [])])
        multi = MultiSsdStepTwo(sorted_db, kss_tables, n_ssds=3, backend=backend)
        results = multi.run_multi(samples)
        assert as_ints(results[-1][0]) == []
        assert results[-1][1] == {}


class TestUint64BoundaryOverflow:
    """k = 32 puts the key-space bound (1 << 64) beyond the uint64 dtype;
    range edges must resolve positionally instead of overflowing the cast
    (NumPy 1.x would compare via float64 and drop the all-T k-mer)."""

    def test_bisect_column_beyond_dtype(self):
        from repro.backends.base import bisect_column

        column = np.array([1, 2**63, 2**64 - 1], dtype=np.uint64)
        assert bisect_column(column, 1 << 64) == 3
        assert bisect_column(column, 2**64 - 1) == 2
        assert bisect_column(column, 0) == 0

    def test_clip_buckets_keeps_top_kmer(self):
        from repro.backends.base import clip_buckets

        column = np.array([1, 2**63, 2**64 - 1], dtype=np.uint64)
        clipped = clip_buckets([(0, 1 << 64, column)], 2**63, 1 << 64)
        assert len(clipped) == 1
        lo, hi, kmers = clipped[0]
        assert (lo, hi) == (2**63, 1 << 64)
        assert [int(x) for x in kmers] == [2**63, 2**64 - 1]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_sharded_k32_keeps_top_kmer(self, kss_tables, backend):
        k = 32
        kmers = [7, 2**40, 2**63, 2**64 - 1]
        database = SortedKmerDatabase(k, kmers, [frozenset({1})] * len(kmers))
        assert database.column().dtype == np.uint64
        query = kmers[:]
        multi = MultiSsdStepTwo(database, kss_tables, n_ssds=3, backend=backend)
        intersecting, _ = multi.run(query)
        assert as_ints(intersecting) == kmers
        batched = multi.run_multi([[(0, 1 << (2 * k), query)]])
        assert as_ints(batched[0][0]) == kmers


class TestShardValidation:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_misordered_shards_rejected(self, sorted_db, kss_tables, backend):
        """Misordered shards would gather into unsorted output; they are
        refused where shard lists enter, at construction."""
        shards = split_database(sorted_db, 3)
        with pytest.raises(ValueError, match="ascending"):
            MultiSsdStepTwo(kss=kss_tables, shards=list(reversed(shards)),
                            backend=backend)
