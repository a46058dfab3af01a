"""Tests for MegIS Step 2: in-storage intersection and taxID retrieval.

The invariant: the hardware-flavoured implementations must produce exactly
what the software references produce — SortedKmerDatabase.intersect for the
Intersect units, KssTables.retrieve and SketchDatabase.lookup for the
TaxIdRetriever's streaming KSS pass.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.backends.python_backend import (
    IntersectUnit,
    TaxIdRetriever,
    stripe_database,
)
from repro.megis.isp import IspStepTwo
from repro.megis.multissd import whole_range
from tests.columns import as_ints, query_dicts
from tests.conftest import SKETCH_K
from tests.oracles import sketch_lookup

BACKENDS = ("python", "numpy")


class TestIntersectUnit:
    def test_basic_merge(self):
        unit = IntersectUnit(channel=0)
        assert unit.intersect([1, 3, 5, 7], [2, 3, 7, 9]) == [3, 7]

    def test_empty_streams(self):
        unit = IntersectUnit(channel=0)
        assert unit.intersect([], [1, 2]) == []
        assert unit.intersect([1, 2], []) == []

    def test_comparisons_counted(self):
        unit = IntersectUnit(channel=0)
        unit.intersect([1, 2, 3], [2])
        assert unit.comparisons > 0

    @given(
        st.lists(st.integers(0, 500), max_size=60),
        st.lists(st.integers(0, 500), max_size=60),
    )
    def test_matches_set_intersection(self, a, b):
        db = sorted(set(a))
        query = sorted(set(b))
        unit = IntersectUnit(channel=0)
        assert unit.intersect(db, query) == sorted(set(db) & set(query))


class TestStriping:
    def test_stripes_partition_and_stay_sorted(self):
        kmers = list(range(0, 100, 3))
        stripes = stripe_database(kmers, 4)
        assert sorted(x for s in stripes for x in s) == kmers
        for stripe in stripes:
            assert stripe == sorted(stripe)

    def test_even_distribution(self):
        stripes = stripe_database(list(range(80)), 8)
        assert all(len(s) == 10 for s in stripes)

    def test_invalid_channels(self):
        with pytest.raises(ValueError):
            stripe_database([1], 0)


def run_flat(isp, sorted_query):
    """A flat sorted query through the engine: the one-sample batch of the
    one bucket spanning the key space."""
    [result] = isp.run_bucketed_multi([whole_range(sorted_query, SKETCH_K)])
    return result


class TestIspStepTwo:
    def test_run_matches_reference_intersect(self, sorted_db, kss_tables, sample):
        from repro.megis.host import KmerBucketPartitioner

        buckets = KmerBucketPartitioner(
            k=SKETCH_K, n_buckets=8, backend="python"
        ).partition(sample.reads)
        query = as_ints(buckets.merged_column())
        isp = IspStepTwo(sorted_db, kss_tables, n_channels=8, backend="python")
        intersecting, _ = run_flat(isp, query)
        assert intersecting == sorted_db.intersect(query)

    def test_bucketed_equals_flat(self, sorted_db, kss_tables, sample):
        from repro.megis.host import KmerBucketPartitioner

        for backend in BACKENDS:
            buckets = KmerBucketPartitioner(
                k=SKETCH_K, n_buckets=8, backend=backend
            ).partition(sample.reads)
            isp = IspStepTwo(sorted_db, kss_tables, n_channels=4, backend=backend)
            flat, flat_taxids = run_flat(isp, buckets.merged_column())
            bucketed, bucketed_taxids = isp.run_bucket_set(buckets)
            assert as_ints(bucketed) == as_ints(flat)
            assert query_dicts(bucketed_taxids) == query_dicts(flat_taxids)

    def test_channel_count_does_not_change_result(self, sorted_db, kss_tables):
        query = sorted_db.kmers[::5]
        results = [
            as_ints(run_flat(
                IspStepTwo(sorted_db, kss_tables, n_channels=n, backend=backend),
                query,
            )[0])
            for backend in BACKENDS
            for n in (1, 3, 8)
        ]
        assert all(result == results[0] for result in results)


class TestTaxIdRetriever:
    def test_matches_kss_reference(self, kss_tables, sorted_db):
        queries = sorted(set(sorted_db.kmers[::4]))
        hardware = TaxIdRetriever(kss_tables).retrieve(queries)
        reference = kss_tables.retrieve(queries)
        for k, ids in reference.levels.items():
            assert hardware.levels[k].tolist() == ids.tolist()
        assert query_dicts(hardware) == query_dicts(reference)

    def test_matches_sketch_lookup(self, kss_tables, sketch_db):
        queries = sorted(sketch_db.tables[SKETCH_K])[:250]
        results = query_dicts(TaxIdRetriever(kss_tables).retrieve(queries))
        for q in queries:
            assert results[q] == sketch_lookup(sketch_db, q)

    def test_empty_query(self, kss_tables):
        assert query_dicts(TaxIdRetriever(kss_tables).retrieve([])) == {}

    def test_unsorted_rejected(self, kss_tables):
        with pytest.raises(ValueError):
            TaxIdRetriever(kss_tables).retrieve([9, 1])

    def test_index_generator_advances(self, kss_tables, sketch_db):
        retriever = TaxIdRetriever(kss_tables)
        retriever.retrieve(sorted(sketch_db.tables[SKETCH_K])[:50])
        # One advance per prefix transition per level, capped by the early
        # exit once the query stream is exhausted.
        upper_bound = sum(
            len(kss_tables.sub_tables[k]) - 1 for k in kss_tables.smaller_ks
        )
        assert 0 < retriever.index_generator_advances <= upper_bound

    @given(st.data())
    @settings(max_examples=20, deadline=None)
    def test_random_queries_property(self, kss_tables, sketch_db, data):
        space = (1 << (2 * SKETCH_K)) - 1
        queries = sorted(
            set(
                data.draw(
                    st.lists(st.integers(min_value=0, max_value=space), max_size=25)
                )
            )
        )
        results = query_dicts(TaxIdRetriever(kss_tables).retrieve(queries))
        for q in queries:
            assert results[q] == sketch_lookup(sketch_db, q)
