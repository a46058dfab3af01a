"""Tests for MegIS Step 1: k-mer bucket partitioning on the host."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.megis.host import (
    PRELIMINARY_SAMPLE,
    Bucket,
    KmerBucketPartitioner,
    column_to_list,
)
from repro.sequences.keys import as_column, column_dtype
from repro.sequences.kmers import KmerCounter, KmerStream, extract_kmers
from repro.sequences.reads import Read
from tests.columns import as_ints
from tests.oracles import is_sorted
from tests.strategies import property_settings


def make_reads(seqs):
    return [Read(i, s, 0) for i, s in enumerate(seqs)]


def quantile_edges(head, k, n_buckets):
    """The boundary pass as it was before edges were prefix-aligned:
    equal-frequency picks of the sorted head, deduplicated, or the
    equal-width cuts of the key space for an empty head."""
    n = len(head)
    if not n:
        return [(1 << (2 * k)) * i // n_buckets for i in range(1, n_buckets)]
    ordered = sorted(head)
    return sorted({ordered[min(n - 1, n * i // n_buckets)] for i in range(1, n_buckets)})


def assert_partitions_alike(seqs, k, n_buckets):
    """The python and numpy partitioners give the same edges and contents."""
    python, numpy_ = (
        KmerBucketPartitioner(
            k=k, n_buckets=n_buckets, backend=backend
        ).partition(make_reads(seqs))
        for backend in ("python", "numpy")
    )
    assert [(b.lo, b.hi, b.kmers) for b in python.buckets] == [
        (b.lo, b.hi, column_to_list(b.kmers)) for b in numpy_.buckets
    ]


@pytest.fixture(scope="module")
def bucket_set(sample):
    partitioner = KmerBucketPartitioner(k=20, n_buckets=8)
    return partitioner.partition(sample.reads)


@pytest.fixture(scope="module")
def python_bucket_set(sample):
    """The ``python`` reference's Step 1: int-list buckets."""
    partitioner = KmerBucketPartitioner(k=20, n_buckets=8, backend="python")
    return partitioner.partition(sample.reads)


class TestBucketIsSorted:
    """Micro-tests for the list-path pairwise scan (no repeated indexing)."""

    @pytest.mark.parametrize("kmers,expected", [
        ([], True),
        ([7], True),
        ([1, 2, 2, 9], True),
        ([1, 3, 2], False),
        ([9, 1], False),
    ])
    def test_list_path(self, kmers, expected):
        assert is_sorted(Bucket(index=0, lo=0, hi=100, kmers=kmers)) is expected

    @pytest.mark.parametrize("kmers,expected", [
        ([], True),
        ([1, 2, 2, 9], True),
        ([1, 3, 2], False),
    ])
    def test_ndarray_path_agrees(self, kmers, expected):
        column = np.asarray(kmers, dtype=np.uint64)
        assert is_sorted(Bucket(index=0, lo=0, hi=100, kmers=column)) is expected

    def test_early_exit_stops_at_first_inversion(self):
        class Tripwire(int):
            pass

        seen = []

        class Recording(list):
            def __iter__(self):
                def gen():
                    for x in super(Recording, self).__iter__():
                        seen.append(x)
                        yield x
                return gen()

        kmers = Recording([1, 5, 3, Tripwire(4), Tripwire(2)])
        assert is_sorted(Bucket(index=0, lo=0, hi=100, kmers=kmers)) is False
        # The scan stopped at the inversion; the tripwire tail was never read.
        assert not any(isinstance(x, Tripwire) for x in seen)


class TestPartitioning:
    def test_buckets_cover_kmer_space(self, bucket_set):
        edges_ok = bucket_set.buckets[0].lo == 0
        assert edges_ok
        assert bucket_set.buckets[-1].hi == 1 << 40  # 2 bits x k=20
        for a, b in zip(bucket_set.buckets, bucket_set.buckets[1:]):
            assert a.hi == b.lo

    def test_each_bucket_sorted_and_in_range(self, bucket_set):
        for bucket in bucket_set.buckets:
            assert is_sorted(bucket)
            assert all(bucket.lo <= x < bucket.hi for x in bucket.kmers)

    def test_concatenation_globally_sorted(self, bucket_set):
        merged = as_ints(bucket_set.merged_column())
        assert merged == sorted(merged)

    def test_matches_kmer_counter_selection(self, sample, bucket_set):
        counter = KmerCounter(20, canonical=False)
        counter.add_sequences(r.sequence for r in sample.reads)
        assert as_ints(bucket_set.merged_column()) == counter.selected(min_count=1).tolist()

    def test_exclusion_thresholds(self, sample):
        strict = KmerBucketPartitioner(k=20, n_buckets=8, min_count=2)
        loose = KmerBucketPartitioner(k=20, n_buckets=8, min_count=1)
        assert strict.partition(sample.reads).total_kmers() < loose.partition(
            sample.reads
        ).total_kmers()

    def test_max_count_exclusion(self):
        reads = make_reads(["A" * 40, "ACGTT" + "A" * 30])
        partitioner = KmerBucketPartitioner(k=10, n_buckets=4, max_count=3)
        bucket_set = partitioner.partition(reads)
        from repro.sequences.encoding import encode_kmer

        assert encode_kmer("A" * 10) not in as_ints(bucket_set.merged_column())

    def test_balanced_buckets(self, bucket_set, python_bucket_set):
        for buckets in (bucket_set, python_bucket_set):
            sizes = [len(b.kmers) for b in buckets.buckets if len(b.kmers)]
            assert max(sizes) < 6 * (sum(sizes) / len(sizes))

    def test_empty_reads(self):
        partitioner = KmerBucketPartitioner(k=10, n_buckets=4)
        bucket_set = partitioner.partition([])
        assert bucket_set.total_kmers() == 0

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            KmerBucketPartitioner(k=10, n_buckets=0)
        with pytest.raises(ValueError):
            KmerBucketPartitioner(k=10, min_count=0)

    @pytest.mark.parametrize("backend", ["python", "numpy"])
    @pytest.mark.parametrize("k", [0, -3])
    def test_k_below_one_is_refused_at_construction(self, backend, k):
        with pytest.raises(ValueError, match="k must be >= 1"):
            KmerBucketPartitioner(k=k, backend=backend)

    @pytest.mark.parametrize("backend", ["python", "numpy"])
    def test_max_count_below_min_count_is_refused(self, backend):
        """Such a window keeps no k-mer: every query would be silently
        empty, so the partitioner refuses it; an equal pair is a window."""
        with pytest.raises(ValueError, match="max_count"):
            KmerBucketPartitioner(k=10, min_count=3, max_count=1, backend=backend)
        reads = make_reads(["ACGTTGCATGCC" * 2])
        kept = KmerBucketPartitioner(
            k=10, n_buckets=4, min_count=2, max_count=2, backend=backend
        ).partition(reads)
        assert kept.total_kmers() == 3  # the three 10-mers seen twice

    @given(st.lists(st.text(alphabet="ACGT", min_size=12, max_size=40), max_size=10))
    @property_settings(20)
    def test_partition_completeness_property(self, seqs):
        partitioner = KmerBucketPartitioner(k=12, n_buckets=5)
        bucket_set = partitioner.partition(make_reads(seqs))
        counter = KmerCounter(12, canonical=False)
        counter.add_sequences(seqs)
        assert as_ints(bucket_set.merged_column()) == counter.selected().tolist()


class TestColumnarPartitioner:
    """Backend-aware Step 1: ndarray bucket columns, bit-identical contents."""

    @pytest.fixture(scope="class")
    def per_backend(self, sample):
        return {
            backend: KmerBucketPartitioner(
                k=20, n_buckets=8, backend=backend
            ).partition(sample.reads)
            for backend in ("python", "numpy")
        }

    def test_native_containers(self, per_backend):
        assert all(isinstance(b.kmers, list) for b in per_backend["python"].buckets)
        assert all(
            isinstance(b.kmers, np.ndarray) for b in per_backend["numpy"].buckets
        )

    def test_identical_contents(self, per_backend):
        python, numpy_ = per_backend["python"], per_backend["numpy"]
        assert as_ints(python.merged_column()) == as_ints(numpy_.merged_column())
        assert [(b.lo, b.hi) for b in python.buckets] == [
            (b.lo, b.hi) for b in numpy_.buckets
        ]
        for a, b in zip(python.buckets, numpy_.buckets):
            assert a.kmers == column_to_list(b.kmers)

    def test_columns_sorted_and_in_range(self, per_backend):
        for bucket in per_backend["numpy"].buckets:
            assert is_sorted(bucket)
            assert all(bucket.lo <= int(x) < bucket.hi for x in bucket.kmers)

    def test_zero_copy_handoff(self, per_backend):
        # as_column on a native column is the identity: the numpy backend
        # streams Step-1 output without any per-call conversion.
        bucket = max(per_backend["numpy"].buckets, key=lambda b: len(b.kmers))
        assert as_column(bucket.kmers, bucket.kmers.dtype) is bucket.kmers

    def test_merged_column(self, per_backend):
        merged = per_backend["numpy"].merged_column()
        assert isinstance(merged, np.ndarray)
        # The kept column is the buckets' concatenation, in range order.
        for bucket_set in per_backend.values():
            assert as_ints(bucket_set.merged_column()) == [
                kmer for bucket in bucket_set.buckets for kmer in as_ints(bucket.kmers)
            ]
        assert isinstance(per_backend["python"].merged_column(), list)

    @pytest.mark.parametrize("thresholds", [
        {"min_count": 2}, {"max_count": 3}, {"min_count": 2, "max_count": 5},
    ])
    def test_exclusion_parity(self, sample, thresholds):
        python = KmerBucketPartitioner(
            k=20, n_buckets=4, backend="python", **thresholds
        ).partition(sample.reads)
        numpy_ = KmerBucketPartitioner(
            k=20, n_buckets=4, backend="numpy", **thresholds
        ).partition(sample.reads)
        assert as_ints(python.merged_column()) == as_ints(numpy_.merged_column())

    def test_pinning_parity(self, sample):
        kwargs = dict(k=20, n_buckets=8, host_dram_bytes=50_000)
        python = KmerBucketPartitioner(backend="python", **kwargs).partition(
            sample.reads
        )
        numpy_ = KmerBucketPartitioner(backend="numpy", **kwargs).partition(
            sample.reads
        )
        assert python.spilled_bytes == numpy_.spilled_bytes
        assert [b.pinned for b in python.buckets] == [
            b.pinned for b in numpy_.buckets
        ]

    @pytest.mark.parametrize("n_buckets", [1, 16, 300, 70_000])
    def test_grouping_is_the_same_at_every_id_width(self, sample, n_buckets):
        """The numpy path cuts its buckets out of one sorted, selected
        column; at every bucket count — more than 65,536 among them — the
        bucket sets equal the Counter path's.  A poly-A read puts k-mer 0
        at the head's low quantiles, so from 300 buckets on the first edge
        is 0 and the first bucket is the empty ``[0, 0)``."""
        reads = make_reads(["A" * 40]) + list(sample.reads)
        python, numpy_ = (
            KmerBucketPartitioner(
                k=20, n_buckets=n_buckets, backend=backend
            ).partition(reads)
            for backend in ("python", "numpy")
        )
        assert [(b.lo, b.hi, b.kmers) for b in python.buckets] == [
            (b.lo, b.hi, column_to_list(b.kmers)) for b in numpy_.buckets
        ]
        if n_buckets >= 300:
            assert (numpy_.buckets[0].lo, numpy_.buckets[0].hi) == (0, 0)
            assert not len(numpy_.buckets[0].kmers)

    @given(
        st.integers(min_value=1, max_value=31),
        st.integers(min_value=1, max_value=40),
        st.lists(st.text(alphabet="ACGT", min_size=0, max_size=40), max_size=8),
        st.integers(min_value=1, max_value=3),
        st.one_of(st.none(), st.integers(min_value=0, max_value=3)),
    )
    @property_settings(80)
    def test_prefix_aligned_buckets_property(
        self, k, n_buckets, seqs, min_count, extra
    ):
        """Every edge is a multiple of ``1 << max(0, 2k - 16)``; the
        buckets tile ``[0, 4^k)``; both backends cut the same buckets
        with the same contents — frequency exclusion over the numpy path's
        one global sort included; and at ``k <= 8``, where the shift is 0,
        the edges are the head's quantiles exactly (the equal-width cuts
        for an empty head), as before edges were aligned."""
        max_count = None if extra is None else min_count + extra
        buckets = [
            KmerBucketPartitioner(
                k=k, n_buckets=n_buckets, min_count=min_count,
                max_count=max_count, backend=backend,
            ).partition(make_reads(seqs)).buckets
            for backend in ("python", "numpy")
        ]
        python, numpy_ = buckets
        step = 1 << max(0, 2 * k - 16)
        assert all(bucket.lo % step == 0 for bucket in numpy_)
        assert numpy_[0].lo == 0 and numpy_[-1].hi == 1 << (2 * k)
        assert all(a.hi == b.lo for a, b in zip(numpy_, numpy_[1:]))
        assert [(b.lo, b.hi, b.kmers) for b in python] == [
            (b.lo, b.hi, column_to_list(b.kmers)) for b in numpy_
        ]
        if k <= 8:
            head = [
                kmer for seq in seqs
                for kmer in extract_kmers(seq, k, canonical=False).tolist()
            ][:PRELIMINARY_SAMPLE]
            assert [b.lo for b in numpy_[1:]] == quantile_edges(head, k, n_buckets)

    @given(
        st.integers(min_value=1, max_value=64),
        st.integers(min_value=1, max_value=40),
        st.data(),
    )
    @property_settings(60)
    def test_boundaries_same_for_ndarray_and_list(self, k, n_buckets, data):
        """The numpy boundary pass picks the same quantiles as the sorted
        list: generated k-mer streams, repeats and all, in ``uint64``
        heads and, past k = 32, ``object`` ones."""
        space = 1 << (2 * k)
        head = data.draw(st.lists(
            st.integers(min_value=0, max_value=space - 1), max_size=200
        ))
        partitioner = KmerBucketPartitioner(k=k, n_buckets=n_buckets)
        want = partitioner._boundaries(head)
        got = partitioner._boundaries(as_column(head, column_dtype(k)))
        assert got == want
        assert all(type(x) is int for x in got)

    @pytest.mark.parametrize("head", [
        [],                                   # empty
        [5] * 300,                            # one distinct k-mer
        [9, 3],                               # fewer k-mers than n_buckets
        list(range(1000, 0, -3)),             # shorter than PRELIMINARY_SAMPLE
        [7] * 4096,                           # a full, degenerate head
    ])
    @pytest.mark.parametrize("n_buckets", [1, 8, 512])
    def test_boundaries_degenerate_heads(self, head, n_buckets):
        partitioner = KmerBucketPartitioner(k=10, n_buckets=n_buckets)
        column = np.asarray(head, dtype=np.uint64)
        assert partitioner._boundaries(column) == partitioner._boundaries(head)

    @pytest.mark.parametrize("seqs", [
        [],
        ["A" * 40] * 3,                       # one distinct k-mer
        ["ACGTACGTACGTA"],                    # fewer k-mers than buckets
        ["ACGTTGCAAGGCTTAGCATCCGATG" * 4] * 5,
    ])
    @pytest.mark.parametrize("n_buckets", [1, 6, 64])
    def test_degenerate_samples_partition_alike(self, seqs, n_buckets):
        """A numpy and a python partitioner on the same reads give the same
        bucket edges and contents, however few distinct k-mers the head
        holds."""
        assert_partitions_alike(seqs, 12, n_buckets)

    @given(
        st.lists(st.text(alphabet="ACGT", min_size=0, max_size=40), max_size=10),
        st.integers(min_value=1, max_value=20),
    )
    @property_settings(30)
    def test_generated_samples_partition_alike(self, seqs, n_buckets):
        assert_partitions_alike(seqs, 8, n_buckets)

    def test_empty_reads_columnar(self):
        bucket_set = KmerBucketPartitioner(
            k=10, n_buckets=4, backend="numpy"
        ).partition([])
        assert bucket_set.total_kmers() == 0
        assert all(isinstance(b.kmers, np.ndarray) for b in bucket_set.buckets)

    def test_backend_name(self):
        assert KmerBucketPartitioner(k=10, backend="numpy")._backend.name == "numpy"
        assert KmerBucketPartitioner(k=10)._backend.name == "numpy"


class TestPinning:
    def test_unlimited_dram_pins_everything(self, bucket_set):
        assert all(b.pinned for b in bucket_set.buckets)
        assert bucket_set.spilled_bytes == 0

    def test_small_dram_spills(self, sample):
        partitioner = KmerBucketPartitioner(
            k=20, n_buckets=8, host_dram_bytes=1024
        )
        bucket_set = partitioner.partition(sample.reads)
        assert bucket_set.spilled_bytes > 0
        assert any(not b.pinned for b in bucket_set.buckets)
        spilled = sum(
            b.byte_size(partitioner.kmer_bytes)
            for b in bucket_set.buckets
            if not b.pinned
        )
        assert spilled == bucket_set.spilled_bytes

    def test_negative_dram_is_refused(self):
        with pytest.raises(ValueError, match="host_dram_bytes"):
            KmerBucketPartitioner(k=20, host_dram_bytes=-1)

    def test_zero_dram_spills_everything(self, sample):
        partitioner = KmerBucketPartitioner(k=20, n_buckets=4, host_dram_bytes=0)
        bucket_set = partitioner.partition(sample.reads)
        assert not any(b.pinned for b in bucket_set.buckets if len(b.kmers))
        assert bucket_set.spilled_bytes == (
            bucket_set.total_kmers() * partitioner.kmer_bytes
        )

    def test_pinned_fit_in_dram(self, sample):
        dram = 50_000
        partitioner = KmerBucketPartitioner(k=20, n_buckets=8, host_dram_bytes=dram)
        bucket_set = partitioner.partition(sample.reads)
        pinned = sum(
            b.byte_size(partitioner.kmer_bytes) for b in bucket_set.buckets if b.pinned
        )
        assert pinned <= dram


class TestKeptStream:
    """``partition(reads, keep_stream=True)``: the one sort is of
    read-tagged words, the buckets are the ones a bare sort cuts, and the
    stream holds every (k-mer, read) pair of the sample in key order."""

    @given(
        st.lists(st.text(alphabet="ACGT", max_size=30), max_size=12),
        st.sampled_from([3, 8, 12]),
        st.sampled_from([(1, None), (2, None), (1, 2)]),
    )
    @property_settings(40)
    def test_buckets_unchanged_and_stream_complete(self, seqs, k, window):
        min_count, max_count = window
        partitioner = KmerBucketPartitioner(
            k=k, n_buckets=5, min_count=min_count, max_count=max_count
        )
        bare = partitioner.partition(make_reads(seqs))
        kept = partitioner.partition(make_reads(seqs), keep_stream=True)
        assert bare.stream is None
        assert [(b.lo, b.hi, b.kmers.tolist()) for b in kept.buckets] == [
            (b.lo, b.hi, b.kmers.tolist()) for b in bare.buckets
        ]
        stream = kept.stream
        assert stream.k == k
        assert bool(np.all(stream.words[:-1] <= stream.words[1:]))
        pairs = sorted(
            (kmer, read)
            for read, seq in enumerate(seqs)
            for kmer in extract_kmers(seq, k, canonical=False).tolist()
        )
        assert list(zip(stream.kmers().tolist(), stream.reads().tolist())) == pairs
        assert stream.lengths.tolist() == [len(seq) for seq in seqs]
        assert stream.last_kmers.tolist() == [
            int(extract_kmers(seq, k, canonical=False)[-1]) if len(seq) >= k else 0
            for seq in seqs
        ]

    def test_a_word_that_does_not_fit_keeps_no_stream(self):
        """At k = 31 a read id has 2 bits beside the k-mer: 4 reads keep a
        stream, 5 sort the bare k-mers into the same buckets."""
        seqs = [("ACGTTGCATGCCGATAGCTAGGATCCATTGACCAG" * 2)[i:i + 40] for i in range(5)]
        partitioner = KmerBucketPartitioner(k=31, n_buckets=4)
        assert partitioner.partition(make_reads(seqs[:4]), keep_stream=True).stream
        kept = partitioner.partition(make_reads(seqs), keep_stream=True)
        assert kept.stream is None
        assert [b.kmers.tolist() for b in kept.buckets] == [
            b.kmers.tolist() for b in partitioner.partition(make_reads(seqs)).buckets
        ]

    def test_the_reference_path_keeps_no_stream(self, sample):
        partitioner = KmerBucketPartitioner(k=20, n_buckets=4, backend="python")
        assert partitioner.partition(sample.reads[:20], keep_stream=True).stream is None

    def test_build_refuses_a_word_that_does_not_fit(self):
        assert KmerStream.build(["ACGT"] * 4, 31) is not None
        assert KmerStream.build(["ACGT"] * 5, 31) is None
