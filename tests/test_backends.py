"""Cross-backend equivalence: python and numpy must agree bit for bit.

MegIS's accuracy-identity claim requires every Step-2 execution engine to
produce exactly the reference results — same intersecting k-mers, same KSS
retrievals, same abundance profiles.  These tests pit the backends against
each other and against the software references on randomized inputs,
including empty buckets, empty samples, and single-channel configurations.
Every backend is entered where it is served, through ``step_two`` over a
shard (a random database runs over its own KSS, :func:`own_shard`);
retrieval of arbitrary queries goes through :func:`retrieve_with`.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.backends import (
    DEFAULT_BACKEND,
    PhaseTimings,
    StepTwoBackend,
    available_backends,
    get_backend,
)
from repro.backends.retrieval import group_sorted
from repro.backends.signatures import pack_sets_csr
from repro.databases.sorted_db import SortedKmerDatabase
from repro.megis.host import KmerBucketPartitioner
from repro.megis.index import MegisIndex
from repro.megis.multissd import MultiSsdStepTwo, whole_range, whole_shard
from repro.megis.session import AnalysisSession, MegisConfig
from repro.sequences.keys import as_column, fits_word
from repro.tools.mapping import ColumnarUnifiedIndex
from tests.columns import (
    as_ints,
    native_column,
    own_shard,
    pairs_as_ints,
    query_dicts,
    retrieve_with,
)
from tests.conftest import SKETCH_K
from tests.oracles import database_from_rows

BACKENDS = ("python", "numpy")
SPACE = 1 << (2 * SKETCH_K)


def random_database(rng: random.Random, size: int, k: int = SKETCH_K) -> SortedKmerDatabase:
    kmers = sorted(rng.sample(range(1 << (2 * k)), size))
    owners = [frozenset({rng.randrange(1000, 1010)}) for _ in kmers]
    return database_from_rows(k, kmers, owners)


def random_query(rng: random.Random, database: SortedKmerDatabase, n: int) -> list:
    hits = rng.sample(database.kmers, min(n // 2, len(database)))
    misses = [rng.randrange(SPACE) for _ in range(n - len(hits))]
    return sorted(set(hits + misses))


def step_two(backend, shard, samples, n_channels=8, timings=None) -> list:
    """Each sample's intersecting k-mers from ``backend``'s Step 2."""
    return [
        intersecting for intersecting, _ in
        get_backend(backend).step_two(shard, samples, n_channels, timings)
    ]


def intersect(backend, database, query, n_channels=8, timings=None):
    """One sorted query over the whole database: the one-sample batch of
    the one bucket spanning the key space, on the database's own KSS."""
    [result] = step_two(backend, own_shard(database),
                        [whole_range(query, database.k)], n_channels, timings)
    return result


def bucketize(query: list, edges: list) -> list:
    """Split a sorted query into (lo, hi, kmers) buckets at the given edges."""
    from bisect import bisect_left

    bounds = [0] + sorted(edges) + [SPACE]
    return [
        (lo, hi, query[bisect_left(query, lo):bisect_left(query, hi)])
        for lo, hi in zip(bounds, bounds[1:])
    ]


class TestOwnerCsrPacking:
    """``pack_sets_csr`` is the per-row loop it replaced, array for array."""

    @staticmethod
    def looped(sets):
        offsets = np.zeros(len(sets) + 1, dtype=np.int64)
        for i, owners in enumerate(sets):
            offsets[i + 1] = offsets[i] + len(owners)
        taxids = np.empty(int(offsets[-1]), dtype=np.int64)
        for i, owners in enumerate(sets):
            taxids[offsets[i] : offsets[i + 1]] = sorted(owners)
        return taxids, offsets

    @pytest.mark.parametrize("sets", [
        [],
        [frozenset()],
        [frozenset(), frozenset({7, 2}), frozenset(), frozenset({5}), frozenset()],
        [frozenset({9, 1, 4}), frozenset({1}), frozenset({2**40, 3})],
    ], ids=["no_rows", "one_empty_row", "empty_rows_between", "full_rows"])
    def test_equals_the_row_loop(self, sets):
        for got, want in zip(pack_sets_csr(sets), self.looped(sets)):
            assert got.dtype == want.dtype == np.int64
            assert got.tolist() == want.tolist()

    def test_group_sorted_is_the_csr_of_a_sorted_column(self):
        keys = np.array([3, 3, 5, 9, 9, 9], dtype=np.uint64)
        distinct, offsets = group_sorted(keys)
        assert distinct.tolist() == [3, 5, 9] and distinct.dtype == np.uint64
        assert offsets.tolist() == [0, 2, 3, 6] and offsets.dtype == np.int64
        distinct, offsets = group_sorted(keys[:0])
        assert distinct.tolist() == [] and offsets.tolist() == [0]


class TestRegistry:
    def test_available(self):
        assert set(BACKENDS) <= set(available_backends())

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            get_backend("fortran")

    def test_instance_passthrough(self):
        backend = get_backend("numpy")
        assert get_backend(backend) is backend

    def test_config_rejects_unknown(self):
        with pytest.raises(ValueError):
            MegisConfig(backend="fortran")
        # None is no longer "whatever the process says".
        with pytest.raises(ValueError):
            MegisConfig(backend=None)


class TestOneMethodContract:
    """A backend is ``name``, ``columnar``, ``query_column`` and one
    abstract method, ``step_two``: nothing else is asked of it."""

    def test_step_two_is_the_only_abstract_method(self):
        assert StepTwoBackend.__abstractmethods__ == {"step_two"}

    def test_a_step_two_only_backend_serves_a_session(self, sorted_db, sketch_db, sample):
        numpy_ = get_backend("numpy")

        class StepTwoOnly(StepTwoBackend):
            name = "step-two-only"
            columnar = True

            def query_column(self, values, k):
                return numpy_.query_column(values, k)

            def step_two(self, shard, samples, n_channels=8, timings=None):
                return numpy_.step_two(shard, samples, n_channels, timings)

        index = MegisIndex(sorted_db, sketch_db, sample.references)
        chunks = [sample.reads[:150], sample.reads[150:300], sample.reads[300:]]
        want = AnalysisSession(index, backend="numpy").analyze_batch(chunks)
        got = AnalysisSession(index, backend=StepTwoOnly()).analyze_batch(chunks)
        assert all(result.candidates for result in want)
        for mine, reference in zip(got, want):
            assert mine.candidates == reference.candidates
            assert mine.profile.fractions == reference.profile.fractions


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("n_channels", [1, 5])
class TestIntersectEquivalence:
    def test_matches_reference(self, backend, seed, n_channels):
        rng = random.Random(seed)
        database = random_database(rng, 400)
        query = random_query(rng, database, 150)
        shard = own_shard(database)
        [(result, retrieved)] = get_backend(backend).step_two(
            shard, [whole_range(query, SKETCH_K)], n_channels
        )
        assert as_ints(result) == database.intersect(query)
        assert query_dicts(retrieved) == query_dicts(shard.kss.retrieve(result))

    def test_bucketed_matches_flat(self, backend, seed, n_channels):
        rng = random.Random(seed + 100)
        database = random_database(rng, 300)
        query = random_query(rng, database, 120)
        edges = sorted(rng.sample(range(1, SPACE), 5))
        buckets = bucketize(query, edges)
        assert any(not kmers for _, _, kmers in buckets) or len(buckets) == 6
        [result] = step_two(backend, own_shard(database), [buckets], n_channels)
        assert as_ints(result) == database.intersect(query)


@pytest.mark.parametrize("backend", BACKENDS)
class TestIntersectEdgeCases:
    def test_empty_query(self, backend):
        database = random_database(random.Random(3), 50)
        assert as_ints(intersect(backend, database, [], 4)) == []

    def test_empty_database(self, backend):
        database = database_from_rows(SKETCH_K, [], [])
        assert as_ints(intersect(backend, database, [1, 2, 3], 4)) == []

    def test_all_buckets_empty(self, backend):
        database = random_database(random.Random(4), 50)
        buckets = [(0, 100, []), (100, SPACE, [])]
        [result] = step_two(backend, own_shard(database), [buckets], 2)
        assert as_ints(result) == []

    def test_timings_recorded(self, backend):
        rng = random.Random(5)
        database = random_database(rng, 200)
        query = random_query(rng, database, 80)
        timings = PhaseTimings(backend=backend)
        intersect(backend, database, query, 4, timings)
        assert timings.db_kmers_streamed == len(database)
        assert timings.query_kmers_streamed == len(query)
        assert timings.db_stream_passes == 1


@pytest.mark.parametrize("backend", BACKENDS)
class TestMultiSampleBatching:
    def _samples(self, rng, database, n_samples):
        samples = []
        for _ in range(n_samples):
            query = random_query(rng, database, rng.randrange(40, 120))
            edges = sorted(rng.sample(range(1, SPACE), rng.randrange(2, 6)))
            samples.append(bucketize(query, edges))
        return samples

    @pytest.mark.parametrize("seed", [10, 11])
    def test_batched_equals_individual(self, backend, seed):
        rng = random.Random(seed)
        database = random_database(rng, 350)
        samples = self._samples(rng, database, 3)
        shard = own_shard(database)
        engine = get_backend(backend)
        batched = engine.step_two(shard, samples, 4)
        for got, buckets in zip(batched, samples):
            alone = engine.step_two(shard, [buckets], 4)
            assert pairs_as_ints([got]) == pairs_as_ints(alone)

    def test_cross_backend_identical(self, backend, kss_tables, sorted_db, sample):
        partitioner = KmerBucketPartitioner(k=SKETCH_K, n_buckets=8)
        samples = [
            [(b.lo, b.hi, b.kmers) for b in partitioner.partition(reads).buckets]
            for reads in (sample.reads[:150], sample.reads[150:300])
        ]
        shard = whole_shard(sorted_db, kss_tables)
        mine = get_backend(backend).step_two(shard, samples, 4)
        reference = get_backend("python").step_two(shard, samples, 4)
        assert pairs_as_ints(mine) == pairs_as_ints(reference)

    def test_empty_sample_in_batch(self, backend):
        rng = random.Random(12)
        database = random_database(rng, 100)
        query = random_query(rng, database, 40)
        samples = [bucketize(query, [SPACE // 2]), bucketize([], [SPACE // 2])]
        batched = step_two(backend, own_shard(database), samples, 2)
        assert as_ints(batched[0]) == database.intersect(query)
        assert as_ints(batched[1]) == []

    def test_no_samples(self, backend):
        database = random_database(random.Random(13), 30)
        assert get_backend(backend).step_two(own_shard(database), [], 2) == []

    def test_out_of_order_buckets_rejected(self, backend):
        """Mis-ordered buckets would silently mis-slice; they must raise."""
        rng = random.Random(15)
        database = random_database(rng, 60)
        query = random_query(rng, database, 30)
        ordered = bucketize(query, [SPACE // 2])
        with pytest.raises(ValueError):
            get_backend(backend).step_two(
                own_shard(database), [list(reversed(ordered))], 2
            )

    def test_out_of_range_kmers_rejected(self, backend):
        database = random_database(random.Random(16), 60)
        samples = [[(0, 10, [3, 7]), (10, 20, [5, 12])]]  # 5 < lo of its bucket
        with pytest.raises(ValueError):
            get_backend(backend).step_two(own_shard(database), samples, 2)

    def test_database_streamed_once_per_batch(self, backend):
        """The batch streams each database interval once, not once per sample."""
        rng = random.Random(14)
        database = random_database(rng, 200)
        queries = [random_query(rng, database, 60) for _ in range(3)]
        samples = [bucketize(q, [SPACE // 2]) for q in queries]
        shard = own_shard(database)
        batched = PhaseTimings()
        get_backend(backend).step_two(shard, samples, 2, batched)
        individual = PhaseTimings()
        for buckets in samples:
            get_backend(backend).step_two(shard, [buckets], 2, individual)
        assert batched.samples_batched == 3
        assert batched.db_kmers_streamed == len(database)
        assert individual.db_kmers_streamed == 3 * len(database)


@pytest.mark.parametrize("backend", BACKENDS)
class TestShardedKernels:
    """Sharded Step 2 (§6.1) on randomized databases.

    Sharding is not a backend entry point: a shard clips the buckets to
    its range and runs the backend's ``step_two``
    (:func:`repro.megis.multissd.shard_step_two`).  These seeds drive it
    through :class:`MultiSsdStepTwo`; the generated-input form is the
    kernel property in ``tests/test_multissd.py``.
    """

    @pytest.mark.parametrize("seed", [30, 31, 32])
    def test_sharded_matches_reference(self, backend, seed, kss_tables):
        rng = random.Random(seed)
        database = random_database(rng, 400)
        query = random_query(rng, database, 150)
        engine = MultiSsdStepTwo(database, kss_tables, n_ssds=rng.randrange(1, 6),
                                 backend=backend)
        timings = PhaseTimings()
        intersecting, retrieved = engine.run(query, timings=timings)
        assert timings.db_stream_passes == len(engine.shards)
        assert as_ints(intersecting) == database.intersect(query)
        assert query_dicts(retrieved) == query_dicts(kss_tables.retrieve(intersecting))

    @pytest.mark.parametrize("seed", [40, 41])
    def test_sharded_multi_matches_whole_db_batch(self, backend, seed, kss_tables):
        rng = random.Random(seed)
        database = random_database(rng, 350)
        samples = []
        for _ in range(3):
            query = random_query(rng, database, rng.randrange(40, 120))
            edges = sorted(rng.sample(range(1, SPACE), rng.randrange(2, 6)))
            samples.append(bucketize(query, edges))
        engine = MultiSsdStepTwo(database, kss_tables, n_ssds=3, backend=backend)
        sharded = engine.run_multi(samples)
        whole = get_backend(backend).step_two(whole_shard(database, kss_tables), samples, 4)
        assert pairs_as_ints(sharded) == pairs_as_ints(whole)

    def test_sharded_cross_backend(self, backend, kss_tables):
        rng = random.Random(50)
        database = random_database(rng, 300)
        query = random_query(rng, database, 120)
        mine = MultiSsdStepTwo(database, kss_tables, n_ssds=4,
                               backend=backend).run(query)
        reference = MultiSsdStepTwo(database, kss_tables, n_ssds=4,
                                    backend="python").run(query)
        assert pairs_as_ints([mine]) == pairs_as_ints([reference])

    def test_no_shards(self, backend, kss_tables):
        """An empty shard list has no answer to give; it is refused where
        shard lists enter, at construction."""
        with pytest.raises(ValueError, match="non-empty"):
            MultiSsdStepTwo(kss=kss_tables, shards=[], backend=backend)


@pytest.mark.parametrize("backend", BACKENDS)
class TestRetrievalEquivalence:
    def test_matches_reference(self, backend, kss_tables, sorted_db):
        """Database rows through the served Step 2: what a search of the
        KSS answers for the intersecting k-mers."""
        queries = sorted(set(sorted_db.kmers[::4]))
        [(hits, got)] = get_backend(backend).step_two(
            whole_shard(sorted_db, kss_tables), [whole_range(queries, SKETCH_K)]
        )
        assert as_ints(hits) == queries
        want = kss_tables.retrieve(queries)
        for k, ids in want.levels.items():
            assert got.levels[k].tolist() == ids.tolist()
        assert query_dicts(got) == query_dicts(want)

    def test_random_queries_match_reference(self, backend, kss_tables):
        rng = random.Random(20)
        queries = sorted({rng.randrange(SPACE) for _ in range(200)})
        got = retrieve_with(backend, kss_tables, queries)
        want = kss_tables.retrieve(queries)
        for k, ids in want.levels.items():
            assert got.levels[k].tolist() == ids.tolist()
        assert query_dicts(got) == query_dicts(want)

    def test_empty(self, backend, kss_tables, sorted_db):
        [(_, empty)] = get_backend(backend).step_two(
            whole_shard(sorted_db, kss_tables), [whole_range([], SKETCH_K)]
        )
        assert query_dicts(empty) == {}
        assert set(empty.levels) == {kss_tables.k_max, *kss_tables.smaller_ks}


class TestDatabaseBackendParam:
    def test_column_cached_and_sorted(self, sorted_db):
        column = sorted_db.column()
        assert sorted_db.column() is column
        assert len(column) == len(sorted_db)
        assert [int(x) for x in column] == sorted_db.kmers

    def test_big_k_uses_object_dtype(self):
        # k = 60 (the paper's choice) needs 120-bit k-mers; the columnar
        # path must stay correct beyond uint64.
        k = 60
        kmers = sorted({(1 << 100) + i * 7 for i in range(50)})
        database = database_from_rows(k, kmers, [frozenset({1})] * len(kmers))
        assert database.column().dtype == object
        query = kmers[::3] + [(1 << 119) + 1]
        for backend in BACKENDS:
            got = intersect(backend, database, query)
            assert as_ints(got) == database.intersect(query)
        assert native_column(got, database) == database.intersect(query)

    @pytest.mark.parametrize("k", [SKETCH_K, 32, 40])
    def test_numpy_intersect_returns_database_dtype_columns(self, k):
        """The numpy kernel hands back one column per sample in the
        database column's dtype (``uint64``, ``object`` past 32 bases),
        an empty sample included; python hands back int lists.  As ints
        they are equal."""
        rng = random.Random(k)
        kmers = sorted({rng.getrandbits(2 * k) for _ in range(120)})
        database = database_from_rows(k, kmers, [frozenset({1})] * len(kmers))
        query = sorted(set(kmers[::3]) | {rng.getrandbits(2 * k) for _ in range(20)})
        samples = [whole_range(query, k), whole_range([], k)]
        shard = own_shard(database)
        mine = step_two("numpy", shard, samples, 4)
        reference = step_two("python", shard, samples, 4)
        assert all(isinstance(column, list) for column in reference)
        assert [native_column(column, database) for column in mine] == reference
        assert len(reference[0]) and not len(reference[1])

    def test_as_column_empty(self, sorted_db):
        assert len(as_column([], sorted_db.column().dtype)) == 0


class TestPipelineEquivalence:
    @pytest.fixture(scope="class")
    def default_session(self, sorted_db, sketch_db, sample):
        """A session that names no backend: the one default engine."""
        return AnalysisSession(MegisIndex(sorted_db, sketch_db, sample.references))

    @pytest.fixture(scope="class")
    def per_backend_results(self, sorted_db, sketch_db, sample):
        results = {}
        for backend in BACKENDS:
            session = AnalysisSession(
                MegisIndex(sorted_db, sketch_db, sample.references),
                config=MegisConfig(backend=backend),
            )
            results[backend] = session.analyze(sample.reads)
        return results

    def test_identical_outputs(self, per_backend_results, default_session, sample):
        python, numpy = (per_backend_results[b] for b in BACKENDS)
        default = default_session.analyze(sample.reads)
        assert python.intersecting_kmers == numpy.intersecting_kmers
        # The public result stays a list of Python ints on every backend.
        for result in (python, numpy):
            assert type(result.intersecting_kmers) is list
            assert all(type(kmer) is int for kmer in result.intersecting_kmers)
        assert python.sketch_hits == numpy.sketch_hits
        assert python.candidates == numpy.candidates
        assert python.profile.fractions == numpy.profile.fractions
        assert default.intersecting_kmers == python.intersecting_kmers
        assert default.candidates == python.candidates
        assert default.profile.fractions == python.profile.fractions

    def test_default_session_runs_numpy_end_to_end(self, default_session, sample):
        """Step 1, every Step 2 and the Step-3 index type all run the one
        engine the session resolved at construction."""
        assert DEFAULT_BACKEND == "numpy"
        assert get_backend() is get_backend("numpy")
        assert default_session.config.backend == "numpy"
        assert default_session.backend_name == "numpy"
        assert default_session._partitioner._backend is get_backend("numpy")
        assert default_session.isp._backend is get_backend("numpy")
        results = default_session.analyze_batch([sample.reads[:200], sample.reads[200:]])
        assert [r.timings.backend for r in results] == ["numpy", "numpy"]
        assert fits_word(default_session.config.mapper_k)
        unified, _ = default_session.unified_index(results[0].candidates)
        assert isinstance(unified, ColumnarUnifiedIndex)

    def test_timings_populated(self, per_backend_results):
        # A bare breakdown names no engine: none has run.
        assert PhaseTimings().backend == ""
        for backend, result in per_backend_results.items():
            assert result.timings.backend == backend
            assert result.timings.db_kmers_streamed > 0
            assert result.timings.query_kmers_streamed > 0
            assert result.timings.total_ms > 0
            assert result.timings.samples_batched == 1

    @pytest.mark.parametrize("method", ["mapping", "statistical"])
    def test_candidate_call_is_its_own_phase(self, sorted_db, sketch_db, sample, method):
        """The hit fold and candidate call are timed as ``candidates_ms``,
        apart from Step 2 and Step 3, and count in the total."""
        session = AnalysisSession(
            MegisIndex(sorted_db, sketch_db, sample.references),
            config=MegisConfig(abundance_method=method),
        )
        timings = session.analyze(sample.reads[:200]).timings
        assert timings.candidates_ms > 0
        assert timings.as_dict()["candidates_ms"] == timings.candidates_ms
        phases = ("extract", "intersect", "retrieve", "candidates", "abundance")
        assert timings.total_ms == pytest.approx(
            sum(getattr(timings, f"{phase}_ms") for phase in phases)
        )

    def test_multi_sample_batched_matches_individual(self, sorted_db, sketch_db, sample):
        session = AnalysisSession(
            MegisIndex(sorted_db, sketch_db, sample.references),
            config=MegisConfig(backend="numpy"),
        )
        halves = [sample.reads[:200], sample.reads[200:]]
        batched = session.analyze_batch(halves)
        individual = [session.analyze(reads) for reads in halves]
        for got, want in zip(batched, individual):
            assert got.intersecting_kmers == want.intersecting_kmers
            assert got.candidates == want.candidates
            assert got.profile.fractions == want.profile.fractions
            assert got.timings.samples_batched == 2
            # The batch streams the database once for both samples.
            assert got.timings.db_kmers_streamed < (
                individual[0].timings.db_kmers_streamed
                + individual[1].timings.db_kmers_streamed
            )

    def test_multi_sample_empty(self, sorted_db, sketch_db, sample):
        session = AnalysisSession(
            MegisIndex(sorted_db, sketch_db, sample.references)
        )
        assert session.analyze_batch([]) == []

    def test_sharded_pipeline_bit_identical(self, sorted_db, sketch_db, sample,
                                            per_backend_results):
        """n_ssds > 1 changes nothing observable: same intersections,
        candidates, and abundance profile as the single-SSD python run."""
        reference = per_backend_results["python"]
        for backend in BACKENDS:
            session = AnalysisSession(
                MegisIndex(sorted_db, sketch_db, sample.references),
                config=MegisConfig(backend=backend, n_ssds=3),
            )
            result = session.analyze(sample.reads)
            assert result.intersecting_kmers == reference.intersecting_kmers
            assert result.sketch_hits == reference.sketch_hits
            assert result.candidates == reference.candidates
            assert result.profile.fractions == reference.profile.fractions
