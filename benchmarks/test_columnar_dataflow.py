"""Columnar-dataflow identity checks: native bucket columns, CSR retrieval, cold open.

Pins the structural wins of the columnar refactor:

- Step 1 emits ndarray bucket columns natively, so the numpy Step-2 engine
  streams them with zero per-call conversion — and answers exactly as it
  does over the list-bucket hand-off it previously received (which
  re-converted every bucket on every call);
- KSS retrieval emits CSR owner columns and hit accumulation + containment
  run as ``np.unique``/array expressions — bit-identical to the
  register-level reference on the same inputs;
- a cold-opened ``MegisIndex`` serves its first query straight off the
  persisted CSR sections — zero column rebuilds and zero ``KssTables``
  row-object materializations, asserted via the cache-build counters.

Sharded (multi-SSD) Step 2 against the single-SSD result it must
reproduce bit for bit is ``tests/test_multissd.py``.  Nothing here
asserts a wall-clock ratio: the ``*_floor`` tests keep the identity half
of the floors they were named for, and how fast the host runs them is a
``benchmarks/ledger`` row against the parent commit.
"""

import random
from bisect import bisect_left

import numpy as np
import pytest

from repro.backends import get_backend
from repro.backends.numpy_backend import as_column
from repro.databases.kss import KssTables
from repro.databases.sorted_db import SortedKmerDatabase
from repro.megis.host import KmerBucketPartitioner
from repro.tools.metalign import accumulate_hits, select_candidates
from benchmarks.conftest import BENCH_K
from tests.strategies import synthetic_sketch

N_BUCKETS = 16


def _partitioned_query(n_db=100_000, n_query=1_000_000):
    """A sorted database plus one query pre-partitioned into buckets twice:
    once as Python lists (the PR 1 hand-off) and once as native ndarray
    columns (the columnar hand-off).  ~10% of queries hit the database."""
    db_kmers = list(range(0, 10 * n_db, 10))
    database = SortedKmerDatabase(BENCH_K, db_kmers, [frozenset({1})] * n_db)
    database.column()
    query = [x * 10 + (0 if x % 10 == 0 else 3) for x in range(n_query)]
    edges = (
        [0]
        + [10 * n_db * i // N_BUCKETS for i in range(1, N_BUCKETS)]
        + [1 << (2 * BENCH_K)]
    )
    column = as_column(query, database.column().dtype)
    list_buckets, column_buckets = [], []
    for lo, hi in zip(edges, edges[1:]):
        i, j = bisect_left(query, lo), bisect_left(query, hi)
        list_buckets.append((lo, hi, query[i:j]))
        column_buckets.append((lo, hi, column[i:j]))
    return database, list_buckets, column_buckets


def test_columnar_buckets_speedup_floor():
    """Native bucket columns and PR 1's list buckets intersect identically.

    Same partitioned query either way; the only difference is the bucket
    container, so the columnar dataflow removes the partition->intersect
    conversion without changing one intersecting k-mer.
    """
    database, list_buckets, column_buckets = _partitioned_query()
    engine = get_backend("numpy")
    [expected] = engine.intersect_bucketed_multi(database, [column_buckets], 8)
    assert [expected] == engine.intersect_bucketed_multi(
        database, [list_buckets], 8
    )


def test_partitioner_emits_native_columns(bench_sample):
    """The numpy-backend partitioner's hand-off is zero-copy end to end."""
    columnar = KmerBucketPartitioner(
        k=BENCH_K, n_buckets=8, backend="numpy"
    ).partition(bench_sample.reads)
    assert all(isinstance(b.kmers, np.ndarray) for b in columnar.buckets)
    largest = max(columnar.buckets, key=lambda b: len(b.kmers))
    # as_column on a native column is the identity - no conversion happens
    # anywhere between Step 1 and the intersect kernels.
    assert as_column(largest.kmers, largest.kmers.dtype) is largest.kmers
    lists = KmerBucketPartitioner(
        k=BENCH_K, n_buckets=8, backend="python"
    ).partition(bench_sample.reads)
    assert lists.merged_sorted() == columnar.merged_sorted()


@pytest.mark.parametrize("backend", ["python", "numpy"])
def test_columnar_partition_intersect(bench_sorted_db, bench_sample, backend):
    """End-to-end Step 1 -> Step 2 in each backend's native containers."""
    engine = get_backend("numpy")
    partitioner = KmerBucketPartitioner(k=BENCH_K, n_buckets=16, backend=backend)
    buckets = partitioner.partition(bench_sample.reads)
    result = engine.intersect_bucketed_multi(
        bench_sorted_db, [buckets.slices()], 8
    )[0]
    assert result


def _retrieval_world(n_db=80_000, n_query=40_000, seed=5):
    """A synthetic KSS + sketch + sorted query hitting every database k-mer.

    Owners are realistic multi-taxID sets (1-4 of 64 species) over k-mers
    spread across the whole key space, so prefix groups stay small and
    duplicate taxIDs recur across queries — the regime the CSR retrieval
    and ``np.unique`` accumulation kernels target.
    """
    rng = random.Random(seed)
    kmers = sorted(rng.sample(range(1 << (2 * BENCH_K)), n_db))
    owners = [
        frozenset(rng.sample(range(1000, 1064), rng.randint(1, 4)))
        for _ in kmers
    ]
    sketch = synthetic_sketch(kmers, owners, k_max=BENCH_K)
    kss = KssTables(sketch)
    queries = kmers[:: max(1, n_db // n_query)]
    return sketch, kss, queries


def _retrieve_accumulate(backend, sketch, kss, queries):
    """The full owner path: KSS retrieval -> hit accumulation -> candidates."""
    retrieved = get_backend(backend).retrieve(kss, queries)
    hits = accumulate_hits(retrieved)
    return hits.as_dict(), select_candidates(sketch, hits, 0.15)


def test_retrieval_accumulate_speedup_floor():
    """CSR retrieval + vectorized accumulation must equal the reference.

    Same queries, same KSS; the numpy engine answers each level with one
    searchsorted + CSR gather and folds hits with one np.unique pass per
    level, where the register-level reference walks every (query, taxID)
    pair in the interpreter.  Results must stay bit-identical.
    """
    sketch, kss, queries = _retrieval_world()
    expected = _retrieve_accumulate("python", sketch, kss, queries)
    assert _retrieve_accumulate("numpy", sketch, kss, queries) == expected
    assert expected[1], "candidate set empty - the world is degenerate"


def test_index_cold_open_serves_without_rebuild(bench_sample):
    """Open + first query must not touch KSS rows.

    The persisted sections are the live tables: the sorted database's key
    column, the KSS per-level CSR blocks, and the shard handles (zero-copy
    slices of them) all come straight from the file, so the first — and
    every following — ``analyze()`` on the numpy backend runs without a
    ``KssTables`` row-object materialization.
    """
    from repro.megis.index import IndexBuilder, MegisIndex
    from repro.megis.session import AnalysisSession, MegisConfig

    index = IndexBuilder(k=BENCH_K, smaller_ks=(12, 8), sketch_fraction=0.3).build(
        bench_sample.references
    )
    payload = index.to_bytes(n_shards=2)

    opened = MegisIndex.from_bytes(payload)
    assert opened.kss.row_materializations == 0

    session = AnalysisSession(
        opened,
        MegisConfig(backend="numpy", abundance_method="statistical", n_ssds=2),
    )
    first = session.analyze(bench_sample.reads)
    second = session.analyze(bench_sample.reads)
    assert first.candidates
    assert first.candidates == second.candidates
    assert first.profile.fractions == second.profile.fractions

    # No row boxed: not at open, not at first query, not between
    # consecutive queries — on the parent or on any shard handle.
    assert opened.kss.row_materializations == 0
    for shard in opened.shards(2):
        assert shard.kss.row_materializations == 0


def test_index_cold_open_beats_rebuild(bench_sample):
    """Cold-opening the persisted index gives exactly what the build held.

    The point is structural: open attaches the file's columns where a
    rebuild runs the column build over the references again, and both
    hold the same bytes.  How much faster the open is (6.6-8.4x on a
    2-vCPU VM since PR 23 made the build column arithmetic) is the
    ledger's ``index.open_mmap_s`` against ``index.build_s``, not a floor.
    """
    from repro.megis.index import IndexBuilder, MegisIndex

    built = IndexBuilder(k=BENCH_K, smaller_ks=(12, 8), sketch_fraction=0.3).build(
        bench_sample.references
    )
    payload = built.to_bytes(n_shards=2)
    assert MegisIndex.from_bytes(payload).to_bytes(n_shards=2) == payload
