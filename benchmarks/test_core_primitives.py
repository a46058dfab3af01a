"""Identity checks of the core in-storage primitives.

Each runs one functional building block on the shared benchmark world
(not the analytic model) and asserts what it must return: the per-channel
Intersect merge, KSS streaming retrieval vs pointer-chasing tree lookups,
the Step-2 backends (python reference vs numpy columnar), Step-1 bucket
partitioning, and the channel-level NAND timing simulation.
"""

import pytest

from repro.backends import get_backend
from repro.databases.sketch import TernarySearchTree
from repro.databases.sorted_db import SortedKmerDatabase
from repro.megis.host import KmerBucketPartitioner
from repro.backends.python_backend import IntersectUnit, TaxIdRetriever
from repro.megis.isp import IspStepTwo
from repro.sequences.kmers import extract_kmers
from repro.ssd.channel import AccessPattern, ChannelSimulator
from repro.ssd.config import ssd_c
from benchmarks.conftest import BENCH_K


def test_intersect_unit_merge(bench_sorted_db):
    db = bench_sorted_db.kmers
    query = db[::3]
    result = IntersectUnit(channel=0).intersect(db, query)
    assert result == query


def test_kss_streaming_retrieval(bench_kss, bench_sketch):
    queries = sorted(bench_sketch.tables[BENCH_K])[::2]
    result = TaxIdRetriever(bench_kss).retrieve(queries)
    assert len(result) == len(queries)


def test_ternary_tree_lookups(bench_sketch):
    tree = TernarySearchTree(bench_sketch)
    queries = sorted(bench_sketch.tables[BENCH_K])[::2]
    results = [tree.lookup(q) for q in queries]
    assert len(results) == len(queries)


def test_bucket_partitioning(bench_sample):
    partitioner = KmerBucketPartitioner(k=BENCH_K, n_buckets=16)
    bucket_set = partitioner.partition(bench_sample.reads)
    assert bucket_set.total_kmers() > 0


def test_kmer_extraction(bench_sample):
    genome = bench_sample.references.sequence(
        bench_sample.references.species_taxids[0]
    )
    kmers = extract_kmers(genome, BENCH_K)
    assert kmers.size == len(genome) - BENCH_K + 1


@pytest.mark.parametrize("backend", ["python", "numpy"])
def test_step2_intersect_backend(bench_sorted_db, backend):
    query = bench_sorted_db.kmers[::3]
    engine = get_backend(backend)
    result = engine.intersect(bench_sorted_db, query, n_channels=8)
    assert result == query


@pytest.mark.parametrize("backend", ["python", "numpy"])
def test_step2_retrieval_backend(bench_kss, bench_sketch, backend):
    queries = sorted(bench_sketch.tables[BENCH_K])[::2]
    engine = get_backend(backend)
    result = engine.retrieve(bench_kss, queries)
    assert len(result) == len(queries)


@pytest.mark.parametrize("backend", ["python", "numpy"])
def test_step2_multi_sample_batched(bench_sorted_db, bench_kss,
                                    bench_sample, backend):
    partitioner = KmerBucketPartitioner(k=BENCH_K, n_buckets=8)
    samples = [
        [
            (b.lo, b.hi, b.kmers)
            for b in partitioner.partition(reads).buckets
        ]
        for reads in (bench_sample.reads[:300], bench_sample.reads[300:])
    ]
    isp = IspStepTwo(bench_sorted_db, bench_kss, n_channels=8, backend=backend)
    results = isp.run_bucketed_multi(samples)
    assert len(results) == 2 and all(r[0] for r in results)


def test_numpy_backend_speedup_floor():
    """The vectorized backend must equal the reference on a large Step 2.

    Uses a synthetic sorted database large enough that interpreter overhead
    dominates the reference merge — the regime the backend exists to fix.
    The ratio itself (>25x when a >=5x floor stood here) is not asserted:
    ``python`` is the oracle, and every ledger row bounds ``numpy``.
    """
    n = 200_000
    kmers = list(range(1, 3 * n, 3))
    database = SortedKmerDatabase(BENCH_K, kmers, [frozenset({1})] * len(kmers))
    query = kmers[::2]

    python, numpy = get_backend("python"), get_backend("numpy")
    expected = numpy.intersect(database, query, n_channels=8)
    assert expected == python.intersect(database, query, n_channels=8)


def test_channel_simulation_sequential():
    config = ssd_c()
    sim = ChannelSimulator(config.geometry, config.t_read_us, config.channel_bw)
    bandwidth = sim.measure_bandwidth(AccessPattern.SEQUENTIAL, n_requests=1024)
    assert bandwidth > 0.8 * config.internal_read_bw
