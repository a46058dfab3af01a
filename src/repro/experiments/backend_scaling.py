"""Backend scaling sweep: Step-2 wall time per backend vs database scale.

The register-level ``python`` backend pays interpreter overhead per k-mer,
so its wall time grows linearly with the streamed volume; the columnar
``numpy`` backend amortizes that overhead into vectorized kernels.  This
sweep charts the regime where the interpreter overhead dominates — the
motivation for the columnar dataflow — on synthetic sorted databases of
growing size, using native bucket columns for the numpy side (the
partition→intersect hand-off measured by the PR benchmarks).

Both Step-2 kernels are swept: the sorted-stream intersection and the KSS
taxID retrieval over the intersecting k-mers.  The synthetic databases
carry realistic multi-taxID owner sets (1–4 owners drawn from a 64-species
pool, seeded) — duplicate taxIDs across neighbouring k-mers and shared
prefix groups are exactly what the CSR retrieval and ``np.unique``
accumulation kernels have to chew through, so a trivial shared
``frozenset({1})`` owner would leave the retrieval path untested.
"""

from __future__ import annotations

import random
import time
from collections import Counter
from typing import Dict, FrozenSet, List, Tuple

from repro.databases.kss import KssTables
from repro.databases.sketch import SketchDatabase
from repro.databases.sorted_db import SortedKmerDatabase
from repro.backends import get_backend
from repro.experiments.runner import ExperimentResult
from repro.sequences.encoding import kmer_prefix

K = 20
SMALLER_KS = (12, 8)
N_SPECIES = 64
SCALES = (2_000, 10_000, 50_000, 150_000)


def _synthetic_owners(rng: random.Random, n: int) -> List[FrozenSet[int]]:
    """Realistic owner sets: 1-4 taxIDs each from a shared species pool."""
    pool = range(1000, 1000 + N_SPECIES)
    return [
        frozenset(rng.sample(pool, rng.randint(1, 4))) for _ in range(n)
    ]


def _synthetic_database(n: int, seed: int = 0) -> SortedKmerDatabase:
    """Sorted k-mers spread over the whole key space, multi-taxID owners.

    Sampling the full ``4**K`` space keeps the smaller-k prefix groups
    realistically small; a dense low-range ramp would collapse every query
    into a handful of giant prefix groups and distort the retrieval sweep.
    """
    rng = random.Random(seed)
    kmers = sorted(rng.sample(range(1 << (2 * K)), n))
    return SortedKmerDatabase(K, kmers, _synthetic_owners(rng, len(kmers)))


def synthetic_sketch(
    kmers: List[int], owners: List[FrozenSet[int]],
    k_max: int = K, smaller_ks: Tuple[int, ...] = SMALLER_KS,
) -> SketchDatabase:
    """A SketchDatabase straight from (k-mer, owners) pairs.

    Treats every database k-mer as sketched, with smaller-k tables as the
    per-prefix owner unions — the shape :meth:`SketchDatabase.build`
    produces, without needing reference genomes.  Shared by this sweep and
    the retrieval benchmarks/property tests.
    """
    tables: Dict[int, Dict[int, FrozenSet[int]]] = {
        k_max: dict(zip(kmers, owners))
    }
    for k in smaller_ks:
        level: Dict[int, set] = {}
        for kmer, own in zip(kmers, owners):
            level.setdefault(kmer_prefix(kmer, k_max, k), set()).update(own)
        tables[k] = {p: frozenset(s) for p, s in level.items()}
    sizes: Counter = Counter()
    for own in owners:
        sizes.update(own)
    return SketchDatabase(k_max, smaller_ks, tables, dict(sizes))


def _timed_ms(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best * 1e3


def run() -> ExperimentResult:
    result = ExperimentResult(
        experiment="backend_scaling",
        title="Step-2 intersect + retrieve wall time vs database scale per backend",
        columns=[
            "db_kmers", "query_kmers", "python_ms", "numpy_ms", "speedup",
            "python_retrieve_ms", "numpy_retrieve_ms", "retrieve_speedup",
        ],
        paper_reference="§4.3 data path; ROADMAP interpreter-overhead regime",
        notes=(
            "synthetic sorted database, multi-taxID owners; best-of-N wall "
            "times, bit-identical results"
        ),
    )
    python, numpy_ = get_backend("python"), get_backend("numpy")
    for n in SCALES:
        database = _synthetic_database(n)
        kss = KssTables(
            synthetic_sketch(database.kmers, [database.owners_of(x) for x in database.kmers])
        )
        # Each backend consumes its native query container, mirroring the
        # backend-aware Step-1 output.
        query_list = database.kmers[::2]
        query_column = database.column()[::2]
        expected = numpy_.intersect(database, query_column, n_channels=8)
        assert expected == python.intersect(database, query_list, n_channels=8)
        assert numpy_.retrieve(kss, expected) == python.retrieve(kss, expected)
        python_ms = _timed_ms(
            lambda: python.intersect(database, query_list, n_channels=8),
            repeats=3,
        )
        numpy_ms = _timed_ms(
            lambda: numpy_.intersect(database, query_column, n_channels=8),
            repeats=3,
        )
        python_retrieve_ms = _timed_ms(
            lambda: python.retrieve(kss, expected), repeats=3
        )
        numpy_retrieve_ms = _timed_ms(
            lambda: numpy_.retrieve(kss, expected), repeats=3
        )
        result.add_row(
            db_kmers=len(database),
            query_kmers=len(query_list),
            python_ms=python_ms,
            numpy_ms=numpy_ms,
            speedup=python_ms / numpy_ms if numpy_ms else float("inf"),
            python_retrieve_ms=python_retrieve_ms,
            numpy_retrieve_ms=numpy_retrieve_ms,
            retrieve_speedup=(
                python_retrieve_ms / numpy_retrieve_ms
                if numpy_retrieve_ms
                else float("inf")
            ),
        )
    return result
