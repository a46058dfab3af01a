"""Randomized cross-backend property tests for the columnar owner path.

The CSR retrieval layout, the ``np.unique`` hit accumulation, and the
batch containment scoring must be *bit-identical* across backends — the
paper's accuracy-identity claim rests on it.  Each seed builds a random
synthetic world (database + KSS) and drives the full owner path on both
backends: KSS retrieval -> sketch_hits -> candidates -> statistical
abundance profile.  Seeds deliberately cover the awkward shapes:

- empty retrievals (every query misses) and empty query lists;
- single-level KSS (no smaller-k tables at all);
- duplicate-taxID prefix groups (clustered k-mers whose owner sets repeat
  across rows of the same prefix group — the regime where occurrence
  counting and set-union semantics can drift apart).
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.backends import get_backend
from repro.backends.retrieval import RetrievalResult
from repro.databases.kss import KssTables
from repro.tools.metalign import accumulate_hits, select_candidates
from repro.tools.statistical import StatisticalAbundanceEstimator
from tests.columns import as_ints
from tests.strategies import synthetic_sketch

K = 14
SPACE = 1 << (2 * K)
SMALLER = (8, 5)
MIN_CONTAINMENT = 0.1
N_SEEDS = 50


def make_world(seed: int):
    """One random (sketch, kss, queries) world; shape varies with the seed."""
    rng = random.Random(seed)
    n = rng.randrange(5, 200)
    if seed % 4 == 0:
        # Clustered k-mers: many rows share smaller-k prefixes, and owner
        # sets drawn from a tiny pool repeat within each prefix group.
        base = rng.randrange(SPACE - (n * 8))
        kmers = sorted(rng.sample(range(base, base + n * 8), n))
        pool = range(1, 5)
    else:
        kmers = sorted(rng.sample(range(SPACE), n))
        pool = range(1, 12)
    owners = [
        frozenset(rng.sample(pool, rng.randint(1, min(3, len(pool)))))
        for _ in kmers
    ]
    smaller_ks = () if seed % 5 == 0 else SMALLER
    sketch = synthetic_sketch(kmers, owners, k_max=K, smaller_ks=smaller_ks)
    kss = KssTables(sketch)

    if seed % 7 == 0:
        queries = []  # empty query list
    elif seed % 7 == 1:
        # All-miss queries: non-empty retrieval input, empty k_max hits.
        present = set(kmers)
        queries = sorted(
            x for x in rng.sample(range(SPACE), 30) if x not in present
        )
    else:
        hits = rng.sample(kmers, rng.randrange(0, min(40, len(kmers)) + 1))
        misses = [rng.randrange(SPACE) for _ in range(rng.randrange(0, 30))]
        queries = sorted(set(hits + misses))
    return sketch, kss, queries


def owner_path(backend: str, sketch, kss, queries):
    """retrieval -> sketch_hits -> candidates -> statistical profile."""
    retrieved = get_backend(backend).retrieve(kss, queries)
    hits = accumulate_hits(retrieved)
    sketch_hits = hits.as_dict()
    candidates = select_candidates(sketch, hits, MIN_CONTAINMENT)
    profile, _ = StatisticalAbundanceEstimator(sketch).estimate_from_retrieval(
        retrieved, candidates
    )
    return retrieved, sketch_hits, candidates, profile


@pytest.mark.parametrize("seed", range(N_SEEDS))
def test_backends_bit_identical(seed):
    sketch, kss, queries = make_world(seed)
    py = owner_path("python", sketch, kss, queries)
    np_ = owner_path("numpy", sketch, kss, queries)

    # Retrieval results agree with each other and the software reference.
    reference = kss.retrieve(queries)
    assert py[0] == np_[0] == reference
    # sketch_hits, candidates, and abundance fractions are bit-identical.
    assert py[1] == np_[1]
    assert py[2] == np_[2]
    assert py[3].fractions == np_[3].fractions


@pytest.mark.parametrize("seed", [1, 4, 9, 20])
def test_csr_blocks_internally_consistent(seed):
    """Offsets are monotone with one row per query, and the CSR slices
    reproduce exactly the dict-adapter view."""
    _, kss, queries = make_world(seed)
    for backend in ("python", "numpy"):
        retrieved = get_backend(backend).retrieve(kss, queries)
        view = retrieved.to_query_dicts()
        for k, block in retrieved.levels.items():
            assert len(block.offsets) == len(retrieved.queries) + 1
            counts = list(block.counts())
            assert all(c >= 0 for c in counts)
            assert sum(counts) == block.total() == len(block.taxids)
            for i, q in enumerate(retrieved.queries):
                row = [int(t) for t in block.slice_of(i)]
                assert row == sorted(row)
                assert frozenset(row) == view[q].get(k, frozenset())


@pytest.mark.parametrize("seed", [3, 8, 11])
def test_columnar_concatenate_roundtrip(seed):
    """Splitting queries anywhere and concatenating columns is lossless."""
    sketch, kss, queries = make_world(seed)
    if len(queries) < 2:
        pytest.skip("needs at least two queries to split")
    rng = random.Random(seed + 1000)
    cut = rng.randrange(1, len(queries))
    for backend in ("python", "numpy"):
        whole = get_backend(backend).retrieve(kss, queries)
        parts = [
            get_backend(backend).retrieve(kss, queries[:cut]),
            get_backend(backend).retrieve(kss, queries[cut:]),
        ]
        assert RetrievalResult.concatenate(parts) == whole


@pytest.mark.parametrize("backend", ["python", "numpy"])
def test_concatenate_refuses_a_repeated_kmer(backend):
    """Intersecting k-mers are distinct: two parts sharing a boundary
    k-mer would count its hits twice, so concatenation refuses them.
    Disjoint parts still join, a numpy query column staying a column."""
    _, kss, queries = make_world(3)
    assert len(queries) >= 2
    retrieve = get_backend(backend).retrieve
    cut = len(queries) // 2
    with pytest.raises(ValueError, match="disjoint"):
        RetrievalResult.concatenate(
            [retrieve(kss, queries[:cut + 1]), retrieve(kss, queries[cut:])]
        )
    joined = RetrievalResult.concatenate(
        [retrieve(kss, queries[:cut]), retrieve(kss, []), retrieve(kss, queries[cut:])]
    )
    assert as_ints(joined.queries) == queries
    assert isinstance(joined.queries, np.ndarray) == (backend == "numpy")
    assert joined == retrieve(kss, queries)


@pytest.mark.parametrize("seed", [0, 5, 35])
def test_single_level_kss_has_only_kmax(seed):
    """seed % 5 == 0 worlds build a KSS with no smaller-k tables."""
    sketch, kss, queries = make_world(seed)
    assert kss.smaller_ks == ()
    for backend in ("python", "numpy"):
        retrieved = get_backend(backend).retrieve(kss, queries)
        assert set(retrieved.levels) == {K}


def test_query_dict_adapter_matches_mapping_fold():
    """to_query_dicts preserves the historical view: the mapping-based
    accumulate fold over it must equal the columnar fold."""
    sketch, kss, queries = make_world(2)
    for backend in ("python", "numpy"):
        retrieved = get_backend(backend).retrieve(kss, queries)
        columnar = accumulate_hits(retrieved)
        mapping = accumulate_hits(retrieved.to_query_dicts())
        assert columnar.as_dict() == mapping.as_dict()
        assert select_candidates(sketch, columnar, MIN_CONTAINMENT) == \
            select_candidates(sketch, mapping, MIN_CONTAINMENT)
