"""Randomized cross-backend property tests for the columnar owner path.

The signature retrieval layout, the per-signature hit accumulation, and
the batch containment scoring must be *bit-identical* across backends — the
paper's accuracy-identity claim rests on it.  Each seed builds a random
synthetic world (database + KSS) and drives the full owner path on both
backends: KSS retrieval -> sketch_hits -> candidates -> statistical
abundance profile.  The queries are arbitrary k-mers, not only database
rows, so the numpy side is :func:`~repro.backends.numpy_backend.retrieve_levels`
(what a shard's row columns hold) and the python side the
:class:`~repro.backends.python_backend.TaxIdRetriever` merge, both through
:func:`tests.columns.retrieve_with`.  Seeds deliberately cover the
awkward shapes:

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
from hypothesis import given
from hypothesis import strategies as st

from repro.backends.numpy_backend import retrieve_levels
from repro.backends.retrieval import RetrievalResult
from repro.megis.index import MegisIndex
from repro.tools.metalign import accumulate_hits, select_candidates
from repro.tools.statistical import StatisticalAbundanceEstimator
from repro.sequences.keys import as_column
from tests.columns import accumulate_oracle, as_ints, query_dicts, retrieve_with
from tests.oracles import hit_levels, reference_kss, signature_table_from_sets, sketch_lookup
from tests.strategies import (
    STANDARD_SETTINGS,
    kmer_rows,
    reference_worlds,
    synthetic_sketch,
)

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
    kss = reference_kss(sketch)

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
    retrieved = retrieve_with(backend, kss, queries)
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

    # Retrieval results agree with each other and the software reference:
    # the same signature ids in the same table, so the same owner sets.
    reference = kss.retrieve(queries)
    for k, ids in reference.levels.items():
        assert py[0].levels[k].tolist() == np_[0].levels[k].tolist() == ids.tolist()
    assert py[0].signatures is np_[0].signatures is reference.signatures
    # sketch_hits, candidates, and abundance fractions are bit-identical.
    assert py[1] == np_[1]
    assert py[2] == np_[2]
    assert py[3].fractions == np_[3].fractions


@pytest.mark.parametrize("seed", [1, 4, 9, 20])
def test_csr_blocks_internally_consistent(seed):
    """One int32 id per query and level, each naming a table row; the
    expanded CSR columns have monotone offsets, one row per query, each
    row ascending and exactly the sketch's owner set for that query."""
    sketch, kss, queries = make_world(seed)
    for backend in ("python", "numpy"):
        retrieved = retrieve_with(backend, kss, queries)
        expanded = retrieved.expand()
        for k, ids in retrieved.levels.items():
            assert ids.dtype == np.int32 and len(ids) == len(retrieved.queries)
            assert ((ids >= 0) & (ids < len(retrieved.signatures))).all()
            taxids, offsets = expanded[k]
            assert len(offsets) == len(retrieved.queries) + 1
            assert offsets[0] == 0 and offsets[-1] == len(taxids)
            assert (np.diff(offsets) >= 0).all()
            for i, q in enumerate(as_ints(retrieved.queries)):
                row = taxids[offsets[i]:offsets[i + 1]].tolist()
                assert row == sorted(row)
                assert frozenset(row) == sketch_lookup(sketch, q).get(k, frozenset())


@pytest.mark.parametrize("seed", [3, 8, 11])
def test_columnar_concatenate_roundtrip(seed):
    """Splitting queries anywhere and concatenating columns is lossless."""
    sketch, kss, queries = make_world(seed)
    if len(queries) < 2:
        pytest.skip("needs at least two queries to split")
    rng = random.Random(seed + 1000)
    cut = rng.randrange(1, len(queries))
    for backend in ("python", "numpy"):
        whole = retrieve_with(backend, kss, queries)
        parts = [
            retrieve_with(backend, kss, queries[:cut]),
            retrieve_with(backend, kss, queries[cut:]),
        ]
        joined = RetrievalResult.concatenate(parts)
        assert as_ints(joined.queries) == as_ints(whole.queries)
        for k, ids in whole.levels.items():
            assert joined.levels[k].tolist() == ids.tolist()


@pytest.mark.parametrize("backend", ["python", "numpy"])
def test_concatenate_refuses_a_repeated_kmer(backend):
    """Intersecting k-mers are distinct: two parts sharing a boundary
    k-mer would count its hits twice, so concatenation refuses them.
    Disjoint parts still join, a numpy query column staying a column."""
    _, kss, queries = make_world(3)
    assert len(queries) >= 2
    def retrieve(kss, queries):
        return retrieve_with(backend, kss, queries)

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
    assert query_dicts(joined) == query_dicts(retrieve(kss, queries))


@pytest.mark.parametrize("seed", [0, 5, 35])
def test_single_level_kss_has_only_kmax(seed):
    """seed % 5 == 0 worlds build a KSS with no smaller-k tables."""
    sketch, kss, queries = make_world(seed)
    assert kss.smaller_ks == ()
    for backend in ("python", "numpy"):
        retrieved = retrieve_with(backend, kss, queries)
        assert set(retrieved.levels) == {K}


def test_query_dict_adapter_matches_mapping_fold():
    """The per-signature accumulate fold equals the historical per-query
    dict fold over the expanded owner sets, and so do the candidates."""
    sketch, kss, queries = make_world(2)
    for backend in ("python", "numpy"):
        retrieved = retrieve_with(backend, kss, queries)
        columnar = accumulate_hits(retrieved)
        assert columnar.as_dict() == accumulate_oracle(query_dicts(retrieved))
        for taxids, counts in hit_levels(columnar).values():
            assert taxids.dtype == counts.dtype == np.int64


# -- signature properties over generated builds ---------------------------------


def _expected_size_bytes(kss) -> int:
    """The on-flash size as the owner-CSR store counted it: k-mer plus
    4 B per k_max owner, and per smaller-level row 1 B plus 4 B per
    stored taxID — from the row views, not the signature table."""
    total = (2 * kss.k_max + 7) // 8 * len(kss.entries)
    total += 4 * sum(len(owners) for _, owners in kss.entries)
    for rows in kss.sub_tables.values():
        total += len(rows) + 4 * sum(len(row.stored) for row in rows)
    return total


def _probe_queries(index) -> list:
    """Every database k-mer plus a neighbour of every third, sorted."""
    kmers = index.database.kmers
    top = 1 << (2 * index.k)
    return sorted(set(kmers) | {x + 1 for x in kmers[::3] if x + 1 < top})


@STANDARD_SETTINGS
@given(world=reference_worlds(ks=(20, 40)))
def test_signatures_expand_to_the_full_owner_sets(world):
    """Every level's signatures expand to the full owner sets the
    per-k-mer dict build's sketch answers, on both backends, over the
    whole KSS and its ``slice_range`` shards at 1, 3 and 4 SSDs; every
    shard shares the one table, and ``size_bytes`` is the owner-CSR
    store's count at every cut."""
    index = world.build()
    oracle = world.reference_build().sketch
    queries = _probe_queries(index)
    expected = {q: sketch_lookup(oracle, q) for q in queries}
    for n_shards in (1, 3, 4):
        shards = index.shards(n_shards)
        for backend in ("python", "numpy"):
            parts = []
            for shard in shards:
                assert shard.kss.signatures is index.kss.signatures
                in_range = [q for q in queries if shard.lo <= q < shard.hi]
                parts.append(retrieve_with(backend, shard.kss, in_range))
            assert query_dicts(RetrievalResult.concatenate(parts)) == expected
        for shard in shards:
            assert shard.kss.size_bytes() == _expected_size_bytes(shard.kss)
    assert index.kss.size_bytes() == _expected_size_bytes(index.kss)


@STANDARD_SETTINGS
@given(world=reference_worlds(ks=(20, 40)))
def test_signature_tables_are_canonical(world):
    """The table is a function of the distinct owner sets: two builds,
    the row-walk build of the dict sketch and a reopened file all write
    the same bytes; signature 0 is the empty set and no set repeats."""
    index = world.build()

    def saved(built):
        return built.to_bytes(3, include_references=False)

    payload = saved(index)
    assert saved(world.build()) == payload
    assert saved(world.reference_build()) == payload
    assert saved(MegisIndex.from_bytes(payload)) == payload
    table = index.kss.signatures
    assert table.sets[0] == frozenset()
    assert len(set(table.sets)) == len(table)
    taxids, offsets = table.expand(np.arange(len(table)))
    assert taxids.tolist() == table.taxids.tolist()
    assert offsets.tolist() == table.offsets.tolist()


def test_a_hash_collision_is_refused(monkeypatch):
    """Rows group by hash, but a group is only ever one set: under a
    degenerate word per taxID (every set of two hashes alike), equal sets
    still share an id and two different sets are refused, never merged."""
    from repro.backends import signatures

    monkeypatch.setattr(
        signatures, "_mix64", lambda values: np.ones(len(values), dtype=np.uint64)
    )
    table, ids = signature_table_from_sets([[1, 2], [], [1, 2], [5]])
    assert ids.tolist() == [ids[0], 0, ids[0], ids[3]] and ids[0] != ids[3]
    assert table.sets[ids[0]] == frozenset({1, 2})
    with pytest.raises(ValueError, match="collision"):
        signature_table_from_sets([[1, 2], [3, 4]])


# -- one search per shard: the neighbour rule and orphan boundary rows ----------

ORPHAN_K, ORPHAN_LEVEL = 6, 4  # level rows are the k-mers' top 8 bits (>> 4)
#: Prefix 5 holds 81 and 82, prefix 6 holds 99, prefix 7 holds 124 and 125.
ORPHAN_ROWS = {81: {1}, 82: {2}, 99: {3}, 124: {4}, 125: {5}}


def _orphan_world():
    kmers = sorted(ORPHAN_ROWS)
    owners = [frozenset(ORPHAN_ROWS[x]) for x in kmers]
    sketch = synthetic_sketch(kmers, owners, k_max=ORPHAN_K, smaller_ks=(ORPHAN_LEVEL,))
    return sketch, reference_kss(sketch)


@pytest.mark.parametrize("lo, hi, queries", [
    # Rows 5 and 7 are in the slice, but their k-mers are all outside it.
    (88, 120, [88, 90, 95, 99, 100, 111, 112, 115, 119]),
    # No k_max row at all: the one level row is both first and last.
    (84, 96, [84, 90, 95]),
    # Only the last row is an orphan; row 5's k-mers are inside.
    (80, 120, [80, 81, 83, 99, 116, 119]),
])
def test_orphan_boundary_rows_answer_like_python(lo, hi, queries):
    """A slice's first or last level row whose k_max-mers all lie in a
    neighbouring shard has no neighbour to name it: its queries still
    answer with that row, as the python merge and the sketch say."""
    sketch, kss = _orphan_world()
    sliced = kss.slice_range(lo, hi)
    expected = {q: sketch_lookup(sketch, q) for q in queries}
    by_numpy = retrieve_with("numpy", sliced, queries)
    by_python = retrieve_with("python", sliced, queries)
    assert query_dicts(by_numpy) == query_dicts(by_python) == expected
    for k, ids in by_python.levels.items():
        assert by_numpy.levels[k].tolist() == ids.tolist()
    assert any(ORPHAN_LEVEL in levels for levels in expected.values())


def test_numpy_retrieve_searches_once(monkeypatch):
    """``retrieve_levels`` makes one ``np.searchsorted`` per call, however
    many levels the KSS has: every smaller level answers from the k_max
    search's neighbours."""
    _, kss, queries = make_world(2)
    assert len(kss.smaller_ks) == 2 and len(queries) > 2
    calls = []
    searchsorted = np.searchsorted

    def counting(*args, **kwargs):
        calls.append(args)
        return searchsorted(*args, **kwargs)

    monkeypatch.setattr(np, "searchsorted", counting)
    inner = [q for q in queries if queries[0] < q < queries[-1]]
    for tables in (kss, kss.slice_range(queries[0] + 1, queries[-1])):
        store = tables.store()
        column = as_column(inner, store.kmers.dtype)
        calls.clear()
        retrieve_levels(store, column)
        assert len(calls) == 1


SPLIT_K = 6


@STANDARD_SETTINGS
@given(rows=kmer_rows(SPLIT_K, max_size=60),
       cuts=st.lists(st.integers(min_value=0, max_value=1 << (2 * SPLIT_K)),
                     max_size=4),
       probes=st.lists(st.integers(min_value=0, max_value=(1 << (2 * SPLIT_K)) - 1),
                       max_size=30))
def test_any_shard_split_retrieves_like_python(rows, cuts, probes):
    """Cut the KSS anywhere: each slice answers its range's queries with
    the python merge's ids (the sketch's owner sets), orphan boundary
    rows included, and the slices concatenate to the whole retrieval."""
    kmers, owners = rows
    sketch = synthetic_sketch(kmers, owners, k_max=SPLIT_K, smaller_ks=(4, 2))
    kss = reference_kss(sketch)
    top = 1 << (2 * SPLIT_K)
    queries = sorted({q for x in kmers for q in (x - 1, x, x + 1) if 0 <= q < top}
                     | set(probes))
    edges = sorted({0, top, *cuts})
    numpy_parts = []
    for lo, hi in zip(edges, edges[1:]):
        sliced = kss.slice_range(lo, hi)
        in_range = [q for q in queries if lo <= q < hi]
        by_numpy = retrieve_with("numpy", sliced, in_range)
        by_python = retrieve_with("python", sliced, in_range)
        for k, ids in by_python.levels.items():
            assert by_numpy.levels[k].tolist() == ids.tolist()
        numpy_parts.append(by_numpy)
    joined = RetrievalResult.concatenate(numpy_parts)
    whole = retrieve_with("numpy", kss, queries)
    for k, ids in whole.levels.items():
        assert joined.levels[k].tolist() == ids.tolist()
    assert query_dicts(whole) == {q: sketch_lookup(sketch, q) for q in queries}
