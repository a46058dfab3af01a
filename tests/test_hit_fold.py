"""The Step 1 -> Step 2 -> candidates hand-off against its references.

- :func:`~repro.tools.metalign.accumulate_hits` folds every KSS level in
  one ``(levels x universe)`` count matrix; its ``as_dict`` must equal
  the per-query dict fold, and its per-level columns, containment
  scores (bit for bit) and candidates those of the per-level
  ``bincount`` fold it replaced — on generated retrieval results,
  single-level, with no hit at all, and concatenated from shard parts
  (``tests/columns.py`` holds the oracles);
- :func:`~repro.backends.base.clip_buckets` passes a bucket wholly inside
  the shard range through uncut; it must equal the always-bisect clip on
  generated ascending bucket sets and ranges, up to the k = 32 key-space
  edge (``1 << 64``, past the ``uint64`` dtype);
- ``MegisResult.intersecting_kmers`` keeps Step 2's column and builds
  its int list on the first read, and ``sketch_hits`` keeps the hit
  matrix and builds its dict the same way — each equal to the ``python``
  backend's, after ``analyze``, ``analyze_batch`` and a process-pool pipe.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import List, Tuple

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.backends.base import clip_buckets
from repro.backends.retrieval import RetrievalResult
from repro.databases.sketch import SketchDatabase
from repro.megis.index import MegisIndex
from repro.megis.session import AnalysisSession, MegisConfig
from repro.sequences.keys import column_dtype
from repro.tools.metalign import accumulate_hits, batch_containment, select_candidates
from tests.columns import (
    accumulate_levels_oracle,
    accumulate_oracle,
    as_ints,
    containment_oracle,
    query_dicts,
)
from tests.oracles import hit_levels
from tests.strategies import property_settings, retrieval_results
from tests.strategies.retrieval import MAX_TAXID

# -- one hit fold over every level ---------------------------------------------


def _reshaped(retrieved: RetrievalResult, shape: str, cuts: List[int]) -> RetrievalResult:
    """``retrieved`` as drawn, cut to its top level, with every hit
    erased, or re-assembled from parts cut at ``cuts``."""
    table = retrieved.signatures
    if shape == "single_level":
        top = max(retrieved.levels)
        return RetrievalResult(retrieved.queries, {top: retrieved.levels[top]}, table)
    if shape == "no_hits":
        return RetrievalResult(
            retrieved.queries,
            {k: np.zeros_like(ids) for k, ids in retrieved.levels.items()},
            table,
        )
    if shape == "concatenated":
        edges = [0, *sorted(c % (len(retrieved.queries) + 1) for c in cuts),
                 len(retrieved.queries)]
        return RetrievalResult.concatenate([
            RetrievalResult(
                retrieved.queries[a:b],
                {k: ids[a:b] for k, ids in retrieved.levels.items()},
                table,
            )
            for a, b in zip(edges, edges[1:])
        ])
    return retrieved


@pytest.mark.parametrize("shape", ["drawn", "single_level", "no_hits", "concatenated"])
@property_settings(60)
@given(
    retrieved=retrieval_results(),
    cuts=st.lists(st.integers(0, 64), max_size=3),
    sizes=st.dictionaries(st.integers(1, MAX_TAXID), st.integers(0, 12), max_size=40),
    top=st.sampled_from(["max", "absent"]),
    threshold=st.sampled_from([0.0, 0.1, 0.15, 0.5, 1.0, 2.5]),
)
def test_fold_equals_the_per_query_and_per_level_oracles(
    shape, retrieved, cuts, sizes, top, threshold
):
    retrieved = _reshaped(retrieved, shape, cuts)
    k_max = max(retrieved.levels) if top == "max" else 32
    sketch = SketchDatabase(k_max, (), {k_max: {}}, sizes)
    hits = accumulate_hits(retrieved)

    assert hits.as_dict() == accumulate_oracle(query_dicts(retrieved))
    oracle = accumulate_levels_oracle(retrieved)
    assert sorted(hit_levels(hits)) == sorted(oracle)
    for k, (taxids, counts) in hit_levels(hits).items():
        assert taxids.dtype == counts.dtype == np.int64
        assert taxids.tolist() == oracle[k][0].tolist()
        assert counts.tolist() == oracle[k][1].tolist()
    taxids, scores = batch_containment(sketch, hits)
    expected_taxids, expected_scores = containment_oracle(sketch, retrieved)
    assert taxids.tolist() == expected_taxids.tolist()
    assert scores.tobytes() == expected_scores.tobytes()  # bit for bit
    assert select_candidates(sketch, hits, threshold) == set(
        expected_taxids[expected_scores >= threshold].tolist()
    )
    if shape == "no_hits":
        assert hits.as_dict() == {} and not hit_levels(hits)
        assert select_candidates(sketch, hits, 0.0) == set()


# -- clipping buckets to a shard range -----------------------------------------


def _clip_reference(buckets, lo: int, hi: int) -> List[Tuple[int, int, List[int]]]:
    """The clip that bisects every overlapping bucket, over Python ints."""
    clipped = []
    for blo, bhi, kmers in buckets:
        new_lo, new_hi = max(int(blo), lo), min(int(bhi), hi)
        if new_hi <= new_lo:
            continue
        ints = as_ints(kmers)
        i = bisect_left(ints, new_lo)
        clipped.append((new_lo, new_hi, ints[i:bisect_left(ints, new_hi, lo=i)]))
    return clipped


@st.composite
def bucket_sets(draw):
    """Ascending, non-overlapping buckets (some dropped, so gaps occur)
    over the key space of k in {4, 31, 32}, each holding sorted distinct
    k-mers of its own range (the top keys of the space often drawn), as
    a column of the key dtype or an int list; and one shard range."""
    k = draw(st.sampled_from([4, 31, 32]))
    top = 1 << (2 * k)
    key = st.integers(0, top - 1) | st.integers(max(0, top - 4), top - 1)
    edges = sorted({0, top, *draw(st.lists(key, max_size=6))})
    kmers = sorted(draw(st.sets(key, max_size=40)))
    as_column = draw(st.booleans())
    buckets = []
    for blo, bhi in zip(edges, edges[1:]):
        if draw(st.integers(0, 3)) == 0:
            continue  # a gap between buckets
        inside = [x for x in kmers if blo <= x < bhi]
        buckets.append((blo, bhi, np.array(inside, dtype=column_dtype(k))
                        if as_column else inside))
    bound = st.sampled_from(edges) | key | st.just(top)
    lo, hi = sorted((draw(bound), draw(bound)))
    return buckets, lo, hi


@property_settings(200)
@given(drawn=bucket_sets())
def test_clip_buckets_equals_the_always_bisect_clip(drawn):
    buckets, lo, hi = drawn
    clipped = clip_buckets(buckets, lo, hi)
    assert [(a, b, as_ints(kmers)) for a, b, kmers in clipped] == _clip_reference(
        buckets, lo, hi
    )
    by_range = {(int(a), int(b)): kmers for a, b, kmers in buckets}
    for a, b, kmers in clipped:
        assert type(a) is int and type(b) is int
        original = by_range.get((a, b))
        if original is not None:
            assert kmers is original  # wholly inside: passed through uncut
        if isinstance(kmers, np.ndarray):
            assert kmers.dtype == next(iter(by_range.values())).dtype


def test_a_bucket_crossing_the_k32_top_edge_is_cut():
    column = np.array([1, 2**63, 2**64 - 1], dtype=np.uint64)
    [(lo, hi, kmers)] = clip_buckets([(0, 1 << 64, column)], 2**63, 1 << 64)
    assert (lo, hi) == (2**63, 1 << 64) and as_ints(kmers) == [2**63, 2**64 - 1]
    tail = column[1:]
    [(lo, hi, whole)] = clip_buckets([(2**63, 1 << 64, tail)], 0, 1 << 64)
    assert (lo, hi) == (2**63, 1 << 64) and whole is tail


# -- the public k-mer list and hit dict, built on first read --------------------

#: The result fields built on first read, and the type each is read as.
BUILT_ON_READ = (("intersecting_kmers", list), ("sketch_hits", dict))


def _unbuilt(result, name: str) -> bool:
    """Whether the result still holds what Step 2 handed over, not the
    plain value it is read as."""
    return type(vars(result)["_" + name]) is not dict(BUILT_ON_READ)[name]


@pytest.fixture(scope="module")
def world(sorted_db, sketch_db, references):
    return MegisIndex(sorted_db, sketch_db, references)


@pytest.fixture(scope="module")
def python_kmers(world, sample) -> List[Tuple[list, dict]]:
    session = AnalysisSession(world, MegisConfig(backend="python"))
    chunks = [sample.reads[:150], sample.reads[150:]]
    return [
        (r.intersecting_kmers, r.sketch_hits) for r in session.analyze_batch(chunks)
    ]


def _check_read(result, expected: Tuple[list, dict]) -> None:
    for (name, kind), want in zip(BUILT_ON_READ, expected):
        assert _unbuilt(result, name)
        got = getattr(result, name)
        assert type(got) is kind and got == want
        assert not _unbuilt(result, name) and getattr(result, name) is got
    assert all(type(x) is int for x in result.intersecting_kmers)


def test_analyze_builds_the_list_only_when_read(world, sample, python_kmers):
    session = AnalysisSession(world, MegisConfig(backend="numpy"))
    result = session.analyze(sample.reads[:150])
    _check_read(result, python_kmers[0])
    for result, expected in zip(
        session.analyze_batch([sample.reads[:150], sample.reads[150:]]), python_kmers
    ):
        _check_read(result, expected)
