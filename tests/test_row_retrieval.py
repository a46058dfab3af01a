"""Step-2 retrieval as takes at the intersect's database rows.

Every intersecting k-mer is a database row, so on ``numpy`` a shard's
batch Step 2 (:meth:`~repro.backends.StepTwoBackend.step_two`) answers
each KSS level by taking the shard handle's row column
(:meth:`~repro.megis.multissd.DatabaseShard.row_levels`) at the rows its
intersect found.  These properties hold it to the ``python`` reference's
Step 2 — the intersect merge, then one :class:`TaxIdRetriever` merge of
the shard's KSS range per sample: the same ``queries``, the same id at
every level, the same table object.  They cover key columns in both
dtypes (``uint64`` at k = 20 and 32, ``object`` at k = 40), shard counts
past the row count, batches with duplicate queries, a batch whose first
edge lies above the shard's first row (so the kernel's row offset is not
zero), and range slices whose boundary level rows are orphans.

The row columns are built on a handle's first Step 2 — not by ``warm``
— and a race on that first build must not change any result.
"""

from __future__ import annotations

import sys
import threading
from bisect import bisect_left

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.backends import get_backend
from repro.backends.base import clip_buckets
from repro.megis import multissd
from repro.megis.index import MegisIndex
from repro.megis.multissd import (
    DatabaseShard,
    shard_kss,
    split_database,
    whole_range,
    whole_shard,
)
from repro.megis.service import AnalysisService
from repro.megis.session import AnalysisSession, MegisConfig
from tests.columns import as_ints, query_dicts
from tests.oracles import database_from_rows, reference_kss, sketch_lookup
from tests.strategies import (
    STANDARD_SETTINGS,
    kmer_rows,
    reference_worlds,
    synthetic_sketch,
)

NUMPY = get_backend("numpy")
PYTHON = get_backend("python")


def assert_same_results(got, expected):
    """``got`` (a numpy ``step_two``) answers like ``expected``: queries
    as ints, every level's ids, the table object itself."""
    assert len(got) == len(expected)
    for (kmers, retrieved), (want, reference) in zip(got, expected):
        assert retrieved.queries is kmers
        assert as_ints(kmers) == as_ints(want) == as_ints(reference.queries)
        assert sorted(retrieved.levels) == sorted(reference.levels)
        for k, ids in reference.levels.items():
            assert retrieved.levels[k].dtype == np.int32
            assert retrieved.levels[k].tolist() == ids.tolist()
        assert retrieved.signatures is reference.signatures


def has_rows(shard: DatabaseShard) -> bool:
    return bool(shard._rows)


@st.composite
def batches(draw, kmers, k):
    """1-3 samples of sorted queries (stored k-mers, repeated, and any key)
    cut into buckets; the batch's first edge is 0 or one of the rows 1-3,
    so the first shard's kernel offsets its hit rows."""
    top = 1 << (2 * k)
    anywhere = st.integers(min_value=0, max_value=top - 1)
    probe = st.one_of(st.sampled_from(kmers), anywhere) if kmers else anywhere
    first = draw(st.sampled_from([0, *kmers[1:4]]))
    samples = []
    for _ in range(draw(st.integers(1, 3))):
        values = sorted(v for v in draw(st.lists(probe, max_size=30)) if v >= first)
        cuts = sorted({first, top, *draw(st.lists(
            st.integers(min_value=first, max_value=top), max_size=3
        ))})
        samples.append([
            (lo, hi, values[bisect_left(values, lo):bisect_left(values, hi)])
            for lo, hi in zip(cuts, cuts[1:])
        ])
    return samples


@STANDARD_SETTINGS
@given(world=reference_worlds(ks=(20, 32, 40)), n_shards=st.integers(1, 5),
       data=st.data())
def test_row_takes_equal_the_python_step_two(world, n_shards, data):
    """Each shard's numpy Step 2 equals the python reference's Step 2 at
    1-5 shards, and its row columns span the shard's database."""
    index = world.build()
    batch = data.draw(batches(as_ints(index.database.column()), index.k))
    for shard in index.shards(n_shards):
        clipped = [clip_buckets(buckets, shard.lo, shard.hi) for buckets in batch]
        got = NUMPY.step_two(shard, clipped)
        for column in shard.row_levels().values():
            assert len(column) == len(shard.database)
        assert_same_results(got, PYTHON.step_two(shard, clipped))


SPLIT_K = 6
SPLIT_TOP = 1 << (2 * SPLIT_K)


@STANDARD_SETTINGS
@given(rows=kmer_rows(SPLIT_K, max_size=60),
       unsketched=st.sets(st.integers(0, SPLIT_TOP - 1), max_size=60),
       cuts=st.lists(st.integers(0, SPLIT_TOP), max_size=4))
def test_any_cut_takes_like_python(rows, unsketched, cuts):
    """Cut anywhere: a database row the sketch does not hold, under a
    level row whose k_max-mers all lie in a neighbouring shard (an
    orphan), still answers that row's owners."""
    kmers, owners = rows
    kss = reference_kss(synthetic_sketch(kmers, owners, k_max=SPLIT_K, smaller_ks=(4, 2)))
    column = sorted(set(kmers) | unsketched)
    database = database_from_rows(SPLIT_K, column, [frozenset({1})] * len(column))
    edges = sorted({0, SPLIT_TOP, *cuts})
    for i, (lo, hi) in enumerate(zip(edges, edges[1:])):
        start, stop = bisect_left(column, lo), bisect_left(column, hi)
        shard = DatabaseShard(i, lo, hi, database.slice(start, stop),
                              kss.slice_range(lo, hi))
        batch = [[(lo, hi, column[start:stop])], [(lo, hi, column[start:stop:2])]]
        assert_same_results(NUMPY.step_two(shard, batch),
                            PYTHON.step_two(shard, batch))


def test_orphan_rows_answer_from_their_level_row():
    """The slice [88, 120) holds level rows 5 and 7, whose k_max-mers
    (81, 82 and 124, 125) lie outside it: the database rows under those
    prefixes answer the rows' owners, as the sketch says."""
    sketch = synthetic_sketch([81, 82, 99, 124, 125],
                              [frozenset({t}) for t in (1, 2, 3, 4, 5)],
                              k_max=SPLIT_K, smaller_ks=(4,))
    column = list(range(80, 128))
    database = database_from_rows(SPLIT_K, column, [frozenset({1})] * len(column))
    shard = DatabaseShard(0, 88, 120, database.slice(8, 40),
                          reference_kss(sketch).slice_range(88, 120))
    batch = [whole_range(column[8:40], SPLIT_K)]
    [(kmers, retrieved)] = NUMPY.step_two(shard, batch)
    assert_same_results([(kmers, retrieved)], PYTHON.step_two(shard, batch))
    answers = query_dicts(retrieved)
    assert answers == {q: sketch_lookup(sketch, q) for q in range(88, 120)}
    assert answers[88] == {4: frozenset({1, 2})}
    assert answers[119] == {4: frozenset({4, 5})}


def test_a_batch_above_the_first_row(sorted_db, kss_tables):
    """Buckets starting at each shard's sixth row put the kernel's first
    database row at 5, not 0; samples repeat queries."""
    shards = split_database(sorted_db, 3)
    shard_kss(kss_tables, shards)
    for shard in shards:
        rows = shard.database.column()
        lo = int(rows[5])
        mid = int(rows[len(rows) // 2])
        batch = [
            [(lo, shard.hi, rows[5::2])],
            [(lo, mid, np.repeat(rows[5:len(rows) // 2], 2)),
             (mid, shard.hi, rows[len(rows) // 2::3])],
        ]
        assert bisect_left(as_ints(rows), lo) == 5
        got = NUMPY.step_two(shard, batch)
        assert all(len(kmers) for kmers, _ in got)
        assert_same_results(got, PYTHON.step_two(shard, batch))


def test_retrieval_adds_no_search(sorted_db, kss_tables, monkeypatch):
    """Once a handle holds its row columns, a batch's Step 2 searches only
    the database: no ``searchsorted`` reaches the KSS's k_max keys."""
    shard = whole_shard(sorted_db, kss_tables)
    batch = [whole_range(sorted_db.column()[i::2], sorted_db.k) for i in range(3)]
    shard.row_levels()
    kss_keys = kss_tables.store().kmers
    calls = []
    searchsorted = np.searchsorted

    def counting(*args, **kwargs):
        calls.append(args[0])
        return searchsorted(*args, **kwargs)

    monkeypatch.setattr(np, "searchsorted", counting)
    NUMPY.step_two(shard, batch)
    assert calls
    assert not any(np.shares_memory(haystack, kss_keys) for haystack in calls)


# -- where the row columns are built -----------------------------------------


def _config(**overrides):
    return MegisConfig(backend="numpy", abundance_method="statistical", **overrides)


def _signature(result):
    return (result.intersecting_kmers, result.sketch_hits, result.candidates,
            result.profile.fractions)


def test_warm_builds_no_row_columns(sorted_db, sketch_db, references, sample):
    """``warm`` leaves the row columns to the first Step 2, which builds
    them for every shard it ran on."""
    session = AnalysisSession(MegisIndex(sorted_db, sketch_db, references),
                              _config(n_ssds=3)).warm()
    shards = session.cluster_shards()
    assert not any(has_rows(shard) for shard in shards)
    session.analyze(sample.reads[:60])
    assert all(has_rows(shard) for shard in shards)


def test_racing_first_step_twos_equal_a_serial_run(sorted_db, sketch_db, references,
                                                   sample, monkeypatch):
    """Four threads make a fresh 2-shard session's first Step 2 at
    once (each build slowed so they overlap, thread switches forced
    often): every result equals a serial session's, and each shard keeps
    one of the columns built for it."""
    chunks = [sample.reads[i:i + 60] for i in range(0, 240, 60)]
    serial = AnalysisSession(MegisIndex(sorted_db, sketch_db, references), _config())
    expected = [_signature(serial.analyze(chunk)) for chunk in chunks]

    built = []
    build = multissd.retrieve_levels

    def slow_build(store, column):
        levels = build(store, column)
        built.append(levels)
        threading.Event().wait(0.05)
        return levels

    monkeypatch.setattr(multissd, "retrieve_levels", slow_build)
    session = AnalysisSession(MegisIndex(sorted_db, sketch_db, references),
                              _config(n_ssds=2)).warm()
    barrier = threading.Barrier(len(chunks), timeout=10)
    got = [None] * len(chunks)

    def analyze(i):
        barrier.wait()
        got[i] = _signature(session.analyze(chunks[i]))

    threads = [threading.Thread(target=analyze, args=(i,)) for i in range(len(chunks))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert got == expected
    shards = session.cluster_shards()
    assert len(built) >= len(shards)
    for shard in shards:
        assert any(shard.row_levels() is levels for levels in built)


def test_service_first_batch_equals_a_serial_run(sorted_db, sketch_db, references,
                                                 sample):
    """``AnalysisService(workers=2)`` over a fresh session: the batch that
    builds the row columns equals a serial run."""
    chunks = [sample.reads[i:i + 80] for i in range(0, 320, 80)]
    serial = AnalysisSession(MegisIndex(sorted_db, sketch_db, references), _config())
    expected = [_signature(serial.analyze(chunk)) for chunk in chunks]
    session = AnalysisSession(MegisIndex(sorted_db, sketch_db, references),
                              _config(n_ssds=2))
    with AnalysisService(session, workers=2) as service:
        got = [_signature(f.result()) for f in service.submit_batch(chunks)]
    assert got == expected
    assert all(has_rows(shard) for shard in session.cluster_shards())
