"""Comparing k-mer columns across Step-2 backends.

The ``python`` reference backend returns intersecting k-mers as int
lists; the ``numpy`` backend returns them as ndarray columns in the
database column's dtype.  Tests compare the two as Python ints through
:func:`as_ints` (``==`` on an ndarray is elementwise, so a bare
comparison would not even be a truth value), and check the numpy side's
container with :func:`native_column`.  The candidate call's references
live here too: the per-query dict fold (:func:`accumulate_oracle`) and
the per-level fold with its ``np.unique``-aligned containment scoring
(:func:`accumulate_levels_oracle`, :func:`containment_oracle`) that the
one-matrix :func:`~repro.tools.metalign.accumulate_hits` replaced.
A test holding only a database runs a backend's
:meth:`~repro.backends.StepTwoBackend.step_two` over :func:`own_shard`,
the database with a KSS built from its own rows (:func:`database_kss`);
retrieval of arbitrary queries — misses, any shard's range — is
:func:`retrieve_with`.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Dict, FrozenSet, List, Sequence, Tuple

import numpy as np

from repro.backends.numpy_backend import retrieve_levels
from repro.backends.python_backend import TaxIdRetriever
from repro.backends.retrieval import RetrievalResult
from repro.databases.kss import KssTables
from repro.databases.sketch import SketchDatabase
from repro.databases.sorted_db import PairColumns, SortedKmerDatabase
from repro.megis.multissd import DatabaseShard, whole_shard
from repro.sequences.keys import as_column


def as_ints(column: Any) -> List[int]:
    """A k-mer column — an int list or an ndarray — as Python ints."""
    if isinstance(column, np.ndarray):
        return [int(x) for x in column.tolist()]
    return [int(x) for x in column]


def pairs_as_ints(results: Sequence[Tuple[Any, Any]]) -> List[Tuple[List[int], Any]]:
    """Step-2 ``(intersecting, retrieved)`` pairs with their k-mers as
    ints and each retrieval result as its :func:`query_dicts` view."""
    return [
        (as_ints(intersecting), query_dicts(retrieved))
        for intersecting, retrieved in results
    ]


def database_kss(
    database: SortedKmerDatabase, smaller_ks: Sequence[int] = (12, 8)
) -> KssTables:
    """A KSS over ``database``'s own rows: every row sketched at k_max with
    its owners, every prefix at each smaller level (those below k)."""
    taxids, offsets = database.owner_columns()
    universe, genomes = np.unique(taxids, return_inverse=True)
    pairs = PairColumns(
        database.k,
        np.repeat(database.column(), np.diff(offsets)),
        genomes.astype(np.int64),
        universe.astype(np.int64),
    )
    levels = [k for k in smaller_ks if k < database.k]
    return KssTables(SketchDatabase.from_pairs(pairs, levels, sketch_fraction=1.0).kss_store)


def own_shard(database: SortedKmerDatabase) -> DatabaseShard:
    """``database`` as one SSD's whole-range shard over its own KSS."""
    return whole_shard(database, database_kss(database))


def retrieve_with(backend: str, kss: KssTables, queries: Any) -> RetrievalResult:
    """Retrieval of any sorted queries, not only database rows: the
    ``python`` reference's :class:`TaxIdRetriever` merge, or on ``numpy``
    :func:`retrieve_levels` — what a shard's row columns hold."""
    if backend == "python":
        return TaxIdRetriever(kss).retrieve(queries)
    store = kss.store()
    q = as_column(queries, store.kmers.dtype)
    return RetrievalResult(queries=q, levels=retrieve_levels(store, q),
                           signatures=store.table)


def native_column(column: Any, database: Any) -> List[int]:
    """Check ``column`` is a columnar backend's output for ``database`` —
    an ndarray in ``database.column()``'s dtype — and return it as ints."""
    assert isinstance(column, np.ndarray), type(column)
    assert column.dtype == database.column().dtype, (column.dtype, database.column().dtype)
    return as_ints(column)


#: The historical per-query view of a retrieval result.
QueryDicts = Dict[int, Dict[int, FrozenSet[int]]]


def query_dicts(retrieved: Any) -> QueryDicts:
    """A retrieval result as query -> level -> owner set, levels without
    owners omitted: its :meth:`~repro.backends.retrieval.RetrievalResult.expand`
    columns read one query at a time.  Results over different signature
    tables (another build, another backend's interning) compare equal
    through it exactly when they answer with the same owner sets."""
    queries = as_ints(retrieved.queries)
    view: QueryDicts = {q: {} for q in queries}
    for k, (taxids, offsets) in sorted(retrieved.expand().items(), reverse=True):
        bounds = offsets.tolist()
        for i, q in enumerate(queries):
            if bounds[i + 1] > bounds[i]:
                view[q][k] = frozenset(taxids[bounds[i]:bounds[i + 1]].tolist())
    return view


def accumulate_oracle(view: QueryDicts) -> Dict[int, Dict[int, int]]:
    """The per-query dict fold :func:`repro.tools.metalign.accumulate_hits`
    replaces: ``taxid -> {level: hit count}``, what its ``as_dict`` gives."""
    counters: Dict[int, Counter] = {}
    for levels in view.values():
        for k, owners in levels.items():
            counters.setdefault(k, Counter()).update(owners)
    hits: Dict[int, Dict[int, int]] = {}
    for k in sorted(counters, reverse=True):
        for taxid in sorted(counters[k]):
            hits.setdefault(taxid, {})[k] = counters[k][taxid]
    return hits


def accumulate_levels_oracle(retrieved: Any) -> Dict[int, Tuple[Any, Any]]:
    """The per-level fold :func:`repro.tools.metalign.accumulate_hits`
    replaces: per level with any hit, one ``bincount`` of the signature
    ids, the hit signatures expanded through the table and a weighted
    ``bincount`` over the taxID universe — ``{k: (taxids, counts)}``."""
    table = retrieved.signatures
    levels: Dict[int, Tuple[Any, Any]] = {}
    for k, ids in retrieved.levels.items():
        per_set = np.bincount(ids, minlength=len(table))
        per_set[0] = 0  # signature 0: no owners
        hit = np.flatnonzero(per_set)
        if not len(hit):
            continue
        entries, offsets = table.entries(hit)
        totals = np.bincount(
            table.codes[entries],
            weights=np.repeat(per_set[hit], np.diff(offsets)),
            minlength=len(table.universe),
        )
        owners = np.flatnonzero(totals)
        levels[k] = (table.universe[owners], totals[owners].astype(np.int64))
    return levels


def containment_oracle(sketch: Any, retrieved: Any) -> Tuple[Any, Any]:
    """``(taxids, scores)`` over :func:`accumulate_levels_oracle`'s columns
    as ``batch_containment`` scored them before the one-matrix fold: the
    levels re-aligned on their taxID union by ``np.unique`` and one
    ``searchsorted`` per level."""
    levels = accumulate_levels_oracle(retrieved)
    columns = [taxids for taxids, _ in levels.values()]
    if not columns:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
    taxids = np.unique(np.concatenate(columns))

    def aligned(k: int) -> Any:
        counts = np.zeros(len(taxids), dtype=np.int64)
        if k in levels:
            level_taxids, level_counts = levels[k]
            counts[np.searchsorted(taxids, level_taxids)] = level_counts
        return counts

    kmax_counts = aligned(sketch.k_max)
    others = np.zeros(len(taxids), dtype=np.int64)
    for k in levels:
        if k != sketch.k_max:
            others += aligned(k)
    return taxids, (kmax_counts + 0.25 * others) / sketch.size_column(taxids)
