"""NumPy columnar Step-2 backend: vectorized intersection and retrieval.

The sorted k-mer database and the KSS k_max table are held as sorted
``np.ndarray`` columns (:meth:`SortedKmerDatabase.column`,
:meth:`KssTables.store`); the Step-2 kernels then become array
operations:

- bucket range selection — ``np.searchsorted`` over the database column;
- sorted-stream intersection — per sample, one clamped ``searchsorted``
  membership test over the database range all the batch's intervals
  cover, with the duplicate-query mask folded in (both sides are already
  sorted, so no re-sort and no per-interval loop);
- KSS retrieval — a take at the database rows the intersect found
  (:meth:`NumpyStepTwoBackend.step_two`).  Every intersecting k-mer is a
  database row, so each shard handle holds one ``int32`` column per KSS
  level aligned with its database column
  (:meth:`~repro.megis.multissd.DatabaseShard.row_levels`, 4 B per level
  per row, built on the shard's first Step 2), and a sample's level ids
  are that column taken at its hit rows.  :func:`retrieve_levels` is what
  the columns hold, built over the shard's whole database column: one
  clamped ``searchsorted`` into the k_max keys (§4.3.2:
  prefixes of the k_max stream identify the rows of every smaller k),
  an exact compare for the k_max level and, per smaller level, the
  matched neighbour's entry of the level's ``kmax_row_signatures``
  column when that neighbour shares the query's prefix (a range slice's
  orphan boundary rows answer their prefix's run of queries directly).
  A query answers with an ``int32`` owner-set id, ``0`` on a miss, and
  no owner set is copied.

The columns are key columns (:mod:`repro.sequences.keys`): ``uint64``
and native speed while a k-mer fits one word, ``object`` past it (the
paper's k = 60 needs 120 bits), where the same code path stays correct
at reduced throughput.  Results stay columns: each sample's intersecting
k-mers are one column in the database column's dtype, which becomes
``RetrievalResult.queries`` — equal, as ints, to the reference backend's
lists.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np
import numpy.typing as npt

from repro.backends.base import (
    BucketSlice,
    IntColumn,
    PhaseTimings,
    StepTwoBackend,
    StepTwoResult,
    bisect_column,
    interval_edges,
)
from repro.backends.retrieval import RetrievalResult
from repro.backends.signatures import SignatureColumn
from repro.sequences.keys import as_column, column_dtype, edge_cuts, searchsorted_clamped


class NumpyStepTwoBackend(StepTwoBackend):
    """Columnar vectorized backend; bit-identical to the python reference."""

    name = "numpy"
    columnar = True

    # -- query columns --------------------------------------------------------

    def query_column(self, values: IntColumn, k: int) -> npt.NDArray[Any]:
        """Native bucket container: a sorted ndarray column.

        Zero-copy when ``values`` is already an ndarray of the column dtype
        — the partition→intersect hand-off then moves no data at all.
        """
        return as_column(values, column_dtype(k))

    # -- one shard's batch ----------------------------------------------------

    def step_two(
        self,
        shard: Any,
        samples: Sequence[Sequence[BucketSlice]],
        n_channels: int = 8,
        timings: Optional[PhaseTimings] = None,
    ) -> List[StepTwoResult]:
        """One shard's batch Step 2 with retrieval as takes: each level of a
        sample's result is the shard's row column for that level
        (:meth:`~repro.megis.multissd.DatabaseShard.row_levels`) taken at
        the database rows its intersect found — no second search.  Equal
        to a search of the shard's KSS range per sample, because
        :func:`retrieve_levels` answers each query on its own."""
        timings = timings if timings is not None else PhaseTimings(backend=self.name)
        matches, rows = self._intersect(shard.database, samples, timings)
        with timings.phase("retrieve"):
            row_levels = shard.row_levels()  # built on the shard's first call
            table = shard.kss.store().table
            return [
                (query, RetrievalResult(
                    queries=query,
                    levels={k: column.take(hit_rows) for k, column in row_levels.items()},
                    signatures=table,
                ))
                for query, hit_rows in zip(matches, rows)
            ]

    def _intersect(
        self,
        database: Any,
        samples: Sequence[Sequence[BucketSlice]],
        timings: PhaseTimings,
    ) -> Tuple[List[npt.NDArray[Any]], List[npt.NDArray[Any]]]:
        """Each sample's matches and the database rows they sit at."""
        timings.samples_batched = max(timings.samples_batched, len(samples))
        column = database.column()
        # Bucket concatenation in range order is globally sorted; native
        # ndarray bucket columns concatenate without per-element conversion.
        merged = [
            self._merged_query(buckets, column.dtype) for buckets in samples
        ]
        matches: List[npt.NDArray[Any]] = []
        rows: List[npt.NDArray[Any]] = []
        edges = interval_edges(samples)
        with timings.phase("intersect"):
            # The database range every interval covers, its two ends located
            # in the column's own dtype (a bare Python int would promote a
            # uint64 column to float64 on every lookup).  Every query k-mer
            # lies inside it (interval_edges checks each bucket's range);
            # a session's whole-range column covers all of it.
            if edges == [0, 1 << (2 * database.k)]:
                start, stop = 0, len(column)
            else:
                start, stop = edge_cuts(column, edges[:1] + edges[-1:]) or [0, 0]
            db_range = column[start:stop]
            # Charged per interval as if streamed one by one; the flash
            # stream is shared by all samples, so each is charged once.
            timings.db_kmers_streamed += len(db_range)
            timings.buckets_processed += max(0, len(edges) - 1)
            for query in merged:
                timings.query_kmers_streamed += len(query)
                if not len(query) or not len(db_range):
                    matches.append(column[:0])
                    rows.append(np.empty(0, dtype=np.intp))
                    continue
                # Both sides are sorted and the database is duplicate-free:
                # one clamped searchsorted is the membership test for every
                # interval at once.  Duplicate queries match a database
                # k-mer once, as the register-level merge does.
                pos = searchsorted_clamped(db_range, query)
                hit = np.asarray(db_range[pos] == query, dtype=bool)
                hit[1:] &= np.asarray(query[1:] != query[:-1], dtype=bool)
                # Two takes at one nonzero: on 11-23k queries, 60-80% hit,
                # 45-100 us against 200-310 us for two mask gathers.
                found = hit.nonzero()[0]
                matches.append(query[found])
                rows.append(pos[found] + start)
            timings.db_stream_passes += 1
        return matches, rows

    @staticmethod
    def _merged_query(
        buckets: Sequence[BucketSlice], dtype: "np.dtype[Any]"
    ) -> npt.NDArray[Any]:
        """A sample's slices as one column: a lone slice (a session's
        whole-range column) as it is, several joined."""
        columns = [as_column(kmers, dtype) for _, _, kmers in buckets]
        if len(columns) == 1:
            return columns[0]
        if not columns:
            return np.empty(0, dtype=dtype)
        return np.concatenate(columns)


def retrieve_levels(store: Any, q: npt.NDArray[Any]) -> Dict[int, SignatureColumn]:
    """Every level's signature column for the sorted queries ``q``, from
    one clamped ``searchsorted`` into the store's k_max keys — the one
    definition of what a k-mer retrieves on the columnar path.  Each
    query's answer depends on that query alone, so the column built over
    a shard's whole database column
    (:meth:`~repro.megis.multissd.DatabaseShard.row_levels`) taken at a
    row equals a search for that row's k-mer.

    A query's insertion point ``p`` has k_max neighbours at ``p`` and
    ``p - 1`` (clamped to the column); XOR with each says how many
    leading bits the query shares with it.  The k_max level answers with
    the row at ``p`` when it equals the query.  A smaller level answers
    with a neighbour's ``kmax_row_signatures`` entry when that neighbour
    shares the query's prefix — every k_max-mer under one prefix names
    the same level row, and a prefix with k_max-mers in the column has
    one of them next to the query — else ``0``.  The only rows no
    neighbour can name are a range slice's first and last level rows
    when every k_max-mer under them lies in another shard
    (:func:`_orphan_rows`); the queries on such a prefix (one run of the
    sorted column, found by bisection) answer with that row directly.
    Every column is a plain ``np.ndarray``, whatever the store's columns
    are views of.
    """
    kmers = store.kmers
    pos = np.searchsorted(kmers, q, side="left")
    if not len(kmers) or not len(q):
        levels = {
            k: np.zeros(len(q), dtype=np.int32)
            for k in (store.k_max, *store.smaller_ks)
        }
    else:
        right = np.minimum(pos, len(kmers) - 1)
        left = np.maximum(pos, 1) - 1
        right_diff = kmers[right] ^ q
        left_diff = kmers[left] ^ q
        found: SignatureColumn = np.take(np.asarray(store.signatures), right)
        found *= np.asarray(right_diff == 0, dtype=bool)
        levels = {store.k_max: found}
        for k in store.smaller_ks:
            bound = kmers.dtype.type(1 << (2 * (store.k_max - k)))
            shared = np.asarray(right_diff < bound, dtype=bool)
            found = np.take(
                store.levels[k].kmax_row_signatures, np.where(shared, right, left)
            )
            shared |= np.asarray(left_diff < bound, dtype=bool)
            found *= shared
            levels[k] = found
    for k in store.smaller_ks:
        level = store.levels[k]
        shift = 2 * (store.k_max - k)
        for row in _orphan_rows(kmers, level.prefixes, shift):
            prefix = int(level.prefixes[row])
            start = bisect_column(q, prefix << shift)
            stop = bisect_column(q, (prefix + 1) << shift, lo=start)
            levels[k][start:stop] = level.signatures[row]
    return levels


def _orphan_rows(
    kmers: npt.NDArray[Any], prefixes: npt.NDArray[Any], shift: int
) -> List[int]:
    """The first and last level rows no k_max-mer of ``kmers`` carries.

    Interior rows of a slice always have k_max-mers inside it, and a
    whole store has no orphan at all; only a range slice's boundary rows
    can have theirs in a neighbouring shard.
    """
    orphans: List[int] = []
    if not len(prefixes):
        return orphans
    if not len(kmers) or int(kmers[0]) >> shift != int(prefixes[0]):
        orphans.append(0)
    last = len(prefixes) - 1
    if last and (not len(kmers) or int(kmers[-1]) >> shift != int(prefixes[last])):
        orphans.append(last)
    return orphans
