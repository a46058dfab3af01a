"""NumPy columnar Step-2 backend: vectorized intersection and retrieval.

The sorted k-mer database and the KSS k_max table are held as sorted
``np.ndarray`` columns (:meth:`SortedKmerDatabase.column`,
:meth:`KssTables.store`); the Step-2 kernels then become array
operations:

- bucket range selection — ``np.searchsorted`` over the database column;
- sorted-stream intersection — per interval and sample, one clamped
  ``searchsorted`` membership test with the duplicate-query mask folded
  in (both sides are already sorted, so no re-sort);
- channel striping — position-in-slice modulo ``n_channels`` (equivalent
  to the round-robin stripes the per-channel Intersect units consume,
  §4.5), one ``bincount`` over the call's matches;
- KSS retrieval — ``searchsorted`` membership against the k_max column
  and, per smaller k, against the precomputed prefix-group columns.

For ``2 * k <= 64`` the columns are ``uint64`` and everything runs at
native speed; for larger k (the paper's k = 60 needs 120 bits) the columns
fall back to ``object`` dtype, which keeps the exact same code path correct
at reduced throughput.  Results stay columns: each sample's intersecting
k-mers are one column in the database column's dtype, which retrieval
takes as is and which becomes ``RetrievalResult.queries`` — equal, as
ints, to the reference backend's lists.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

import numpy as np
import numpy.typing as npt

from repro.backends.base import (
    BucketSlice,
    IntColumn,
    PhaseTimings,
    StepTwoBackend,
    interval_edges,
)
from repro.backends.retrieval import LevelHits, RetrievalResult, csr_gather


def column_dtype(k: int) -> "np.dtype[Any]":
    """Column dtype for packed k-mers: uint64 when they fit, object otherwise."""
    return np.dtype(np.uint64) if 2 * k <= 64 else np.dtype(object)


def as_column(values: IntColumn, dtype: "np.dtype[Any]") -> npt.NDArray[Any]:
    """Build a sorted query column matching the database column's dtype
    (the identity on an ndarray that already has it)."""
    if isinstance(values, np.ndarray) and values.dtype == dtype:
        return values
    if dtype == np.dtype(object):
        arr = np.empty(len(values), dtype=object)
        for i, v in enumerate(values):
            arr[i] = int(v)
        return arr
    return np.asarray(values, dtype=dtype)


def stripe_columns(column: npt.NDArray[Any], n_channels: int) -> List[npt.NDArray[Any]]:
    """Vectorized round-robin striping: channel c gets ``column[c::n]``.

    Mirrors :func:`repro.backends.python_backend.stripe_database`; each
    stripe stays sorted, and their union is the original column.
    """
    if n_channels <= 0:
        raise ValueError(f"n_channels must be positive, got {n_channels}")
    return [column[c::n_channels] for c in range(n_channels)]


def _rshift(arr: npt.NDArray[Any], shift: int) -> npt.NDArray[Any]:
    if arr.dtype == np.dtype(object):
        return arr >> shift
    return arr >> np.uint64(shift)


def _searchsorted(column: npt.NDArray[Any], values: Any) -> Any:
    return np.searchsorted(column, values, side="left")


def _edge_cuts(column: npt.NDArray[Any], edges: Sequence[int]) -> List[int]:
    """Vectorized ``searchsorted`` of range edges into a sorted column.

    Edges beyond the column dtype's range (e.g. the key-space bound
    ``1 << 2k`` of the last shard) would overflow the cast, so they resolve
    to ``len(column)`` directly — every representable value lies below them.
    """
    if column.dtype == np.dtype(object):
        arr = np.empty(len(edges), dtype=object)
        for i, e in enumerate(edges):
            arr[i] = int(e)
        return [int(c) for c in _searchsorted(column, arr)]
    limit = int(np.iinfo(column.dtype).max)
    clamped = np.asarray([min(int(e), limit) for e in edges], dtype=column.dtype)
    cuts = _searchsorted(column, clamped)
    return [
        len(column) if int(e) > limit else int(c) for e, c in zip(edges, cuts)
    ]


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

    # -- intersection ---------------------------------------------------------

    def intersect_bucketed_multi(
        self,
        database: Any,
        samples: Sequence[Sequence[BucketSlice]],
        n_channels: int = 8,
        timings: Optional[PhaseTimings] = None,
    ) -> List[npt.NDArray[Any]]:
        """The intersect kernel (:meth:`StepTwoBackend.intersect_bucketed_multi`):
        each sample's matches come back as one column in the database
        column's dtype (``column[:0]`` when none matched)."""
        timings = timings if timings is not None else PhaseTimings(backend=self.name)
        timings.samples_batched = max(timings.samples_batched, len(samples))
        column = database.column()
        # Bucket concatenation in range order is globally sorted; native
        # ndarray bucket columns concatenate without per-element conversion.
        merged = [
            self._merged_query(buckets, column.dtype) for buckets in samples
        ]
        matches: List[List[npt.NDArray[Any]]] = [[] for _ in samples]
        positions: List[npt.NDArray[Any]] = []
        edges = interval_edges(samples)
        with timings.phase("intersect"):
            # Every interval boundary located once, in the columns' own
            # dtype (a bare Python int would promote a uint64 column to
            # float64 on every lookup).
            db_cuts = _edge_cuts(column, edges)
            query_cuts = [_edge_cuts(query, edges) for query in merged]
            # Duplicate queries match a database k-mer once, as the
            # register-level merge does; equal k-mers are adjacent and never
            # straddle an interval edge, so one first-occurrence mask per
            # sample serves every slice.
            firsts = [
                np.concatenate(([True], np.asarray(q[1:] != q[:-1], dtype=bool)))
                for q in merged
            ]
            for n in range(len(edges) - 1):
                db_slice = column[db_cuts[n]:db_cuts[n + 1]]
                # Charged once: the flash stream is shared by all samples.
                timings.db_kmers_streamed += len(db_slice)
                timings.buckets_processed += 1
                for s, query in enumerate(merged):
                    i, j = query_cuts[s][n], query_cuts[s][n + 1]
                    timings.query_kmers_streamed += j - i
                    if i == j or not len(db_slice):
                        continue
                    # Both sides are sorted and the database is duplicate-
                    # free: a clamped searchsorted is the membership test.
                    q = query[i:j]
                    pos = np.minimum(_searchsorted(db_slice, q), len(db_slice) - 1)
                    hit = firsts[s][i:j] & np.asarray(db_slice[pos] == q, dtype=bool)
                    matches[s].append(q[hit])
                    positions.append(pos[hit])
            timings.db_stream_passes += 1
            if positions:
                # Striping attribution (§4.5): slice position i belongs to
                # channel i % n_channels, the stripe stripe_database deals
                # it to.
                per_channel = np.bincount(
                    np.concatenate(positions) % n_channels, minlength=n_channels
                )
                for channel, count in enumerate(per_channel.tolist()):
                    timings.add_channel_matches(channel, count)
        return [np.concatenate(m) if m else column[:0] for m in matches]

    @staticmethod
    def _merged_query(
        buckets: Sequence[BucketSlice], dtype: "np.dtype[Any]"
    ) -> npt.NDArray[Any]:
        columns = [as_column(kmers, dtype) for _, _, kmers in buckets]
        if not columns:
            return np.empty(0, dtype=dtype)
        return np.concatenate(columns)

    # -- retrieval ------------------------------------------------------------

    def retrieve(
        self,
        kss: Any,
        sorted_intersecting: IntColumn,
        timings: Optional[PhaseTimings] = None,
    ) -> RetrievalResult:
        """KSS retrieval into CSR owner columns with zero per-hit loops.

        The intersect kernel's column is taken as is (:func:`as_column` is
        the identity on it) and becomes the result's ``queries``.  Each
        level is one ``searchsorted`` membership test plus one vectorized
        CSR row gather (:func:`~repro.backends.retrieval.csr_gather`) out
        of the :meth:`KssTables.store` full-set owner columns; no Python
        code runs per query or per taxID.
        """
        timings = timings if timings is not None else PhaseTimings(backend=self.name)
        level_keys = (kss.k_max, *kss.smaller_ks)
        if not len(sorted_intersecting):
            zero = np.zeros(1, dtype=np.int64)
            return RetrievalResult(
                queries=as_column(sorted_intersecting, column_dtype(kss.k_max)),
                levels={
                    k: LevelHits(np.empty(0, dtype=np.int64), zero)
                    for k in level_keys
                },
            )
        levels: Dict[int, LevelHits] = {}
        with timings.phase("retrieve"):
            store = kss.store()
            q = as_column(sorted_intersecting, store.kmers.dtype)
            if np.any(np.asarray(q[1:] < q[:-1], dtype=bool)):
                raise ValueError("intersecting k-mers must be sorted")

            # Level k_max: vectorized membership against the sorted column,
            # then one CSR gather of the matched rows' owner slices.
            levels[kss.k_max] = self._gather_level(
                store.kmers, store.taxids, store.offsets, q
            )

            # Smaller levels: prefix-group membership per level.
            for k in kss.smaller_ks:
                level = store.levels[k]
                prefixes = _rshift(q, 2 * (kss.k_max - k))
                levels[k] = self._gather_level(
                    level.prefixes, level.full_taxids, level.full_offsets, prefixes
                )
        return RetrievalResult(queries=q, levels=levels)

    @staticmethod
    def _gather_level(
        keys: npt.NDArray[Any],
        taxids: npt.NDArray[Any],
        offsets: npt.NDArray[Any],
        q: npt.NDArray[Any],
    ) -> LevelHits:
        """One level's CSR block: membership test + vectorized row gather."""
        pos = _searchsorted(keys, q)
        hit_idx = np.nonzero(pos < len(keys))[0]
        if len(hit_idx):
            exact = np.asarray(keys[pos[hit_idx]] == q[hit_idx], dtype=bool)
            hit_idx = hit_idx[exact]
        rows = pos[hit_idx].astype(np.int64)
        flat, lengths = csr_gather(taxids, offsets, rows)
        counts = np.zeros(len(q), dtype=np.int64)
        counts[hit_idx] = lengths
        out_offsets = np.zeros(len(q) + 1, dtype=np.int64)
        np.cumsum(counts, out=out_offsets[1:])
        return LevelHits(taxids=flat, offsets=out_offsets)
