"""Reference Step-2 backend: register-level pure-Python loops.

This is the fidelity backend.  :class:`IntersectUnit` and
:class:`TaxIdRetriever` model the in-storage hardware at the register level
(paper §4.3, Fig 8): two k-mer registers per channel fed straight from the
flash stream, and an Index Generator that detects prefix transitions while
streaming the KSS tables.  :meth:`PythonStepTwoBackend.step_two` is the
two in sequence over one shard: the register-level intersect of the
batch, then one :class:`TaxIdRetriever` merge of the shard's KSS range
per sample.  Every faster backend must reproduce these results bit for
bit.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from repro.backends.base import (
    BucketSlice,
    PhaseTimings,
    StepTwoBackend,
    StepTwoResult,
    interval_edges,
)
from repro.backends.retrieval import IntColumn, RetrievalResult, column_to_list
from repro.backends.signatures import SignatureColumn
from repro.sequences.encoding import kmer_prefix


@dataclass
class IntersectUnit:
    """Per-channel streaming comparator with two k-mer registers."""

    channel: int
    comparisons: int = 0

    def intersect(
        self, database_stream: Iterable[int], query_stream: Iterable[int]
    ) -> List[int]:
        """Merge two sorted streams, emitting equal elements.

        Mirrors the hardware loop: the *current* register holds the k-mer
        under comparison while the *next* register is loaded from the flash
        channel; on ``db < query`` the registers shift, on ``db > query``
        the query side advances, on equality both advance and the k-mer is
        recorded as intersecting.
        """
        db_iter = iter(database_stream)
        q_iter = iter(query_stream)
        current_reg = _next_or_none(db_iter)
        next_reg = _next_or_none(db_iter)
        query_reg = _next_or_none(q_iter)
        matches: List[int] = []
        while current_reg is not None and query_reg is not None:
            self.comparisons += 1
            if current_reg == query_reg:
                matches.append(current_reg)
                current_reg, next_reg = next_reg, _next_or_none(db_iter)
                query_reg = _next_or_none(q_iter)
            elif current_reg < query_reg:
                current_reg, next_reg = next_reg, _next_or_none(db_iter)
            else:
                query_reg = _next_or_none(q_iter)
        return matches


def _next_or_none(iterator: Iterator[int]) -> Optional[int]:
    try:
        return int(next(iterator))
    except StopIteration:
        return None


def stripe_database(kmers: Sequence[int], n_channels: int) -> List[List[int]]:
    """Round-robin channel striping of the sorted database (§4.5, Fig 10).

    Every channel's slice remains sorted (it takes every ``n_channels``-th
    element), so each per-channel Intersect unit can merge independently;
    the union of the per-channel intersections is the full intersection.
    """
    if n_channels <= 0:
        raise ValueError(f"n_channels must be positive, got {n_channels}")
    stripes: List[List[int]] = [[] for _ in range(n_channels)]
    for i, kmer in enumerate(kmers):
        stripes[i % n_channels].append(int(kmer))
    return stripes


@dataclass
class TaxIdRetriever:
    """KSS streaming retrieval with the Index Generator (Fig 8).

    All accesses are sequential merges over sorted streams — no pointer
    chasing.  The Index Generator's work shows up as ``prefix transition``
    events: it compares the k-prefixes of consecutive k_max entries and,
    when they differ, advances to the next row of the smaller-k table.

    Each merge builds the matched owner sets exactly as the streams give
    them and, at the end, maps each to its id in the KSS's signature table
    (``0`` for a miss) — the :class:`~repro.backends.retrieval.RetrievalResult`
    layout — while the register-level stream semantics stay as before.
    """

    kss: Any  # a KssTables; duck-typed so the backend never imports the engine
    index_generator_advances: int = 0
    comparisons: int = 0

    def retrieve(self, sorted_intersecting: IntColumn) -> RetrievalResult:
        queries = [int(q) for q in sorted_intersecting]
        if any(queries[i] > queries[i + 1] for i in range(len(queries) - 1)):
            raise ValueError("intersecting k-mers must be sorted")
        table = self.kss.signatures
        levels: Dict[int, SignatureColumn] = {
            self.kss.k_max: _signature_ids(table.ids, self._merge_kmax(queries))
        }
        for k in self.kss.smaller_ks:
            levels[k] = _signature_ids(table.ids, self._merge_level(k, queries))
        return RetrievalResult(queries=queries, levels=levels, signatures=table)

    def _merge_kmax(self, queries: List[int]) -> List[Optional[FrozenSet[int]]]:
        """Sorted merge of queries against the k_max (k-mer, taxIDs) table."""
        entries = self.kss.entries
        found: List[Optional[FrozenSet[int]]] = []
        i = 0
        for q in queries:
            while i < len(entries) and entries[i][0] < q:
                self.comparisons += 1
                i += 1
            owners: Optional[FrozenSet[int]] = None
            if i < len(entries):
                self.comparisons += 1
                if entries[i][0] == q:
                    owners = entries[i][1]
            found.append(owners)
        return found

    def _prefix_groups(self, k: int) -> Iterator[Tuple[int, FrozenSet[int], FrozenSet[int]]]:
        """Yield (prefix, stored_row, covered_owners) in ascending order.

        Covered owners are accumulated by streaming the k_max table in step
        with the smaller-k rows; the prefix transition detection is exactly
        the Index Generator's job.  The walk is row-driven (not entry-
        driven) because a range-sharded KSS slice may carry a boundary
        prefix row whose covering k_max-mers live entirely on another shard
        — such a row contributes an empty covered set here, its full taxIDs
        being held in ``stored`` instead.
        """
        entries = self.kss.entries
        e = 0
        for row_index, row in enumerate(self.kss.sub_tables[k]):
            if row_index:
                self.index_generator_advances += 1
            covered: Set[int] = set()
            while e < len(entries) and kmer_prefix(
                entries[e][0], self.kss.k_max, k
            ) == row.prefix:
                covered.update(entries[e][1])
                e += 1
            yield row.prefix, row.stored, frozenset(covered)

    def _merge_level(self, k: int, queries: List[int]) -> List[Optional[FrozenSet[int]]]:
        """Merge query prefixes against the level-k prefix groups."""
        found: List[Optional[FrozenSet[int]]] = []
        q = 0
        for prefix, stored, covered in self._prefix_groups(k):
            full = stored | covered
            while q < len(queries) and kmer_prefix(queries[q], self.kss.k_max, k) < prefix:
                self.comparisons += 1
                found.append(None)
                q += 1
            start = q
            while q < len(queries) and kmer_prefix(queries[q], self.kss.k_max, k) == prefix:
                self.comparisons += 1
                found.append(full)
                q += 1
            if q == start and q >= len(queries):
                break
        # Queries past the last prefix group (or beyond the early exit)
        # miss this level.
        found += [None] * (len(queries) - len(found))
        return found


def _signature_ids(
    ids: Dict[FrozenSet[int], int], found: List[Optional[FrozenSet[int]]],
) -> SignatureColumn:
    """Each merged owner set's signature id (``0`` for a miss)."""
    return np.array(
        [0 if owners is None else ids[owners] for owners in found], dtype=np.int32
    )


class PythonStepTwoBackend(StepTwoBackend):
    """Fidelity backend running the register-level hardware model."""

    name = "python"

    def step_two(
        self,
        shard: Any,
        samples: Sequence[Sequence[BucketSlice]],
        n_channels: int = 8,
        timings: Optional[PhaseTimings] = None,
    ) -> List[StepTwoResult]:
        timings = timings if timings is not None else PhaseTimings(backend=self.name)
        partials = self._intersect(shard.database, samples, n_channels, timings)
        with timings.phase("retrieve"):
            return [
                (partial, TaxIdRetriever(shard.kss).retrieve(partial))
                for partial in partials
            ]

    def _intersect(
        self,
        database: Any,
        samples: Sequence[Sequence[BucketSlice]],
        n_channels: int,
        timings: PhaseTimings,
    ) -> List[List[int]]:
        """The register-level intersect of the batch: each sample's sorted
        matches as an int list."""
        timings.samples_batched = max(timings.samples_batched, len(samples))
        # Bucket concatenation in range order is globally sorted, so each
        # sample's query slice for an interval is a contiguous run.
        merged: List[List[int]] = []
        for buckets in samples:
            flat: List[int] = []
            for _, _, kmers in buckets:
                flat.extend(column_to_list(kmers))
            merged.append(flat)
        results: List[List[int]] = [[] for _ in samples]
        units = [IntersectUnit(channel=c) for c in range(n_channels)]
        edges = interval_edges(samples)
        with timings.phase("intersect"):
            for lo, hi in zip(edges, edges[1:]):
                db_slice = list(database.stream_range(lo, hi))
                # Charged once: the flash stream is shared by all samples.
                timings.db_kmers_streamed += len(db_slice)
                timings.buckets_processed += 1
                stripes = stripe_database(db_slice, n_channels)
                for s, query in enumerate(merged):
                    i = bisect_left(query, lo)
                    j = bisect_left(query, hi)
                    if i == j:
                        continue
                    timings.query_kmers_streamed += j - i
                    for unit, stripe in zip(units, stripes):
                        results[s].extend(unit.intersect(stripe, query[i:j]))
            timings.db_stream_passes += 1
            for partial in results:
                partial.sort()
        return results
