"""Functional multi-SSD partitioning (paper §6.1, Fig 15).

Because MegIS's database and queries are both sorted, the database can be
*disjointly* split across SSDs by lexicographic range; each SSD runs Step 2
independently on its shard and the host concatenates the (still sorted)
per-shard results.  This module implements that split functionally so the
Fig 15 scaling experiment has a correctness counterpart: the sharded
pipeline must produce exactly the single-SSD result.

Step 2 over one shard is one function, :func:`shard_step_two`: clip every
buffered sample's buckets to the shard's ``[lo, hi)`` and hand the batch
to the backend's one method, :meth:`~repro.backends.StepTwoBackend.step_two`,
which streams the shard's database slice once for the whole batch and
retrieves each sample's taxIDs from the shard's own KSS range (on
``numpy`` as takes at the intersect's database rows from the handle's
:meth:`DatabaseShard.row_levels`).  :func:`gather` concatenates the
per-shard results in ascending range order, and
:func:`step_two_over_shards` is the two together over a shard list — the
only way anything in :mod:`repro.megis` reaches a backend.  A
single SSD is the one-shard list (:func:`whole_shard`: the parent
database and KSS themselves under the range ``[0, 4^k)``) and a single
sample the one-sample batch, so the session's local Step-2 stage, the
engines here and in :mod:`repro.megis.isp`, and a cluster
node's :meth:`~repro.megis.session.AnalysisSession.step_two_partial` all
call it, each with one backend instance: ``numpy`` unless the caller
names the ``python`` reference, and for a session the instance it
resolved at construction.
Shard databases are positional slices of the parent — zero-copy views of
its key column (and owner CSR, when it has one) — so sharding adds no host-side per-element
work.

Each shard also carries its own KSS range
(:meth:`~repro.databases.kss.KssTables.slice_range`, prefix-aligned), so an
SSD's retrieval stream is bounded to its shard rather than a full KSS copy.
Shard handles are built once — by :func:`split_database` /
:func:`shard_kss` here, or ahead of time by
:class:`~repro.megis.index.MegisIndex` — and reused across every query.
A handle's row columns (one ``int32`` per KSS level per database row, in
RAM only, never persisted) are built on its first ``numpy`` Step 2, not
by :func:`warm_shards`: a handle no Step 2 runs on — a cluster router's
— never holds them.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.backends import (
    DEFAULT_BACKEND,
    BucketSlice,
    IntColumn,
    PhaseTimings,
    RetrievalResult,
    StepTwoBackend,
    StepTwoResult,
    get_backend,
)
from repro.backends.base import clip_buckets
from repro.backends.numpy_backend import retrieve_levels
from repro.backends.signatures import SignatureColumn
from repro.databases.kss import KssTables
from repro.databases.sorted_db import SortedKmerDatabase
from repro.megis.executors import shard_pool, shard_workers


@dataclass
class DatabaseShard:
    """One SSD's slice of the database: a lexicographic range.

    ``kss``, when set, is this shard's prefix-aligned KSS range — what the
    SSD streams during taxID retrieval instead of a whole-KSS copy.
    """

    index: int
    lo: int
    hi: int
    database: SortedKmerDatabase
    kss: Optional[KssTables] = None
    #: :meth:`row_levels`' one entry, once built.
    _rows: Dict[str, Dict[int, SignatureColumn]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def row_levels(self) -> Dict[int, SignatureColumn]:
        """Per KSS level, every database row's signature id, aligned with
        ``database.column()`` — what a search of this shard's KSS range
        answers for that row's k-mer (:func:`retrieve_levels`), so a
        sample's retrieval is these columns taken at its intersect's rows.

        Built on the first call (4 B per level per row) and kept.  No lock:
        ``dict.setdefault`` is atomic, so a racing duplicate build is
        dropped and every caller reads the first one stored.
        """
        levels = self._rows.get("levels")
        if levels is None:
            if self.kss is None:
                raise ValueError(f"shard {self.index} carries no KSS range")
            levels = self._rows.setdefault(
                "levels", retrieve_levels(self.kss.store(), self.database.column())
            )
        return levels


def whole_shard(database: SortedKmerDatabase, kss: KssTables) -> DatabaseShard:
    """One SSD as the one-shard case: the parent objects themselves under
    the whole key range — nothing is sliced, so nothing is built."""
    return DatabaseShard(0, 0, 1 << (2 * database.k), database, kss)


def split_database(database: SortedKmerDatabase, n_shards: int) -> List[DatabaseShard]:
    """Split a sorted database into ``n_shards`` contiguous ranges.

    Boundaries are chosen at equal k-mer counts, so shards are balanced
    regardless of how k-mers cluster in the key space.  Each shard database
    is a positional :meth:`~repro.databases.sorted_db.SortedKmerDatabase.slice`
    — views of its columns — and shards stay contiguous even
    when the database has fewer k-mers than shards (the extras are empty
    ranges).
    """
    if n_shards <= 0:
        raise ValueError(f"n_shards must be positive, got {n_shards}")
    kmers = database.column()
    space = 1 << (2 * database.k)
    shards: List[DatabaseShard] = []
    prev_hi = 0
    for i in range(n_shards):
        start = len(kmers) * i // n_shards
        stop = len(kmers) * (i + 1) // n_shards
        if i == n_shards - 1 or stop >= len(kmers):
            hi = space
        else:
            hi = int(kmers[stop])
        shards.append(
            DatabaseShard(
                index=i, lo=prev_hi, hi=hi, database=database.slice(start, stop)
            )
        )
        prev_hi = hi
    return shards


def shard_kss(kss: KssTables, shards: Sequence[DatabaseShard]) -> None:
    """Attach each shard's KSS range slice (ROADMAP: range-sharded KSS).

    Slicing is prefix-aligned and preserves every reachable row's full
    taxID set, so per-shard retrieval stays bit-identical to a single-SSD
    pass over the whole KSS; shards that already carry a slice keep it.
    """
    for shard in shards:
        if shard.kss is None:
            shard.kss = kss.slice_range(shard.lo, shard.hi)


def check_shards(shards: Sequence[DatabaseShard]) -> None:
    """Reject shard lists that are not in ascending, non-overlapping order.

    Ascending disjoint ranges are what make per-shard results concatenate
    into a globally sorted stream (§6.1) — violations would silently
    produce unsorted output, so they raise instead.
    """
    prev_hi = None
    for shard in shards:
        lo, hi = int(shard.lo), int(shard.hi)
        if hi < lo or (prev_hi is not None and lo < prev_hi):
            raise ValueError(
                "shards must cover ascending, non-overlapping ranges"
            )
        prev_hi = hi


def warm_shards(shards: Sequence[DatabaseShard], columnar: bool) -> None:
    """Materialize what the reference backend walks, for every shard.

    Serving threads then only read.
    A columnar backend reads the shards' columns, which simply exist; the
    reference backend walks row views — the database's k-mer list and the
    KSS rows with their per-level covered-owner caches, all of which an
    empty stream / retrieval touches.
    """
    for shard in shards:
        if shard.kss is None:
            raise ValueError(f"shard {shard.index} carries no KSS range")
        if not columnar:
            shard.database.stream()
            shard.kss.retrieve([])


def whole_range(sorted_query: IntColumn, k: int) -> List[BucketSlice]:
    """A sorted query column as one bucket spanning the whole key space."""
    return [(0, 1 << (2 * k), sorted_query)]


def shard_step_two(
    backend: StepTwoBackend,
    shard: DatabaseShard,
    sample_buckets: Sequence[Sequence[BucketSlice]],
    channels: int,
) -> Tuple[List[StepTwoResult], PhaseTimings]:
    """Step 2 of one shard for a batch of bucketed samples (§4.7 x §6.1).

    Each sample's ascending buckets are clipped to the shard's
    ``[lo, hi)`` — the shard only ever sees the query slices that can
    match its range — and the batch goes to the backend's
    :meth:`~repro.backends.StepTwoBackend.step_two`: the shard's database
    slice streamed once for the whole batch, each sample's taxIDs from
    the shard's own KSS range (on ``numpy``, takes of
    :meth:`DatabaseShard.row_levels` at the intersect's rows).  Returns
    one ``(intersecting, retrieved)`` pair per sample, restricted to this
    shard, and the shard's timings.
    """
    if shard.kss is None:
        raise ValueError(f"shard {shard.index} carries no KSS range")
    timings = PhaseTimings(backend=backend.name)
    clipped = [
        clip_buckets(buckets, shard.lo, shard.hi) for buckets in sample_buckets
    ]
    return backend.step_two(shard, clipped, channels, timings), timings


def gather(parts: Sequence[Sequence[StepTwoResult]]) -> List[StepTwoResult]:
    """Concatenate per-shard Step-2 results, sample by sample.

    ``parts`` holds one per-sample result list per shard (or per shard
    group, or per cluster node), in ascending range order.  Because the
    ranges are disjoint and ascending, the concatenated intersections are
    already sorted and the signature columns (every shard answers from the
    one table) concatenate (:meth:`RetrievalResult.concatenate`) into
    exactly the single-SSD result; the gathered intersecting k-mers are its
    ``queries`` column.
    No per-element host work.
    """
    gathered = [
        RetrievalResult.concatenate([retrieved for _, retrieved in sample])
        for sample in zip(*parts)
    ]
    return [(retrieved.queries, retrieved) for retrieved in gathered]


def step_two_over_shards(
    backend: StepTwoBackend,
    shards: Sequence[DatabaseShard],
    sample_buckets: Sequence[Sequence[BucketSlice]],
    channels: int = 8,
    pool: Optional[ThreadPoolExecutor] = None,
) -> Tuple[List[StepTwoResult], PhaseTimings]:
    """Step 2 over an ascending shard list: kernel per shard, then gather.

    The per-shard tasks are a plain loop, or with a ``pool``
    (:func:`~repro.megis.executors.shard_pool`) one ``pool.map`` — every
    shard scheduled before the first result is awaited, the first raised
    exception propagating after that.  Either way they are merged in shard
    order, so the results and the counter totals are identical however
    the tasks interleave.
    """

    def shard_task(shard: DatabaseShard) -> Tuple[List[StepTwoResult], PhaseTimings]:
        return shard_step_two(backend, shard, sample_buckets, channels)

    tasks = map(shard_task, shards) if pool is None else pool.map(shard_task, shards)
    outcomes = list(tasks)
    timings = PhaseTimings(backend=backend.name)
    for _, shard_timings in outcomes:
        timings.merge(shard_timings)
    return gather([partials for partials, _ in outcomes]), timings


class MultiSsdStepTwo:
    """Step 2 fanned out over database shards, one SSD per shard.

    :func:`step_two_over_shards` with this engine's executor: each shard
    runs :func:`shard_step_two` and the host only gathers the
    already-sorted per-shard intersections and signature columns.  A
    call's counters go into the ``timings`` it is passed; none are kept.

    Shard handles are built once at construction — either split here from
    ``(database, n_ssds)`` or passed in pre-built via ``shards`` (what
    :class:`~repro.megis.index.MegisIndex.shards` supplies, checked to be
    in ascending disjoint range order), so serving many queries never
    re-splits anything.

    ``executor`` is the spec of the per-shard work
    (:mod:`repro.megis.executors`): with ``"threads[:N]"`` the shards'
    tasks run concurrently on a pool opened and shut down by each call —
    each SSD is an independent engine (§6.1), and every task owns its
    :class:`~repro.backends.PhaseTimings`, so results stay bit-identical
    to the serial loop while ``step2_wall_ms`` records the genuinely
    overlapped wall-clock window.
    """

    def __init__(self, database: Optional[SortedKmerDatabase] = None,
                 kss: Optional[KssTables] = None,
                 n_ssds: Optional[int] = None, channels_per_ssd: int = 8,
                 backend: Union[str, StepTwoBackend] = DEFAULT_BACKEND,
                 shards: Optional[Sequence[DatabaseShard]] = None,
                 executor: Optional[str] = None) -> None:
        self._backend = get_backend(backend)
        shard_workers(executor)  # refuse a bad spec up front
        self.executor_name = executor or "serial"
        if kss is None:
            raise ValueError("MultiSsdStepTwo requires the KSS tables")
        if shards is None:
            if database is None or n_ssds is None:
                raise ValueError(
                    "provide either pre-built shards or (database, n_ssds)"
                )
            shards = split_database(database, n_ssds)
        elif not shards:
            raise ValueError("shards must be non-empty")
        check_shards(shards)
        self.shards = list(shards)
        shard_kss(kss, self.shards)
        self.channels_per_ssd = channels_per_ssd

    def run(
        self,
        sorted_query: IntColumn,
        timings: Optional[PhaseTimings] = None,
    ) -> StepTwoResult:
        """One sample's sorted query column against every shard.

        The one-sample, one-bucket case of :meth:`run_multi`: the column
        is a single bucket spanning the key space, which each shard clips
        to its own range.
        """
        k = self.shards[0].database.k
        [result] = self.run_multi([whole_range(sorted_query, k)], timings)
        return result

    def run_multi(
        self,
        samples: Sequence[Sequence[BucketSlice]],
        timings: Optional[PhaseTimings] = None,
    ) -> List[StepTwoResult]:
        """Batched multi-sample Step 2 across shards (§4.7 x §6.1).

        Each shard streams its database slice once for the whole batch;
        per-sample results are identical to the one-shard case.  The
        per-shard tasks — one independent SSD engine per shard — are
        gathered in shard order, so the result (and the counter totals)
        are identical however the tasks interleave.
        """
        start = time.perf_counter()
        with shard_pool(self.executor_name) or nullcontext() as pool:
            results, t = step_two_over_shards(
                self._backend, self.shards, [list(b) for b in samples],
                self.channels_per_ssd, pool,
            )
            t.step2_wall_ms += (time.perf_counter() - start) * 1e3
        if timings is not None:
            timings.merge(t)
        return results
