"""Columnar CSR owner layout for KSS taxID retrieval results.

Step 2's retrieval phase (paper §4.3.2) answers, for every intersecting
k-mer, the taxID set at each sketch level.  The historical representation —
``Dict[query -> Dict[level -> frozenset]]`` — forces every downstream
consumer (hit accumulation, containment scoring, the statistical
estimator) back into per-taxID Python loops, re-boxing each taxID once per
query.  This module replaces it with a CSR-style columnar layout:

- ``queries``: the sorted intersecting k-mers (one row per query);
- per level ``k``, a :class:`LevelHits` block holding one flat ``taxids``
  owner column plus an ``offsets`` column of length ``len(queries) + 1`` —
  query ``i``'s level-``k`` taxIDs are ``taxids[offsets[i]:offsets[i+1]]``
  (an empty slice when the query has no hit at that level).

Both Step-2 backends emit this layout natively: the ``python`` reference
appends to flat lists while running its register-level merges, the
``numpy`` backend materializes ndarray columns with vectorized gathers.
Because ranges of sorted queries concatenate, per-shard and per-sample
retrieval results concatenate column-wise too (:meth:`RetrievalResult.concatenate`),
which is what lets the multi-SSD path keep retrieval sharded.

:meth:`RetrievalResult.to_query_dicts` reconstructs the historical
per-query dict view (levels with no taxIDs omitted), and the class exposes
the read-only ``Mapping`` protocol over that view so existing callers and
tests keep working unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import (
    Any,
    Dict,
    FrozenSet,
    ItemsView,
    Iterator,
    KeysView,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
    ValuesView,
)

import numpy as np
import numpy.typing as npt

#: The historical per-query view: query k-mer -> level k -> taxIDs.
QueryDicts = Dict[int, Dict[int, FrozenSet[int]]]

#: One CSR column: a plain int list (``python`` backend) or an ndarray
#: (``numpy`` backend; dtype is ``int64``/``uint64``, or ``object`` for
#: k-mers wider than 64 bits).
IntColumn = Union[Sequence[int], npt.NDArray[Any]]


def column_to_list(column: IntColumn) -> List[int]:
    """Plain-int copy of a k-mer column (Python list or ndarray).

    ``tolist`` unboxes ndarray columns to Python ints in one pass; the
    extra ``int()`` keeps object-dtype columns and exotic containers exact.
    """
    tolist = getattr(column, "tolist", None)
    if tolist is not None:
        return [int(x) for x in tolist()]
    return [int(x) for x in column]


def pack_sets_csr(
    sets: Sequence[FrozenSet[int]],
) -> Tuple[npt.NDArray[np.int64], npt.NDArray[np.int64]]:
    """Pack per-row taxID sets into CSR ``(taxids, offsets)`` int64 columns.

    Each row's taxIDs are sorted ascending.  This is the one definition of
    the owner-column layout — the KSS tables, the sorted database's owner
    cache, and (through it) the serialization format all share it.
    """
    offsets = np.zeros(len(sets) + 1, dtype=np.int64)
    np.cumsum(
        np.fromiter(map(len, sets), dtype=np.int64, count=len(sets)),
        out=offsets[1:],
    )
    taxids = np.fromiter(
        chain.from_iterable(map(sorted, sets)), dtype=np.int64, count=int(offsets[-1])
    )
    return taxids, offsets


def group_sorted(
    keys: npt.NDArray[Any],
) -> Tuple[npt.NDArray[Any], npt.NDArray[np.int64]]:
    """Distinct keys of a sorted column and the CSR offsets of their runs.

    Row ``i`` of the result is ``keys[offsets[i]:offsets[i+1]]`` — all equal
    to ``distinct[i]`` — so a column sorted alongside ``keys`` *is* the CSR
    payload: how the column build turns sorted ``(k-mer, taxid)`` pairs into
    a key column plus owner CSR without packing a row.
    """
    first = np.ones(len(keys), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    starts = np.flatnonzero(first)
    return keys[starts], np.append(starts, len(keys)).astype(np.int64, copy=False)


@dataclass(frozen=True)
class LevelHits:
    """One level's CSR owner block: flat taxID column + per-query offsets.

    ``taxids`` holds the concatenation of every query's level-``k`` owner
    list (each list sorted ascending); ``offsets`` has one entry per query
    plus a trailing total, so ``offsets[i+1] - offsets[i]`` is query ``i``'s
    hit count at this level.  Columns are plain int lists on the ``python``
    backend and ndarrays on the ``numpy`` backend — consumers pick the
    vectorized or reference kernel accordingly.
    """

    taxids: IntColumn
    offsets: IntColumn

    def counts(self) -> IntColumn:
        """Per-query owner counts (``offsets`` first difference)."""
        if isinstance(self.offsets, np.ndarray):
            return np.diff(self.offsets)
        return [
            self.offsets[i + 1] - self.offsets[i]
            for i in range(len(self.offsets) - 1)
        ]

    def slice_of(self, i: int) -> IntColumn:
        """Query ``i``'s taxIDs at this level (empty when no hit)."""
        return self.taxids[int(self.offsets[i]) : int(self.offsets[i + 1])]

    def total(self) -> int:
        """Total taxID hits across all queries at this level."""
        return int(self.offsets[-1]) if len(self.offsets) else 0


@dataclass
class RetrievalResult:
    """Columnar Step-2 retrieval output: queries + per-level CSR owner blocks.

    ``levels`` carries one :class:`LevelHits` per KSS level (``k_max`` and
    every smaller ``k``), even when the level has no hits — canonical keys
    make column-wise concatenation across shards/samples trivial.  Semantic
    equality (and the ``Mapping`` protocol) goes through
    :meth:`to_query_dicts`, so results compare equal across backends and
    against hand-written dicts regardless of container type.
    """

    #: The sorted intersecting k-mers: a plain int list on the ``python``
    #: backend, the intersect kernel's own column on the ``numpy`` one.
    queries: IntColumn
    levels: Dict[int, LevelHits] = field(default_factory=dict)
    _dict_view: Optional[QueryDicts] = field(
        default=None, repr=False, compare=False
    )

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_query_dicts(
        cls, retrieved: Mapping[int, Mapping[int, FrozenSet[int]]],
        level_keys: Optional[Sequence[int]] = None,
    ) -> "RetrievalResult":
        """Build CSR columns from the historical per-query dict view.

        ``level_keys`` fixes the canonical level set (defaults to the union
        of levels present); queries are taken in sorted order.
        """
        queries = sorted(int(q) for q in retrieved)
        if level_keys is None:
            level_keys = sorted(
                {k for levels in retrieved.values() for k in levels}, reverse=True
            )
        levels: Dict[int, LevelHits] = {}
        for k in level_keys:
            taxids: List[int] = []
            offsets: List[int] = [0]
            for q in queries:
                owners = retrieved[q].get(k)
                if owners:
                    taxids.extend(sorted(owners))
                offsets.append(len(taxids))
            levels[int(k)] = LevelHits(taxids=taxids, offsets=offsets)
        return cls(queries=queries, levels=levels)

    @classmethod
    def concatenate(cls, parts: Sequence["RetrievalResult"]) -> "RetrievalResult":
        """Column-wise concatenation of retrieval results.

        ``parts`` must cover ascending disjoint query ranges (what sharded
        Step 2 produces: one result per SSD, shards in range order), so the
        concatenated ``queries`` stay sorted and each level's owner column
        is the flat concatenation with shifted offsets.  A part whose first
        query is not above the previous part's last is refused: intersecting
        k-mers are distinct, and a repeated one would count its hits twice.
        ndarray columns concatenate natively; list columns extend.
        """
        parts = [p for p in parts if p is not None]
        if not parts:
            return cls(queries=[], levels={})
        if len(parts) == 1:
            return parts[0]
        last: Optional[int] = None
        for part in parts:
            if not len(part.queries):
                continue
            if last is not None and int(part.queries[0]) <= last:
                raise ValueError(
                    "retrieval results must cover ascending, disjoint query ranges"
                )
            last = int(part.queries[-1])
        columns = [part.queries for part in parts]
        queries: IntColumn
        if all(isinstance(c, np.ndarray) for c in columns):
            queries = np.concatenate(columns)
        else:
            queries = list(chain.from_iterable(columns))
        level_keys = sorted({k for part in parts for k in part.levels}, reverse=True)
        levels: Dict[int, LevelHits] = {}
        for k in level_keys:
            blocks = [
                part.levels.get(k, LevelHits([], [0] * (len(part.queries) + 1)))
                for part in parts
            ]
            if all(isinstance(b.taxids, np.ndarray) for b in blocks):
                taxids = np.concatenate([b.taxids for b in blocks])
                shifted = [np.asarray(blocks[0].offsets)]
                base = int(blocks[0].offsets[-1]) if len(blocks[0].offsets) else 0
                for b in blocks[1:]:
                    shifted.append(np.asarray(b.offsets)[1:] + base)
                    base += b.total()
                levels[k] = LevelHits(taxids=taxids, offsets=np.concatenate(shifted))
            else:
                flat: List[int] = []
                offsets: List[int] = [0]
                for b in blocks:
                    base = len(flat)
                    flat.extend(column_to_list(b.taxids))
                    offsets.extend(base + int(o) for o in list(b.offsets)[1:])
                levels[k] = LevelHits(taxids=flat, offsets=offsets)
        return cls(queries=queries, levels=levels)

    # -- adapters -------------------------------------------------------------

    def to_query_dicts(self) -> QueryDicts:
        """The historical view: query -> level -> frozenset (empties omitted).

        Built once and cached; every ``Mapping``-protocol access and
        equality check funnels through it, so columnar construction stays
        the single source of truth.
        """
        if self._dict_view is None:
            queries = column_to_list(self.queries)
            view: QueryDicts = {q: {} for q in queries}
            for k, block in sorted(self.levels.items(), reverse=True):
                offsets = block.offsets
                taxids = block.taxids
                for i, q in enumerate(queries):
                    lo, hi = int(offsets[i]), int(offsets[i + 1])
                    if hi > lo:
                        view[q][k] = frozenset(column_to_list(taxids[lo:hi]))
            self._dict_view = view
        return self._dict_view

    # -- Mapping protocol (read-only view over to_query_dicts) ----------------

    def __getitem__(self, query: int) -> Dict[int, FrozenSet[int]]:
        return self.to_query_dicts()[query]

    def __contains__(self, query: object) -> bool:
        return query in self.to_query_dicts()

    def __iter__(self) -> Iterator[int]:
        return iter(self.to_query_dicts())

    def __len__(self) -> int:
        return len(self.queries)

    def __bool__(self) -> bool:
        return len(self.queries) > 0

    def get(
        self, query: int, default: Optional[Dict[int, FrozenSet[int]]] = None
    ) -> Optional[Dict[int, FrozenSet[int]]]:
        return self.to_query_dicts().get(query, default)

    def keys(self) -> KeysView[int]:
        return self.to_query_dicts().keys()

    def values(self) -> ValuesView[Dict[int, FrozenSet[int]]]:
        return self.to_query_dicts().values()

    def items(self) -> ItemsView[int, Dict[int, FrozenSet[int]]]:
        return self.to_query_dicts().items()

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RetrievalResult):
            return self.to_query_dicts() == other.to_query_dicts()
        if isinstance(other, Mapping):
            return self.to_query_dicts() == dict(other)
        return NotImplemented

    # Mutable mapping-like; never used as a dict key.
    __hash__ = None  # type: ignore[assignment]


def csr_gather(
    taxids: npt.NDArray[Any],
    offsets: npt.NDArray[Any],
    rows: npt.NDArray[np.int64],
) -> Tuple[npt.NDArray[Any], npt.NDArray[np.int64]]:
    """Vectorized CSR row gather: concatenate ``taxids`` slices for ``rows``.

    Returns ``(flat, lengths)`` where ``flat`` is the concatenation of
    ``taxids[offsets[r]:offsets[r+1]]`` over ``rows`` in order and
    ``lengths`` the per-row slice lengths — the kernel behind the numpy
    backend's zero-loop retrieval.
    """
    if not len(rows):
        return taxids[:0], np.zeros(0, dtype=np.int64)
    starts = np.asarray(offsets, dtype=np.int64)[rows]
    lengths = np.asarray(offsets, dtype=np.int64)[rows + 1] - starts
    total = int(lengths.sum())
    if total == 0:
        return taxids[:0], lengths
    # Position within the output minus the start of each row's output run
    # gives the offset into that row's source slice.
    out_starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))
    indices = np.arange(total, dtype=np.int64) + np.repeat(
        starts - out_starts, lengths
    )
    return taxids[indices], lengths
