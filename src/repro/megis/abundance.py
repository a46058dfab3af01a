"""MegIS Step 3: in-storage unified index generation (paper §4.4, Fig 9).

Read-mapping-based abundance estimation needs a *unified* index over the
reference genomes of the candidate species found in Step 2.  Individual
per-species indexes are built offline, but the unified index cannot be —
the candidate set is only known at analysis time.  MegIS streams the
per-species sorted indexes from flash and merges them in-storage: when a
k-mer occurs in several genomes, the merged entry stores every location,
adjusted by each genome's offset in the concatenation.

:func:`merge_species_indexes` has two arms over the two representations of
:mod:`repro.tools.mapping`, and both must produce the same merged index
(the tests hold them to a dict reference merge) with the same
:class:`IndexMergeStats`:

* dict :class:`~repro.tools.mapping.SpeciesIndex` inputs take the k-way
  heap merge structured like the hardware data path — the reference the
  ``python``-backend session runs;
* :class:`~repro.tools.mapping.ColumnarSpeciesIndex` inputs take the
  column merge: the offset-adjusted species columns are concatenated in
  ascending-taxid order, one stable sort brings every k-mer's locations
  together (already ascending), one ``unique`` cuts the key column
  and its CSR offsets, and one ``searchsorted`` fixes each location's
  species.  The merge also precomputes what the vote reads instead of
  the locations: each key's vector of per-species location counts,
  deduplicated into a small ``signatures`` matrix (one ``bincount`` and
  one ``lexsort``) with a row id per key.  It is cached with the merge,
  so it is paid once per candidate set.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple, Union

import numpy as np

from repro.tools.mapping import (
    ColumnarSpeciesIndex,
    ColumnarUnifiedIndex,
    SpeciesIndex,
    UnifiedIndex,
)


@dataclass
class IndexMergeStats:
    """Counters for the performance model and tests."""

    entries_read: int = 0
    entries_written: int = 0
    shared_kmers: int = 0


def merge_species_indexes(
    indexes: Union[Sequence[SpeciesIndex], Sequence[ColumnarSpeciesIndex]],
) -> Tuple[Union[UnifiedIndex, ColumnarUnifiedIndex], IndexMergeStats]:
    """Streaming k-way merge of per-species sorted indexes (Fig 9).

    Each input index is consumed strictly in ascending k-mer order — the
    access pattern the SSD serves sequentially from flash — and the output
    is emitted in ascending order, one entry per distinct k-mer.  Columnar
    inputs merge as columns (:func:`merge_species_columns`) into the
    columnar unified index; the result and the stats are the same.
    """
    if indexes and isinstance(indexes[0], ColumnarSpeciesIndex):
        return merge_species_columns(indexes)
    stats = IndexMergeStats()
    if not indexes:
        return UnifiedIndex(k=0, entries={}, boundaries={}), stats
    k = indexes[0].k
    if any(ix.k != k for ix in indexes):
        raise ValueError("all indexes must share the same k")

    ordered = sorted(indexes, key=lambda ix: ix.taxid)
    boundaries: Dict[int, Tuple[int, int]] = {}
    offset = 0
    heap: List[Tuple[int, int]] = []  # (kmer, stream index)
    iterators = []
    offsets = []
    for stream_id, index in enumerate(ordered):
        boundaries[index.taxid] = (offset, offset + index.genome_length)
        iterators.append(iter(index.sorted_kmers()))
        offsets.append(offset)
        offset += index.genome_length
        first = next(iterators[stream_id], None)
        if first is not None:
            heapq.heappush(heap, (first, stream_id))

    entries: Dict[int, Tuple[int, ...]] = {}
    while heap:
        kmer, _ = heap[0]
        locations: List[int] = []
        contributors = 0
        while heap and heap[0][0] == kmer:
            _, stream_id = heapq.heappop(heap)
            contributors += 1
            stats.entries_read += 1
            index = ordered[stream_id]
            locations.extend(p + offsets[stream_id] for p in index.entries[kmer])
            nxt = next(iterators[stream_id], None)
            if nxt is not None:
                heapq.heappush(heap, (nxt, stream_id))
        if contributors > 1:
            stats.shared_kmers += 1
        entries[kmer] = tuple(sorted(locations))
        stats.entries_written += 1
    return UnifiedIndex(k=k, entries=entries, boundaries=boundaries), stats


def merge_species_columns(
    indexes: Sequence[ColumnarSpeciesIndex],
) -> Tuple[ColumnarUnifiedIndex, IndexMergeStats]:
    """The Fig 9 merge over sorted species columns.

    ``entries_read`` counts one entry per distinct k-mer per species,
    ``entries_written`` one per distinct k-mer overall, ``shared_kmers``
    the merged entries more than one species contributed to.  One
    ``searchsorted`` against ``starts`` gives every location its species
    (the ``location_species`` column), and a run of locations spans
    species exactly when its first and last location's species differ,
    locations being ascending.  The key signatures the vote reads come
    from :func:`key_signatures`.
    """
    k = indexes[0].k if indexes else 0
    if any(ix.k != k for ix in indexes):
        raise ValueError("all indexes must share the same k")
    ordered = sorted(indexes, key=lambda ix: ix.taxid)
    lengths = np.array([ix.genome_length for ix in ordered], dtype=np.int64)
    starts = np.cumsum(lengths) - lengths
    kmers = np.concatenate(
        [np.empty(0, dtype=np.uint64), *(ix.kmers for ix in ordered)]
    )
    locations = np.concatenate(
        [np.empty(0, dtype=np.int64),
         *(ix.positions + start for ix, start in zip(ordered, starts.tolist()))]
    )
    order = np.argsort(kmers, kind="stable")
    keys, first = np.unique(kmers[order], return_index=True)
    locations = locations[order]
    offsets = np.append(first, locations.size).astype(np.int64, copy=False)
    location_species = np.searchsorted(starts, locations, side="right") - 1
    stats = IndexMergeStats(
        entries_read=sum(ix.distinct_kmers() for ix in ordered),
        entries_written=int(keys.size),
        shared_kmers=int(np.count_nonzero(
            location_species[offsets[:-1]] != location_species[offsets[1:] - 1]
        )),
    )
    signatures, key_signature = key_signatures(
        offsets, location_species, len(ordered)
    )
    unified = ColumnarUnifiedIndex(
        k=k,
        kmers=keys,
        offsets=offsets,
        locations=locations,
        location_species=location_species,
        taxids=np.array([ix.taxid for ix in ordered], dtype=np.int64),
        starts=starts,
        total_length=int(lengths.sum()),
        signatures=signatures,
        key_signature=key_signature,
    )
    return unified, stats


def key_signatures(
    offsets: np.ndarray, location_species: np.ndarray, n_species: int
) -> Tuple[np.ndarray, np.ndarray]:
    """The distinct per-key species-count rows and each key's row id.

    Row ``key_signature[i]`` of ``signatures`` counts, per species, the
    locations of key ``i`` — ``bincount(location_species[offsets[i]:
    offsets[i + 1]], minlength=n_species)``.  The rows are pairwise
    distinct, and one all-zero row is appended last: the id ``n_sig`` a
    seed that hits no key votes with.  One ``bincount`` builds the
    ``(keys, species)`` count matrix, and one ``lexsort`` over its
    columns brings equal rows together, so an adjacent-row difference
    cuts the distinct ones.
    """
    n_keys = offsets.size - 1
    key = np.repeat(np.arange(n_keys, dtype=np.int64), np.diff(offsets))
    counts = np.bincount(
        key * n_species + location_species, minlength=n_keys * n_species
    ).reshape(n_keys, n_species)
    order = np.lexsort(counts.T) if n_keys else np.empty(0, dtype=np.int64)
    rows = counts[order]
    distinct = np.ones(n_keys, dtype=bool)
    distinct[1:] = np.any(rows[1:] != rows[:-1], axis=1)
    key_signature = np.empty(n_keys, dtype=np.int64)
    key_signature[order] = np.cumsum(distinct) - 1
    signatures = np.concatenate(
        [rows[distinct], np.zeros((1, n_species), dtype=np.int64)]
    )
    return signatures, key_signature
