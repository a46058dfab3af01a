"""The dict Step-3 references: the unified index's build and merge, the
per-level containment score and the per-level hit view."""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from repro.databases.sketch import SketchDatabase
from repro.megis.abundance import IndexMergeStats, merge_species_indexes
from repro.sequences.generator import ReferenceCollection
from repro.tools.mapping import SpeciesIndex, UnifiedIndex
from repro.tools.metalign import HitAccumulation


def build_unified_index(
    references: ReferenceCollection,
    candidate_taxids: Iterable[int],
    k: int = 15,
) -> Tuple[UnifiedIndex, IndexMergeStats]:
    """Build per-species indexes for the candidates and merge them."""
    indexes = [
        SpeciesIndex.build(taxid, references.sequence(taxid), k)
        for taxid in sorted(set(candidate_taxids))
    ]
    return merge_species_indexes(indexes)


def merge_unified_index(indexes: Sequence[SpeciesIndex]) -> UnifiedIndex:
    """Reference merge of per-species indexes (Fig 9 semantics)."""
    if not indexes:
        return UnifiedIndex(k=0, entries={}, boundaries={})
    k = indexes[0].k
    if any(ix.k != k for ix in indexes):
        raise ValueError("all indexes must share the same k")
    ordered = sorted(indexes, key=lambda ix: ix.taxid)
    boundaries: Dict[int, Tuple[int, int]] = {}
    offset = 0
    merged: Dict[int, List[int]] = {}
    for index in ordered:
        boundaries[index.taxid] = (offset, offset + index.genome_length)
        for kmer, positions in index.entries.items():
            merged.setdefault(kmer, []).extend(p + offset for p in positions)
        offset += index.genome_length
    entries = {x: tuple(sorted(p)) for x, p in sorted(merged.items())}
    return UnifiedIndex(k=k, entries=entries, boundaries=boundaries)


def containment_score(
    sketch: SketchDatabase, taxid: int, level_hits: Dict[int, int]
) -> float:
    """Estimated containment index: k_max sketch hits / sketch size.

    Smaller-k hits contribute at reduced weight — they expand matches
    (raising the true-positive rate) but are less specific.
    """
    size = max(1, sketch.sketch_sizes.get(taxid, 1))
    score = level_hits.get(sketch.k_max, 0)
    score += 0.25 * sum(v for k, v in level_hits.items() if k != sketch.k_max)
    return score / size


def hit_levels(hits: HitAccumulation) -> Dict[int, Tuple[np.ndarray, np.ndarray]]:
    """Per level with any hit: its hit taxIDs (ascending) and counts."""
    levels: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
    for k, row in zip(hits.ks, hits.counts):
        owners = np.flatnonzero(row)
        if len(owners):
            levels[k] = (hits.universe[owners], row[owners])
    return levels
