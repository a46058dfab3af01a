"""Metalign-style pipeline (the accuracy-optimized baseline, A-Opt).

Presence/absence identification (paper §2.1.1, S-Qry):

1. *prepare queries*: extract k-mers from the reads (KMC role), count them,
   apply frequency exclusion, and sort;
2. *find species*: intersect the sorted query k-mers with the pre-sorted
   reference database using large k-mers (low false-positive rate), then
   retrieve taxIDs for the intersecting k-mers (and their prefixes, raising
   the true-positive rate) from the CMash sketch database.

Abundance estimation maps the reads against the candidate species' genomes
(:mod:`repro.tools.mapping`) and reports relative mapped-read counts.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Set, Tuple

import numpy as np

from repro.backends.retrieval import RetrievalResult
from repro.databases.sketch import SketchDatabase
from repro.taxonomy.profiles import AbundanceProfile


def containment_score(
    sketch: SketchDatabase, taxid: int, level_hits: Dict[int, int]
) -> float:
    """Estimated containment index: k_max sketch hits / sketch size.

    Smaller-k hits contribute at reduced weight — they expand matches
    (raising the true-positive rate) but are less specific.  Shared between
    Metalign and MegIS so the two pipelines call species identically (the
    paper's MegIS matches A-Opt's accuracy exactly).
    """
    size = max(1, sketch.sketch_sizes.get(taxid, 1))
    score = level_hits.get(sketch.k_max, 0)
    score += 0.25 * sum(v for k, v in level_hits.items() if k != sketch.k_max)
    return score / size


@dataclass(frozen=True)
class HitAccumulation:
    """Per-level hit columns: distinct taxIDs (ascending) + hit counts.

    The columnar counterpart of the historical ``sketch_hits`` nested dict
    (``taxid -> level -> count``): one ``(taxids, counts)`` column pair per
    level, produced by a single ``np.unique`` pass over that level's flat
    owner column.  :meth:`as_dict` reconstructs the nested-dict view for
    result objects and reporting; :func:`select_candidates` scores straight
    off the columns.
    """

    levels: Dict[int, Tuple[np.ndarray, np.ndarray]]

    def as_dict(self) -> Dict[int, Dict[int, int]]:
        """The historical ``taxid -> {level: count}`` view (zero rows omitted)."""
        hits: Dict[int, Dict[int, int]] = {}
        for k in sorted(self.levels, reverse=True):
            taxids, counts = self.levels[k]
            for taxid, count in zip(taxids.tolist(), counts.tolist()):
                hits.setdefault(int(taxid), {})[k] = int(count)
        return hits

    def all_taxids(self) -> np.ndarray:
        """Ascending distinct taxIDs hit at any level."""
        columns = [taxids for taxids, _ in self.levels.values()]
        if not columns:
            return np.empty(0, dtype=np.int64)
        return np.unique(np.concatenate(columns))

    def aligned_counts(self, k: int, taxids: np.ndarray) -> np.ndarray:
        """Level-``k`` hit counts aligned to an ascending ``taxids`` column."""
        aligned = np.zeros(len(taxids), dtype=np.int64)
        level_taxids, counts = self.levels.get(k, (None, None))
        if level_taxids is not None and len(level_taxids):
            aligned[np.searchsorted(taxids, level_taxids)] = counts
        return aligned


def accumulate_hits(
    retrieved: "RetrievalResult | Mapping[int, Mapping[int, frozenset]]",
) -> HitAccumulation:
    """Fold Step-2 retrieval output into per-level (taxid, count) columns.

    On the CSR :class:`~repro.backends.retrieval.RetrievalResult` layout
    each level is one ``np.unique(..., return_counts=True)`` pass over the
    flat owner column — every query's owner list is duplicate-free, so an
    occurrence count *is* the per-query hit count the historical
    triple-nested fold computed.  The per-query dict view falls back to
    that reference fold.
    """
    levels: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
    if isinstance(retrieved, RetrievalResult):
        for k, block in retrieved.levels.items():
            column = (
                block.taxids
                if isinstance(block.taxids, np.ndarray)
                else np.asarray(block.taxids, dtype=np.int64)
            )
            if len(column) == 0:
                continue
            taxids, counts = np.unique(column, return_counts=True)
            levels[k] = (taxids.astype(np.int64), counts.astype(np.int64))
        return HitAccumulation(levels=levels)
    counters: Dict[int, Counter] = {}
    for query_levels in retrieved.values():
        for k, taxids in query_levels.items():
            counters.setdefault(k, Counter()).update(taxids)
    for k, counter in counters.items():
        ordered = sorted(counter)
        levels[k] = (
            np.asarray(ordered, dtype=np.int64),
            np.asarray([counter[t] for t in ordered], dtype=np.int64),
        )
    return HitAccumulation(levels=levels)


def batch_containment(
    sketch: SketchDatabase, hits: HitAccumulation
) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized containment over every hit taxID: (taxids, scores).

    Bit-identical to mapping :func:`containment_score` over
    ``hits.as_dict()`` — the arithmetic is the same IEEE-754 sequence
    (integer hit counts are exact in float64 and the 0.25 weight is a power
    of two) — but runs as array expressions with zero per-taxID Python
    loops.
    """
    taxids = hits.all_taxids()
    if not len(taxids):
        return taxids, np.empty(0, dtype=np.float64)
    kmax_counts = hits.aligned_counts(sketch.k_max, taxids)
    others = np.zeros(len(taxids), dtype=np.int64)
    for k in hits.levels:
        if k != sketch.k_max:
            others += hits.aligned_counts(k, taxids)
    sizes = sketch.size_column(taxids)
    scores = (kmax_counts + 0.25 * others) / sizes
    return taxids, scores


def select_candidates(
    sketch: SketchDatabase, hits: HitAccumulation, min_containment: float
) -> Set[int]:
    """Candidate taxIDs whose batch containment clears the threshold."""
    taxids, scores = batch_containment(sketch, hits)
    return set(taxids[scores >= min_containment].tolist())


@dataclass
class MetalignResult:
    """Output of a Metalign-style analysis."""

    intersecting_kmers: List[int] = field(default_factory=list)
    sketch_hits: Dict[int, Dict[int, int]] = field(default_factory=dict)
    # taxid -> {level k -> hit count}
    candidates: Set[int] = field(default_factory=set)
    profile: AbundanceProfile = field(default_factory=AbundanceProfile)

    def present(self, threshold: float = 0.0) -> Set[int]:
        return self.profile.present(threshold)
