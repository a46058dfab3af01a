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

from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

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
    level, counted by :func:`accumulate_hits` per owner-set signature.
    :meth:`as_dict` reconstructs the nested-dict view for
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


def accumulate_hits(retrieved: RetrievalResult) -> HitAccumulation:
    """Fold Step-2 retrieval output into per-level (taxid, count) columns.

    Per level, one ``bincount`` over the signature ids counts the queries
    answering with each owner set; only the *hit* signatures are then
    expanded through the table, each owner weighted by its set's count,
    and a second ``bincount`` over the table's taxID universe sums them —
    so the expansion follows the hit signatures, never the queries' owner
    lists.  A query's owner set is duplicate-free, so the sum is exactly
    the per-query hit count of the historical per-query fold.
    """
    table = retrieved.signatures
    levels: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
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
