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


@dataclass(frozen=True)
class HitAccumulation:
    """Hit counts per KSS level and taxID, one ``(levels x universe)``
    integer matrix: row ``i`` counts the level-``ks[i]`` hits (``ks``
    descending) of each taxID of the table's ascending ``universe``.
    :meth:`as_dict` (the historical ``sketch_hits``) and
    :func:`batch_containment` read it.
    """

    ks: Tuple[int, ...]
    universe: np.ndarray
    counts: np.ndarray

    def as_dict(self) -> Dict[int, Dict[int, int]]:
        """The historical ``taxid -> {level: count}`` view (zero rows omitted)."""
        rows, owners = np.nonzero(self.counts)
        hits: Dict[int, Dict[int, int]] = {}
        for k, taxid, count in zip(
            np.asarray(self.ks, dtype=np.int64)[rows].tolist(),
            self.universe[owners].tolist(),
            self.counts[rows, owners].tolist(),
        ):
            hits.setdefault(taxid, {})[k] = count
        return hits


def accumulate_hits(retrieved: RetrievalResult) -> HitAccumulation:
    """Fold Step-2 retrieval output into one hit-count matrix, all KSS
    levels at once.

    Level ``i``'s signature ids are offset by ``i * len(table)`` and the
    levels stacked, so one ``bincount`` counts the queries answering with
    each ``(level, owner set)``.  Only the *hit* pairs are then expanded
    through the table (one ``row_entries``), each owner weighted by its
    set's count, and one weighted ``bincount`` over ``level * universe +
    taxID`` fills the matrix — the expansion follows the hit signatures,
    never the queries' owner lists.  A query's owner set is
    duplicate-free, so each cell is exactly the per-query hit count of
    the historical per-query fold.
    """
    table = retrieved.signatures
    ks = tuple(sorted(retrieved.levels, reverse=True))
    n, width = len(table), len(table.universe)
    columns = [retrieved.levels[k] for k in ks]
    stacked = np.array(columns, dtype=np.int64).reshape(len(ks), len(retrieved.queries))
    stacked += np.arange(0, len(ks) * n, n)[:, None]
    per_set = np.bincount(stacked.ravel(), minlength=len(ks) * n)
    per_set[::n] = 0  # signature 0 of every level: no owners
    hit = np.flatnonzero(per_set != 0)
    level, signature = np.divmod(hit, n)
    entries, offsets = table.entries(signature)
    lengths = np.diff(offsets)
    totals = np.bincount(
        np.repeat(level * width, lengths) + table.codes[entries],
        weights=np.repeat(per_set[hit], lengths),
        minlength=len(ks) * width,
    )
    counts = totals.astype(np.int64).reshape(len(ks), width)
    return HitAccumulation(ks, table.universe, counts)


def batch_containment(
    sketch: SketchDatabase, hits: HitAccumulation
) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized containment over every hit taxID: (taxids, scores).

    The hit taxIDs are the matrix's non-zero columns; the k_max row and
    the sum of every other level's row are read at them: a taxID's score
    is ``(k_max hits + 0.25 * other hits) / max(1, sketch size)``, the
    same IEEE-754 sequence as the per-taxID score (integer hit counts are
    exact in float64 and the 0.25 weight is a power of two), with zero
    per-taxID Python loops.  Smaller-k hits weigh less: they expand
    matches (raising the true-positive rate) but are less specific.
    """
    owners = np.flatnonzero(hits.counts.any(axis=0))
    taxids = hits.universe[owners]
    if not len(taxids):
        return taxids, np.empty(0, dtype=np.float64)
    at_hits = hits.counts[:, owners]
    is_kmax = np.asarray(hits.ks) == sketch.k_max
    kmax_counts = at_hits[is_kmax].sum(axis=0)
    others = at_hits[~is_kmax].sum(axis=0)
    return taxids, (kmax_counts + 0.25 * others) / sketch.size_column(taxids)


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
