"""Kraken2-style classifier (the performance-optimized baseline, P-Opt).

For each read, Kraken2 looks up every k-mer in its hash table, collects the
taxIDs, and assigns the read to the taxon whose root-to-leaf path
accumulates the highest hit weight (paper §2.1.1).  Presence/absence comes
from per-species read counts; abundance estimation is delegated to Bracken
(:mod:`repro.tools.bracken`).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Set

from repro.databases.kraken import KrakenDatabase
from repro.sequences.keys import extract_kmers
from repro.sequences.reads import Read
from repro.taxonomy.tree import Rank


@dataclass
class Kraken2Result:
    """Classification output for one sample."""

    assignments: Dict[int, int] = field(default_factory=dict)  # read_id -> taxid
    unclassified: int = 0

    def species_counts(self, taxonomy) -> Dict[int, int]:
        """Reads assigned directly at species rank."""
        counts: Counter = Counter()
        for taxid in self.assignments.values():
            if taxid in taxonomy and taxonomy.rank(taxid) == Rank.SPECIES:
                counts[taxid] += 1
        return dict(counts)

    def taxid_counts(self) -> Dict[int, int]:
        return dict(Counter(self.assignments.values()))


class Kraken2Classifier:
    """Classifies reads against a :class:`KrakenDatabase`."""

    def __init__(self, database: KrakenDatabase, min_hit_fraction: float = 0.0):
        if not 0.0 <= min_hit_fraction <= 1.0:
            raise ValueError("min_hit_fraction must be in [0, 1]")
        self.database = database
        self.taxonomy = database.taxonomy
        self.min_hit_fraction = min_hit_fraction

    def classify_read(self, sequence: str) -> Optional[int]:
        """Assign one read to a taxID, or None if unclassified."""
        kmers = extract_kmers(sequence, self.database.k)
        if len(kmers) == 0:
            return None
        hits: Counter = Counter()
        for kmer in kmers.tolist():
            taxid = self.database.lookup(kmer)
            if taxid is not None:
                hits[taxid] += 1
        total_hits = sum(hits.values())
        if total_hits == 0 or total_hits < self.min_hit_fraction * len(kmers):
            return None
        return self._best_path_taxid(hits)

    def _best_path_taxid(self, hits: Counter) -> int:
        """Kraken's classification: maximize hit weight along a root-to-leaf path.

        Score every hit taxon by the total hits on its root path; the winner
        is the deepest taxon with maximal score (ties resolved by LCA).
        """
        def path_score(taxid: int) -> int:
            path = set(self.taxonomy.path_to_root(taxid))
            return sum(count for t, count in hits.items() if t in path)

        scores = {taxid: path_score(taxid) for taxid in hits}
        top_score = max(scores.values())
        ties = [t for t, s in scores.items() if s == top_score]
        if len(ties) == 1:
            return ties[0]
        # Prefer the deepest taxon; if equally deep candidates tie, take LCA.
        max_depth = max(self.taxonomy.depth(t) for t in ties)
        deepest = [t for t in ties if self.taxonomy.depth(t) == max_depth]
        if len(deepest) == 1:
            return deepest[0]
        return self.taxonomy.lca_many(deepest)

    def analyze(self, reads: Sequence[Read]) -> Kraken2Result:
        """Classify a whole sample."""
        result = Kraken2Result()
        for read in reads:
            taxid = self.classify_read(read.sequence)
            if taxid is None:
                result.unclassified += 1
            else:
                result.assignments[read.read_id] = taxid
        return result

    def present_species(self, result: Kraken2Result, min_reads: int = 2) -> Set[int]:
        """Species with at least ``min_reads`` direct assignments."""
        return {
            taxid
            for taxid, count in result.species_counts(self.taxonomy).items()
            if count >= min_reads
        }
