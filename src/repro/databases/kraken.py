"""Kraken2-style hash-table database: k-mer -> LCA taxID.

Kraken2 maintains a hash table mapping each indexed k-mer to a taxID; when a
k-mer occurs in genomes of multiple species, it is assigned the lowest
common ancestor (paper §2.1.1).  Queries are random accesses — the R-Qry
pattern whose poor SSD behaviour motivates MegIS.

``genome_fraction`` lets experiments build the smaller, less rich databases
that performance-optimized tools use in practice (§5: A-Opt's accuracy edge
comes from larger, richer databases), and ``minimizer_fraction`` emulates
Kraken2's minimizer subsampling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional

import numpy as np

from repro.sequences.generator import ReferenceCollection
from repro.sequences.keys import extract_kmers
from repro.taxonomy.tree import Taxonomy

_HASH_MULTIPLIER = 0x9E3779B97F4A7C15
_HASH_MASK = (1 << 64) - 1


def _kmer_hash(kmer: int) -> int:
    """Cheap deterministic mixer used for minimizer-style subsampling."""
    value = (int(kmer) * _HASH_MULTIPLIER) & _HASH_MASK
    value ^= value >> 29
    return value


@dataclass
class KrakenLookupStats:
    """Counters describing database access behaviour (for the perf model)."""

    lookups: int = 0
    hits: int = 0


class KrakenDatabase:
    """Hash table from canonical k-mer to LCA taxID."""

    def __init__(self, k: int, taxonomy: Taxonomy, table: Dict[int, int],
                 indexed_taxids: Iterable[int]):
        self.k = k
        self.taxonomy = taxonomy
        self._table = table
        self.indexed_taxids = sorted(set(indexed_taxids))
        self.stats = KrakenLookupStats()

    @classmethod
    def build(
        cls,
        references: ReferenceCollection,
        taxonomy: Taxonomy,
        k: int = 21,
        genome_fraction: float = 1.0,
        minimizer_fraction: float = 1.0,
        seed: int = 0,
    ) -> "KrakenDatabase":
        """Index the reference genomes.

        ``genome_fraction`` selects a deterministic subset of species to
        index (smaller database, the performance-optimized regime);
        ``minimizer_fraction`` keeps only k-mers whose hash falls below the
        given fraction of the hash space.
        """
        if not 0 < genome_fraction <= 1:
            raise ValueError(f"genome_fraction must be in (0, 1], got {genome_fraction}")
        if not 0 < minimizer_fraction <= 1:
            raise ValueError(
                f"minimizer_fraction must be in (0, 1], got {minimizer_fraction}"
            )
        rng = np.random.Generator(np.random.PCG64(seed))
        species = references.species_taxids
        n_keep = max(1, int(round(len(species) * genome_fraction)))
        kept = sorted(rng.choice(species, size=n_keep, replace=False).tolist())
        hash_bound = int(minimizer_fraction * (_HASH_MASK + 1))

        table: Dict[int, int] = {}
        for taxid in kept:
            for kmer in extract_kmers(references.sequence(taxid), k).tolist():
                if minimizer_fraction < 1.0 and _kmer_hash(kmer) >= hash_bound:
                    continue
                if kmer in table:
                    table[kmer] = taxonomy.lca(table[kmer], taxid)
                else:
                    table[kmer] = taxid
        return cls(k, taxonomy, table, kept)

    def lookup(self, kmer: int) -> Optional[int]:
        """Random-access probe; returns the LCA taxID or None."""
        self.stats.lookups += 1
        taxid = self._table.get(int(kmer))
        if taxid is not None:
            self.stats.hits += 1
        return taxid

    def __len__(self) -> int:
        return len(self._table)

    def size_bytes(self) -> int:
        """Approximate on-disk size: Kraken2 uses ~16 B per entry."""
        return 16 * len(self._table)
