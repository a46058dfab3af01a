"""Synthetic reference genomes with phylogenetic structure.

The paper draws 155,442 microbial genomes from NCBI; we substitute a
generator that produces a clade-structured set of genomes by mutating
ancestors into descendants.  This preserves the property the metagenomic
pipeline actually depends on: related species share k-mers (so LCA logic,
sketch prefixes, and Kraken-style classification are all exercised), while
distant species share almost none.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from repro.sequences.encoding import ALPHABET, decode_sequence, encode_sequence


def random_sequence(length: int, rng: np.random.Generator) -> str:
    """Generate a uniformly random DNA string."""
    if length < 0:
        raise ValueError(f"length must be non-negative, got {length}")
    return decode_sequence(rng.integers(0, 4, size=length, dtype=np.uint8))


def mutate_sequence(seq: str, rate: float, rng: np.random.Generator) -> str:
    """Apply independent substitutions to a fraction ``rate`` of positions.

    Substitutions always change the base (they draw from the three other
    nucleotides), so ``rate`` is the realized divergence in expectation.
    """
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"rate must be in [0, 1], got {rate}")
    codes = encode_sequence(seq).copy()
    n_mut = rng.binomial(len(codes), rate)
    if n_mut == 0:
        return seq
    positions = rng.choice(len(codes), size=n_mut, replace=False)
    shifts = rng.integers(1, 4, size=n_mut, dtype=np.uint8)
    codes[positions] = (codes[positions] + shifts) % 4
    return decode_sequence(codes)


@dataclass
class SpeciesGenome:
    """A reference genome with its taxonomic coordinates."""

    taxid: int
    genus_id: int
    name: str
    sequence: str

    def __len__(self) -> int:
        return len(self.sequence)


@dataclass
class ReferenceCollection:
    """A set of species genomes grouped into genera.

    ``genomes`` maps species taxID to its genome; ``genus_of`` maps species
    taxID to its genus taxID.  TaxIDs are assigned by
    :class:`repro.taxonomy.tree.Taxonomy` conventions: genus IDs first, then
    species IDs (all positive, root = 1).
    """

    genomes: Dict[int, SpeciesGenome] = field(default_factory=dict)

    @property
    def species_taxids(self) -> List[int]:
        return sorted(self.genomes)

    def genus_of(self, taxid: int) -> int:
        return self.genomes[taxid].genus_id

    def sequence(self, taxid: int) -> str:
        return self.genomes[taxid].sequence


class GenomeGenerator:
    """Generates a clade-structured reference collection.

    Each genus starts from an independent random ancestor genome; species
    within a genus are mutated copies of that ancestor.  ``divergence``
    controls within-genus distance; across genera sequences are unrelated.
    """

    def __init__(
        self,
        n_genera: int = 4,
        species_per_genus: int = 3,
        genome_length: int = 2_000,
        divergence: float = 0.05,
        seed: int = 0,
        length_jitter: float = 0.1,
    ):
        if n_genera <= 0 or species_per_genus <= 0:
            raise ValueError("n_genera and species_per_genus must be positive")
        if genome_length <= 0:
            raise ValueError(f"genome_length must be positive, got {genome_length}")
        self.n_genera = n_genera
        self.species_per_genus = species_per_genus
        self.genome_length = genome_length
        self.divergence = divergence
        self.length_jitter = length_jitter
        self._rng = np.random.Generator(np.random.PCG64(seed))

    def generate(self) -> ReferenceCollection:
        """Build the reference collection.

        Genus taxIDs are ``2 .. n_genera+1``; species taxIDs continue from
        there, so every taxID is unique and root (1) is reserved.
        """
        collection = ReferenceCollection()
        next_species_id = 2 + self.n_genera
        for genus_index in range(self.n_genera):
            genus_id = 2 + genus_index
            length = self._jittered_length()
            ancestor = random_sequence(length, self._rng)
            for species_index in range(self.species_per_genus):
                taxid = next_species_id
                next_species_id += 1
                sequence = mutate_sequence(ancestor, self.divergence, self._rng)
                collection.genomes[taxid] = SpeciesGenome(
                    taxid=taxid,
                    genus_id=genus_id,
                    name=f"genus{genus_index}_species{species_index}",
                    sequence=sequence,
                )
        return collection

    def _jittered_length(self) -> int:
        if self.length_jitter == 0:
            return self.genome_length
        low = max(1, int(self.genome_length * (1 - self.length_jitter)))
        high = int(self.genome_length * (1 + self.length_jitter))
        return int(self._rng.integers(low, high + 1))


# Re-export the alphabet for convenience of downstream doctest-style users.
__all__ = [
    "ALPHABET",
    "GenomeGenerator",
    "ReferenceCollection",
    "SpeciesGenome",
    "mutate_sequence",
    "random_sequence",
]
