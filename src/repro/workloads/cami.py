"""CAMI-like synthetic metagenomic samples.

The paper evaluates on three CAMI read sets of low, medium, and high genetic
diversity (CAMI-L/M/H), each with 100 million reads (§5).  We reproduce the
*structure*: a reference collection, a ground-truth abundance profile whose
species count grows with diversity, and a simulated read set.  Scale is a
parameter; the functional pipelines run at laptop scale while the timing
model uses the paper-scale byte counts from :mod:`repro.workloads.datasets`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List

import numpy as np

from repro.sequences.generator import GenomeGenerator, ReferenceCollection
from repro.sequences.reads import Read, ReadSimulator
from repro.taxonomy.profiles import AbundanceProfile
from repro.taxonomy.tree import Taxonomy


class CamiDiversity(enum.Enum):
    """Diversity presets mirroring CAMI-L / CAMI-M / CAMI-H."""

    LOW = "CAMI-L"
    MEDIUM = "CAMI-M"
    HIGH = "CAMI-H"


#: Fraction of reference species actually present per diversity level.
_PRESENT_FRACTION = {
    CamiDiversity.LOW: 0.25,
    CamiDiversity.MEDIUM: 0.5,
    CamiDiversity.HIGH: 0.85,
}

#: Log-normal sigma of abundances: higher diversity -> more even profiles.
_ABUNDANCE_SIGMA = {
    CamiDiversity.LOW: 1.5,
    CamiDiversity.MEDIUM: 1.0,
    CamiDiversity.HIGH: 0.6,
}


@dataclass
class CamiSample:
    """A synthetic sample plus everything needed to score tools against it."""

    diversity: CamiDiversity
    references: ReferenceCollection
    taxonomy: Taxonomy
    truth: AbundanceProfile
    reads: List[Read]

    @property
    def name(self) -> str:
        return self.diversity.value

    @property
    def n_reads(self) -> int:
        return len(self.reads)

    def present_species(self) -> set:
        return self.truth.present()


def make_cami_sample(
    diversity: CamiDiversity = CamiDiversity.MEDIUM,
    n_reads: int = 2_000,
    n_genera: int = 6,
    species_per_genus: int = 4,
    genome_length: int = 3_000,
    read_length: int = 100,
    error_rate: float = 0.005,
    seed: int = 7,
) -> CamiSample:
    """Build a CAMI-like sample: references, taxonomy, truth, and reads."""
    rng = np.random.Generator(np.random.PCG64(seed))
    references = GenomeGenerator(
        n_genera=n_genera,
        species_per_genus=species_per_genus,
        genome_length=genome_length,
        seed=seed,
    ).generate()
    taxonomy = Taxonomy.from_reference_collection(references)

    species = references.species_taxids
    n_present = max(2, int(round(len(species) * _PRESENT_FRACTION[diversity])))
    present = sorted(rng.choice(species, size=n_present, replace=False).tolist())
    weights = rng.lognormal(mean=0.0, sigma=_ABUNDANCE_SIGMA[diversity], size=n_present)
    truth = AbundanceProfile.from_counts(dict(zip(present, weights)))

    simulator = ReadSimulator(read_length=read_length, error_rate=error_rate, seed=seed + 1)
    reads = simulator.simulate(references, truth.fractions, n_reads)
    return CamiSample(diversity, references, taxonomy, truth, reads)
