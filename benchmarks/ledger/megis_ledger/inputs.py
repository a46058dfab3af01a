"""Seeded input generator: worlds, communities, samples, request frames.

Everything derives from one integer seed through the public
``GenomeGenerator`` / ``ReadSimulator``; the same seed gives byte-identical
inputs.  The *shape* of the inputs (genome lengths, which genera a
community covers, read counts) is fixed by the workload and does not
depend on the seed, so two seeds give different sequences but the same
amount of work — a run-to-run difference is then the machine's or the
program's, not the draw's.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.megis import wire
from repro.sequences.generator import GenomeGenerator, ReferenceCollection
from repro.sequences.reads import Read, ReadSimulator

#: Seed used when ``--seed`` is not given, and the seed the README's
#: numbers were recorded with.
DEFAULT_SEED = 11
#: Never used while the ledger was written; for held-out checks of a claim.
HELD_OUT_SEED = 29


@dataclass(frozen=True)
class WorldShape:
    """Reference collection plus how communities are cut from it."""

    n_genera: int
    species_per_genus: int
    genome_length: int
    #: Each community covers this many genera, with this many species of
    #: each at non-zero abundance.
    genera_per_community: int = 2
    species_per_covered_genus: int = 2


@dataclass(frozen=True)
class Sample:
    """One distinct input: the reads the program receives and the key its
    oracle answer is filed under."""

    key: str
    reads: Tuple[Read, ...]

    @property
    def sequences(self) -> List[str]:
        return [read.sequence for read in self.reads]


def _derive(seed: int, *path: int) -> int:
    """An independent 63-bit seed for one generator call."""
    state = np.random.SeedSequence([seed, *path]).generate_state(1, np.uint64)
    return int(state[0] >> np.uint64(1))


def make_world(shape: WorldShape, seed: int) -> ReferenceCollection:
    """The reference collection; genome lengths are exact (no jitter) so
    the database size does not move with the seed."""
    return GenomeGenerator(
        n_genera=shape.n_genera,
        species_per_genus=shape.species_per_genus,
        genome_length=shape.genome_length,
        length_jitter=0.0,
        seed=_derive(seed, 0),
    ).generate()


def make_communities(
    shape: WorldShape, references: ReferenceCollection, n: int, seed: int
) -> List[Dict[int, float]]:
    """``n`` abundance profiles with seed-independent membership.

    Community ``c`` covers the ``c``-th of ``n`` evenly spaced genus
    combinations; only the abundance weights are drawn from the seed.
    """
    by_genus: Dict[int, List[int]] = {}
    for taxid in references.species_taxids:
        by_genus.setdefault(references.genus_of(taxid), []).append(taxid)
    genera = sorted(by_genus)
    combos = list(itertools.combinations(genera, shape.genera_per_community))
    communities = []
    for c in range(n):
        covered = combos[c * len(combos) // n]
        members = []
        for genus in covered:
            species = by_genus[genus]
            for j in range(shape.species_per_covered_genus):
                members.append(species[(c + j) % len(species)])
        rng = np.random.Generator(np.random.PCG64(_derive(seed, 1, c)))
        weights = rng.dirichlet(np.ones(len(members))) + 0.1
        communities.append(
            {taxid: float(w) for taxid, w in zip(members, weights)}
        )
    return communities


def make_samples(
    references: ReferenceCollection,
    communities: Sequence[Dict[int, float]],
    n_samples: int,
    n_reads: int,
    read_length: int,
    seed: int,
    prefix: str,
) -> List[Sample]:
    """``n_samples`` read sets, sample ``i`` drawn from community
    ``i % len(communities)``.  Provenance is stripped: the program sees
    sequences only, as a real pipeline would."""
    samples = []
    for i in range(n_samples):
        reads = ReadSimulator(
            read_length=read_length, error_rate=0.005,
            seed=_derive(seed, 2, i),
        ).simulate(references, communities[i % len(communities)], n_reads)
        samples.append(Sample(
            key=f"{prefix}{i}",
            reads=tuple(Read(r.read_id, r.sequence, 0) for r in reads),
        ))
    return samples


def slice_sample(sample: Sample, start: int, n_reads: int, key: str) -> Sample:
    """A smaller distinct sample cut from ``sample``'s reads."""
    chunk = sample.reads[start:start + n_reads]
    return Sample(
        key=key,
        reads=tuple(Read(i, r.sequence, 0) for i, r in enumerate(chunk)),
    )


def request_frame(request_id: str, sample: Sample) -> bytes:
    """The schema-1 request line a client sends for ``sample``."""
    return wire.encode(wire.request_record(request_id, sample.sequences))
