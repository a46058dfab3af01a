"""Read simulation: sequencing a metagenomic sample.

Sequencing produces randomly sampled, inexact fragments (reads) whose species
of origin is unknown to the analysis (paper §1).  The simulator samples reads
from a set of reference genomes according to an abundance profile and applies
substitution errors, recording the true source taxID so accuracy metrics
(F1, L1 norm error) can be computed downstream.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence

import numpy as np

from repro.sequences.generator import ReferenceCollection, mutate_sequence


@dataclass(frozen=True)
class Read:
    """A basecalled read with ground-truth provenance."""

    read_id: int
    sequence: str
    true_taxid: int

    def __len__(self) -> int:
        return len(self.sequence)


class ReadSimulator:
    """Samples error-prone reads from a reference collection.

    Reads are drawn uniformly over positions of the source genome; the source
    genome is drawn from the abundance profile.  ``error_rate`` applies
    independent substitutions (the dominant error mode of short reads).
    """

    def __init__(self, read_length: int = 100, error_rate: float = 0.005, seed: int = 0):
        if read_length <= 0:
            raise ValueError(f"read_length must be positive, got {read_length}")
        if not 0.0 <= error_rate < 1.0:
            raise ValueError(f"error_rate must be in [0, 1), got {error_rate}")
        self.read_length = read_length
        self.error_rate = error_rate
        self._rng = np.random.Generator(np.random.PCG64(seed))

    def simulate(
        self,
        references: ReferenceCollection,
        abundances: Dict[int, float],
        n_reads: int,
    ) -> List[Read]:
        """Generate ``n_reads`` reads according to ``abundances``.

        ``abundances`` maps species taxID to relative abundance; it is
        normalized internally, so unnormalized weights are accepted.
        """
        if n_reads < 0:
            raise ValueError(f"n_reads must be non-negative, got {n_reads}")
        taxids, weights = self._normalized_profile(references, abundances)
        counts = self._rng.multinomial(n_reads, weights)
        reads: List[Read] = []
        read_id = 0
        for taxid, count in zip(taxids, counts):
            genome = references.sequence(taxid)
            for _ in range(count):
                reads.append(Read(read_id, self._sample_read(genome), taxid))
                read_id += 1
        self._rng.shuffle(reads)  # interleave species, as real samples are
        return [Read(i, r.sequence, r.true_taxid) for i, r in enumerate(reads)]

    def _sample_read(self, genome: str) -> str:
        if len(genome) <= self.read_length:
            fragment = genome
        else:
            start = int(self._rng.integers(0, len(genome) - self.read_length + 1))
            fragment = genome[start : start + self.read_length]
        if self.error_rate > 0:
            fragment = mutate_sequence(fragment, self.error_rate, self._rng)
        return fragment

    def _normalized_profile(
        self, references: ReferenceCollection, abundances: Dict[int, float]
    ) -> tuple:
        unknown = set(abundances) - set(references.genomes)
        if unknown:
            raise KeyError(f"abundance profile references unknown taxids: {sorted(unknown)}")
        taxids = sorted(t for t, w in abundances.items() if w > 0)
        if not taxids:
            raise ValueError("abundance profile has no positive entries")
        weights = np.array([abundances[t] for t in taxids], dtype=float)
        return taxids, weights / weights.sum()


class BareReads(Sequence[Read]):
    """A sample that holds only its reads' sequences, as a request carries it.

    Item ``i`` is ``Read(i, sequences[i], 0)``, built only when indexed (by
    int: no caller slices a sample) or iterated; :func:`read_sequences`
    hands the held list back with no per-read object, which is all Step 1
    and the columnar vote read.
    """

    __slots__ = ("sequences",)

    def __init__(self, sequences: List[str]):
        self.sequences = sequences

    def __len__(self) -> int:
        return len(self.sequences)

    def __getitem__(self, index: int) -> Read:  # type: ignore[override]
        i = operator.index(index)
        if i < 0:
            i += len(self.sequences)
        if not 0 <= i < len(self.sequences):
            raise IndexError("read index out of range")
        return Read(i, self.sequences[i], 0)

    def __iter__(self) -> Iterator[Read]:
        return (Read(i, seq, 0) for i, seq in enumerate(self.sequences))


def read_sequences(reads: Sequence[Read]) -> List[str]:
    """The sample's sequences in read order, provenance stripped.

    For :class:`BareReads` this is the held list itself, not a copy:
    callers read it and never mutate it.
    """
    if isinstance(reads, BareReads):
        return reads.sequences
    return [read.sequence for read in reads]
