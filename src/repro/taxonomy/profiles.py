"""Abundance profiles: the output of metagenomic analysis.

A profile maps species taxIDs to their relative abundances (paper Fig 1,
task 2).  Profiles are the common currency between the functional pipelines
(Kraken2+Bracken, Metalign, MegIS) and the accuracy metrics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Set


@dataclass
class AbundanceProfile:
    """Relative abundances over species taxIDs.

    Values are kept normalized (summing to 1 over positive entries) by
    :meth:`normalized`; raw read counts can be stored and normalized late.
    """

    fractions: Dict[int, float] = field(default_factory=dict)

    @classmethod
    def from_counts(cls, counts: Mapping[int, float]) -> "AbundanceProfile":
        """Build a normalized profile from read counts (or any weights)."""
        total = float(sum(v for v in counts.values() if v > 0))
        if total <= 0:
            return cls({})
        return cls({t: v / total for t, v in counts.items() if v > 0})

    def present(self, threshold: float = 0.0) -> Set[int]:
        """Taxids called present (abundance strictly above ``threshold``)."""
        return {t for t, v in self.fractions.items() if v > threshold}

    def abundance(self, taxid: int) -> float:
        return self.fractions.get(taxid, 0.0)

    def __len__(self) -> int:
        return len(self.fractions)

    def items(self):
        return sorted(self.fractions.items())

    def total(self) -> float:
        return float(sum(self.fractions.values()))
