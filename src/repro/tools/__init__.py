"""Baseline metagenomic tools (functional reproductions).

- :mod:`repro.tools.kraken2` — the performance-optimized baseline (P-Opt):
  hash-table k-mer matching with random accesses + read classification;
- :mod:`repro.tools.bracken` — abundance re-estimation on Kraken output;
- :mod:`repro.tools.metalign` — the accuracy-optimized baseline (A-Opt):
  KMC-style counting, sorted intersection, CMash sketch lookup, mapping;
- :mod:`repro.tools.mapping` — seed-voting read mapper shared by Metalign's
  and MegIS's abundance estimation.
"""

from repro.tools.bracken import BrackenEstimator
from repro.tools.kraken2 import Kraken2Classifier, Kraken2Result
from repro.tools.mapping import (
    ColumnarSpeciesIndex,
    ColumnarUnifiedIndex,
    ReadMapper,
    SpeciesIndex,
    UnifiedIndex,
)
from repro.tools.metalign import MetalignResult
from repro.tools.statistical import StatisticalAbundanceEstimator

__all__ = [
    "BrackenEstimator",
    "ColumnarSpeciesIndex",
    "ColumnarUnifiedIndex",
    "Kraken2Classifier",
    "Kraken2Result",
    "MetalignResult",
    "ReadMapper",
    "SpeciesIndex",
    "StatisticalAbundanceEstimator",
    "UnifiedIndex",
]
