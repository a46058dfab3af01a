"""repro: a reproduction of MegIS (ISCA 2024).

MegIS is the first in-storage processing system for end-to-end metagenomic
analysis.  This package reproduces it as:

- functional substrates (sequences, taxonomy, databases, baseline tools,
  the MegIS pipeline itself) that compute real classification results on
  synthetic data, with MegIS provably matching the accuracy-optimized
  software baseline;
- an SSD simulator and a calibrated analytic performance/energy model that
  regenerate every figure and table of the paper's evaluation
  (:mod:`repro.experiments`).

Quickstart: ``examples/quickstart.py`` builds a sample and an index,
serves MegIS over it and scores the result against the truth.
"""

from repro.databases import KrakenDatabase, KssTables, SketchDatabase, SortedKmerDatabase
from repro.megis import (
    AnalysisService,
    AnalysisSession,
    IndexBuilder,
    MegisConfig,
    MegisIndex,
)
from repro.taxonomy import AbundanceProfile, Taxonomy, f1_score, l1_norm_error
from repro.tools import Kraken2Classifier
from repro.workloads import CamiDiversity, make_cami_sample

#: The package version; ``pyproject.toml`` reads it from here.
__version__ = "0.2.0"

__all__ = [
    "AbundanceProfile",
    "AnalysisService",
    "AnalysisSession",
    "CamiDiversity",
    "IndexBuilder",
    "Kraken2Classifier",
    "KrakenDatabase",
    "KssTables",
    "MegisConfig",
    "MegisIndex",
    "SketchDatabase",
    "SortedKmerDatabase",
    "Taxonomy",
    "f1_score",
    "l1_norm_error",
    "make_cami_sample",
]
