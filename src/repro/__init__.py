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

Quickstart::

    from repro import quick_analysis
    report = quick_analysis()
    print(report)

or see ``examples/quickstart.py``.
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
    "quick_analysis",
]


def quick_analysis(n_reads: int = 400, seed: int = 7) -> str:
    """One-call demo: build a sample, build an index, serve MegIS, report."""
    sample = make_cami_sample(CamiDiversity.MEDIUM, n_reads=n_reads, seed=seed)
    index = IndexBuilder(k=20, smaller_ks=(12, 8)).build(sample.references)
    session = AnalysisSession(index)
    result = session.analyze(sample.reads)
    truth = sample.present_species()
    lines = [
        f"sample: {sample.name} ({sample.n_reads} reads, "
        f"{len(truth)} species present)",
        f"candidates found: {sorted(result.candidates)}",
        f"F1: {f1_score(result.present(), truth):.3f}",
        f"L1 error: {l1_norm_error(result.profile.fractions, sample.truth.fractions):.3f}",
    ]
    return "\n".join(lines)
