"""Shared fixtures: one small CAMI-like world reused across the suite.

Session-scoped because database construction is the expensive part; all
tests treat these objects as read-only.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest
from hypothesis import settings

from repro.databases.kraken import KrakenDatabase
from repro.databases.kss import KssTables
from repro.databases.sketch import SketchDatabase, TernarySearchTree
from repro.databases.sorted_db import SortedKmerDatabase
from repro.workloads.cami import CamiDiversity, make_cami_sample

SKETCH_K = 20
SMALLER_KS = (12, 8)

# ``tests.strategies`` must import however pytest was started (importlib
# import mode puts no test directory on sys.path).
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import tests.strategies  # noqa: E402,F401  (registers the hypothesis profiles)

settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture(scope="session")
def sample():
    return make_cami_sample(
        CamiDiversity.MEDIUM,
        n_reads=400,
        n_genera=4,
        species_per_genus=3,
        genome_length=1500,
        seed=7,
    )


@pytest.fixture(scope="session")
def references(sample):
    return sample.references


@pytest.fixture(scope="session")
def taxonomy(sample):
    return sample.taxonomy


@pytest.fixture(scope="session")
def sorted_db(references):
    return SortedKmerDatabase.build(references, k=SKETCH_K)


@pytest.fixture(scope="session")
def sketch_db(references):
    return SketchDatabase.build(
        references, k_max=SKETCH_K, smaller_ks=SMALLER_KS, sketch_fraction=0.3
    )


@pytest.fixture(scope="session")
def kss_tables(sketch_db):
    return KssTables(sketch_db.kss_store)


@pytest.fixture(scope="session")
def ternary_tree(sketch_db):
    return TernarySearchTree(sketch_db)


@pytest.fixture(scope="session")
def kraken_db(references, taxonomy):
    return KrakenDatabase.build(references, taxonomy, k=21, genome_fraction=0.6, seed=3)
