"""Shared fixtures for ``benchmarks/``: one sample, its databases, printed tables.

Each ``test_figXX.py`` regenerates one paper figure/table via the
experiment harness and asserts its shape; running with ``-s`` also prints
the reproduced rows, so the suite doubles as the artifact generator.
Nothing here is timed: how fast the stack runs is ``benchmarks/ledger``.
"""

from __future__ import annotations

import pytest

from repro.databases.kss import KssTables
from repro.databases.sketch import SketchDatabase
from repro.databases.sorted_db import SortedKmerDatabase
from repro.workloads.cami import CamiDiversity, make_cami_sample

BENCH_K = 20


@pytest.fixture(scope="session")
def bench_sample():
    return make_cami_sample(
        CamiDiversity.MEDIUM, n_reads=600, n_genera=4, species_per_genus=3,
        genome_length=2000, seed=21,
    )


@pytest.fixture(scope="session")
def bench_sorted_db(bench_sample):
    return SortedKmerDatabase.build(bench_sample.references, k=BENCH_K)


@pytest.fixture(scope="session")
def bench_sketch(bench_sample):
    return SketchDatabase.build(
        bench_sample.references, k_max=BENCH_K, smaller_ks=(12, 8), sketch_fraction=0.3
    )


@pytest.fixture(scope="session")
def bench_kss(bench_sketch):
    return KssTables(bench_sketch.kss_store)


def emit(result) -> None:
    """Print the reproduced table under -s."""
    print()
    print(result.format_table())
