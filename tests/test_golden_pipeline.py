"""Golden end-to-end regression: a committed fixture pins pipeline output.

``tests/data/golden_pipeline.json`` stores the expected intersections,
sketch hits, candidates, and abundance profile for one small deterministic
CAMI-like dataset, generated by the python reference backend.  Every
backend (and the sharded multi-SSD path) must keep reproducing it exactly,
so refactors of the owner/retrieval dataflow cannot silently drift the
science: a change that alters any number here must be a deliberate,
reviewed fixture update.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.databases.sketch import SketchDatabase
from repro.databases.sorted_db import SortedKmerDatabase
from repro.megis.index import MegisIndex
from repro.megis.session import AnalysisSession, MegisConfig
from repro.workloads.cami import CamiDiversity, make_cami_sample

GOLDEN = Path(__file__).parent / "data" / "golden_pipeline.json"


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def world(golden):
    p = golden["params"]
    sample = make_cami_sample(
        CamiDiversity.MEDIUM,
        n_reads=p["n_reads"],
        n_genera=p["n_genera"],
        species_per_genus=p["species_per_genus"],
        genome_length=p["genome_length"],
        seed=p["seed"],
    )
    sorted_db = SortedKmerDatabase.build(sample.references, k=p["k"])
    sketch = SketchDatabase.build(
        sample.references,
        k_max=p["k"],
        smaller_ks=tuple(p["smaller_ks"]),
        sketch_fraction=p["sketch_fraction"],
    )
    return sample, sorted_db, sketch


def _run(world, golden, backend: str, method: str, n_ssds: int = 1):
    sample, sorted_db, sketch = world
    p = golden["params"]
    return AnalysisSession(
        MegisIndex(sorted_db, sketch, sample.references),
        config=MegisConfig(
            backend=backend, n_buckets=p["n_buckets"],
            min_containment=p["min_containment"],
            abundance_method=method, n_ssds=n_ssds,
        ),
    ).analyze(sample.reads)


def _check(result, expected):
    assert len(result.intersecting_kmers) == expected["n_intersecting"]
    assert result.intersecting_kmers[:5] == expected["intersecting_head"]
    assert sum(result.intersecting_kmers) == expected["intersecting_sum"]
    assert sorted(result.candidates) == expected["candidates"]
    got_hits = {
        str(t): {str(k): c for k, c in levels.items()}
        for t, levels in result.sketch_hits.items()
    }
    assert got_hits == expected["sketch_hits"]
    got_profile = {str(t): f for t, f in result.profile.fractions.items()}
    assert set(got_profile) == set(expected["profile"])
    for taxid, fraction in expected["profile"].items():
        assert got_profile[taxid] == pytest.approx(fraction, rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("backend", ["python", "numpy"])
@pytest.mark.parametrize("method", ["mapping", "statistical"])
def test_golden_single_ssd(world, golden, backend, method):
    result = _run(world, golden, backend, method)
    _check(result, golden["expected"][method])


@pytest.mark.parametrize("backend", ["python", "numpy"])
def test_golden_sharded(world, golden, backend):
    """n_ssds > 1 must reproduce the same golden numbers bit for bit."""
    result = _run(world, golden, backend, "statistical", n_ssds=3)
    _check(result, golden["expected"]["statistical"])


def test_golden_sharded_on_a_bare_threads_pool(world, golden):
    """The concurrent shard dispatch ``overlap_report`` uses —
    ``step_two_over_shards(..., pool=)`` on a bare ``ThreadPoolExecutor``
    — put in place of the session's serial Step 2 serves the serial
    loop's golden numbers."""
    from concurrent.futures import ThreadPoolExecutor

    from repro.megis.multissd import step_two_over_shards

    sample, sorted_db, sketch = world
    p = golden["params"]
    session = AnalysisSession(
        MegisIndex(sorted_db, sketch, sample.references),
        MegisConfig(
            backend="numpy", n_buckets=p["n_buckets"],
            min_containment=p["min_containment"],
            abundance_method="statistical", n_ssds=3,
        ),
    )

    with ThreadPoolExecutor() as pool:
        def pooled_step_two(bucket_sets, timings):
            results, shard_timings = step_two_over_shards(
                session._backend, session.cluster_shards(),
                [buckets.slices() for buckets in bucket_sets], pool=pool,
            )
            timings.merge(shard_timings)
            return results

        [result] = session._analyze([sample.reads], True, pooled_step_two)
    _check(result, golden["expected"]["statistical"])


@pytest.fixture(scope="module")
def opened_index(world):
    """The golden world saved as a sharded index and cold-opened."""
    from repro.megis.index import MegisIndex

    sample, sorted_db, sketch = world
    index = MegisIndex(sorted_db, sketch, sample.references)
    return MegisIndex.from_bytes(index.to_bytes(n_shards=3))


@pytest.mark.parametrize("backend", ["python", "numpy"])
@pytest.mark.parametrize("method,n_ssds", [("mapping", 1), ("statistical", 3)])
def test_golden_served_from_opened_index(opened_index, world, golden, backend,
                                         method, n_ssds):
    """A cold-opened index must serve the golden numbers bit for bit too."""
    from repro.megis.session import AnalysisSession

    sample, _, _ = world
    p = golden["params"]
    session = AnalysisSession(
        opened_index,
        MegisConfig(
            backend=backend, n_buckets=p["n_buckets"],
            min_containment=p["min_containment"],
            abundance_method=method, n_ssds=n_ssds,
        ),
    )
    _check(session.analyze(sample.reads), golden["expected"][method])


@pytest.mark.parametrize("backend", ["python", "numpy"])
def test_golden_served_from_mmap_index(tmp_path, world, golden, backend):
    """A memmap-opened index serves the golden numbers bit for bit, with
    the signature sections staying np.memmap views (never materialized)."""
    import numpy as np

    from repro.megis.index import MegisIndex
    from repro.megis.session import AnalysisSession

    sample, sorted_db, sketch = world
    path = tmp_path / "golden.megis"
    MegisIndex(sorted_db, sketch, sample.references).save(path, n_shards=3)
    mapped = MegisIndex.open(path, mmap=True)
    store = mapped.kss.store()
    assert isinstance(store.signatures, np.memmap)
    assert isinstance(store.table.taxids, np.memmap)

    p = golden["params"]
    session = AnalysisSession(
        mapped,
        MegisConfig(
            backend=backend, n_buckets=p["n_buckets"],
            min_containment=p["min_containment"],
            abundance_method="statistical", n_ssds=3,
        ),
    )
    _check(session.analyze(sample.reads), golden["expected"]["statistical"])
    if backend == "numpy":
        # The columnar path serves straight off the mapped sections; the
        # register-level reference backend materializes row objects by
        # design (that is what row_materializations counts).
        assert mapped.kss.row_materializations == 0


def _mapping_session(world, golden, backend: str):
    sample, sorted_db, sketch = world
    p = golden["params"]
    return AnalysisSession(
        MegisIndex(sorted_db, sketch, sample.references),
        config=MegisConfig(
            backend=backend, n_buckets=p["n_buckets"],
            min_containment=p["min_containment"],
            abundance_method="mapping",
        ),
    )


@pytest.mark.parametrize(
    "route", ["analyze", "analyze_batch", "service"]
)
def test_columnar_mapping_equals_the_reference_on_every_route(world, golden,
                                                              route):
    """Mapping Step 3 on the numpy backend is the columnar index and vote;
    through every way a sample reaches it, candidates and profile equal
    the python backend's dict merge and per-read vote exactly."""
    from repro.megis.service import AnalysisService

    sample = world[0]
    third = len(sample.reads) // 3
    chunks = [sample.reads[:third], sample.reads[third:2 * third],
              sample.reads[2 * third:], sample.reads]
    reference = _mapping_session(world, golden, "python")
    want = [reference.analyze(chunk) for chunk in chunks]
    assert all(r.profile.fractions for r in want)
    _check(want[-1], golden["expected"]["mapping"])

    session = _mapping_session(world, golden, "numpy")
    if route == "analyze":
        got = [session.analyze(chunk) for chunk in chunks]
    elif route == "service":
        with AnalysisService(session, workers=2, max_batch=2) as service:
            got = [f.result() for f in service.submit_batch(chunks)]
    else:
        got = session.analyze_batch(chunks)
    for result, expected in zip(got, want):
        assert sorted(result.candidates) == sorted(expected.candidates)
        assert result.profile.fractions == expected.profile.fractions
        assert result.merge_stats == expected.merge_stats


def test_fixture_is_self_consistent(golden):
    """The committed fixture has the shape the checks above rely on."""
    for method in ("mapping", "statistical"):
        expected = golden["expected"][method]
        assert expected["n_intersecting"] >= len(expected["intersecting_head"])
        assert expected["candidates"], "golden world must call candidates"
        total = sum(float(v) for v in expected["profile"].values())
        assert total == pytest.approx(1.0, abs=1e-9)
