"""Index lifecycle: build once, persist, cold-open, serve many (§4.2).

The MegIS deployment model keeps the databases SSD-resident and serves a
stream of samples against them.  This experiment measures that lifecycle
on a small synthetic world: offline build cost, serialized size, cold-open
cost (attaching the persisted CSR columns — no reconstruction), and the
per-sample serving cost through one :class:`~repro.megis.session.AnalysisSession`
versus the legacy pattern of rebuilding the databases for every sample.
The ``amortized`` row is the headline: once the index exists, a sample
costs its analysis only, not a database build.
"""

from __future__ import annotations

import time

from repro.experiments.runner import ExperimentResult
from repro.megis.index import IndexBuilder, MegisIndex
from repro.megis.session import AnalysisSession, MegisConfig
from repro.workloads.cami import CamiDiversity, make_cami_sample

N_SAMPLES = 4


def run() -> ExperimentResult:
    result = ExperimentResult(
        experiment="index_lifecycle",
        title="Build-once / query-many: index lifecycle costs",
        columns=["stage", "seconds", "note"],
        paper_reference="§4.2 (offline build) + §4.7 (serving a sample stream)",
    )
    # One reference world, a stream of read sets against it — chunks of a
    # larger simulated sample, so every query actually hits the index.
    world = make_cami_sample(
        CamiDiversity.MEDIUM, n_reads=150 * N_SAMPLES, n_genera=3,
        species_per_genus=2, genome_length=1000, seed=31,
    )
    chunk = len(world.reads) // N_SAMPLES
    sample_stream = [
        world.reads[i * chunk:(i + 1) * chunk] for i in range(N_SAMPLES)
    ]
    references = world.references

    start = time.perf_counter()
    index = IndexBuilder(k=20, smaller_ks=(12, 8), sketch_fraction=0.3).build(
        references
    )
    index.kss.store()  # include the columnar build in the offline cost
    build_s = time.perf_counter() - start
    result.add_row(stage="build", seconds=build_s,
                   note=f"{len(index.database)} db k-mers, {len(index.kss)} kss rows")

    start = time.perf_counter()
    payload = index.to_bytes(n_shards=2)
    result.add_row(stage="save", seconds=time.perf_counter() - start,
                   note=f"{len(payload)} bytes, 2-way shard boundaries")

    start = time.perf_counter()
    opened = MegisIndex.from_bytes(payload)
    open_s = time.perf_counter() - start
    result.add_row(stage="open", seconds=open_s,
                   note=f"{build_s / open_s:.1f}x faster than rebuilding")

    config = MegisConfig(backend="numpy", abundance_method="statistical")
    session = AnalysisSession(opened, config)
    served = [session.analyze(reads) for reads in sample_stream]
    assert all(r.candidates for r in served), "stream must hit the index"
    start = time.perf_counter()
    for reads in sample_stream:
        session.analyze(reads)
    serve_s = (time.perf_counter() - start) / N_SAMPLES
    result.add_row(stage="serve", seconds=serve_s,
                   note=f"per sample, one session, {N_SAMPLES} samples")

    start = time.perf_counter()
    rebuilt = IndexBuilder(k=20, smaller_ks=(12, 8), sketch_fraction=0.3).build(
        references
    )
    AnalysisSession(rebuilt, config).analyze(sample_stream[0])
    legacy_s = time.perf_counter() - start
    result.add_row(stage="amortized", seconds=serve_s,
                   note=f"{legacy_s / serve_s:.1f}x vs per-call rebuild")
    return result
