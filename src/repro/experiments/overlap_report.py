"""Measured vs modeled intersect/retrieve overlap across SSD shards.

§4.3.2's overlap claim: because each SSD streams its own database range
(intersect) and its own prefix-aligned KSS range (retrieve), the
per-shard streams run concurrently and the Step-2 wall clock approaches
the *largest* shard's stream time rather than the *sum*.  The paced
backend (PR 7) made both streams real wall time — database k-mer records
for intersect, ``kss.size_bytes()`` for retrieve — so the overlap ratio
is now measurable, and this report charts it against the byte-volume
model for 1/2/4 SSDs:

- **measured ratio** — ``measured_overlap_saved_ms / (intersect_ms +
  retrieve_ms)``: how much of the shards' total busy time the threaded
  fan-out actually hid (best of a few trials, to shrug off scheduler
  noise).
- **model ratio** — ``1 - max_shard_bytes / total_bytes`` over the
  per-shard stream volumes (database records + KSS range bytes at one
  shared bandwidth): the saving a perfectly-overlapped fan-out of these
  exact shards could hide.  1 SSD models 0 (nothing to overlap with).

Results are asserted bit-identical across shard counts, as everywhere.
"""

from __future__ import annotations

from repro.backends import PhaseTimings
from repro.backends.paced import PacedStepTwoBackend
from repro.databases.serialization import kmer_record_bytes
from repro.experiments.runner import ExperimentResult
from repro.megis.index import IndexBuilder
from repro.megis.multissd import MultiSsdStepTwo
from repro.sequences.generator import GenomeGenerator

#: Slow enough that each shard's paced stream dwarfs kernel time, so the
#: measured overlap reflects stream concurrency, not Python scheduling.
MB_PER_S = 0.8
SSD_COUNTS = (1, 2, 4)
TRIALS = 3


def _shard_volumes(engine: MultiSsdStepTwo) -> list:
    """Modeled per-shard stream bytes: database records + KSS range."""
    return [
        kmer_record_bytes(shard.database.k) * len(shard.database)
        + int(shard.kss.size_bytes())
        for shard in engine.shards
    ]


def run() -> ExperimentResult:
    result = ExperimentResult(
        experiment="overlap_report",
        title="Intersect/retrieve overlap: paced measurement vs §4.3.2 model",
        columns=["n_ssds", "intersect_ms", "retrieve_ms", "step2_wall_ms",
                 "measured_ratio", "model_ratio", "max_shard_mb",
                 "total_mb"],
        paper_reference="§4.3.2 (stream overlap) x §6.1 (multi-SSD)",
        notes="measured = overlap_saved / busy over the paced streams "
              "(best of trials); model = 1 - max_shard/total byte volume",
    )
    # A 3-genus x 2-species world; only its index is streamed here.
    index = IndexBuilder(k=20, smaller_ks=(12, 8), sketch_fraction=0.3).build(
        GenomeGenerator(n_genera=3, species_per_genus=2, genome_length=900,
                        seed=47).generate()
    )
    # Every third database k-mer: a dense sorted query column, the shape
    # Step 2 consumes after extraction.
    query = index.database.kmers[::3]

    reference = None
    for n_ssds in SSD_COUNTS:
        engine = MultiSsdStepTwo(
            database=index.database, kss=index.kss, n_ssds=n_ssds,
            backend=PacedStepTwoBackend("numpy", mb_per_s=MB_PER_S),
            executor=f"threads:{n_ssds}",
        )
        volumes = _shard_volumes(engine)
        total = sum(volumes)
        model_ratio = 1.0 - max(volumes) / total if n_ssds > 1 else 0.0

        timings = PhaseTimings()
        for _ in range(TRIALS):
            intersecting, retrieved = engine.run(query, timings=timings)
            if reference is None:
                reference = (list(intersecting), retrieved)
            else:
                assert list(intersecting) == reference[0], \
                    "sharded Step 2 must stay bit-identical"
                assert retrieved == reference[1], \
                    "sharded retrieval must stay bit-identical"
        busy = timings.intersect_ms + timings.retrieve_ms
        measured_ratio = (
            timings.measured_overlap_saved_ms / busy if busy > 0 else 0.0
        )
        result.add_row(
            n_ssds=n_ssds,
            intersect_ms=timings.intersect_ms / TRIALS,
            retrieve_ms=timings.retrieve_ms / TRIALS,
            step2_wall_ms=timings.step2_wall_ms / TRIALS,
            measured_ratio=measured_ratio,
            model_ratio=model_ratio,
            max_shard_mb=max(volumes) / 1e6,
            total_mb=total / 1e6,
        )
    return result
