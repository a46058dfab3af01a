"""Measured vs modeled intersect/retrieve overlap across SSD shards.

§4.3.2's overlap claim: because each SSD streams its own database range
(intersect) and its own prefix-aligned KSS range (retrieve), the
per-shard streams run concurrently and the Step-2 wall clock approaches
the *largest* shard's stream time rather than the *sum*.  The paced
backend (PR 7) made both streams real wall time — database k-mer records
for intersect, ``kss.size_bytes()`` for retrieve — so the overlap ratio
is now measurable, and this report charts it against the byte-volume
model for 1/2/4 SSDs:

- **measured ratio** — ``(intersect_ms + retrieve_ms - step2_wall_ms)
  / (intersect_ms + retrieve_ms)``, floored at 0: how much of the shards'
  total busy time the fan-out actually hid.  Each shard runs on its own
  thread of a pool of ``n_ssds`` that this report opens (the serving
  engine runs shards one after another), and ``step2_wall_ms`` is the
  dispatch window this report times around
  :func:`~repro.megis.multissd.step_two_over_shards`, summed over a few
  trials to shrug off scheduler noise.
- **model ratio** — ``1 - max_shard_bytes / total_bytes`` over the
  per-shard stream volumes (database records + KSS range bytes at one
  shared bandwidth): the saving a perfectly-overlapped fan-out of these
  exact shards could hide.  1 SSD models 0 (nothing to overlap with).

Results are asserted bit-identical across shard counts, as everywhere,
and every pooled trial equal to the serving engine's serial loop
(:meth:`~repro.megis.multissd.MultiSsdStepTwo.run`) over the same shards.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.backends import PhaseTimings, StepTwoResult, column_to_list
from repro.backends.paced import PacedStepTwoBackend
from repro.experiments.runner import ExperimentResult
from repro.megis.index import IndexBuilder
from repro.megis.multissd import (
    DatabaseShard,
    MultiSsdStepTwo,
    step_two_over_shards,
    whole_range,
)
from repro.sequences.generator import GenomeGenerator
from repro.sequences.keys import kmer_record_bytes

#: Slow enough that each shard's paced stream dwarfs kernel time, so the
#: measured overlap reflects stream concurrency, not Python scheduling.
MB_PER_S = 0.8
SSD_COUNTS = (1, 2, 4)
TRIALS = 3


def _same(got: StepTwoResult, expected: StepTwoResult) -> bool:
    """Equal intersecting k-mers and equal signature columns per level."""
    return column_to_list(got[0]) == column_to_list(expected[0]) and all(
        np.array_equal(ids, expected[1].levels[k])
        for k, ids in got[1].levels.items()
    )


def _shard_volumes(shards: list[DatabaseShard]) -> list:
    """Modeled per-shard stream bytes: database records + KSS range."""
    return [
        kmer_record_bytes(shard.database.k) * len(shard.database)
        + int(shard.kss.size_bytes())
        for shard in shards
    ]


def run() -> ExperimentResult:
    result = ExperimentResult(
        experiment="overlap_report",
        title="Intersect/retrieve overlap: paced measurement vs §4.3.2 model",
        columns=["n_ssds", "intersect_ms", "retrieve_ms", "step2_wall_ms",
                 "measured_ratio", "model_ratio", "max_shard_mb",
                 "total_mb"],
        paper_reference="§4.3.2 (stream overlap) x §6.1 (multi-SSD)",
        notes="measured = (busy - wall) / busy over the paced streams, "
              "one thread per shard (summed over trials); model = "
              "1 - max_shard/total byte volume",
    )
    # A 3-genus x 2-species world; only its index is streamed here.
    index = IndexBuilder(k=20, smaller_ks=(12, 8), sketch_fraction=0.3).build(
        GenomeGenerator(n_genera=3, species_per_genus=2, genome_length=900,
                        seed=47).generate()
    )
    # Every third database k-mer: a dense sorted query column, the shape
    # Step 2 consumes after extraction.
    query = index.database.kmers[::3]
    batch = [whole_range(query, index.database.k)]
    backend = PacedStepTwoBackend("numpy", mb_per_s=MB_PER_S)

    reference = None
    for n_ssds in SSD_COUNTS:
        engine = MultiSsdStepTwo(index.database, index.kss, n_ssds=n_ssds,
                                 backend=backend)
        volumes = _shard_volumes(engine.shards)
        total = sum(volumes)
        model_ratio = 1.0 - max(volumes) / total if n_ssds > 1 else 0.0
        # The serving engine's plain loop over the shards: what every
        # pooled trial below must reproduce, at every shard count.
        serial = engine.run(query)
        if reference is None:
            reference = serial
        assert _same(serial, reference), "sharded Step 2 must stay bit-identical"

        timings = PhaseTimings()
        wall_ms = 0.0
        for _ in range(TRIALS):
            with ThreadPoolExecutor(n_ssds) as pool:
                start = time.perf_counter()
                [pooled], t = step_two_over_shards(
                    backend, engine.shards, batch, pool=pool
                )
                wall_ms += (time.perf_counter() - start) * 1e3
            timings.merge(t)
            assert _same(pooled, serial), \
                "concurrent shards must equal the serial loop"
        busy = timings.intersect_ms + timings.retrieve_ms
        measured_ratio = max(0.0, busy - wall_ms) / busy if busy > 0 else 0.0
        result.add_row(
            n_ssds=n_ssds,
            intersect_ms=timings.intersect_ms / TRIALS,
            retrieve_ms=timings.retrieve_ms / TRIALS,
            step2_wall_ms=wall_ms / TRIALS,
            measured_ratio=measured_ratio,
            model_ratio=model_ratio,
            max_shard_mb=max(volumes) / 1e6,
            total_mb=total / 1e6,
        )
    return result
