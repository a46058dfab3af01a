"""MegIS Step 2: finding candidate species inside the SSD (paper §4.3).

A backend is one method, :meth:`~repro.backends.StepTwoBackend.step_two`:
one SSD's pass over its shard for a batch of samples.  The in-storage
data path is modelled at the register level by the ``python`` reference
backend (:mod:`repro.backends.python_backend`), the fidelity model a
caller names (``backend="python"``), whose ``step_two`` runs the two
units below in sequence; the default engine is the columnar ``numpy``
backend, which must agree with it exactly:

- :class:`IntersectUnit` — one per channel.  Holds two k-mer registers
  (current + next) fed directly from the flash stream, so the unit computes
  on data as it arrives without staging it in internal DRAM (§4.3.1).  It
  merges its channel's slice of the sorted database against the sorted
  query stream.
- :class:`TaxIdRetriever` — streams the sorted intersecting k-mers against
  the KSS tables.  A lightweight Index Generator compares the k-prefixes of
  consecutive k_max entries; when they differ it advances the smaller-k
  table (§4.3.2, Fig 8).

:class:`IspStepTwo` is one SSD's Step 2: the one-shard case of
:func:`repro.megis.multissd.step_two_over_shards`, over the whole-range
handle on the database and KSS themselves.  All backends must agree
exactly with the software references
(:meth:`SortedKmerDatabase.intersect`, :meth:`KssTables.retrieve`) — the
test suite enforces this.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.backends import DEFAULT_BACKEND, PhaseTimings, StepTwoBackend, StepTwoResult
from repro.databases.kss import KssTables
from repro.databases.sorted_db import SortedKmerDatabase
from repro.megis.host import BucketSet
from repro.megis.multissd import MultiSsdStepTwo, whole_shard


class IspStepTwo(MultiSsdStepTwo):
    """Step 2 on a single SSD: :class:`MultiSsdStepTwo` over one shard.

    ``backend`` selects the execution engine ("numpy" columnar kernels,
    the default, or the "python" register-level reference);
    ``n_channels`` is the SSD's channel count, which stripes the
    database *within* each streamed interval (§4.5).  A call's per-phase
    wall time and streaming counters go into the ``timings`` it is passed.
    """

    def __init__(
        self,
        database: SortedKmerDatabase,
        kss: KssTables,
        n_channels: int = 8,
        backend: Union[str, StepTwoBackend] = DEFAULT_BACKEND,
        executor: Optional[str] = None,
    ) -> None:
        super().__init__(
            kss=kss, channels_per_ssd=n_channels, backend=backend,
            executor=executor, shards=[whole_shard(database, kss)],
        )

    def run_bucket_set(
        self, bucket_set: BucketSet, timings: Optional[PhaseTimings] = None
    ) -> StepTwoResult:
        """One partitioned sample — the batch of one — bucket by bucket.

        The :class:`~repro.megis.host.BucketSet` carries its k-mers in the
        backend's native container (ndarray columns for ``numpy``), so this
        hand-off streams Step-1 output into the kernels with no conversion.
        """
        [result] = self.run_multi([bucket_set.slices()], timings)
        return result

    #: Batched multi-sample Step 2 (§4.7) under its single-SSD name.
    run_bucketed_multi = MultiSsdStepTwo.run_multi
