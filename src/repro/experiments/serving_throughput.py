"""Serving throughput: worker count x batch width over one shared session.

The deployment model the paper argues for — an SSD-resident database
serving a stream of samples — is realized by
:class:`~repro.megis.service.AnalysisService`: worker threads share one
read-only :class:`~repro.megis.session.AnalysisSession` and coalesce
queued samples into §4.7 multi-sample batches.  This experiment sweeps
workers x ``max_batch`` over a fixed sample stream and reports
samples/sec, the speedup over strictly serial serving, and how the
batches actually coalesced.

Step 2 runs on the ``paced`` backend (the NumPy kernels plus the modeled
flash-stream wall time), so the two throughput mechanisms are visible on
any host: batch amortization pays the stream once per batch, and worker
threads overlap the paced waits of independent batches.  Results are
bit-identical across all configurations — the sweep asserts it.

The sweep also contrasts execution substrates: the thread rows serve
through the service's worker threads over a serial session, and the
``processes:N`` rows dispatch the same stream into the session's forked
worker pool (the warmed session forked, one batch per worker).  On a
multi-core host the process rows pull ahead wherever the GIL serializes
the thread rows; on one core they roughly tie.  The gap is reported, not
asserted (``benchmarks/test_serving`` pins only that both substrates
serve bit-identically).
"""

from __future__ import annotations

import time

from repro.experiments._serving import build_world, paced_session
from repro.experiments.runner import ExperimentResult
from repro.megis.service import AnalysisService

N_SAMPLES = 8
READS_PER_SAMPLE = 25
#: Deliberately scaled-down stream bandwidth matched to the tiny test
#: database, so the paced stream dominates the way flash streaming
#: dominates at paper scale.
MB_PER_S = 2.0


def run() -> ExperimentResult:
    result = ExperimentResult(
        experiment="serving_throughput",
        title="Concurrent serving: workers x batch width, one shared session",
        columns=["executor", "workers", "max_batch", "samples_per_s",
                 "speedup", "batches", "widest"],
        paper_reference="§4.7 (multi-sample ISP) x deployment model",
        notes="paced numpy backend: batch width amortizes the modeled "
              "flash stream; workers overlap the paced waits; processes "
              "rows fork the warmed session, one batch per worker",
    )
    index, samples = build_world(N_SAMPLES, READS_PER_SAMPLE)

    def serve(workers: int, max_batch: int, executor=None):
        session = paced_session(index, MB_PER_S, executor=executor)
        with session:  # reaps a forked pool, if the executor forked one
            with AnalysisService(session, workers=workers,
                                 max_batch=max_batch) as service:
                start = time.perf_counter()
                futures = service.submit_batch(samples)
                outputs = [future.result() for future in futures]
                elapsed = time.perf_counter() - start
                stats = service.stats
        return outputs, elapsed, stats

    baseline_outputs, baseline_s, _ = serve(1, 1)
    signature = [
        (sorted(r.candidates), sorted(r.profile.fractions.items()))
        for r in baseline_outputs
    ]
    result.add_row(executor="threads", workers=1, max_batch=1,
                   samples_per_s=N_SAMPLES / baseline_s, speedup=1.0,
                   batches=N_SAMPLES, widest=1)
    sweep = (
        ("threads", 2, 2, None),
        ("threads", 4, 1, None),
        ("threads", 4, 4, None),
        ("processes:2", 2, 2, "processes:2"),
        ("processes:4", 4, 4, "processes:4"),
    )
    for label, workers, max_batch, executor in sweep:
        outputs, elapsed, stats = serve(workers, max_batch, executor)
        got = [
            (sorted(r.candidates), sorted(r.profile.fractions.items()))
            for r in outputs
        ]
        assert got == signature, "concurrent serving must be bit-identical"
        result.add_row(
            executor=label, workers=workers, max_batch=max_batch,
            samples_per_s=N_SAMPLES / elapsed,
            speedup=baseline_s / elapsed,
            batches=stats.batches_dispatched,
            widest=stats.widest_batch,
        )
    return result
