"""Serving QoS: the batch-window throughput / tail-latency trade.

``--batch-window-ms`` holds a forming §4.7 batch so trickling arrivals
coalesce into one amortized database stream.  That is a *trade*, and
which side you see depends on the load regime — so this experiment
sweeps the window under two regimes on the paced backend (modeled flash
wall time over the NumPy kernels):

- **burst** — one worker, arrivals far faster than service.  With no
  window the worker grabs the head sample alone and pays a second
  database stream for the backlog; any window past the arrival tail
  coalesces the whole burst into one stream.  Throughput rises with the
  window (makespan falls), the §4.7 amortization made visible.
- **trickle** — ample workers, arrivals *slower* than the window ever
  fills.  Batches never form, so the window is pure admission delay:
  every request waits out its window before dispatching solo, and the
  latency percentiles rise ~linearly with the window while throughput
  (arrival-capped) stays flat.

Each row reports samples/s, p50/p99 latency, and attainment against an
SLO set from the measured warm single-sample service time.  The
monotone endpoints (burst throughput up, trickle p99 up) are asserted
by ``benchmarks/test_serving.py``; this report is where the full curve
lives.  Results stay bit-identical across every configuration — the
sweep asserts it.
"""

from __future__ import annotations

import time

from repro.experiments._serving import build_world, paced_session, percentile
from repro.experiments.runner import ExperimentResult
from repro.megis.service import AnalysisService

N_SAMPLES = 6
READS_PER_SAMPLE = 25
#: Scaled-down stream bandwidth matched to the tiny test database, so
#: the paced stream dominates service time the way flash streaming
#: dominates at paper scale.  Slow enough that the burst regime's
#: one-stream-vs-two gap dwarfs scheduler noise on a busy CI host.
MB_PER_S = 0.4
#: Burst arrivals: far faster than one paced stream, so a window just
#: past the arrival tail coalesces the whole burst.
BURST_GAP_S = 0.002
#: Trickle arrivals: slower than the widest window, so batches never
#: fill and the window is pure admission delay.
TRICKLE_GAP_S = 0.12
#: Swept admission windows (ms).  The middle point already exceeds the
#: burst arrival tail ((N_SAMPLES - 1) x BURST_GAP_S = 10 ms), so both
#: non-zero windows fully coalesce the burst.
WINDOWS_MS = (0.0, 25.0, 90.0)
#: SLO multiple of the measured warm single-sample service time.
SLO_FACTOR = 2.5


def _serve_stream(index, samples, *, workers: int, window_ms: float,
                  gap_s: float):
    """Pace ``samples`` into a fresh service; returns (elapsed, emitted,
    stats) with every result signature-checked downstream."""
    session = paced_session(index, MB_PER_S)
    with AnalysisService(session, workers=workers, max_batch=N_SAMPLES,
                         batch_window_ms=window_ms) as service:
        start = time.perf_counter()
        for i, sample in enumerate(samples):
            if i:
                time.sleep(gap_s)
            service.submit(sample, tag=i)
        service.close_submissions()
        emitted = list(service.results())
        elapsed = time.perf_counter() - start
    return elapsed, emitted, service.stats


def run() -> ExperimentResult:
    result = ExperimentResult(
        experiment="qos_latency",
        title="Serving QoS: batch window vs throughput and tail latency",
        columns=["regime", "window_ms", "workers", "samples_per_s",
                 "p50_ms", "p99_ms", "slo_ms", "slo_attainment",
                 "batches", "widest"],
        paper_reference="§4.7 (multi-sample ISP) x serving deployment",
        notes="burst: coalescing amortizes the paced stream (throughput "
              "up); trickle: the window is pure admission delay (p99 up)",
    )
    index, samples = build_world(N_SAMPLES, READS_PER_SAMPLE)

    # Warm pass: prices one solo sample end to end (stream + Step 3) and
    # warms every lazily-built structure out of the measured sweeps.
    warm_session = paced_session(index, MB_PER_S)
    warm_start = time.perf_counter()
    reference = warm_session.analyze(samples[0])
    single_ms = (time.perf_counter() - warm_start) * 1e3
    slo_ms = SLO_FACTOR * single_ms
    signature = (sorted(reference.candidates),
                 sorted(reference.profile.fractions.items()))

    regimes = (
        ("burst", 1, BURST_GAP_S),
        ("trickle", 4, TRICKLE_GAP_S),
    )
    for regime, workers, gap_s in regimes:
        for window_ms in WINDOWS_MS:
            elapsed, emitted, stats = _serve_stream(
                index, samples, workers=workers, window_ms=window_ms,
                gap_s=gap_s,
            )
            outputs = [entry.future.result() for entry in emitted]
            sample0 = next(entry for entry in emitted if entry.tag == 0)
            got = (sorted(sample0.future.result().candidates),
                   sorted(sample0.future.result().profile.fractions.items()))
            assert got == signature, "serving must stay bit-identical"
            assert len(outputs) == N_SAMPLES
            latencies = [entry.metrics.latency_ms for entry in emitted]
            result.add_row(
                regime=regime,
                window_ms=window_ms,
                workers=workers,
                samples_per_s=N_SAMPLES / elapsed,
                p50_ms=percentile(latencies, 0.50),
                p99_ms=percentile(latencies, 0.99),
                slo_ms=slo_ms,
                slo_attainment=sum(
                    1 for lat in latencies if lat <= slo_ms
                ) / N_SAMPLES,
                batches=stats.batches_dispatched,
                widest=stats.widest_batch,
            )
    return result
