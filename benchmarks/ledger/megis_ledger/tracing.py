"""Spans recorded from outside the program, and the public-call replay.

A span is ``(name, start, end, parent, op_id)``; spans of one operation
share ``op_id``.  They are kept in memory and written once, at exit.  A
layer's self time is its span minus the part its children cover.

:class:`Chain` is ``AnalysisSession.analyze`` / ``analyze_batch`` spelled
out as the public calls they make — ``KmerBucketPartitioner.partition``,
``isp.run_bucket_set`` / ``multissd.run`` (and their batched forms),
``accumulate_hits`` / ``select_candidates``, ``session.unified_index``,
``ReadMapper.estimate_abundance``,
``StatisticalAbundanceEstimator.estimate_from_retrieval`` — with one
span around each, so the per-layer split needs no probe inside ``repro``.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence

from repro.backends import PhaseTimings
from repro.megis.host import KmerBucketPartitioner
from repro.tools.mapping import ReadMapper
from repro.tools.metalign import accumulate_hits, select_candidates
from repro.tools.statistical import StatisticalAbundanceEstimator

from megis_ledger.oracle import Answer, canonical

#: Name of the root span of every operation.
OP = "op"


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


class Recorder:
    """In-memory span and count store (thread-safe appends)."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self.counts: Dict[str, List[float]] = defaultdict(list)
        self._lock = threading.Lock()

    def add(self, name: str, start: float, end: float,
            parent: Optional[int], op_id: object) -> int:
        """Record one finished span; returns its id (its index)."""
        with self._lock:
            self.spans.append((name, start, end, parent, op_id))
            return len(self.spans) - 1

    @contextmanager
    def span(self, name: str, parent: Optional[int],
             op_id: object) -> Iterator[None]:
        """Time a block as one leaf span."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add(name, start, time.perf_counter(), parent, op_id)

    def reserve(self, name: str, parent: Optional[int], op_id: object) -> int:
        """Open a span whose end is set later by :meth:`close` — for a
        parent whose children are recorded while it is still running."""
        now = time.perf_counter()
        return self.add(name, now, now, parent, op_id)

    def close(self, span_id: int) -> float:
        """End a reserved span now; returns its duration in seconds."""
        end = time.perf_counter()
        with self._lock:
            name, start, _, parent, op_id = self.spans[span_id]
            self.spans[span_id] = (name, start, end, parent, op_id)
        return end - start

    def count(self, name: str, value: float) -> None:
        with self._lock:
            self.counts[name].append(value)

    # -- aggregation -----------------------------------------------------------

    def total(self, name: str) -> float:
        """Summed duration (seconds) of every span called ``name``."""
        return sum(end - start for n, start, end, _, _ in self.spans
                   if n == name)

    def self_times(self) -> Dict[str, float]:
        """Per span name: summed duration minus what children cover."""
        covered: Dict[int, float] = defaultdict(float)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                p_start, p_end = self.spans[parent][1:3]
                covered[parent] += max(
                    0.0, min(end, p_end) - max(start, p_start)
                )
        totals: Dict[str, float] = defaultdict(float)
        for span_id, (name, start, end, _, _) in enumerate(self.spans):
            totals[name] += max(0.0, (end - start) - covered[span_id])
        return dict(totals)

    def coverage(self) -> float:
        """Σ self time of the layer spans ÷ Σ duration of the op spans:
        1.0 when every moment of every operation lies inside some layer's
        span, lower when the trace has a hole."""
        op_total = self.total(OP)
        if op_total <= 0:
            return 0.0
        layers = sum(t for name, t in self.self_times().items() if name != OP)
        return layers / op_total

    def mean_count(self, name: str) -> float:
        return mean(self.counts.get(name, ()))

    def as_record(self) -> dict:
        return {
            "spans": [
                {"id": i, "name": name, "start": start, "end": end,
                 "parent": parent, "op_id": op_id}
                for i, (name, start, end, parent, op_id)
                in enumerate(self.spans)
            ],
            "counts": dict(sorted(self.counts.items())),
        }


class Chain:
    """One analysis as the explicit sequence of public calls.

    ``backend`` must be the backend the session was opened with (the
    partitioner emits that backend's native bucket columns).
    """

    def __init__(self, session, backend) -> None:
        config = session.config
        self.session = session
        self.with_mapping = config.abundance_method == "mapping"
        self.partitioner = KmerBucketPartitioner(
            k=session.database.k,
            n_buckets=config.n_buckets,
            min_count=config.min_count,
            max_count=config.max_count,
            host_dram_bytes=config.host_dram_bytes,
            backend=backend,
        )

    def run(self, batch: Sequence[Sequence], with_abundance: bool,
            recorder: Recorder, op_id: object) -> List[Answer]:
        """Analyse ``batch`` (one sample, or several sharing a Step-2
        stream); one root span, one child per layer call."""
        session = self.session
        rec = recorder
        op = rec.reserve(OP, None, op_id)

        # Step 1 on the host, per sample.
        bucket_sets = []
        for reads in batch:
            with rec.span("host.partition", op, op_id):
                bucket_sets.append(self.partitioner.partition(reads))
            rec.count("host.reads", len(reads))
            rec.count("host.query_kmers", bucket_sets[-1].total_kmers())

        # Step 2: one call for the batch.  Its own PhaseTimings say how
        # the call split into intersect and retrieve.
        timings = PhaseTimings(samples_batched=len(batch))
        start = time.perf_counter()
        sharded = session.multissd
        if len(batch) == 1:
            if sharded is not None:
                step_two = [sharded.run(bucket_sets[0].merged_column(),
                                        timings=timings)]
            else:
                step_two = [session.isp.run_bucket_set(bucket_sets[0],
                                                       timings=timings)]
        else:
            sample_buckets = [
                [(b.lo, b.hi, b.kmers) for b in buckets.buckets]
                for buckets in bucket_sets
            ]
            engine = sharded if sharded is not None else session.isp
            run_multi = (engine.run_multi if sharded is not None
                         else engine.run_bucketed_multi)
            step_two = run_multi(sample_buckets, timings=timings)
        end = time.perf_counter()
        step2 = rec.add("step2", start, end, op, op_id)
        split = start + timings.intersect_ms / 1e3
        rec.add("step2.intersect", start, split, step2, op_id)
        rec.add("step2.retrieve", split, split + timings.retrieve_ms / 1e3,
                step2, op_id)
        rec.count("step2.db_kmers_streamed", timings.db_kmers_streamed)
        rec.count("step2.db_stream_passes", timings.db_stream_passes)

        # Candidate call and Step 3, per sample.
        answers = []
        for reads, (intersecting, retrieved) in zip(batch, step_two):
            rec.count("step2.intersecting_kmers", len(intersecting))
            with rec.span("candidates.call", op, op_id):
                hits = accumulate_hits(retrieved)
                candidates = select_candidates(
                    session.sketch, hits, session.config.min_containment
                )
            rec.count("candidates.count", len(candidates))
            fractions: dict = {}
            if with_abundance and candidates:
                if self.with_mapping:
                    with rec.span("step3.map.index", op, op_id):
                        unified, _ = session.unified_index(candidates)
                    with rec.span("step3.map.vote", op, op_id):
                        profile = ReadMapper(unified).estimate_abundance(reads)
                else:
                    with rec.span("step3.stat.estimate", op, op_id):
                        estimator = StatisticalAbundanceEstimator(
                            session.sketch
                        )
                        profile, _ = estimator.estimate_from_retrieval(
                            retrieved, candidates
                        )
                fractions = profile.fractions
            answers.append(canonical(candidates, fractions))
        rec.close(op)
        return answers
