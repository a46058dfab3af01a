"""Serving identity checks: streaming emission and bit-identical serving tiers.

Pins what the serving tiers must do whatever the host's speed:

- ``repro serve`` must emit its first result while stdin is still open —
  the incremental-emission contract that lets the daemon sit under an
  infinite stream (enforced with a gated fake stdin that refuses to EOF
  until a result line appears);
- ``AnalysisService(workers=4)`` over the numpy kernels must serve the
  multi-sample workload bit-identically to ``workers=1``, however the
  workers coalesce queued samples into §4.7 batches.  Step 2 runs paced
  (the modeled flash stream as real wall time, ``repro.backends.paced``),
  the stream-bound regime the paper's serving story lives in;
- four service threads, over a serial and over a ``threads:4`` session,
  must serve the mapping stream exactly as the serial one-worker service
  does;
- a ``threads:4`` sharded Step 2 must reproduce the serial multi-SSD
  result exactly while overlapping the shards' paced streams
  (``measured_overlap_saved_ms > 0``).

The gateway's concurrent-client identity and its token-bucket fairness
are ``tests/test_gateway.py``.  Whether the stack got faster or slower
is ``benchmarks/ledger`` (``run.py`` on parent and change, then
``compare.py``), so nothing here times a run or asserts a wall-clock
ratio.
"""

import json
import threading
import time

from repro.backends import PhaseTimings
from repro.backends.paced import PacedStepTwoBackend
from repro.megis import wire
from repro.megis.index import MegisIndex
from repro.megis.multissd import MultiSsdStepTwo
from repro.megis.service import AnalysisService
from repro.megis.session import AnalysisSession, MegisConfig
from tests.columns import as_ints, query_dicts

N_SAMPLES = 12
#: Scaled-down stream bandwidth matched to the benchmark database, so the
#: paced stream dominates the way flash streaming dominates at paper scale.
MB_PER_S = 4.0
#: Bandwidth for the mapping workload: light pacing, so Steps 1 and 3 —
#: CPU work, not stream waits — dominate and the executor substrate is
#: what's exercised.
MAPPING_MB_PER_S = 32.0


def _result_signature(result):
    return (
        result.intersecting_kmers,
        sorted(result.candidates),
        sorted(result.profile.fractions.items()),
    )


def _sample_stream(bench_sample):
    chunk = len(bench_sample.reads) // N_SAMPLES
    return [
        bench_sample.reads[i * chunk:(i + 1) * chunk] for i in range(N_SAMPLES)
    ]


def _paced_session(bench_sorted_db, bench_sketch) -> AnalysisSession:
    index = MegisIndex(bench_sorted_db, bench_sketch)
    backend = PacedStepTwoBackend("numpy", mb_per_s=MB_PER_S)
    return AnalysisSession(
        index, MegisConfig(abundance_method="statistical"), backend=backend
    )


def _serve(session, samples, workers):
    with AnalysisService(session, workers=workers) as service:
        futures = service.submit_batch(samples)
        return [future.result() for future in futures]


def test_service_workers_speedup_floor(bench_sorted_db, bench_sketch,
                                       bench_sample):
    """workers=4 must serve exactly what workers=1 serves.

    The identity half of what was a >=2x samples/sec floor; throughput
    under coalescing is the ledger's ``burst_paced`` row
    (``samples_per_s``, ``service.batch_size_mean``).  Three concurrent
    rounds, because each one coalesces the queue differently.
    """
    samples = _sample_stream(bench_sample)
    expected = _serve(
        _paced_session(bench_sorted_db, bench_sketch), samples, workers=1
    )
    expected_signature = [_result_signature(r) for r in expected]
    assert any(sig[1] for sig in expected_signature), "stream must hit the index"

    for _ in range(3):
        results = _serve(
            _paced_session(bench_sorted_db, bench_sketch), samples, 4
        )
        assert [_result_signature(r) for r in results] == expected_signature


def _mapping_session(bench_sorted_db, bench_sketch, bench_sample,
                     executor=None) -> AnalysisSession:
    """Mapping-Step-3 serving under light pacing: the compute-heavy stream.

    Steps 1 and 3 run as NumPy column kernels here (batch extraction, the
    columnar vote), so what remains under the GIL is the glue between
    them."""
    index = MegisIndex(bench_sorted_db, bench_sketch, bench_sample.references)
    backend = PacedStepTwoBackend("numpy", mb_per_s=MAPPING_MB_PER_S)
    return AnalysisSession(
        index, MegisConfig(abundance_method="mapping", executor=executor),
        backend=backend,
    )


def _serve_closing(session, samples, workers):
    """`_serve`, but also shutting the session's shard pool down."""
    with session:
        return _serve(session, samples, workers)


def test_threads_serve_the_mapping_stream_bit_identically(bench_sorted_db,
                                                          bench_sketch,
                                                          bench_sample):
    """Four service threads, over a serial session and over a
    ``threads:4`` one, must serve the mapping stream exactly as the serial
    one-worker service does.  Their wall clock is not asserted."""
    samples = _sample_stream(bench_sample)
    expected = _serve_closing(
        _mapping_session(bench_sorted_db, bench_sketch, bench_sample),
        samples, workers=1,
    )
    expected_signature = [_result_signature(r) for r in expected]
    assert any(sig[1] for sig in expected_signature), "stream must hit the index"

    for executor in (None, "threads:4"):
        results = _serve_closing(
            _mapping_session(bench_sorted_db, bench_sketch, bench_sample,
                             executor=executor),
            samples, workers=4,
        )
        assert [_result_signature(r) for r in results] == expected_signature


class _GatedStdin:
    """Fake stdin that refuses to EOF until a result line has streamed out.

    If ``repro serve`` buffered results until EOF (the old lifecycle),
    this deadlocks the reader and the wait below times the test out —
    first emission strictly before EOF is the only way through."""

    def __init__(self, lines, first_result_seen):
        self._lines = list(lines)
        self._first_result_seen = first_result_seen
        self.eof_at = None

    def __iter__(self):
        return self

    def __next__(self):
        if self._lines:
            return self._lines.pop(0)
        assert self._first_result_seen.wait(timeout=120), (
            "serve emitted nothing while stdin was still open"
        )
        self.eof_at = time.perf_counter()
        raise StopIteration


class _RecordingStdout:
    """Line-buffering stdout stand-in that timestamps the first record."""

    def __init__(self, first_result_seen):
        self.lines = []
        self.first_at = None
        self._first_result_seen = first_result_seen
        self._buffer = ""

    def write(self, text):
        self._buffer += text
        while "\n" in self._buffer:
            line, self._buffer = self._buffer.split("\n", 1)
            if line.strip():
                if self.first_at is None:
                    self.first_at = time.perf_counter()
                self.lines.append(line)
                self._first_result_seen.set()
        return len(text)

    def flush(self):
        pass


def test_serve_streams_first_result_before_eof(tmp_path, monkeypatch,
                                               bench_sample):
    """`repro serve` on a paced-backend stream emits its first result
    while stdin is still open (the ISSUE's streaming acceptance)."""
    from repro.cli import main
    from repro.sequences.io import references_to_fasta

    fasta = tmp_path / "refs.fasta"
    fasta.write_text(references_to_fasta(bench_sample.references))
    index_path = tmp_path / "world.megis"
    assert main(["index", "build", str(fasta), str(index_path)]) == 0

    chunk = len(bench_sample.reads) // 4
    lines = [
        json.dumps(wire.request_record(f"s{i}", [
            r.sequence for r in bench_sample.reads[i * chunk:(i + 1) * chunk]
        ])) + "\n"
        for i in range(4)
    ]
    first_result_seen = threading.Event()
    stdin = _GatedStdin(lines, first_result_seen)
    stdout = _RecordingStdout(first_result_seen)
    monkeypatch.setenv("REPRO_PACED_MBPS", str(MB_PER_S))
    monkeypatch.setattr("sys.stdin", stdin)
    monkeypatch.setattr("sys.stdout", stdout)
    code = main(["serve", "--index", str(index_path), "--workers", "2",
                 "--backend", "paced", "--abundance", "statistical",
                 "--max-queue", "2"])
    assert code == 0
    records = [json.loads(line) for line in stdout.lines]
    assert {r["id"] for r in records} == {"s0", "s1", "s2", "s3"}
    assert all(r["schema"] == 1 and "candidates" in r for r in records)
    assert stdout.first_at is not None and stdin.eof_at is not None
    assert stdout.first_at < stdin.eof_at, (
        "first result must stream out before stdin EOF"
    )


def test_threaded_sharded_step2_overlaps_streams(bench_sorted_db, bench_kss):
    """``threads:4`` shards: identical results, measured overlap > 0.

    Four shards' paced streams run on four threads; the per-shard busy
    time sums to the serial cost while the dispatch window shrinks —
    ``measured_overlap_saved_ms`` is that gap, the wall-clock realization
    of the §6.1 multi-SSD fan-out.
    """
    query = bench_sorted_db.kmers[::3]
    backend = PacedStepTwoBackend("numpy", mb_per_s=MB_PER_S)
    serial = MultiSsdStepTwo(bench_sorted_db, bench_kss, n_ssds=4,
                             backend=backend)
    threaded = MultiSsdStepTwo(bench_sorted_db, bench_kss, n_ssds=4,
                               backend=backend, executor="threads:4")
    serial_timings = PhaseTimings()
    expected = serial.run(query, timings=serial_timings)
    best_saved = 0.0
    for _ in range(3):
        t = PhaseTimings()
        result = threaded.run(query, timings=t)
        assert as_ints(result[0]) == as_ints(expected[0])
        assert query_dicts(result[1]) == query_dicts(expected[1])
        best_saved = max(best_saved, t.measured_overlap_saved_ms)
    assert serial_timings.measured_overlap_saved_ms < 1e-6
    assert best_saved > 0.0, "threaded shards hid no paced stream time"
