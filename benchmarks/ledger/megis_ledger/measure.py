"""One workload, measured: set-up, oracle, rounds, and the traced pass.

``measure`` returns everything one run produced.  With ``trace`` off the
timed section is whole rounds until ``seconds`` have passed (at least
:data:`MIN_ROUNDS`).  The process is pinned to one CPU.  A round is timed
in *segments* of a few tenths of a second, the calibration kernel is
timed between them, and every segment's CPU time is divided by how much
slower than nominal the kernel ran either side of it (see ``hostspeed``);
the time the hypervisor took the core away is read from the kernel's own
accounts and taken out.  Throughput and CPU cost are sums over the whole
timed section, and the latency percentiles are over each operation's
median across the rounds, so neither a host that drifts for longer than
a run nor one that changes speed every second moves the result.  With
``trace`` on, half the time runs untraced rounds and the same number of
rounds then runs traced; the per-layer metrics come from that pass, from
an in-process replay of the same samples, and from the codec probes, and
are this host's raw times.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.tools.mapping import ReadMapper

from megis_ledger import oracle as oracle_module
from megis_ledger import probes
from megis_ledger.hostspeed import (
    NOMINAL_S,
    HostSpeed,
    nominal_wall,
    one_cpu,
    slowdown,
    stolen_s,
)
from megis_ledger.oracle import Answer
from megis_ledger.tracing import OP, Chain, Recorder, mean
from megis_ledger.workloads import WORKLOADS, Op, Outcome, Program, Workload

#: Set-up is repeated this many times and ``setup_s`` is the median ...
SETUP_REPS = 5
#: ... or fewer, but at least this many, once they have taken this long.
MIN_SETUP_REPS = 3
SETUP_BUDGET_S = 4.0
#: Fewest rounds a timed section runs, however slow the host.
MIN_ROUNDS = 5
#: Passes of the in-process replay a served workload's layer split uses.
REPLAY_PASSES = 2
#: Directory (under the current one) for index files and traces.
WORK_ROOT = ".ledger"


@dataclass
class Segment:
    """A stretch of one round's operations, timed as one and bracketed by
    two readings of the host's speed."""

    round_no: int
    wall_s: float
    cpu_s: float
    #: Seconds of ``wall_s`` the hypervisor gave the core to someone else.
    stolen_s: float
    samples: int
    samples_ok: int
    latencies_ms: List[float]
    outcomes: List[Outcome] = field(repr=False, default_factory=list)
    #: Calibration-kernel seconds just before and just after the segment.
    probes_s: Tuple[float, float] = (NOMINAL_S, NOMINAL_S)

    @property
    def slow(self) -> float:
        return slowdown(*self.probes_s)

    @property
    def nominal_wall_s(self) -> float:
        return nominal_wall(self.wall_s, self.cpu_s, self.slow, self.stolen_s)


@dataclass
class Setup:
    """One repetition of the program's set-up."""

    wall_s: float
    cpu_s: float
    stolen_s: float
    #: Wall seconds of each stage, by per-layer metric name.
    parts: Dict[str, float]
    probes_s: Tuple[float, float] = (NOMINAL_S, NOMINAL_S)

    @property
    def nominal_wall_s(self) -> float:
        return nominal_wall(self.wall_s, self.cpu_s,
                            slowdown(*self.probes_s), self.stolen_s)


def as_read(timed):
    """``timed`` (a segment or a set-up) as this host's clocks read it:
    no calibration, no stolen time taken out."""
    return dataclasses.replace(timed, stolen_s=0.0,
                               probes_s=(NOMINAL_S, NOMINAL_S))


@dataclass
class Measurement:
    """Everything one run of one workload produced."""

    workload: str
    seed: int
    trace: bool
    attempted: int = 0
    failed: int = 0
    first_failure: Optional[str] = None
    rounds: int = 0
    ops_per_round: int = 0
    samples_per_round: int = 0
    #: Operations whose latency entered ``op_ms_p50`` / ``op_ms_p90``.
    op_samples: int = 0
    end_to_end: Dict[str, float] = field(default_factory=dict)
    per_layer: Dict[str, float] = field(default_factory=dict)
    trace_path: Optional[str] = None
    #: The end-to-end metrics as this host's clocks read them, and the
    #: median host-speed factor they were divided by (``host_slowdown``).
    raw: Dict[str, float] = field(default_factory=dict)
    #: Per timed segment and per set-up repetition: wall, CPU and stolen
    #: seconds, the kernel's seconds either side, each op's latency (ms)
    #: — all raw.
    segment_log: List[dict] = field(default_factory=list)
    setup_log: List[dict] = field(default_factory=list)


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def spread(values: List[float]) -> float:
    """Interquartile range as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (q3 - q1) / middle if middle else 0.0


class _Tally:
    """Checks outcomes against the oracle and counts attempts/failures."""

    def __init__(self, workload: Workload, oracle: Dict[str, Answer],
                 result: Measurement) -> None:
        self.workload, self.oracle, self.result = workload, oracle, result

    def check(self, outcome: Outcome) -> bool:
        self.result.attempted += 1
        try:
            answers = self.workload.answers(outcome)
            ok = oracle_module.matches(self.oracle, outcome.op.keys, answers)
            reason = "answer differs from the python-backend reference"
        except Exception as exc:  # raised, error frame, or undecodable
            ok, reason = False, f"{type(exc).__name__}: {exc}"
        if not ok:
            self.result.failed += 1
            if self.result.first_failure is None:
                self.result.first_failure = (
                    f"{'/'.join(outcome.op.keys)}: {reason}"
                )
        return ok


def run_segment(workload: Workload, program: Program, tally: _Tally,
                ops: Sequence[Op], recorder: Optional[Recorder] = None,
                round_no: int = 0, segment_no: int = 0) -> Segment:
    """One segment on the clock; its outcomes checked off the clock."""
    stolen = stolen_s()
    wall, cpu = time.perf_counter(), time.process_time()
    outcomes = workload.run_segment(program, ops, recorder,
                                    f"r{round_no}s{segment_no}")
    wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
    stolen = stolen_s() - stolen
    samples = samples_ok = 0
    for outcome in outcomes:
        samples += len(outcome.op.keys)
        if tally.check(outcome):
            samples_ok += len(outcome.op.keys)
    # Only the traced pass reads the outcomes again (queue waits and
    # latencies off the frames); kept otherwise, every round's results
    # would pile up in ``peak_rss_mb``.
    return Segment(round_no, wall, cpu, stolen, samples, samples_ok,
                   [o.latency_s * 1e3 for o in outcomes],
                   outcomes if recorder is not None else [])


def run_rounds(workload: Workload, program: Program, tally: _Tally,
               host: HostSpeed, keep_going: Callable[[int, float], bool],
               recorder: Optional[Recorder] = None) -> List[Segment]:
    """Whole rounds while ``keep_going(rounds done, seconds elapsed)``,
    the calibration kernel timed before the first segment and after each."""
    segments: List[Segment] = []
    start = time.perf_counter()
    rounds = 0
    probe = host.probe()
    while keep_going(rounds, time.perf_counter() - start):
        for n, ops in enumerate(workload.segments()):
            segment = run_segment(workload, program, tally, ops, recorder,
                                  rounds, n)
            after = host.probe()
            segment.probes_s = (probe, after)
            probe = after
            segments.append(segment)
        rounds += 1
    return segments


def n_rounds(segments: List[Segment]) -> int:
    return segments[-1].round_no + 1


def for_seconds(seconds: float) -> Callable[[int, float], bool]:
    return lambda done, elapsed: done < MIN_ROUNDS or elapsed < seconds


def measure(name: str, seed: int, seconds: float, trace: bool,
            toy: bool = False,
            oracle: Optional[Dict[str, Answer]] = None) -> Measurement:
    """Run workload ``name`` once.  ``oracle`` overrides the reference
    answers (the smoke test passes a corrupted one to see it caught)."""
    workload = WORKLOADS[name](seed, toy)
    with one_cpu():
        return _measure(workload, seconds, trace, oracle)


def _measure(workload: Workload, seconds: float, trace: bool,
             oracle: Optional[Dict[str, Answer]]) -> Measurement:
    name = workload.name
    result = Measurement(workload=name, seed=workload.seed, trace=trace)
    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_ROOT)
    try:
        host = HostSpeed()
        setups: List[Setup] = []
        program = None
        probe = host.probe()
        setting_up = time.perf_counter()
        while len(setups) < MIN_SETUP_REPS or (
            len(setups) < SETUP_REPS
            and time.perf_counter() - setting_up < SETUP_BUDGET_S
        ):
            if program is not None:
                workload.teardown(program)
            stolen = stolen_s()
            wall, cpu = time.perf_counter(), time.process_time()
            program = workload.setup(workdir)
            wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
            after = host.probe()
            setups.append(Setup(wall, cpu, stolen_s() - stolen, program.parts,
                                (probe, after)))
            probe = after
        try:
            if oracle is None:
                oracle = oracle_module.compute_in_child(
                    program.index_path,
                    {k: s.sequences for k, s in workload.distinct.items()},
                    workload.abundance_method, workload.with_abundance,
                )
            tally = _Tally(workload, oracle, result)
            # The cold pass: lazy columns and Step-3 caches fill here.
            for ops in workload.segments():
                run_segment(workload, program, tally, ops)
            if trace:
                _traced(workload, program, tally, host, seconds, setups,
                        result)
            else:
                segments = run_rounds(workload, program, tally, host,
                                      for_seconds(seconds))
                _end_to_end(result, setups, segments)
        finally:
            workload.teardown(program)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if result.first_failure is not None:
        print(f"{name}: first failed op: {result.first_failure}",
              file=sys.stderr)
    return result


def _shape(result: Measurement, setups: List[Setup],
           segments: List[Segment]) -> None:
    result.rounds = n_rounds(segments)
    ops = sum(len(s.latencies_ms) for s in segments)
    result.ops_per_round = ops // result.rounds
    result.samples_per_round = sum(s.samples for s in segments) // result.rounds
    result.op_samples = ops
    result.segment_log = [
        {"round": s.round_no, "wall_s": s.wall_s, "cpu_s": s.cpu_s,
         "stolen_s": s.stolen_s, "probes_s": s.probes_s,
         "latencies_ms": s.latencies_ms}
        for s in segments
    ]
    result.setup_log = [
        {"wall_s": s.wall_s, "cpu_s": s.cpu_s, "stolen_s": s.stolen_s,
         "probes_s": s.probes_s}
        for s in setups
    ]


def op_latencies(segments: List[Segment]) -> List[float]:
    """Each operation's typical latency on the nominal host: the median,
    over the rounds, of the latency of the operation at that place in the
    round — every round runs the same operations in the same order.  A
    latency shrinks as its segment's wall time does."""
    by_place: Dict[int, List[float]] = defaultdict(list)
    place: Dict[int, int] = defaultdict(int)
    for s in segments:
        scale = s.nominal_wall_s / s.wall_s
        for ms in s.latencies_ms:
            by_place[place[s.round_no]].append(ms * scale)
            place[s.round_no] += 1
    return [statistics.median(values) for values in by_place.values()]


def _time_metrics(setups: List[Setup],
                  segments: List[Segment]) -> Dict[str, float]:
    """The time-based end-to-end metrics on the nominal host, over the
    whole timed section: every segment's CPU time divided by the host
    factor read around it, its stolen time taken out, its idle time as it
    was (:func:`~megis_ledger.hostspeed.nominal_wall`).  A segment that
    straddles a change of the host's speed is mis-scaled, up or down
    alike; over the run's segments that cancels in a sum or a median,
    and does not in a best-of."""
    latencies = op_latencies(segments)
    return {
        "setup_s": statistics.median(s.nominal_wall_s for s in setups),
        "samples_per_s": (
            sum(s.samples_ok for s in segments)
            / sum(s.nominal_wall_s for s in segments)
        ),
        "cpu_ms_per_sample": (
            sum(s.cpu_s / s.slow for s in segments) * 1e3
            / sum(s.samples for s in segments)
        ),
        "op_ms_p50": percentile(latencies, 50),
        "op_ms_p90": percentile(latencies, 90),
    }


def _end_to_end(result: Measurement, setups: List[Setup],
                segments: List[Segment]) -> None:
    _shape(result, setups, segments)
    result.end_to_end = _time_metrics(setups, segments)
    # Linux reports ru_maxrss in KiB.
    result.end_to_end["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF
    ).ru_maxrss / 1024.0
    result.raw = _time_metrics([as_read(s) for s in setups],
                               [as_read(s) for s in segments])
    result.raw["host_slowdown"] = statistics.median(s.slow for s in segments)


def round_throughputs(segments: List[Segment]) -> List[float]:
    """Correct samples per nominal second, round by round."""
    done: Dict[int, float] = defaultdict(float)
    wall: Dict[int, float] = defaultdict(float)
    for s in segments:
        done[s.round_no] += s.samples_ok
        wall[s.round_no] += s.nominal_wall_s
    return [done[r] / wall[r] for r in sorted(done)]


# -- the traced pass -----------------------------------------------------------


def _traced(workload: Workload, program: Program, tally: _Tally,
            host: HostSpeed, seconds: float, setups: List[Setup],
            result: Measurement) -> None:
    layers = result.per_layer
    for part in ("index.build_s", "index.save_s", "index.open_mmap_s",
                 "session.warm_s"):
        layers[part] = statistics.median(s.parts[part] for s in setups)
    layers["index.file_mb"] = os.path.getsize(program.index_path) / 1e6

    # Step 1/2/3 are split on an in-process session.  The in-process
    # workloads' own session has just done exactly one cold pass; a
    # served one gets a fresh session and a cold pass of its own, so the
    # cache counters never depend on how server threads interleaved.
    replay = program.session
    chain = program.chain = Chain(program.session, workload.backend())
    if not workload.chain_is_op:
        replay = workload.replay_session(program.index_path)
        chain = Chain(replay, workload.backend())
        _replay(workload, chain, Recorder(), tally.oracle, passes=1)
    for cache in ("unified", "species"):
        stats = replay.cache_stats[cache]
        if stats.lookups:
            layers[f"step3.{cache}_cache_hit_ratio"] = (
                stats.hits / stats.lookups
            )

    untraced = run_rounds(workload, program, tally, host,
                          for_seconds(seconds / 2))
    rounds = n_rounds(untraced)
    if workload.served:
        workload.restart(program)  # a fresh service: stats start at zero
    before = _service_stats(program)
    cluster_before = _cluster_stats(program)
    recorder = Recorder()
    traced = run_rounds(workload, program, tally, host,
                        lambda done, _: done < rounds, recorder)
    _shape(result, setups, traced)
    cluster_after = _cluster_stats(program)
    if workload.served:
        workload.restart(program)  # publishes the traced pass's stats
    _service_layers(layers, program, before, recorder, traced)

    # The same rounds either way, so the two sums are of the same work.
    wall_untraced = sum(s.nominal_wall_s for s in untraced)
    wall_traced = sum(s.nominal_wall_s for s in traced)
    layers["trace.overhead_share"] = (
        (wall_traced - wall_untraced) / wall_untraced
    )
    layers["trace.coverage"] = recorder.coverage()
    layers["round.spread"] = spread(round_throughputs(untraced))
    layers["calib.host_slowdown"] = statistics.median(
        s.slow for s in untraced + traced
    )

    chain_recorder = recorder
    if chain is not program.chain:
        chain_recorder = Recorder()
        _replay(workload, chain, chain_recorder, tally.oracle,
                passes=REPLAY_PASSES)
    _chain_layers(layers, chain_recorder)

    if workload.served:
        layers.update(probes.client_wire(workload.ops, tally.oracle))
        _gateway_layers(layers, program, traced, recorder)
    if program.step_two is not None:
        layers.update(probes.cluster_leg(
            program, chain.partitioner, list(workload.distinct.values())
        ))
        scatters = cluster_after.scatters - cluster_before.scatters
        samples = cluster_after.samples - cluster_before.samples
        layers["cluster.scatters"] = scatters / rounds  # per round
        layers["cluster.samples_per_scatter"] = (
            samples / scatters if scatters else 0.0
        )
        layers["cluster.node_retries"] = (
            cluster_after.node_retries - cluster_before.node_retries
        )
        layers["cluster.node_failures"] = (
            cluster_after.node_failures - cluster_before.node_failures
        )
    if workload.with_abundance and workload.abundance_method == "mapping":
        layers["step3.map.mapped_ratio"] = _mapped_ratio(
            workload, replay, tally.oracle
        )
    if replay is not program.session:
        replay.close()

    result.trace_path = os.path.join(
        WORK_ROOT, f"trace-{workload.name}.json"
    )
    record = {"workload": workload.name, "seed": workload.seed,
              "rounds": result.rounds, "per_layer": layers,
              "traced_pass": recorder.as_record()}
    if chain_recorder is not recorder:
        record["replay"] = chain_recorder.as_record()
    with open(result.trace_path, "w", encoding="utf-8") as handle:
        json.dump(record, handle)


def _replay(workload: Workload, chain: Chain, recorder: Recorder,
            oracle: Dict[str, Answer], passes: int) -> None:
    """Run the distinct samples through the public-call chain, batched as
    the program batches them; the chain must reproduce the oracle."""
    for n in range(passes):
        for i, batch in enumerate(workload.replay_batches()):
            answers = chain.run([s.reads for s in batch],
                                workload.with_abundance, recorder,
                                f"replay{n}-{i}")
            if not oracle_module.matches(oracle, [s.key for s in batch],
                                         answers):
                raise AssertionError(
                    f"{workload.name}: the public-call chain differs from "
                    f"the reference on batch {i}"
                )


def _chain_layers(layers: Dict[str, float], recorder: Recorder) -> None:
    """Mean ms per sample of each Step 1/2/3 layer, and its share.  A
    layer with no span (it never ran on this workload) gets no metric."""
    samples = len(recorder.counts["host.reads"])
    op_total = recorder.total(OP)
    ran = {name for name, *_ in recorder.spans}
    for metric, spans, per in (
        ("host.partition_ms", ["host.partition"], samples / 1e3),
        ("step2.intersect_ms", ["step2.intersect"], samples / 1e3),
        ("step2.retrieve_ms", ["step2.retrieve"], samples / 1e3),
        ("candidates.call_ms", ["candidates.call"], samples / 1e3),
        ("step3.map.index_ms", ["step3.map.index"], samples / 1e3),
        ("step3.map.vote_ms", ["step3.map.vote"], samples / 1e3),
        ("step3.stat.estimate_ms", ["step3.stat.estimate"], samples / 1e3),
        ("host.share", ["host.partition"], op_total),
        ("step2.share", ["step2"], op_total),
        ("step3.map.share", ["step3.map.index", "step3.map.vote"], op_total),
        ("step3.stat.share", ["step3.stat.estimate"], op_total),
    ):
        if ran.intersection(spans):
            layers[metric] = sum(recorder.total(s) for s in spans) / per
    for count in ("host.reads", "host.query_kmers",
                  "step2.db_kmers_streamed", "step2.db_stream_passes",
                  "step2.intersecting_kmers", "candidates.count"):
        layers[count] = recorder.mean_count(count)


def _service_stats(program: Program):
    """A copy of the live ``ServiceStats`` (burst workload), else None —
    a gateway publishes its service's stats only when it drains."""
    if program.service is None:
        return None
    return dataclasses.replace(program.service.stats)


def _cluster_stats(program: Program):
    if program.step_two is None:
        return None
    return dataclasses.replace(program.step_two.stats)


def _service_layers(layers: Dict[str, float], program: Program, before,
                    recorder: Recorder, traced: List[Segment]) -> None:
    """``megis.service``: queue wait, batch shape, sheds."""
    if program.service is not None:
        after = program.service.stats
    elif program.gateway is not None:
        after = program.gateway.last_service_stats
        for segment in traced:
            for outcome in segment.outcomes:
                if outcome.frame is not None and "queue_wait_ms" in outcome.frame:
                    recorder.count("service.queue_wait_ms",
                                   outcome.frame["queue_wait_ms"])
    else:
        return

    def delta(attribute: str) -> float:
        start = getattr(before, attribute) if before is not None else 0
        return getattr(after, attribute) - start

    waits = recorder.counts.get("service.queue_wait_ms", [])
    batches = delta("batches_dispatched")
    layers["service.queue_wait_ms_mean"] = mean(waits)
    layers["service.queue_wait_ms_p90"] = percentile(waits, 90) if waits else 0.0
    layers["service.batches"] = batches / n_rounds(traced)  # per round
    layers["service.batch_size_mean"] = (
        delta("samples_completed") / batches if batches else 0.0
    )
    layers["service.rejected"] = delta("samples_rejected")
    layers["service.expired"] = delta("samples_expired")


def _gateway_layers(layers: Dict[str, float], program: Program,
                    traced: List[Segment], recorder: Recorder) -> None:
    """``megis.gateway``: what the front door adds to the service's own
    latency, per request size class, and its shed counters."""
    overhead: Dict[str, List[float]] = {"small": [], "large": []}
    for segment in traced:
        for outcome in segment.outcomes:
            frame = outcome.frame
            if frame is None or "latency_ms" not in frame:
                continue
            extra = outcome.latency_s * 1e3 - frame["latency_ms"]
            overhead[outcome.op.size_class].append(extra)
            recorder.count(f"gateway.overhead_ms.{outcome.op.size_class}",
                           extra)
    everything = overhead["small"] + overhead["large"]
    layers["gateway.overhead_ms"] = (
        statistics.median(everything) if everything else 0.0
    )
    for size_class, values in overhead.items():
        if values:
            layers[f"gateway.overhead_{size_class}_ms"] = (
                statistics.median(values)
            )
    layers["gateway.rate_limited"] = program.gateway.stats.rate_limited
    layers["gateway.admission_rejected"] = (
        program.gateway.stats.admission_rejected
    )


def _mapped_ratio(workload: Workload, session,
                  oracle: Dict[str, Answer]) -> float:
    """Reads the mapper placed ÷ reads it was given, over the distinct
    samples (``ReadMapper.map_read`` per read, off every clock)."""
    mapped = attempted = 0
    for key, sample in workload.distinct.items():
        candidates = oracle[key][0]
        if not candidates:
            continue
        unified, _ = session.unified_index(candidates)
        mapper = ReadMapper(unified)
        attempted += len(sample.reads)
        mapped += sum(
            mapper.map_read(read.sequence) is not None
            for read in sample.reads
        )
    return mapped / attempted if attempted else 0.0
