"""Gateway QoS: multi-client fairness and rate limiting over real TCP.

``repro gateway`` puts an asyncio TCP front door on the streaming
:class:`~repro.megis.service.AnalysisService`.  This experiment drives it
with real localhost connections on the paced backend (modeled flash wall
time over the NumPy kernels) through three load scenarios:

- **fair** — four equal clients submit concurrently; the shared §4.7
  batching serves them with per-client completion parity.
- **flood** — one client dumps its whole backlog at once while three
  paced victims trickle.  Without rate limiting the flooder's backlog
  sits in the shared admission queue ahead of the victims, and the
  victims' latency shows it.
- **flood+limit** — same arrival pattern with a per-client token bucket.
  The flooder burns its burst and collects structured ``rate_limited``
  rejection frames; the victims (under the burst) are untouched and
  their tail latency drops back toward the fair scenario.

All three scenarios run **one warmed session** through repeated
``start -> serve -> drain`` cycles of a single
:class:`~repro.megis.gateway.AnalysisGateway` — the drain/resume
lifecycle is load-bearing, not decorative — and every result frame is
asserted bit-identical to serial ``session.analyze``.
"""

from __future__ import annotations

import asyncio
import time

from repro.experiments._serving import (
    build_world,
    jsonl_client,
    paced_session,
    percentile,
    wire_expectations,
)
from repro.experiments.runner import ExperimentResult
from repro.megis.gateway import AnalysisGateway

N_CLIENTS = 4
SAMPLES_PER_CLIENT = 3
READS_PER_SAMPLE = 20
#: Fast enough to keep the sweep snappy, slow enough that the paced
#: stream (not Python overhead) prices each sample.
MB_PER_S = 2.0
#: Victim pacing: a small gap so the flooder's backlog lands in between.
VICTIM_GAP_S = 0.01
#: flood+limit bucket: victims (SAMPLES_PER_CLIENT requests) fit in the
#: burst; the flooder's backlog does not.
RATE_LIMIT = 1.0
RATE_BURST = float(SAMPLES_PER_CLIENT + 1)


async def _scenario(gateway, client_requests, client_gaps):
    """One serving period: start, run all clients, drain."""
    host, port = await gateway.start()
    start = time.perf_counter()
    per_client = await asyncio.gather(*(
        jsonl_client(host, port, requests, gap_s=gap)
        for requests, gap in zip(client_requests, client_gaps)
    ))
    elapsed = time.perf_counter() - start
    await gateway.drain()
    return elapsed, per_client


def run() -> ExperimentResult:
    result = ExperimentResult(
        experiment="gateway_qos",
        title="Gateway QoS: multi-client fairness and per-client rate limits",
        columns=["scenario", "period", "clients", "rate_limit", "completed",
                 "rate_limited", "victim_p99_ms", "flooder_p99_ms",
                 "samples_per_s"],
        paper_reference="§4.7 (multi-sample ISP) x multi-client deployment",
        notes="one warmed session across every start->drain->start cycle; "
              "every frame asserted bit-identical to serial analyze",
    )
    index, samples = build_world(N_CLIENTS * SAMPLES_PER_CLIENT,
                                 READS_PER_SAMPLE)
    session = paced_session(index, MB_PER_S)

    # Serial reference: what every gateway result frame must reproduce.
    expected, requests = wire_expectations(session, samples)
    by_client = [
        requests[c * SAMPLES_PER_CLIENT:(c + 1) * SAMPLES_PER_CLIENT]
        for c in range(N_CLIENTS)
    ]
    flooder_load = [dict(r, id=f"{r['id']}/flood") for r in requests]
    for request in flooder_load:
        expected[request["id"]] = expected[request["id"].split("/")[0]]

    scenarios = (
        # (name, rate_limit, per-client request lists, per-client gaps)
        ("fair", None, by_client, [VICTIM_GAP_S] * N_CLIENTS),
        ("flood", None,
         [flooder_load] + by_client[1:],
         [0.0] + [VICTIM_GAP_S] * (N_CLIENTS - 1)),
        ("flood+limit", RATE_LIMIT,
         [flooder_load] + by_client[1:],
         [0.0] + [VICTIM_GAP_S] * (N_CLIENTS - 1)),
    )
    gateway = None
    for period, (name, rate_limit, client_requests, client_gaps) in enumerate(
        scenarios
    ):
        gateway = AnalysisGateway(
            session, workers=2, max_batch=N_CLIENTS,
            rate_limit=rate_limit, rate_burst=RATE_BURST,
        ) if gateway is None else gateway
        gateway.rate_limit = rate_limit
        elapsed, per_client = asyncio.run(
            _scenario(gateway, client_requests, client_gaps)
        )
        completed = 0
        rate_limited = 0
        latencies = {}
        for records in per_client:
            for record in records:
                if "error" in record:
                    assert "rate_limited" in record["error"], record
                    rate_limited += 1
                    continue
                if record.get("event"):
                    continue
                got = (record["candidates"], record["profile"])
                assert got == expected[record["id"]], (
                    "gateway must stay bit-identical to serial analyze"
                )
                completed += 1
                latencies.setdefault(
                    record["id"].endswith("/flood"), []
                ).append(record["latency_ms"])
        victim_lat = latencies.get(False, [0.0])
        flooder_lat = latencies.get(True, [0.0])
        result.add_row(
            scenario=name,
            period=period,
            clients=len(client_requests),
            rate_limit=rate_limit if rate_limit is not None else 0.0,
            completed=completed,
            rate_limited=rate_limited,
            victim_p99_ms=percentile(victim_lat, 0.99),
            flooder_p99_ms=percentile(flooder_lat, 0.99),
            samples_per_s=completed / elapsed if elapsed else 0.0,
        )
    assert gateway.stats.drains == len(scenarios), "each period must drain"
    session.close()
    return result
