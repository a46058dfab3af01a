"""Shared pieces of the serving experiments: world, session, client.

``qos_latency``, ``gateway_qos``, ``cluster_scaling``,
``serving_throughput`` and ``overlap_report`` all serve slices of one
small CAMI-like world and differ only in its constants; the two TCP
experiments drive it with the same JSONL client and check every frame
against the same serial reference.
"""

from __future__ import annotations

import asyncio
import json
import math

from repro.backends.paced import PacedStepTwoBackend
from repro.megis import wire
from repro.megis.index import IndexBuilder
from repro.megis.session import AnalysisSession, MegisConfig
from repro.sequences.reads import Read
from repro.workloads.cami import CamiDiversity, make_cami_sample


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]) of a non-empty sample."""
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
    return ordered[index]


def build_world(n_samples: int, reads_per_sample: int, *,
                genome_length: int = 900, seed: int = 47):
    """A 3-genus x 2-species index and ``n_samples`` equal read slices."""
    world = make_cami_sample(
        CamiDiversity.MEDIUM, n_reads=n_samples * reads_per_sample,
        n_genera=3, species_per_genus=2, genome_length=genome_length,
        seed=seed,
    )
    index = IndexBuilder(k=20, smaller_ks=(12, 8), sketch_fraction=0.3).build(
        world.references
    )
    samples = [
        world.reads[i * reads_per_sample:(i + 1) * reads_per_sample]
        for i in range(n_samples)
    ]
    return index, samples


def paced_session(index, mb_per_s: float, **config) -> AnalysisSession:
    """A statistical-abundance session whose Step 2 pays the modeled
    flash stream as real wall time (the paced NumPy backend)."""
    return AnalysisSession(
        index, MegisConfig(abundance_method="statistical", **config),
        backend=PacedStepTwoBackend("numpy", mb_per_s=mb_per_s),
    )


def wire_expectations(session, samples):
    """Serial reference for a request stream: ``(expected, requests)``.

    ``requests`` are the schema-1 frames for ``samples`` (ids ``s0``,
    ``s1``, ...); ``expected`` maps each id to the ``(candidates,
    profile)`` its result frame must carry — what serial
    ``session.analyze`` computes, in wire form.
    """
    expected = {}
    for i, sample in enumerate(samples):
        reference = session.analyze([
            Read(read_id=j, sequence=read.sequence, true_taxid=0)
            for j, read in enumerate(sample)
        ])
        expected[f"s{i}"] = (
            sorted(int(t) for t in reference.candidates),
            {str(t): f for t, f in sorted(reference.profile.fractions.items())},
        )
    requests = [
        wire.request_record(f"s{i}", [read.sequence for read in sample])
        for i, sample in enumerate(samples)
    ]
    return expected, requests


async def jsonl_client(host, port, requests, gap_s: float = 0.0):
    """Send ``requests`` as JSONL frames (``gap_s`` apart), EOF, and
    return every record the server sent back until it closed."""
    reader, writer = await asyncio.open_connection(host, port)
    records = []

    async def read_records() -> None:
        while True:
            line = await reader.readline()
            if not line:
                return
            records.append(json.loads(line))

    read_task = asyncio.ensure_future(read_records())
    for i, request in enumerate(requests):
        if i and gap_s:
            await asyncio.sleep(gap_s)
        writer.write(wire.encode(request))
        await writer.drain()
    writer.write_eof()
    await read_task
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionError, OSError):
        pass
    return records
