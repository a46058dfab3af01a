"""Command-line interface: ``python -m repro.cli <command>``.

The commands cover the library's main entry points:

- ``simulate`` — generate a synthetic CAMI-like dataset and write the
  references (FASTA), the reads (FASTQ), and the ground-truth profile;
- ``index build`` — build a persistable MegIS index (sorted database, KSS
  CSR columns, sketch sizes, references) from a reference FASTA;
- ``analyze`` — run a pipeline (megis / metalign / kraken2) over a
  FASTA+FASTQ pair, or serve the sample from a prebuilt index
  (``--index PATH``) without rebuilding any database;
- ``gateway`` — open an index once (its file memory-mapped), then
  serve a *stream* of samples to many concurrent TCP connections through
  an :class:`~repro.megis.gateway.AnalysisGateway` over one warmed
  session.  Input is schema-1 JSONL, one sample per line: ``{"schema": 1,
  "id": ..., "reads": ["ACGT...", ...]}``; each result is emitted the
  moment it completes.  Every output line carries ``"schema": 1`` —
  either a result (``{"schema", "id", "n_reads", "candidates", "profile",
  "samples_batched", "queue_wait_ms", "latency_ms"}``) or a structured
  error object (``{"schema", "id", "error", "line"}``).  ``--max-queue``
  bounds admission (reading blocks when full), ``--batch-window-ms``
  holds forming §4.7 batches to coalesce trickling arrivals (1 ms by
  default; 0 dispatches at once),
  ``--deadline-ms`` bounds per-request queue wait; per client there is
  token-bucket rate limiting (``--rate-limit``/``--rate-burst``), a
  connection cap (``--max-clients``) and per-request admission rejection
  (``--admission-timeout-ms``); SIGTERM drains gracefully (finish every
  accepted request, emit a drain summary frame per connection).  Its
  ``--workers`` service threads are the one concurrency knob: each
  sample's Step 2 is a plain loop over the session's one shard;
- ``serve`` — the same gateway with stdin/stdout as its one connection:
  same parsing, admission, deadlines and drain, no socket, no rate-limit
  or client-cap flags; ``--strict-order`` emits results in input order;
- ``node`` / ``cluster`` — the distributed flavour of ``gateway``: each
  ``node`` serves partial Step 2 over its contiguous shard group of a
  shared index (every participant computes the same placement from
  ``--nodes``/``--shards``), and ``cluster`` is the client-facing router
  that runs Steps 1/3 locally, scatters Step 2 to every node, and gathers
  the partial columns — bit-identical to single-node serving, with heartbeat
  health tracking and retry-once node failover;
- ``model`` — query the paper-scale performance model (per-configuration
  seconds and speedups for a chosen SSD and sample).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal
import sys
from pathlib import Path
from typing import Optional

from repro.databases.kraken import KrakenDatabase
from repro.databases.serialization import SerializationError
from repro.megis.gateway import AnalysisGateway
from repro.megis.index import IndexBuilder, MegisIndex
from repro.megis.session import AnalysisSession, MegisConfig
from repro.options import (
    add_cluster_flags,
    add_execution_flags,
    add_gateway_flags,
    add_node_flags,
    add_serving_flags,
    gateway_kwargs,
    positive_float,
    positive_int,
)
from repro.perf.specs import baseline_system
from repro.perf.timing import TimingModel
from repro.sequences.io import (
    format_fastq,
    reads_from_fastq,
    references_from_fasta,
    references_to_fasta,
)
from repro.ssd.config import ssd_c, ssd_p
from repro.taxonomy.tree import Taxonomy
from repro.tools.bracken import BrackenEstimator
from repro.tools.kraken2 import Kraken2Classifier
from repro.workloads.cami import CamiDiversity, make_cami_sample
from repro.workloads.datasets import cami_spec

_DIVERSITIES = {d.value: d for d in CamiDiversity}


class _CliError(Exception):
    """A bad invocation: ``main`` prints the message, exit status 2."""


def _cmd_simulate(args: argparse.Namespace) -> int:
    try:
        sample = make_cami_sample(
            _DIVERSITIES[args.diversity], n_reads=args.reads, seed=args.seed
        )
    except ValueError as exc:
        raise _CliError(str(exc)) from exc
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "references.fasta").write_text(references_to_fasta(sample.references))
    (out / "reads.fastq").write_text(format_fastq(sample.reads))
    (out / "truth.json").write_text(
        json.dumps({str(t): v for t, v in sample.truth.items()}, indent=2)
    )
    print(f"wrote references.fasta, reads.fastq, truth.json to {out}")
    print(f"  {len(sample.references.genomes)} species, {sample.n_reads} reads, "
          f"{len(sample.present_species())} present")
    return 0


def _index_builder(k: int, **kwargs: object) -> IndexBuilder:
    """An ``IndexBuilder``; parameters it refuses are a usage error."""
    try:
        return IndexBuilder(k=k, **kwargs)
    except ValueError as exc:
        raise _CliError(str(exc)) from exc


def _cmd_index_build(args: argparse.Namespace) -> int:
    builder = _index_builder(
        args.k, sketch_fraction=args.sketch_fraction, seed=args.seed
    )
    index = builder.build_from_fasta(Path(args.references).read_text())
    path = index.save(args.output, include_references=not args.no_references)
    print(f"wrote {path} ({path.stat().st_size} bytes)")
    print(f"  k={index.k}  db k-mers={len(index.database)}  "
          f"kss rows={len(index.kss)}  "
          f"references={'yes' if not args.no_references else 'no'}")
    return 0


def _open_index(args: argparse.Namespace) -> MegisIndex:
    """The prebuilt index named by ``--index``."""
    try:
        return MegisIndex.open(args.index)
    except (OSError, SerializationError) as exc:
        raise _CliError(f"cannot open index {args.index}: {exc}") from exc


def _open_session(args: argparse.Namespace,
                  metalign: bool = False) -> AnalysisSession:
    """An AnalysisSession over ``--index``, able to run the Step 3 asked
    for (read mapping needs the index's references)."""
    config = MegisConfig(abundance_method=args.abundance, backend=args.backend)
    session = AnalysisSession(_open_index(args), config)
    if (metalign or args.abundance == "mapping") and session.references is None:
        raise _CliError("index was built with --no-references; mapping-based "
                        "abundance is unavailable (use --abundance statistical)")
    return session


def _cmd_analyze(args: argparse.Namespace) -> int:
    if args.index is not None:
        if args.tool not in {"megis", "metalign"}:
            print(f"--index only serves megis/metalign, not {args.tool}",
                  file=sys.stderr)
            return 2
        # With a prebuilt index the references positional holds the reads.
        reads_path = args.reads if args.reads is not None else args.references
        reads = reads_from_fastq(Path(reads_path).read_text())
        session = _open_session(args, metalign=args.tool == "metalign")
        if args.tool == "megis":
            result = session.analyze(reads)
            if args.timings:
                _print_timings(result.timings)
        else:
            result = session.analyze_metalign(reads)
        profile = result.profile
    else:
        if args.reads is None:
            print("analyze needs REFERENCES and READS (or --index PATH READS)",
                  file=sys.stderr)
            return 2
        references = references_from_fasta(Path(args.references).read_text())
        reads = reads_from_fastq(Path(args.reads).read_text())
        if args.tool in {"megis", "metalign"}:
            index = _index_builder(args.k).build(references)
            if args.tool == "megis":
                config = MegisConfig(abundance_method=args.abundance,
                                     backend=args.backend)
                result = AnalysisSession(index, config).analyze(reads)
                if args.timings:
                    _print_timings(result.timings)
            else:
                result = AnalysisSession(index).analyze_metalign(reads)
            profile = result.profile
        else:  # kraken2
            taxonomy = Taxonomy.from_reference_collection(references)
            kraken_db = KrakenDatabase.build(references, taxonomy, k=args.k + 1)
            classifier = Kraken2Classifier(kraken_db)
            kraken_out = classifier.analyze(reads)
            profile = BrackenEstimator(kraken_db).estimate(kraken_out)
    print(f"tool: {args.tool}   reads: {len(reads)}   species called: {len(profile)}")
    for taxid, fraction in sorted(
        profile.items(), key=lambda item: -item[1]
    ):
        print(f"  taxid {taxid:>6}  {fraction:8.4f}")
    return 0


def _print_timings(timings) -> None:
    print(f"step-2 backend: {timings.backend}")
    for phase in ("extract", "intersect", "retrieve", "candidates", "abundance"):
        print(f"  {phase:10s} {getattr(timings, f'{phase}_ms'):9.2f} ms")
    print(f"  {'total':10s} {timings.total_ms:9.2f} ms")
    print(f"  db k-mers streamed: {timings.db_kmers_streamed}   "
          f"query k-mers: {timings.query_kmers_streamed}   "
          f"buckets: {timings.buckets_processed}")


class _StdinReader:
    """stdin as a connection's read side: one line per ``read``.

    Lines are pulled off-loop and on demand, so ``--max-queue``
    backpressure reaches stdin, from the raw byte stream where there is
    one — undecodable input is then a per-line error, not a crash (tests
    may patch in text, or a bare iterator).
    """

    def __init__(self) -> None:
        self._lines = iter(getattr(sys.stdin, "buffer", sys.stdin))

    async def read(self, n: int) -> bytes:
        line = await asyncio.get_running_loop().run_in_executor(
            None, next, self._lines, b""
        )
        return line.encode("utf-8") if isinstance(line, str) else line


class _StdoutWriter:
    """stdout as a connection's write side: whole lines, flushed off-loop."""

    def __init__(self) -> None:
        self._pending = b""

    def write(self, data: bytes) -> None:
        self._pending += data

    async def drain(self) -> None:
        text, self._pending = self._pending.decode("utf-8"), b""
        await asyncio.get_running_loop().run_in_executor(
            None, self._emit, text
        )

    @staticmethod
    def _emit(text: str) -> None:
        try:
            sys.stdout.write(text)
            sys.stdout.flush()
        except ValueError as exc:  # stdout is already closed
            raise BrokenPipeError(str(exc)) from exc

    def close(self) -> None:
        pass

    async def wait_closed(self) -> None:
        pass


def _cmd_serve(args: argparse.Namespace) -> int:
    """The gateway on stdin/stdout: JSONL samples in, streamed JSONL out.

    One connection, no socket.  Each result is emitted the moment it
    completes (``--strict-order`` restores input order); with
    ``--max-queue`` reading blocks while the admission queue is full, so
    queue memory stays bounded under an infinite stream.  Malformed
    lines and per-line submit failures produce a structured error object
    and do not stop the stream; a consumer that closes stdout stops the
    server cleanly (no further input is read, accepted samples drain,
    exit status 1).
    """
    session = _open_session(args)
    gateway = AnalysisGateway(session, strict_order=args.strict_order,
                              **gateway_kwargs(args))

    async def run() -> bool:
        await gateway.open()
        try:
            return await gateway.handle_connection(_StdinReader(),
                                                   _StdoutWriter())
        finally:
            await gateway.drain()

    delivered = asyncio.run(run())
    stats = gateway.last_service_stats
    summary = (f"served {stats.samples_completed} samples in "
               f"{stats.batches_dispatched} batches "
               f"(widest {stats.widest_batch}) with {args.workers} workers; "
               f"peak queued {stats.peak_queued}, mean queue wait "
               f"{stats.mean_queue_wait_ms:.1f} ms")
    if stats.samples_expired:
        summary += f", {stats.samples_expired} past deadline"
    if not delivered:
        summary += "; output consumer went away, stopped early"
    print(summary, file=sys.stderr)
    return 0 if delivered else 1


def _serve_until_signalled(start, stop_serving, listening: str,
                           stopping: Optional[str] = None) -> None:
    """Await ``start()``, announce the bound address on stderr, serve
    until SIGTERM/SIGINT, then await ``stop_serving()``."""

    async def run() -> None:
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, stop.set)
            except (NotImplementedError, RuntimeError):
                pass  # platforms/loops without signal handler support
        host, port = await start()
        print(listening.format(host=host, port=port), file=sys.stderr,
              flush=True)
        await stop.wait()
        if stopping is not None:
            print(stopping, file=sys.stderr, flush=True)
        await stop_serving()

    asyncio.run(run())


def _cmd_gateway(args: argparse.Namespace) -> int:
    """Multi-client TCP serving.

    Binds an asyncio TCP server (``--host``/``--port``; port 0 picks a
    free port, printed on stderr) over one warmed session and serves
    until SIGTERM/SIGINT, then drains gracefully: admission stops, every
    accepted request finishes, and each open connection receives a drain
    summary frame before close.
    """
    session = _open_session(args)
    gateway = AnalysisGateway(session, **gateway_kwargs(args))
    _serve_until_signalled(gateway.start, gateway.drain,
                           "gateway listening on {host}:{port}",
                           "gateway draining...")
    gw = gateway.stats
    stats = gateway.last_service_stats
    summary = (f"served {gw.requests_completed} requests from "
               f"{gw.clients_connected} clients with {args.workers} workers")
    if stats is not None:
        summary += (f"; {stats.batches_dispatched} batches "
                    f"(widest {stats.widest_batch}), peak queued "
                    f"{stats.peak_queued}, mean queue wait "
                    f"{stats.mean_queue_wait_ms:.1f} ms")
    if gw.rate_limited:
        summary += f"; {gw.rate_limited} rate-limited"
    if gw.admission_rejected:
        summary += f"; {gw.admission_rejected} rejected at admission"
    if gw.requests_failed:
        summary += f"; {gw.requests_failed} failed"
    print(summary, file=sys.stderr)
    return 0


def _cmd_node(args: argparse.Namespace) -> int:
    """One cluster node: partial Step 2 over its shard group, via TCP.

    Opens the shared index on this node's shard subset only (the
    placement map fixes the contiguous group), binds the scatter-frame
    server, and serves until SIGTERM/SIGINT.
    """
    from repro.megis.cluster import ClusterMap, ClusterNode

    index = _open_index(args)
    try:
        cluster_map = ClusterMap.for_index(index, args.nodes, args.shards)
        if not (0 <= args.node_id < cluster_map.n_nodes):
            raise ValueError(
                f"--node-id must be in [0, {cluster_map.n_nodes}), "
                f"got {args.node_id}"
            )
        session = AnalysisSession(
            index,
            MegisConfig(backend=args.backend, n_ssds=cluster_map.n_shards),
            shard_range=cluster_map.group(args.node_id),
        )
        node = ClusterNode(
            session, args.node_id, cluster_map,
            host=args.host, port=args.port,
            max_line_bytes=args.max_line_bytes,
        )
    except ValueError as exc:
        raise _CliError(str(exc)) from exc
    first, last = cluster_map.group(args.node_id)
    _serve_until_signalled(
        node.start, node.stop,
        f"node {args.node_id} serving shards [{first}, {last}) of "
        f"{cluster_map.n_shards} on {{host}}:{{port}}",
    )
    print(f"node {args.node_id} served {node.served} scatter frames",
          file=sys.stderr)
    return 0


def _cmd_cluster(args: argparse.Namespace) -> int:
    """The cluster router: the gateway, with Step 2 scattered to nodes.

    Client-facing behaviour is the gateway's exactly (same wire format,
    rate limiting, admission, drain); Step 2 fans out to every ``--node``
    and the gathered results are bit-identical to single-node serving.
    """
    from repro.megis.cluster import (
        ClusterAnalysisSession,
        ClusterMap,
        ClusterRouter,
        ClusterStepTwo,
        NodeEndpoint,
    )

    local = _open_session(args)
    try:
        cluster_map = ClusterMap.for_index(local.index, args.nodes, args.shards)
        endpoints_given = args.node or []
        if len(endpoints_given) != cluster_map.n_nodes:
            raise ValueError(
                f"placement expects {cluster_map.n_nodes} nodes; pass "
                f"--node HOST:PORT once per node in node-id order "
                f"(got {len(endpoints_given)})"
            )
        replicas = {}
        for node_id, endpoint in args.replica or []:
            if node_id in replicas:
                raise ValueError(f"--replica names node {node_id} twice")
            replicas[node_id] = endpoint
        unknown = sorted(r for r in replicas if r >= cluster_map.n_nodes)
        if unknown:
            raise ValueError(
                f"--replica names nodes {unknown} outside "
                f"[0, {cluster_map.n_nodes})"
            )
        step_two = ClusterStepTwo(
            cluster_map,
            [NodeEndpoint(node_id, endpoint, replica=replicas.get(node_id))
             for node_id, endpoint in enumerate(endpoints_given)],
            k=local.database.k,
            timeout_s=args.node_timeout_ms / 1e3,
        )
        router = ClusterRouter(
            ClusterAnalysisSession(local, step_two),
            heartbeat_ms=args.heartbeat_ms,
            **gateway_kwargs(args),
        )
    except ValueError as exc:
        raise _CliError(str(exc)) from exc
    _serve_until_signalled(
        router.start, router.drain,
        f"cluster router listening on {{host}}:{{port}} "
        f"({cluster_map.n_nodes} nodes, {cluster_map.n_shards} shards)",
        "cluster router draining...",
    )
    gw = router.stats
    cluster = step_two.stats
    summary = (f"served {gw.requests_completed} requests from "
               f"{gw.clients_connected} clients across "
               f"{cluster_map.n_nodes} nodes "
               f"({cluster.scatters} scatters)")
    if cluster.node_retries:
        summary += f"; {cluster.node_retries} node retries"
    if cluster.node_failures:
        summary += f"; {cluster.node_failures} node failures"
    if gw.requests_failed:
        summary += f"; {gw.requests_failed} requests failed"
    print(summary, file=sys.stderr)
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.perf.validation import format_validation_report, validate

    rows = validate()
    print(format_validation_report(rows))
    return 0 if all(row.in_band for row in rows) else 1


def _cmd_model(args: argparse.Namespace) -> int:
    ssd = ssd_p() if args.ssd.upper() == "SSD-P" else ssd_c()
    model = TimingModel(baseline_system(ssd), cami_spec(args.sample))
    rows = {
        "P-Opt": model.popt(),
        "A-Opt": model.aopt(),
        "A-Opt+KSS": model.aopt(use_kss=True),
        "Sieve": model.sieve(),
        "Ext-MS": model.megis("ext-ms"),
        "MS-NOL": model.megis("ms-nol"),
        "MS-CC": model.megis("ms-cc"),
        "MS": model.megis("ms"),
    }
    ms = rows["MS"].total_seconds
    print(f"{args.sample} on {ssd.name} (paper-scale, analytic model):")
    for name, breakdown in rows.items():
        total = breakdown.total_seconds
        print(f"  {name:10s} {total:9.1f} s   MS speedup {total / ms:6.2f}x")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    from repro.devtools import rule_table, run_check
    from repro.reporting import render_json

    if args.list_rules:
        print(rule_table())
        return 0
    findings = run_check(
        root=Path(args.root) if args.root else None,
        paths=[Path(p) for p in args.paths] or None,
        rules=args.rule or None,
    )
    if args.format == "json":
        print(render_json({
            "findings": [finding.as_dict() for finding in findings],
            "count": len(findings),
        }))
    else:
        for finding in findings:
            print(finding.render())
        plural = "" if len(findings) == 1 else "s"
        print(f"{len(findings)} finding{plural}", file=sys.stderr)
    return 1 if findings else 0


#: `repro check --help` epilog — kept in lockstep with the README's
#: "Correctness tooling" section.
_CHECK_EPILOG = (
    "rules:\n"
    "  RPR001 async-blocking   no time.sleep / blocking socket or file I/O /\n"
    "                          Lock.acquire / future.result() / subprocess\n"
    "                          inside 'async def' bodies — route blocking\n"
    "                          work through run_in_executor / to_thread\n"
    "  RPR002 lock-discipline  an attribute assigned under 'with self._lock'\n"
    "                          is never mutated without it ('caller holds\n"
    "                          the lock' docstrings mark delegated holders)\n"
    "  RPR003 determinism      engine code (backends/, megis/) draws no\n"
    "                          ambient randomness or wall-clock time and\n"
    "                          never iterates raw sets — the bit-identity\n"
    "                          rule, enforced statically\n"
    "  RPR004 wire-schema      every frame dict comes from a wire.py\n"
    "                          constructor; every parsed op exists in the\n"
    "                          constructor registry — no ad-hoc frames\n"
    "  RPR005 banned-API       no bare 'except:', no print() in library\n"
    "                          code, no mutable default arguments\n"
    "\n"
    "suppressions:\n"
    "  # repro: noqa[RPR003] <reason>  on the flagged line; the reason\n"
    "  string is mandatory — a reason-less noqa is itself reported\n"
    "  (RPR000).  Scope and per-rule options: [tool.repro.check] in\n"
    "  pyproject.toml.  Exit status: 0 clean, 1 findings.\n"
)

#: Shared --help epilog paragraph: the schema-1 wire format both serving
#: front doors speak (kept identical so the surfaces cannot drift).
_WIRE_EPILOG = (
    "wire format (schema 1):\n"
    "  Each input line is one request: "
    '{"schema": 1, "id": ..., "reads": ["ACGT...", ...]}.\n'
    "  Every output line carries \"schema\": 1 — either a result\n"
    '  ({"schema", "id", "n_reads", "candidates", "profile", '
    '"samples_batched",\n'
    '  "queue_wait_ms", "latency_ms"}) or a structured error object\n'
    '  {"schema": 1, "id": ..., "error": ..., "line": N}.\n'
    "  Malformed input never stops the stream: bad JSON, a missing or "
    "unknown\n"
    "  'schema', a missing or invalid 'reads' list, a non-scalar or "
    "duplicate\n"
    "  id, undecodable UTF-8, and lines over --max-line-bytes each "
    "produce one\n"
    "  error object.\n"
)

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    simulate = sub.add_parser("simulate", help="generate a synthetic dataset")
    simulate.add_argument("output_dir")
    simulate.add_argument("--diversity", choices=sorted(_DIVERSITIES), default="CAMI-M")
    simulate.add_argument("--reads", type=int, default=500)
    simulate.add_argument("--seed", type=int, default=7)
    simulate.set_defaults(func=_cmd_simulate)

    index = sub.add_parser("index", help="build / manage persistable indexes")
    index_sub = index.add_subparsers(dest="index_command", required=True)
    index_build = index_sub.add_parser(
        "build", help="build and save a MegIS index from a reference FASTA"
    )
    index_build.add_argument("references", help="reference FASTA (from `simulate`)")
    index_build.add_argument("output", help="where to write the .megis index")
    index_build.add_argument("--k", type=positive_int, default=20)
    index_build.add_argument("--sketch-fraction", type=positive_float, default=0.25)
    index_build.add_argument("--seed", type=int, default=0)
    index_build.add_argument("--no-references", action="store_true",
                             help="omit the reference sequences (disables "
                                  "mapping-based Step 3 on the served index)")
    index_build.set_defaults(func=_cmd_index_build)

    analyze = sub.add_parser("analyze", help="analyze a FASTA+FASTQ pair")
    analyze.add_argument("references",
                         help="reference FASTA (from `simulate`); with "
                              "--index, the reads FASTQ instead")
    analyze.add_argument("reads", nargs="?", default=None, help="read set FASTQ")
    analyze.add_argument("--tool", choices=("megis", "metalign", "kraken2"),
                         default="megis")
    analyze.add_argument("--index", default=None, metavar="PATH",
                         help="serve from a prebuilt index (`repro index "
                              "build`) instead of rebuilding databases")
    analyze.add_argument("--k", type=positive_int, default=20)
    analyze.add_argument("--abundance", choices=("mapping", "statistical"),
                         default="mapping")
    add_execution_flags(analyze)
    analyze.add_argument("--timings", action="store_true",
                         help="print the per-phase timing breakdown (megis only)")
    analyze.set_defaults(func=_cmd_analyze)

    serve = sub.add_parser(
        "serve", help="serve a stream of samples from a prebuilt index "
                      "(JSONL on stdin -> streamed JSONL on stdout)",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            _WIRE_EPILOG
            + "  Results are emitted the moment they complete (use "
            "--strict-order for\n"
            "  input order).  Blank lines are skipped.  Requests queued "
            "past\n"
            "  --deadline-ms fail with the error shape instead of "
            "occupying a batch\n"
            "  slot.\n"
        ),
    )
    add_serving_flags(serve)
    serve.add_argument("--strict-order", action="store_true",
                       help="emit results in input order instead of "
                            "completion order")
    serve.set_defaults(func=_cmd_serve)

    gateway = sub.add_parser(
        "gateway", help="serve many concurrent TCP clients from a prebuilt "
                        "index (JSONL frames, per-client rate limiting, "
                        "graceful drain)",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            _WIRE_EPILOG
            + "  Each client's results are emitted in completion order on "
            "its own\n"
            "  connection.  Blank lines are skipped.  Requests queued past\n"
            "  --deadline-ms fail with the error shape instead of "
            "occupying a batch\n"
            "  slot.\n"
            "\n"
            "rate limiting and admission:\n"
            "  Every connection gets its own token bucket: --rate-burst "
            "tokens up\n"
            "  front, refilled at --rate-limit per second.  A request "
            "arriving with\n"
            "  an empty bucket is answered with an error frame "
            "('rate_limited:\n"
            "  retry_after_ms=N') and the connection stays up.  The shared "
            "admission\n"
            "  queue (--max-queue) backpressures all clients; "
            "--admission-timeout-ms\n"
            "  bounds how long one submission may wait before an "
            "'admission_full'\n"
            "  error frame.  --max-clients refuses extra connections with "
            "one error\n"
            "  frame instead of a silent close.\n"
            "\n"
            "drain and resume:\n"
            "  On SIGTERM/SIGINT the gateway stops admitting, finishes "
            "every\n"
            "  accepted request, emits one drain summary frame per open "
            "connection\n"
            '  ({"schema": 1, "event": "drain", ...per-client counters}), '
            "then\n"
            "  closes.  The warmed session survives a drain: programmatic "
            "users can\n"
            "  call AnalysisGateway.start() again to resume serving "
            "without\n"
            "  re-reading the index.\n"
            "\n"
            "serve vs gateway:\n"
            "  `serve` is this gateway with stdin/stdout as its one "
            "connection:\n"
            "  same parsing, admission, deadlines and drain; no socket, "
            "no rate\n"
            "  limit or client cap flags, and an optional --strict-order.\n"
        ),
    )
    add_serving_flags(gateway)
    add_gateway_flags(gateway)
    gateway.set_defaults(func=_cmd_gateway)

    node = sub.add_parser(
        "node", help="serve one cluster node's shard group of a shared "
                     "index (partial Step 2 over TCP)",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "placement:\n"
            "  Every participant opens the SAME index file and computes "
            "the SAME\n"
            "  placement from --nodes N [--shards M].  Node w owns the "
            "contiguous\n"
            "  shard group [M*w//N, M*(w+1)//N) — the session opens those "
            "shards\n"
            "  only, so a node holds ~1/N of the index's working set.  "
            "Every reply\n"
            "  carries the digest of the node's signature table, so the "
            "router\n"
            "  refuses a node serving a different build.\n"
            "\n"
            "wire format (schema 1):\n"
            "  The router speaks op-keyed frames; clients never see them.  "
            "A step2\n"
            "  frame is one JSON header line, "
            '{"schema": 1, "op": "step2", "id": ...,\n'
            '  "k": ..., "counts": [...], "bytes": N}, then an N-byte '
            "MEGISIDX container\n"
            "  (the index file's format) holding each sample's sorted "
            "query k-mers as\n"
            "  packed records.  The node answers with a step2_result "
            "frame of the same\n"
            "  shape carrying its partial Step-2 owner-set signature "
            "ids and the digest\n"
            "  of the signature table they name, which the router "
            "checks against its\n"
            '  own index.  {"schema": 1, "op": "ping", "id": ...} gets a '
            "one-line pong\n"
            "  with the node id, shard group, and a served counter.  A "
            "declared N\n"
            "  above --max-line-bytes is refused before any body byte is "
            "read.\n"
            "  Malformed frames (bad JSON, "
            "missing or\n"
            "  unknown 'schema', unknown op, a k other than the index's, "
            "a body that\n"
            "  is not such a container) produce one structured error "
            "object and the\n"
            "  connection stays up.\n"
        ),
    )
    add_node_flags(node)
    node.set_defaults(func=_cmd_node)

    cluster = sub.add_parser(
        "cluster", help="route clients across N `repro node` servers "
                        "(scatter-gather Step 2, node failover)",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            _WIRE_EPILOG
            + "  Clients cannot tell the router from a single-node "
            "`gateway`: same\n"
            "  frames, same per-client rate limiting and admission "
            "(--rate-limit,\n"
            "  --max-queue, --admission-timeout-ms, --max-clients), same "
            "drain\n"
            "  summary on SIGTERM — and results are bit-identical to "
            "single-node\n"
            "  serving.\n"
            "\n"
            "scatter-gather:\n"
            "  Step 1 runs on the router; each sample's sorted query "
            "column is then\n"
            "  scattered to every --node (in node-id order, matching the "
            "placement\n"
            "  map), which intersects it against its contiguous shard "
            "group only.\n"
            "  The partial signature columns gather in node order — ascending "
            "disjoint\n"
            "  shard ranges concatenate exactly — and Step 3 finishes "
            "locally.\n"
            "\n"
            "failure semantics:\n"
            "  A dead or timed-out node fails one scatter attempt; the "
            "router\n"
            "  retries exactly once — same address (a respawned node "
            "answers\n"
            "  there) or the node's --replica — and only if the retry "
            "also fails\n"
            "  does the request fail, with a structured error frame\n"
            "  ('node_failed: node=N after 2 attempts: ...').  Accepted "
            "requests\n"
            "  are never silently dropped.  A --heartbeat-ms ping marks "
            "dead nodes\n"
            "  so their replica is tried first, and marks respawned "
            "nodes live\n"
            "  again.\n"
        ),
    )
    add_serving_flags(cluster)
    add_gateway_flags(cluster)
    add_cluster_flags(cluster)
    cluster.set_defaults(func=_cmd_cluster)

    model = sub.add_parser("model", help="paper-scale performance model")
    model.add_argument("--ssd", choices=("SSD-C", "SSD-P"), default="SSD-C")
    model.add_argument("--sample", choices=("CAMI-L", "CAMI-M", "CAMI-H"),
                       default="CAMI-M")
    model.set_defaults(func=_cmd_model)

    validate = sub.add_parser(
        "validate", help="check every paper headline target against the model"
    )
    validate.set_defaults(func=_cmd_validate)

    check = sub.add_parser(
        "check",
        help="static-analysis pass over the repo's concurrency, determinism, "
             "and wire-protocol invariants",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=_CHECK_EPILOG,
    )
    check.add_argument("paths", nargs="*", default=[], metavar="PATH",
                       help="files/directories to check (default: the "
                            "[tool.repro.check] paths in pyproject.toml)")
    check.add_argument("--rule", action="append", default=None,
                       metavar="RPRnnn",
                       help="run only this rule (repeatable; default: all)")
    check.add_argument("--format", choices=("text", "json"), default="text",
                       help="findings as 'path:line: RULE message' lines or "
                            "one JSON document (default: text)")
    check.add_argument("--root", default=None, metavar="DIR",
                       help="project root holding pyproject.toml (default: "
                            "discovered from the current directory)")
    check.add_argument("--list-rules", action="store_true",
                       help="print the rule table and exit")
    check.set_defaults(func=_cmd_check)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _CliError as exc:
        print(exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
