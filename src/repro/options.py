"""Shared execution-policy flags for every CLI surface.

``repro analyze``, ``serve``, ``gateway``, ``node`` and ``cluster`` expose
the same three knobs (or the subset that applies) — the Step-2
``--backend``, the ``--executor`` policy (``serial`` / ``threads[:N]``),
and the ``--ssds`` shard count — and used to each
carry their own copy of the registration and validation logic.  This
module is the single source: :func:`add_execution_flags` registers the
flags on an argparse parser and :func:`execution_config_kwargs` turns the
parsed namespace into the matching
:class:`~repro.megis.session.MegisConfig` keyword arguments.

Executor specs are validated *at parse time* (argparse ``type=``), so a
typo like ``--executor thread:4`` fails with a usage error naming the
accepted forms instead of surfacing later as a ``ValueError`` mid-run.
"""

from __future__ import annotations

import argparse
import math
from typing import Dict, Tuple

from repro.backends import DEFAULT_BACKEND, available_backends
from repro.megis.executors import available_executors, parse_spec
from repro.megis.gateway import DEFAULT_BATCH_WINDOW_MS
from repro.megis.wire import MAX_LINE_BYTES


def executor_spec(value: str) -> str:
    """argparse ``type=`` validator for ``--executor`` specs.

    Returns the spec unchanged when :func:`repro.megis.executors.parse_spec`
    accepts it; raises ``ArgumentTypeError`` (a usage error) otherwise.
    """
    try:
        parse_spec(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    return value


def positive_int(value: str) -> int:
    """argparse ``type=`` validator for counts that must be >= 1."""
    try:
        parsed = int(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected an integer, got {value!r}") from exc
    if parsed < 1:
        raise argparse.ArgumentTypeError(f"expected a value >= 1, got {parsed}")
    return parsed


def nonnegative_float(value: str) -> float:
    """argparse ``type=`` validator for durations/rates that must be
    finite and >= 0."""
    try:
        parsed = float(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected a number, got {value!r}") from exc
    if not math.isfinite(parsed):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {value!r}")
    if parsed < 0:
        raise argparse.ArgumentTypeError(f"expected a value >= 0, got {parsed}")
    return parsed


def positive_float(value: str) -> float:
    """argparse ``type=`` validator for rates that must be finite and > 0."""
    parsed = nonnegative_float(value)
    if parsed <= 0:
        raise argparse.ArgumentTypeError(f"expected a value > 0, got {parsed}")
    return parsed


def burst_float(value: str) -> float:
    """argparse ``type=`` validator for token-bucket capacities (finite,
    >= 1)."""
    parsed = nonnegative_float(value)
    if parsed < 1:
        raise argparse.ArgumentTypeError(f"expected a value >= 1, got {parsed}")
    return parsed


def add_execution_flags(
    parser: argparse.ArgumentParser,
    *,
    ssds: bool = True,
    executor: bool = True,
) -> None:
    """Register the shared ``--backend`` / ``--executor`` / ``--ssds`` flags."""
    parser.add_argument(
        "--backend", choices=available_backends(), default=DEFAULT_BACKEND,
        help=f"Step-2 execution backend (default: {DEFAULT_BACKEND!r}; "
             "'python' is the register-level reference, same results)",
    )
    if executor:
        parser.add_argument(
            "--executor", type=executor_spec, default=None, metavar="SPEC",
            help="execution policy: "
                 f"{', '.join(available_executors())}, sized as e.g. "
                 "threads:N (results identical)",
        )
    if ssds:
        parser.add_argument(
            "--ssds", type=positive_int, default=1,
            help="shard the sorted database across N SSDs for Step 2 "
                 "(§6.1; results identical)",
        )


def address(value: str) -> Tuple[str, int]:
    """argparse ``type=`` validator for ``HOST:PORT`` endpoints."""
    host, sep, port = value.rpartition(":")
    if not sep or not host:
        raise argparse.ArgumentTypeError(
            f"expected HOST:PORT, got {value!r}"
        )
    try:
        port_num = int(port)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"expected a numeric port in {value!r}"
        ) from exc
    if not (0 < port_num < 65536):
        raise argparse.ArgumentTypeError(
            f"port must be in [1, 65535], got {port_num}"
        )
    return host, port_num


def replica_spec(value: str) -> Tuple[int, Tuple[str, int]]:
    """argparse ``type=`` validator for ``NODE=HOST:PORT`` replica specs."""
    node, sep, endpoint = value.partition("=")
    if not sep:
        raise argparse.ArgumentTypeError(
            f"expected NODE=HOST:PORT, got {value!r}"
        )
    try:
        node_id = int(node)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"expected an integer node id in {value!r}"
        ) from exc
    if node_id < 0:
        raise argparse.ArgumentTypeError(
            f"node id must be >= 0, got {node_id}"
        )
    return node_id, address(endpoint)


def add_serving_flags(parser: argparse.ArgumentParser, *,
                      execution: bool = True) -> None:
    """Register the flags shared by ``repro serve`` and ``repro gateway``.

    Both are one :class:`~repro.megis.gateway.AnalysisGateway` (index,
    worker pool, §4.7 batching, bounded admission, deadlines, schema-1
    wire format) — over stdin/stdout and over TCP — so their knobs are
    registered once here and stay name- and default-identical.
    """
    parser.add_argument("--index", required=True, metavar="PATH",
                        help="prebuilt index (`repro index build`)")
    parser.add_argument("--workers", type=positive_int, default=1,
                        help="worker threads sharing the session (also the "
                             "default §4.7 batch width)")
    parser.add_argument("--max-batch", type=positive_int, default=None,
                        help="widest multi-sample batch one worker may "
                             "coalesce (default: --workers)")
    parser.add_argument("--max-queue", type=positive_int, default=None,
                        help="bound the admission queue: submission "
                             "blocks while N samples are queued "
                             "(backpressure; default: unbounded)")
    parser.add_argument("--batch-window-ms", type=nonnegative_float,
                        default=DEFAULT_BATCH_WINDOW_MS,
                        help="hold a forming batch up to this long after "
                             "its first sample arrived so trickling "
                             "arrivals coalesce into one §4.7 batch "
                             "(throughput up, tail latency up; default: "
                             f"{DEFAULT_BATCH_WINDOW_MS:g}, 0 dispatches "
                             "at once)")
    parser.add_argument("--deadline-ms", type=nonnegative_float, default=None,
                        help="fail requests still queued after this many "
                             "ms instead of serving them late")
    parser.add_argument("--max-line-bytes", type=positive_int,
                        default=MAX_LINE_BYTES,
                        help="reject request lines longer than this "
                             "(default: 32 MiB)")
    parser.add_argument("--abundance", choices=("mapping", "statistical"),
                        default="mapping")
    if execution:
        add_execution_flags(parser)


def add_gateway_flags(parser: argparse.ArgumentParser) -> None:
    """Register the TCP/QoS flags specific to ``repro gateway``."""
    parser.add_argument("--host", default="127.0.0.1",
                        help="interface to bind (default: 127.0.0.1)")
    parser.add_argument("--port", type=int, default=0,
                        help="TCP port (default: 0 = pick a free port; the "
                             "bound address is printed on stderr)")
    parser.add_argument("--rate-limit", type=positive_float, default=None,
                        metavar="REQ_PER_S",
                        help="per-client token-bucket rate limit; requests "
                             "over it get a structured rate_limited error "
                             "frame (default: unlimited)")
    parser.add_argument("--rate-burst", type=burst_float, default=8.0,
                        help="token-bucket capacity: how many requests a "
                             "client may burst before --rate-limit pacing "
                             "applies (default: 8)")
    parser.add_argument("--max-clients", type=positive_int, default=None,
                        help="refuse connections beyond N concurrent "
                             "clients with a structured error frame "
                             "(default: unlimited)")
    parser.add_argument("--admission-timeout-ms", type=nonnegative_float,
                        default=None,
                        help="how long a submission may wait for --max-queue "
                             "space before an admission_full error frame; 0 "
                             "rejects immediately (default: wait forever)")


def add_cluster_map_flags(parser: argparse.ArgumentParser) -> None:
    """Register the shard-placement flags shared by ``repro node`` and
    ``repro cluster``: every participant computes the same deterministic
    map from ``--nodes``/``--shards``."""
    parser.add_argument("--nodes", type=positive_int, required=True,
                        help="node count the deterministic placement is "
                             "computed for (required)")
    parser.add_argument("--shards", type=positive_int, default=None,
                        help="total shard count behind --nodes (default: "
                             "one shard per node)")


def add_node_flags(parser: argparse.ArgumentParser) -> None:
    """Register the flags for ``repro node`` (one cluster shard server)."""
    parser.add_argument("--index", required=True, metavar="PATH",
                        help="prebuilt index (`repro index build`) — the "
                             "same file every participant opens")
    parser.add_argument("--node-id", type=int, required=True, metavar="N",
                        help="this node's id in [0, nodes); fixes its "
                             "contiguous shard group")
    add_cluster_map_flags(parser)
    parser.add_argument("--host", default="127.0.0.1",
                        help="interface to bind (default: 127.0.0.1)")
    parser.add_argument("--port", type=int, default=0,
                        help="TCP port (default: 0 = pick a free port; the "
                             "bound address is printed on stderr)")
    parser.add_argument("--max-line-bytes", type=positive_int,
                        default=MAX_LINE_BYTES,
                        help="reject scatter frame header lines, and the "
                             "bodies they declare, longer than this "
                             "(default: 32 MiB)")
    add_execution_flags(parser, executor=False, ssds=False)


def add_cluster_flags(parser: argparse.ArgumentParser) -> None:
    """Register the scatter-gather flags specific to ``repro cluster``."""
    parser.add_argument("--node", type=address, action="append",
                        default=None, metavar="HOST:PORT",
                        help="one node endpoint per `repro node`, repeated "
                             "in node-id order (required)")
    parser.add_argument("--replica", type=replica_spec, action="append",
                        default=None, metavar="NODE=HOST:PORT",
                        help="standby serving the same shard group as node "
                             "NODE; tried when the primary fails "
                             "(repeatable)")
    add_cluster_map_flags(parser)
    parser.add_argument("--node-timeout-ms", type=positive_float,
                        default=10000.0,
                        help="per-attempt scatter timeout before the one "
                             "retry (default: 10000)")
    parser.add_argument("--heartbeat-ms", type=positive_float,
                        default=1000.0,
                        help="node health ping interval; 'off' is not an "
                             "option — lower it to detect dead nodes "
                             "sooner (default: 1000)")


def execution_config_kwargs(args: argparse.Namespace) -> Dict[str, object]:
    """The ``MegisConfig`` kwargs carried by the shared execution flags."""
    return {
        "backend": args.backend,
        "executor": getattr(args, "executor", None),
        "n_ssds": getattr(args, "ssds", 1),
    }


def gateway_kwargs(args: argparse.Namespace) -> Dict[str, object]:
    """The ``AnalysisGateway`` kwargs carried by :func:`add_serving_flags`
    and, where the parser has them (``repro serve`` does not),
    :func:`add_gateway_flags`; a flag not registered keeps the
    constructor's default."""
    names = (
        "workers", "max_batch", "max_queue", "batch_window_ms", "deadline_ms",
        "max_line_bytes", "host", "port", "rate_limit", "rate_burst",
        "max_clients", "admission_timeout_ms",
    )
    return {name: getattr(args, name) for name in names if hasattr(args, name)}


__all__ = [
    "add_cluster_flags",
    "add_cluster_map_flags",
    "add_execution_flags",
    "add_gateway_flags",
    "add_node_flags",
    "add_serving_flags",
    "address",
    "burst_float",
    "execution_config_kwargs",
    "executor_spec",
    "gateway_kwargs",
    "nonnegative_float",
    "positive_float",
    "positive_int",
    "replica_spec",
]
