"""Cluster serving tier: one logical index served from N nodes.

The single-host reproduction already scales Step 2 across shards (a
per-shard thread pool, service threads, the asyncio gateway); this
package is the final stage of the distributed serving tier — the same
sharded data path stretched over TCP:

- :mod:`~repro.megis.cluster.placement` — a deterministic
  :class:`ClusterMap` assigns contiguous, ascending shard groups to
  nodes as a pure function of ``(nodes, shards)``, so every participant
  computes identical placement with no coordination service;
- :mod:`~repro.megis.cluster.node` — :class:`ClusterNode`, an asyncio
  server over an :class:`~repro.megis.session.AnalysisSession` opened on
  its shard subset only, answering partial Step-2 scatter frames;
- :mod:`~repro.megis.cluster.router` — :class:`ClusterRouter`, the
  client-facing front door (the gateway's machinery, verbatim) whose
  session scatters Step 2 to the nodes, gathers and concatenates the
  partial signature columns, and runs Steps 1/3 locally — bit-identical to
  single-node serving, with heartbeat health tracking and
  retry-once-then-``node_failed`` failure semantics.
"""

from repro.megis.cluster.node import ClusterNode
from repro.megis.cluster.placement import ClusterMap
from repro.megis.cluster.router import (
    ClusterAnalysisSession,
    ClusterRouter,
    ClusterStepTwo,
    NodeEndpoint,
    NodeFailed,
    NodeHealth,
)

__all__ = [
    "ClusterAnalysisSession",
    "ClusterMap",
    "ClusterNode",
    "ClusterRouter",
    "ClusterStepTwo",
    "NodeEndpoint",
    "NodeFailed",
    "NodeHealth",
]
