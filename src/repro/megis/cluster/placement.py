"""Deterministic shard placement for the cluster tier.

A cluster serves one logical index from N nodes, each owning a subset of
the index's database shards.  Placement must satisfy two constraints:

1. **Contiguity in ascending order.**  Shards are disjoint lexicographic
   k-mer ranges; per-shard retrieval results concatenate only when the
   parts cover ascending query ranges
   (:meth:`~repro.backends.retrieval.RetrievalResult.concatenate`).
   Giving node *w* the contiguous group
   ``[n_shards * w // n_nodes, n_shards * (w + 1) // n_nodes)``
   means the router can gather node results in node order and
   concatenate directly, with no re-sort.
2. **Agreement without coordination.**  Every node and the router must
   compute identical placement.  The map is a pure function of
   ``(n_nodes, n_shards)``, and shard *boundaries* are a pure function
   of the index contents (:meth:`MegisIndex.shards` splits at equal
   k-mer counts), so sharing the index file plus this map is enough —
   there is no membership protocol.  :meth:`ClusterMap.save` persists
   the map as JSON alongside the index with a content fingerprint;
   :meth:`ClusterMap.verify` rejects a node serving a different index
   build before it can return wrong columns.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.megis.wire import SCHEMA


@dataclass(frozen=True)
class ClusterMap:
    """Deterministic assignment of contiguous shard groups to nodes.

    ``n_shards`` is the total shard count every participant opens the
    index with (their ``MegisConfig.n_ssds``); ``groups[w]`` is node
    *w*'s contiguous ``[start, stop)`` shard range.  ``fingerprint``
    optionally pins the index build the map was computed for.
    """

    n_nodes: int
    n_shards: int
    fingerprint: Optional[Dict[str, object]] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ValueError(f"n_nodes must be >= 1, got {self.n_nodes}")
        if self.n_shards < self.n_nodes:
            raise ValueError(
                f"n_shards ({self.n_shards}) must be >= n_nodes "
                f"({self.n_nodes}): every node needs at least one shard"
            )

    @property
    def groups(self) -> List[Tuple[int, int]]:
        """Every node's ``[start, stop)`` shard group, in node order."""
        return [self.group(node) for node in range(self.n_nodes)]

    def group(self, node: int) -> Tuple[int, int]:
        """Node ``node``'s contiguous shard range ``[start, stop)``."""
        if not (0 <= node < self.n_nodes):
            raise ValueError(
                f"node must be in [0, {self.n_nodes}), got {node}"
            )
        return (
            self.n_shards * node // self.n_nodes,
            self.n_shards * (node + 1) // self.n_nodes,
        )

    def key_ranges(self, index: Any) -> List[Tuple[int, int]]:
        """Every node's k-mer key range ``[lo, hi)`` in node order: the
        span of its shard group under ``index.shards(n_shards)``, the
        boundaries every participant computes from the same index."""
        shards = index.shards(self.n_shards)
        return [(shards[start].lo, shards[stop - 1].hi) for start, stop in self.groups]

    def node_of(self, shard: int) -> int:
        """The node owning shard ``shard``."""
        if not (0 <= shard < self.n_shards):
            raise ValueError(
                f"shard must be in [0, {self.n_shards}), got {shard}"
            )
        for node in range(self.n_nodes):
            start, stop = self.group(node)
            if start <= shard < stop:
                return node
        raise AssertionError("contiguous groups cover every shard")

    # -- index binding ---------------------------------------------------------

    @classmethod
    def for_index(cls, index: Any, n_nodes: int,
                  n_shards: Optional[int] = None) -> "ClusterMap":
        """The map for ``index`` served by ``n_nodes`` nodes.

        ``n_shards`` defaults to one shard per node; pass more for finer
        groups (e.g. to match an index persisted pre-sharded).  The
        fingerprint captures the index contents so :meth:`verify` can
        reject a mismatched build.
        """
        return cls(
            n_nodes=n_nodes,
            n_shards=n_shards if n_shards is not None else n_nodes,
            fingerprint=cls.index_fingerprint(index),
        )

    @staticmethod
    def index_fingerprint(index: Any) -> Dict[str, object]:
        """Cheap content identity: k, database size, KSS row count, and
        the digest of the KSS signature table (recorded in the index
        manifest at build) — two builds of the same sizes with different
        owners differ in it."""
        return {
            "k": int(index.database.k),
            "db_kmers": len(index.database),
            "kss_rows": len(index.kss),
            "signatures": index.kss.signatures.digest,
        }

    def verify(self, index: Any) -> None:
        """Raise ``ValueError`` when ``index`` is not the build this map
        was computed for (no-op on an unpinned map)."""
        if self.fingerprint is None:
            return
        actual = self.index_fingerprint(index)
        if actual != self.fingerprint:
            raise ValueError(
                f"cluster map was computed for a different index build: "
                f"map fingerprint {self.fingerprint}, index {actual}"
            )

    # -- persistence (alongside the index) --------------------------------------

    @staticmethod
    def sibling_path(index_path: Union[str, Path]) -> Path:
        """The conventional on-disk location: ``<index>.cluster.json``."""
        return Path(str(index_path) + ".cluster.json")

    def save(self, path: Union[str, Path]) -> Path:
        """Persist as JSON; every participant loads the same placement."""
        path = Path(path)
        payload = {  # repro: noqa[RPR004] cluster-map file payload (placement.SCHEMA), not a socket frame
            "schema": SCHEMA,
            "kind": "cluster_map",
            "n_nodes": self.n_nodes,
            "n_shards": self.n_shards,
            "groups": [[start, stop] for start, stop in self.groups],
            "fingerprint": self.fingerprint,
        }
        path.write_text(json.dumps(payload, indent=2) + "\n")
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "ClusterMap":
        """Load a persisted map, validating its internal consistency."""
        payload = json.loads(Path(path).read_text())
        if not isinstance(payload, dict) or payload.get("kind") != "cluster_map":
            raise ValueError(f"{path} is not a cluster map")
        if payload.get("schema") != SCHEMA:
            raise ValueError(
                f"{path} has schema {payload.get('schema')!r}; this build "
                f"speaks schema {SCHEMA}"
            )
        cluster_map = cls(
            n_nodes=int(payload["n_nodes"]),
            n_shards=int(payload["n_shards"]),
            fingerprint=payload.get("fingerprint"),
        )
        persisted = [tuple(group) for group in payload.get("groups", [])]
        if persisted and persisted != cluster_map.groups:
            raise ValueError(
                f"{path} carries groups {persisted} but deterministic "
                f"placement for {cluster_map.n_nodes} nodes over "
                f"{cluster_map.n_shards} shards is {cluster_map.groups}"
            )
        return cluster_map


__all__ = ["ClusterMap"]
