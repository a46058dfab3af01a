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
   k-mer counts), so sharing the index file plus ``--nodes``/``--shards``
   is enough — there is no membership protocol and no map file.  The
   map's fingerprint pins the router's index build:
   :meth:`~repro.megis.cluster.router.ClusterStepTwo.bind` refuses a
   local index whose signature-table digest differs, and every node reply
   carries its own digest, so a node serving a different build is refused
   before it can return wrong columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple


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

    # -- index binding ---------------------------------------------------------

    @classmethod
    def for_index(cls, index: Any, n_nodes: int,
                  n_shards: Optional[int] = None) -> "ClusterMap":
        """The map for ``index`` served by ``n_nodes`` nodes.

        ``n_shards`` defaults to one shard per node; pass more for finer
        groups.  The fingerprint captures the index contents, so a
        router bound to a mismatched build refuses it.
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


__all__ = ["ClusterMap"]
