"""CMash-style sketch database with variable-sized k-mers (paper §4.3.2).

Each sketch is a small representative subset of a species' k-mers, selected
by containment min-hash (k-mers whose hash falls below a threshold).  To
support variable-sized k-mers, CMash arranges the sketches in a ternary
search tree: looking up a ``k_max``-mer also retrieves taxIDs for its
shorter prefixes during the same traversal — at the cost of up to ``k_max``
pointer-chasing operations per lookup, which is what makes the structure
hostile to in-storage processing.

Semantics reproduced here (Fig 7): the structure only represents shorter
k-mers that are prefixes of stored ``k_max``-mers; a level-``k`` lookup of
prefix ``p`` returns the species whose independent level-``k`` sketch
contains ``p``, together with the owners of every stored ``k_max``-mer
under ``p`` (matching a long k-mer implies matching its prefixes).

Building is column arithmetic at every ``k_max``: selection is a mask
over the distinct ``(k-mer, genome)`` pair columns (:func:`_passes_column`),
a level's prefixes are those columns shifted and selected independently,
and the selected pairs go straight into the KSS columns
(:func:`repro.databases.kss.build_store`): a built sketch *is*
``sketch_sizes`` plus a lazy dict view of that store — exactly what
opening an index file gives.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Optional, Sequence, Tuple

import numpy as np

from repro.databases.kraken import _HASH_MULTIPLIER
from repro.databases.kss import KssStore, build_store
from repro.databases.sorted_db import PairColumns, extract_pairs
from repro.sequences.encoding import decode_kmer
from repro.sequences.generator import ReferenceCollection
from repro.sequences.keys import kmer_record_bytes, low_word, prefix_column

_HASH_SPACE = 1 << 64
_SALT_MULTIPLIER = 0x5851F42D4C957F2D


def _passes_column(kmers: np.ndarray, fraction: float, salt: int) -> np.ndarray:
    """Containment-min-hash selection over a whole key column, as a mask:
    keep the k-mers whose salted :func:`~repro.databases.kraken._kmer_hash`
    falls in the bottom ``fraction`` of the hash space.

    ``_kmer_hash`` keeps the low 64 bits of its product, which depend only
    on the low 64 bits of the salted k-mer — so over each key's
    :func:`~repro.sequences.keys.low_word` the arithmetic is wrapping
    ``uint64`` arithmetic, at any k and for any salt.
    """
    bound = int(fraction * _HASH_SPACE)
    if bound >= _HASH_SPACE:  # fraction == 1.0: no uint64 reaches the bound
        return np.ones(len(kmers), dtype=bool)
    value = low_word(kmers) ^ np.uint64((salt * _SALT_MULTIPLIER) % _HASH_SPACE)
    value *= np.uint64(_HASH_MULTIPLIER)
    value ^= value >> np.uint64(29)
    return value < np.uint64(bound)


def _check_fraction(sketch_fraction: float) -> None:
    if not 0 < sketch_fraction <= 1:
        raise ValueError(f"sketch_fraction must be in (0, 1], got {sketch_fraction}")


def _levels(k_max: int, smaller_ks: Sequence[int]) -> Tuple[int, ...]:
    """``smaller_ks`` distinct and descending, refused outside ``(0, k_max)``."""
    ks = tuple(sorted(set(smaller_ks), reverse=True))
    if any(k >= k_max or k <= 0 for k in ks):
        raise ValueError("smaller_ks must lie strictly between 0 and k_max")
    return ks


class SketchDatabase:
    """Per-level tables: packed k-mer -> frozenset of taxIDs.

    ``tables[k_max]`` holds the sketch k-mers themselves; ``tables[k]`` for
    smaller ``k`` holds the reachable prefixes with their *full* taxID sets
    (sketch membership at level ``k`` plus owners of covered k_max-mers).

    A sketch built as columns or loaded from a persisted index carries its
    tables *lazily* (:meth:`from_store`): candidate scoring and the
    statistical estimator only ever touch ``k_max``/``sketch_sizes``, so the
    per-level dicts are boxed from the KSS columns only if a table consumer
    (e.g. the ternary-tree baseline) actually asks for them.
    """

    def __init__(self, k_max: int, smaller_ks: Sequence[int],
                 tables: Dict[int, Dict[int, FrozenSet[int]]],
                 sketch_sizes: Dict[int, int]):
        self.k_max = k_max
        self.smaller_ks: Tuple[int, ...] = _levels(k_max, smaller_ks)
        self._tables: Optional[Dict[int, Dict[int, FrozenSet[int]]]] = tables
        #: The KSS columns this sketch is a view of; ``None`` for dict tables.
        self.kss_store: Optional[KssStore] = None
        self.sketch_sizes = sketch_sizes  # per-species k_max sketch size

    @classmethod
    def from_store(cls, store: KssStore,
                   sketch_sizes: Dict[int, int]) -> "SketchDatabase":
        """A sketch over KSS columns: ``tables`` is :meth:`KssStore.tables`,
        boxed on first access; everything else behaves exactly like a
        sketch of dict tables."""
        sketch = cls(store.k_max, store.smaller_ks, tables={}, sketch_sizes=sketch_sizes)
        sketch._tables = None
        sketch.kss_store = store
        return sketch

    @property
    def tables(self) -> Dict[int, Dict[int, FrozenSet[int]]]:
        if self._tables is None:
            self._tables = self.kss_store.tables()
        return self._tables

    @classmethod
    def build(
        cls,
        references: ReferenceCollection,
        k_max: int = 20,
        smaller_ks: Sequence[int] = (12, 8),
        sketch_fraction: float = 0.25,
        seed: int = 0,
    ) -> "SketchDatabase":
        """Sketch every reference genome at every level."""
        return cls.from_pairs(
            extract_pairs(references, k_max), smaller_ks, sketch_fraction, seed
        )

    @classmethod
    def from_pairs(
        cls,
        pairs: PairColumns,
        smaller_ks: Sequence[int],
        sketch_fraction: float = 0.25,
        seed: int = 0,
    ) -> "SketchDatabase":
        """The column build: select with masks, hand the KSS the pairs.

        Each level selects independently over the k-prefixes (salt ``seed +
        k``): a species may sketch a short prefix even when none of its long
        k-mers carrying that prefix were selected (Fig 7's species 3).
        """
        _check_fraction(sketch_fraction)
        levels = _levels(pairs.k, smaller_ks)
        sketched = _passes_column(pairs.kmers, sketch_fraction, seed)
        level_pairs: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        for k in levels:
            prefixes = prefix_column(pairs.kmers, pairs.k, k)
            chosen = _passes_column(prefixes, sketch_fraction, seed + k)
            level_pairs[k] = (prefixes[chosen], pairs.genomes[chosen])
        genomes = pairs.genomes[sketched]
        store = build_store(
            pairs.k, levels, pairs.taxids, pairs.kmers[sketched], genomes, level_pairs
        )
        # A genome that selects nothing (or is shorter than k) keeps its zero.
        sizes = np.bincount(genomes, minlength=len(pairs.taxids))
        return cls.from_store(store, dict(zip(pairs.taxids.tolist(), sizes.tolist())))

    # -- queries -------------------------------------------------------------

    def size_column(self, taxids: "np.ndarray") -> "np.ndarray":
        """Vectorized ``max(1, sketch_sizes.get(taxid, 1))`` lookup.

        ``taxids`` must be ascending (what ``np.unique`` produces); the
        sorted key/size columns are built once and cached, so batch
        containment scoring never touches the Python dict per taxID.
        The answer for the last column asked for is kept too, and handed
        back (not to be written) when the same array object is asked
        again: candidate scoring asks for its signature table's universe
        on every sample.
        """
        last = getattr(self, "_last_sizes", None)
        if last is not None and last[0] is taxids:
            return last[1]
        cached = getattr(self, "_size_columns", None)
        if cached is None:
            keys = np.asarray(sorted(self.sketch_sizes), dtype=np.int64)
            sizes = np.asarray(
                [max(1, int(self.sketch_sizes[t])) for t in keys.tolist()],
                dtype=np.int64,
            )
            cached = (keys, sizes)
            self._size_columns = cached
        keys, sizes = cached
        out = np.ones(len(taxids), dtype=np.int64)
        if len(keys) and len(taxids):
            idx = np.searchsorted(keys, taxids)
            idx_clipped = np.minimum(idx, len(keys) - 1)
            found = keys[idx_clipped] == np.asarray(taxids, dtype=np.int64)
            out[found] = sizes[idx_clipped[found]]
        self._last_sizes = (taxids, out)
        return out

    # -- size accounting -------------------------------------------------------

    def flat_tables_bytes(self) -> int:
        """Size of the naive per-level tables (Fig 7a): k-mer + taxIDs each."""
        total = 0
        for k, table in self.tables.items():
            for _, owners in table.items():
                total += kmer_record_bytes(k) + 4 * len(owners)
        return total


@dataclass
class _TstNode:
    char: str
    lo: Optional["_TstNode"] = None
    eq: Optional["_TstNode"] = None
    hi: Optional["_TstNode"] = None
    taxids: Dict[int, FrozenSet[int]] = field(default_factory=dict)  # level -> set


class TernarySearchTree:
    """CMash's lookup structure (Fig 7b): pointer-chasing per character."""

    def __init__(self, sketch: SketchDatabase):
        self.sketch = sketch
        self._root: Optional[_TstNode] = None
        self.node_count = 0
        self.pointer_chases = 0  # incremented on every node visit during lookup
        for kmer in sorted(sketch.tables[sketch.k_max]):
            self._insert(decode_kmer(kmer, sketch.k_max))
        self._attach_taxids()

    def _insert(self, word: str) -> None:
        self._root = self._insert_at(self._root, word, 0)

    def _insert_at(self, node: Optional[_TstNode], word: str, i: int) -> _TstNode:
        char = word[i]
        if node is None:
            node = _TstNode(char)
            self.node_count += 1
        if char < node.char:
            node.lo = self._insert_at(node.lo, word, i)
        elif char > node.char:
            node.hi = self._insert_at(node.hi, word, i)
        elif i + 1 < len(word):
            node.eq = self._insert_at(node.eq, word, i + 1)
        return node

    def _node_for_prefix(self, word: str) -> Optional[_TstNode]:
        node = self._root
        i = 0
        while node is not None:
            self.pointer_chases += 1
            char = word[i]
            if char < node.char:
                node = node.lo
            elif char > node.char:
                node = node.hi
            else:
                i += 1
                if i == len(word):
                    return node
                node = node.eq
        return None

    def _attach_taxids(self) -> None:
        levels = [(self.sketch.k_max, self.sketch.tables[self.sketch.k_max])]
        levels += [(k, self.sketch.tables[k]) for k in self.sketch.smaller_ks]
        for k, table in levels:
            for kmer, owners in table.items():
                node = self._node_for_prefix(decode_kmer(kmer, k))
                if node is None:  # cannot happen: prefixes of inserted words
                    raise RuntimeError("sketch prefix missing from tree")
                node.taxids[k] = owners
        self.pointer_chases = 0  # construction traversals don't count

    def lookup(self, kmer: int) -> Dict[int, FrozenSet[int]]:
        """Retrieve taxIDs for the k_max-mer and all its tracked prefixes.

        One root-to-leaf traversal serves every level (§4.3.2), but each
        character step is a pointer chase — the cost MegIS's KSS avoids.
        """
        word = decode_kmer(int(kmer), self.sketch.k_max)
        result: Dict[int, FrozenSet[int]] = {}
        node = self._root
        i = 0
        while node is not None:
            self.pointer_chases += 1
            char = word[i]
            if char < node.char:
                node = node.lo
            elif char > node.char:
                node = node.hi
            else:
                i += 1
                depth = i
                if depth in node.taxids and depth in (
                    self.sketch.k_max, *self.sketch.smaller_ks
                ):
                    result[depth] = node.taxids[depth]
                if i == len(word):
                    break
                node = node.eq
        return result

    def size_bytes(self) -> int:
        """~33 B per node (char + 3 pointers + level-map slot) + taxID payload."""
        payload = sum(
            4 * len(owners)
            for table in self.sketch.tables.values()
            for owners in table.values()
        )
        return 33 * self.node_count + payload
