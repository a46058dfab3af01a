"""K-mer Sketch Streaming (KSS) tables — MegIS's taxID retrieval structure.

KSS (paper §4.3.2, Fig 7c) trades space for streamability: for
``k = k_max`` it keeps the sorted (k-mer, taxIDs) table; for each smaller
``k`` it stores — aligned to the prefix boundaries of the sorted k_max
table — only the taxIDs *not* attributed to the covered larger k-mers, and
no k-mer text at all (prefixes of the k_max stream identify the rows).
TaxID retrieval then needs a single sequential pass over the intersecting
k-mers and the tables, with no pointer chasing.  The paper measures KSS at
7.5x smaller than flat tables and 2.1x larger than the ternary tree.

A :class:`KssTables` *is* its **store** (:class:`KssStore`) — flat columns
per level: the sorted keys (k-mers, or prefixes), one ``int32``
**signature** per row naming the row's full owner set, and for the smaller
levels the *stored* taxID CSR the paper persists.  Each smaller level
also carries one derived column, never persisted:
``kmax_row_signatures``, the level signature of every k_max row's prefix
row (:func:`level_store` builds it, and checks that the level's rows are
exactly the k_max rows' distinct prefixes, whenever a store is built or
opened), so the NumPy backend answers every level from one search of the
k_max keys.  The full sets
themselves live once, in the store's
:class:`~repro.backends.signatures.SignatureTable` — a KSS holds far fewer
distinct owner sets than rows — so a full row *is* ``table[signature[row]]``
and the NumPy backend answers a lookup with the row's id alone, reading
:meth:`KssTables.store` directly.  The **rows** (``entries`` /
``sub_tables``, the per-row Python objects the register-level reference
backend streams) are a view of it.
:class:`~repro.databases.sorted_db.SortedKmerDatabase` has the same
lifecycle, so the two resident tables have one.

The store is built as columns: :func:`build_store` takes the sketch's
selected ``(k-mer, genome)`` pairs and, per smaller level, the selected
``(prefix, genome)`` pairs (:meth:`~repro.databases.sketch.SketchDatabase.
from_pairs` does the selecting) — a level's prefix rows are the k_max
column shifted, its full sets the distinct union of covered-owner pairs
and level pairs, its *stored* CSR the set difference ``full - covered``;
every row's full set is then interned into the table
(:func:`~repro.backends.signatures.intern_rows`).
A :class:`KssTables` is built one way, ``KssTables(store)``: over the
store a column-built sketch carries (``sketch.kss_store``) or over one an
index file holds.  Its rows materialize only if a reference code path
asks — ``row_materializations`` counts those events, so tests can assert
that building, saving and serving an index never boxes a row.
:meth:`slice_range` cuts the store at shard boundaries (prefix-aligned) so
each SSD of a multi-SSD deployment carries only its own KSS range; every
slice shares the one table.  A slice's first or last level row can be an
*orphan* — every k_max-mer under it lies in the neighbouring shard — and
retrieval answers such a row's queries directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from repro.backends.base import bisect_column
from repro.backends.retrieval import RetrievalResult, group_sorted
from repro.backends.signatures import SignatureTable, intern_rows, stack_csr
from repro.sequences.encoding import kmer_prefix
from repro.sequences.keys import kmer_record_bytes, prefix_column, rshift


@dataclass(frozen=True)
class KssSubEntry:
    """One row of a smaller-k table: taxIDs beyond those of covered k_max-mers.

    ``prefix`` is kept for validation and debugging; the on-flash layout
    would omit it (the Index Generator recovers it from the k_max stream),
    and :meth:`KssTables.size_bytes` accordingly does not charge for it.
    """

    prefix: int
    stored: FrozenSet[int]


@dataclass(frozen=True)
class KssLevelStore:
    """One smaller-k level's persisted columns, plus one derived column.

    ``stored_*`` is the CSR of what the KSS physically keeps per row (the
    taxIDs not covered by the row's k_max-mers — the paper's space saving);
    ``signatures`` names each row's full set (``stored UNION
    covered-owners``) in the store's table — what the retrieval kernels
    answer with.  ``full - stored`` per row is exactly the covered-owner
    union, so neither the rows nor the k_max stream need re-walking after
    a load.

    ``kmax_row_signatures`` is not persisted: one id per row of the
    store's k_max ``kmers`` column, the signature of that k-mer's
    prefix row at this level (:func:`level_store` derives it whenever a
    store is built or opened).  It lets retrieval answer every level
    from the one k_max search (§4.3.2: prefixes of the k_max stream
    identify the rows).
    """

    prefixes: np.ndarray
    stored_taxids: np.ndarray
    stored_offsets: np.ndarray
    signatures: np.ndarray
    kmax_row_signatures: np.ndarray


def level_store(
    kmers: np.ndarray,
    shift: int,
    prefixes: np.ndarray,
    stored_taxids: np.ndarray,
    stored_offsets: np.ndarray,
    signatures: np.ndarray,
) -> KssLevelStore:
    """A whole store's level over its sorted k_max ``kmers``, with the
    derived per-k_max-row signature column.

    The level's rows must be exactly the distinct ``shift``-bit prefixes
    of ``kmers`` — what every build emits — else ``ValueError``: a row no
    k_max-mer carries, or a k_max-mer without its row, would make the one
    search answer differently from the per-level merge.
    """
    distinct, starts = group_sorted(rshift(kmers, shift))
    if not np.array_equal(distinct, prefixes):
        raise ValueError(
            "a KSS level's rows must be exactly the distinct prefixes of "
            "the k_max rows"
        )
    return KssLevelStore(
        prefixes=prefixes,
        stored_taxids=stored_taxids,
        stored_offsets=stored_offsets,
        signatures=signatures,
        kmax_row_signatures=np.repeat(np.asarray(signatures), np.diff(starts)),
    )


@dataclass(frozen=True)
class KssStore:
    """The complete columnar KSS: what the index format persists.

    Row ``i`` of the sorted ``kmers`` column owns the set
    ``signatures[i]`` of ``table``; every smaller level carries its
    prefix rows' ids in the same table.
    """

    k_max: int
    smaller_ks: Tuple[int, ...]
    kmers: np.ndarray
    signatures: np.ndarray
    levels: Dict[int, KssLevelStore]
    table: SignatureTable

    def tables(self) -> Dict[int, Dict[int, FrozenSet[int]]]:
        """The sketch's per-level dict tables, boxed from the columns: the
        k_max rows and each level's *full* sets are the same data, so a
        sketch over a store keeps no tables of its own (only row-level
        consumers like the ternary-tree baseline ever ask)."""
        tables: Dict[int, Dict[int, FrozenSet[int]]] = {
            self.k_max: _boxed_rows(self.kmers, self.signatures, self.table)
        }
        for k, level in self.levels.items():
            tables[k] = _boxed_rows(level.prefixes, level.signatures, self.table)
        return tables


def _boxed_rows(
    keys: np.ndarray, signatures: np.ndarray, table: SignatureTable
) -> Dict[int, FrozenSet[int]]:
    sets = table.sets
    return {
        int(key): sets[sig]
        for key, sig in zip(keys.tolist(), signatures.tolist())
    }


def build_store(
    k_max: int,
    smaller_ks: Sequence[int],
    taxids: np.ndarray,
    kmers: np.ndarray,
    genomes: np.ndarray,
    level_pairs: Dict[int, Tuple[np.ndarray, np.ndarray]],
) -> KssStore:
    """The column build: selected pairs in, the whole store out.

    ``(kmers, genomes)`` are the sketch's k_max pairs, sorted by k-mer then
    genome and distinct; ``genomes`` index the ascending ``taxids``.
    ``level_pairs[k]`` are the level-``k`` sketch's ``(prefix, genome)``
    pairs in any order, repeats allowed.  Only prefixes of sketched
    k_max-mers get a row (§4.3.2: the k_max stream identifies the rows),
    and a ``(row, genome)`` pair packs into one ``int64`` key, so each set
    operation is one sort.  Every row's genomes come out ascending, which
    is what :func:`~repro.backends.signatures.intern_rows` takes.
    """
    rows, offsets = group_sorted(kmers)
    n_genomes = max(1, len(taxids))

    def distinct(keys: np.ndarray) -> np.ndarray:
        # Not np.unique: it hashes before it sorts, several times this sort's cost.
        return group_sorted(np.sort(keys))[0]

    def csr(keys: np.ndarray, n_rows: int) -> Tuple[np.ndarray, np.ndarray]:
        row, genome = np.divmod(keys, n_genomes)
        row_offsets = np.zeros(n_rows + 1, dtype=np.int64)
        np.cumsum(np.bincount(row, minlength=n_rows), out=row_offsets[1:])
        return genome, row_offsets

    # Every row's full set as (genomes, offsets): k_max rows, then each level.
    full_rows = [(genomes, offsets)]
    stored: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
    level_prefixes: Dict[int, np.ndarray] = {}
    for k in smaller_ks:
        prefixes, starts = group_sorted(prefix_column(kmers, k_max, k))
        row_of_pair = np.repeat(np.arange(len(prefixes)), np.diff(starts))
        covered = distinct(row_of_pair * n_genomes + genomes)
        pair_prefixes, pair_genomes = level_pairs[k]
        row = np.searchsorted(prefixes, pair_prefixes)
        reachable = row < len(prefixes)
        reachable[reachable] = prefixes[row[reachable]] == pair_prefixes[reachable]
        full = distinct(np.concatenate(
            (covered, row[reachable] * n_genomes + pair_genomes[reachable])
        ))
        kept = np.ones(len(full), dtype=bool)
        kept[np.searchsorted(full, covered)] = False
        stored_genomes, stored_offsets = csr(full[kept], len(prefixes))
        stored[k] = (taxids[stored_genomes], stored_offsets)
        level_prefixes[k] = prefixes
        full_rows.append(csr(full, len(prefixes)))
    table, ids = intern_rows(*stack_csr(full_rows), taxids)
    bounds = np.cumsum([0] + [len(row_offsets) - 1 for _, row_offsets in full_rows])
    levels = {
        k: level_store(
            rows, 2 * (k_max - k), level_prefixes[k], *stored[k],
            ids[bounds[i + 1]:bounds[i + 2]],
        )
        for i, k in enumerate(smaller_ks)
    }
    return KssStore(
        k_max=k_max,
        smaller_ks=tuple(smaller_ks),
        kmers=rows,
        signatures=ids[:bounds[1]],
        levels=levels,
        table=table,
    )


class KssTables:
    """Sorted k_max table plus prefix-aligned reduced tables per smaller k."""

    def __init__(self, store: KssStore) -> None:
        """Wrap a store's columns; rows stay unmaterialized until asked."""
        self.k_max = store.k_max
        self.smaller_ks: Tuple[int, ...] = tuple(store.smaller_ks)
        self._store = store
        self._entries: Optional[List[Tuple[int, FrozenSet[int]]]] = None
        self._sub_tables: Optional[Dict[int, List[KssSubEntry]]] = None
        self._covered_cache: Dict[int, Dict[int, FrozenSet[int]]] = {}
        self._size_bytes: Optional[int] = None
        #: Lazy row materializations from the store (see the module docstring).
        self.row_materializations = 0

    # -- row views (materialized from the store on demand) ---------------------

    @property
    def entries(self) -> List[Tuple[int, FrozenSet[int]]]:
        """The sorted k_max (k-mer, owners) rows, materialized on demand."""
        if self._entries is None:
            store = self._store
            self._entries = list(
                _boxed_rows(store.kmers, store.signatures, store.table).items()
            )
            self.row_materializations += 1
        return self._entries

    @property
    def sub_tables(self) -> Dict[int, List[KssSubEntry]]:
        """Per smaller-k row objects, materialized on demand."""
        if self._sub_tables is None:
            store = self._store
            tables: Dict[int, List[KssSubEntry]] = {}
            for k in self.smaller_ks:
                level = store.levels[k]
                so = level.stored_offsets
                tables[k] = [
                    KssSubEntry(
                        prefix=int(prefix),
                        stored=frozenset(
                            level.stored_taxids[so[i]:so[i + 1]].tolist()
                        ),
                    )
                    for i, prefix in enumerate(level.prefixes.tolist())
                ]
            self._sub_tables = tables
            self.row_materializations += 1
        return self._sub_tables

    # -- the store --------------------------------------------------------------

    def store(self) -> KssStore:
        """The columns themselves: what the NumPy backend looks up in
        (``kmers`` / ``signatures`` and each level's ``prefixes`` /
        ``signatures``), what :meth:`slice_range` cuts and what the index
        format persists."""
        return self._store

    @property
    def signatures(self) -> SignatureTable:
        """The owner-set table every retrieval id refers to (shared by all
        of this KSS's range slices)."""
        return self._store.table

    # -- range sharding (§6.1) -------------------------------------------------

    def slice_range(self, lo: int, hi: int) -> "KssTables":
        """The KSS restricted to queries in ``[lo, hi)`` — one shard's range.

        k_max rows are the plain column slice; each smaller level keeps the
        prefix rows any query in the range can reach (``[lo >> s,
        (hi-1) >> s]`` inclusive — prefix-aligned, so boundary prefixes are
        carried by both adjacent shards).  Full per-row sets — the rows'
        signatures — are preserved exactly, which is what makes sharded
        retrieval bit-identical to the single-SSD pass; the *stored* sets
        of boundary rows are recomputed against the slice's own k_max range
        (owners covered only by another shard's k-mers must be stored
        locally), exactly as a per-shard KSS build would emit them.  All
        unaffected columns — each level's ``kmax_row_signatures`` cut to
        the slice's k_max rows among them — are zero-copy views, and the
        table is shared.
        """
        if hi < lo:
            raise ValueError(f"inverted KSS range [{lo}, {hi})")
        store = self.store()
        i = bisect_column(store.kmers, int(lo))
        j = bisect_column(store.kmers, int(hi), lo=i)
        levels: Dict[int, KssLevelStore] = {}
        for k in self.smaller_ks:
            levels[k] = self._slice_level(store, k, int(lo), int(hi), i, j)
        return KssTables(KssStore(
            k_max=self.k_max,
            smaller_ks=self.smaller_ks,
            kmers=store.kmers[i:j],
            signatures=store.signatures[i:j],
            levels=levels,
            table=store.table,
        ))

    def _slice_level(self, store: KssStore, k: int, lo: int, hi: int,
                     i: int, j: int) -> KssLevelStore:
        level = store.levels[k]
        shift = 2 * (self.k_max - k)
        a = bisect_column(level.prefixes, lo >> shift)
        b = bisect_column(level.prefixes, ((hi - 1) >> shift) + 1, lo=a)
        stored_taxids, stored_offsets = self._slice_stored(
            level, store, shift, a, b, i, j
        )
        return KssLevelStore(
            prefixes=level.prefixes[a:b],
            stored_taxids=stored_taxids,
            stored_offsets=stored_offsets,
            signatures=level.signatures[a:b],
            kmax_row_signatures=level.kmax_row_signatures[i:j],
        )

    def _slice_stored(self, level: KssLevelStore, store: KssStore, shift: int,
                      a: int, b: int, i: int, j: int
                      ) -> Tuple[np.ndarray, np.ndarray]:
        """Stored-CSR slice with the boundary rows re-based to ``[i, j)``.

        Only the first and last prefix row of a slice can have covering
        k_max-mers outside the shard's k-mer range; those rows' stored sets
        are recomputed as ``full - covered-within-shard``.  Interior rows
        (and non-straddling boundaries) stay zero-copy views.
        """
        so = level.stored_offsets
        if a >= b:
            return level.stored_taxids[:0], np.zeros(1, dtype=np.int64)
        first = self._reslice_stored_row(level, store, shift, a, i, j)
        last = (
            self._reslice_stored_row(level, store, shift, b - 1, i, j)
            if b - 1 > a else None
        )
        if first is None and last is None:
            return (
                level.stored_taxids[int(so[a]):int(so[b])],
                so[a:b + 1] - so[a],
            )
        lengths = np.asarray(so[a + 1:b + 1] - so[a:b], dtype=np.int64).copy()
        head = (
            first if first is not None
            else level.stored_taxids[int(so[a]):int(so[a + 1])]
        )
        lengths[0] = len(head)
        parts = [head]
        if b - 1 > a:
            parts.append(level.stored_taxids[int(so[a + 1]):int(so[b - 1])])
            tail = (
                last if last is not None
                else level.stored_taxids[int(so[b - 1]):int(so[b])]
            )
            lengths[-1] = len(tail)
            parts.append(tail)
        offsets = np.zeros(b - a + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        return np.concatenate(parts), offsets

    def _reslice_stored_row(self, level: KssLevelStore, store: KssStore,
                            shift: int, r: int, i: int, j: int
                            ) -> Optional[np.ndarray]:
        """Recomputed stored set for row ``r``, or ``None`` when the view holds.

        ``None`` means every k_max-mer carrying this prefix lies inside the
        shard's k-mer rows ``[i, j)``, so the persisted stored set is
        already correct for the slice.
        """
        prefix = int(level.prefixes[r])
        g0 = bisect_column(store.kmers, prefix << shift)
        g1 = bisect_column(store.kmers, (prefix + 1) << shift, lo=g0)
        if g0 >= i and g1 <= j:
            return None
        table = store.table
        full_row, _ = table.expand(level.signatures[r:r + 1])
        row_lo, row_hi = max(g0, i), min(g1, j)
        if row_hi <= row_lo:
            return full_row
        covered = np.unique(table.expand(store.signatures[row_lo:row_hi])[0])
        return full_row[~np.isin(full_row, covered, assume_unique=True)]

    # -- retrieval -------------------------------------------------------------

    def retrieve(self, sorted_intersecting: Sequence[int]) -> RetrievalResult:
        """Reference single-pass retrieval into signature columns.

        Streams the sorted query k-mers against the sorted k_max table and
        the prefix-aligned sub-tables simultaneously, reconstructing the
        full level sets as ``stored UNION covered-owners`` while the covered
        owners accumulate naturally during the pass, and answers each hit
        with its set's id in the store's table (``0`` for a miss) — the
        :class:`~repro.backends.retrieval.RetrievalResult` layout.  The
        hardware-flavoured implementation lives in
        :mod:`repro.backends.python_backend`.  The python backend's warm-up
        (``AnalysisSession.warm``, ``multissd.warm_shards``) calls it with
        no queries to build the per-level covered-owner caches before
        serving threads share them.
        """
        queries = [int(q) for q in sorted_intersecting]
        if any(queries[i] > queries[i + 1] for i in range(len(queries) - 1)):
            raise ValueError("intersecting k-mers must be sorted")
        ids = self.signatures.ids
        levels: Dict[int, np.ndarray] = {}

        # Level k_max: plain sorted merge.
        entries = self.entries
        found: List[int] = []
        i = 0
        for q in queries:
            while i < len(entries) and entries[i][0] < q:
                i += 1
            hit = i < len(entries) and entries[i][0] == q
            found.append(ids[entries[i][1]] if hit else 0)
        levels[self.k_max] = np.array(found, dtype=np.int32)

        # Smaller levels: one pass per level over (query prefixes, sub rows).
        for k in self.smaller_ks:
            rows = self.sub_tables[k]
            covered = self._covered_by_prefix(k)
            found = []
            row_index = 0
            for q in queries:
                prefix = kmer_prefix(q, self.k_max, k)
                while row_index < len(rows) and rows[row_index].prefix < prefix:
                    row_index += 1
                hit = row_index < len(rows) and rows[row_index].prefix == prefix
                found.append(
                    ids[rows[row_index].stored | covered[prefix]] if hit else 0
                )
            levels[k] = np.array(found, dtype=np.int32)
        return RetrievalResult(
            queries=queries, levels=levels, signatures=self.signatures
        )

    def _covered_by_prefix(self, k: int) -> Dict[int, FrozenSet[int]]:
        """Per-prefix covered-owner unions for level ``k`` (built once, cached).

        The reference retrieval consults this on every call — and the
        sharded path retrieves once per shard.  Derived as ``full -
        stored`` per row, never touching the k_max rows.
        """
        if k not in self._covered_cache:
            level = self._store.levels[k]
            sets = self.signatures.sets
            so = level.stored_offsets.tolist()
            stored = level.stored_taxids.tolist()
            self._covered_cache[k] = {
                prefix: sets[sig] - frozenset(stored[so[r]:so[r + 1]])
                for r, (prefix, sig) in enumerate(
                    zip(level.prefixes.tolist(), level.signatures.tolist())
                )
            }
        return self._covered_cache[k]

    # -- size accounting ---------------------------------------------------------

    def size_bytes(self) -> int:
        """On-flash size: k_max rows carry the k-mer and their taxIDs; sub
        rows carry stored IDs only.  Computed once (the store is immutable)."""
        if self._size_bytes is None:
            store = self._store
            owners = int(store.table.lengths[store.signatures].sum())
            total = kmer_record_bytes(self.k_max) * len(store.kmers) + 4 * owners
            for level in store.levels.values():
                # 1 byte per row marks the boundary/row length; IDs are 4 B.
                total += len(level.prefixes) + 4 * len(level.stored_taxids)
            self._size_bytes = total
        return self._size_bytes

    def __len__(self) -> int:
        return len(self._store.kmers)
