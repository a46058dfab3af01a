"""The per-k-mer reference builds and lookups of the three resident
tables — the sorted database, the sketch and the KSS — over their public
columns.  The column builds in ``repro.databases`` are held to these."""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.backends.base import bisect_column
from repro.backends.signatures import SignatureColumn, SignatureTable, pack_sets_csr
from repro.databases.kraken import _kmer_hash
from repro.databases.kss import KssLevelStore, KssStore, KssSubEntry, KssTables, level_store
from repro.databases.sketch import (
    _HASH_SPACE,
    _SALT_MULTIPLIER,
    SketchDatabase,
    _check_fraction,
    _levels,
)
from repro.databases.sorted_db import SortedKmerDatabase
from repro.sequences.encoding import kmer_prefix
from repro.sequences.generator import ReferenceCollection
from repro.sequences.keys import as_column, column_dtype, extract_kmers, pack_kmer

# -- the sorted k-mer database ------------------------------------------------


def build_rows(
    references: ReferenceCollection, k: int, canonical: bool
) -> Tuple[List[int], List[FrozenSet[int]]]:
    """The reference build, per k-mer in Python: sorted k-mers and their
    owner sets."""
    membership: Dict[int, Set[int]] = {}
    for taxid in references.species_taxids:
        seq = references.sequence(taxid)
        for kmer in extract_kmers(seq, k, canonical=canonical).tolist():
            membership.setdefault(int(kmer), set()).add(taxid)
    kmers = sorted(membership)
    return kmers, [frozenset(membership[x]) for x in kmers]


def database_from_rows(
    k: int, kmers: Sequence[int], owners: Sequence[FrozenSet[int]]
) -> SortedKmerDatabase:
    """A database from rows (hand-built tables, the reference build),
    packed into the columns once."""
    if len(kmers) != len(owners):
        raise ValueError("kmers and owners must have equal length")
    return SortedKmerDatabase.from_columns(
        k, as_column(kmers, column_dtype(k)), pack_sets_csr(owners)
    )


def find_row(db: SortedKmerDatabase, kmer: int) -> Optional[int]:
    """Row of ``kmer`` in the key column, ``None`` when absent."""
    column = db.column()
    i = bisect_column(column, kmer)
    if i < len(column) and int(column[i]) == int(kmer):
        return i
    return None


def contains(db: SortedKmerDatabase, kmer: int) -> bool:
    return find_row(db, kmer) is not None


def owners_of(db: SortedKmerDatabase, kmer: int) -> FrozenSet[int]:
    taxids, offsets = db.owner_columns()
    i = find_row(db, kmer)
    if i is None:
        raise KeyError(f"k-mer {kmer} not in database")
    return frozenset(taxids[int(offsets[i]) : int(offsets[i + 1])].tolist())


def species_containment(db: SortedKmerDatabase, intersecting: Sequence[int]) -> Dict[int, int]:
    """Per-species count of intersecting k-mers (ground-truth helper)."""
    counts: Dict[int, int] = {}
    for kmer in intersecting:
        for taxid in owners_of(db, kmer):
            counts[taxid] = counts.get(taxid, 0) + 1
    return counts


def byte_order_matches_kmer_order(db: SortedKmerDatabase) -> bool:
    """The streaming property: packed records sort like their k-mers."""
    packed = [pack_kmer(x, db.k) for x in db.kmers]
    return packed == sorted(packed)


# -- the sketch ---------------------------------------------------------------


def passes(kmer: int, fraction: float, salt: int) -> bool:
    """Containment-min-hash selection: keep k-mers in the bottom fraction."""
    return _kmer_hash(int(kmer) ^ (salt * _SALT_MULTIPLIER)) < int(
        fraction * _HASH_SPACE
    )


def build_tables(
    references: ReferenceCollection,
    k_max: int,
    smaller_ks: Sequence[int],
    sketch_fraction: float,
    seed: int,
) -> Tuple[int, Tuple[int, ...], Dict[int, Dict[int, FrozenSet[int]]], Dict[int, int]]:
    """The reference build, per k-mer in Python: the :class:`SketchDatabase`
    constructor arguments."""
    _check_fraction(sketch_fraction)
    levels = _levels(k_max, smaller_ks)
    kmax_table: Dict[int, set] = {}
    level_sketches: Dict[int, Dict[int, set]] = {k: {} for k in levels}
    sketch_sizes: Dict[int, int] = {}
    for taxid in references.species_taxids:
        genome_kmers = sorted(set(
            extract_kmers(references.sequence(taxid), k_max, canonical=False).tolist()
        ))
        sketch = [x for x in genome_kmers if passes(x, sketch_fraction, seed)]
        sketch_sizes[taxid] = len(sketch)
        for kmer in sketch:
            kmax_table.setdefault(int(kmer), set()).add(taxid)
        # Independent selection per level over the k-prefixes: a species
        # may sketch a short prefix even when none of its long k-mers
        # carrying that prefix were selected (Fig 7's species 3).
        for k in levels:
            for kmer in genome_kmers:
                prefix = kmer_prefix(int(kmer), k_max, k)
                if passes(prefix, sketch_fraction, seed + k):
                    level_sketches[k].setdefault(prefix, set()).add(taxid)

    # Restrict levels to reachable prefixes and add covered-owner sets.
    tables: Dict[int, Dict[int, FrozenSet[int]]] = {
        k_max: {x: frozenset(s) for x, s in kmax_table.items()}
    }
    for k in levels:
        level: Dict[int, FrozenSet[int]] = {}
        for kmer, owners in kmax_table.items():
            prefix = kmer_prefix(kmer, k_max, k)
            combined = set(level.get(prefix, frozenset()))
            combined.update(owners)
            combined.update(level_sketches[k].get(prefix, set()))
            level[prefix] = frozenset(combined)
        tables[k] = level
    return k_max, levels, tables, sketch_sizes


def sketch_lookup(sketch: SketchDatabase, kmer: int) -> Dict[int, FrozenSet[int]]:
    """TaxIDs per level for a ``k_max``-mer query and its prefixes."""
    result: Dict[int, FrozenSet[int]] = {}
    exact = sketch.tables[sketch.k_max].get(int(kmer))
    if exact:
        result[sketch.k_max] = exact
    for k in sketch.smaller_ks:
        prefix = kmer_prefix(int(kmer), sketch.k_max, k)
        hit = sketch.tables[k].get(prefix)
        if hit:
            result[k] = hit
    return result


def sorted_kmax_entries(sketch: SketchDatabase) -> List[Tuple[int, FrozenSet[int]]]:
    return sorted(sketch.tables[sketch.k_max].items())


# -- the KSS --------------------------------------------------------------------


def signature_table_from_sets(
    sets: Sequence[Iterable[int]],
) -> Tuple[SignatureTable, SignatureColumn]:
    """Intern arbitrary owner sets: the table and each set's id."""
    return SignatureTable.from_csr(*pack_sets_csr(sets))


def build_sub_table(
    k: int, sketch: SketchDatabase, entries: List[Tuple[int, FrozenSet[int]]]
) -> Tuple[List[KssSubEntry], List[FrozenSet[int]]]:
    """Walk the sorted k_max table: per distinct k-prefix, one stored row
    and its full set (``stored UNION covered-owners``)."""
    rows: List[KssSubEntry] = []
    full_sets: List[FrozenSet[int]] = []

    def finish_row(prefix: int, covered: set) -> None:
        stored = frozenset(sketch.tables[k][prefix] - covered)
        rows.append(KssSubEntry(prefix=prefix, stored=stored))
        full_sets.append(stored | covered)

    current_prefix = None
    covered: set = set()
    for kmer, owners in entries:
        prefix = kmer_prefix(kmer, sketch.k_max, k)
        if prefix != current_prefix:
            if current_prefix is not None:
                finish_row(current_prefix, covered)
            current_prefix = prefix
            covered = set()
        covered.update(owners)
    if current_prefix is not None:
        finish_row(current_prefix, covered)
    return rows, full_sets


def kss_store(sketch: SketchDatabase) -> KssStore:
    """The reference KSS build: walk a sketch's dict rows, pack the store
    and intern every row's full set once."""
    entries = sorted_kmax_entries(sketch)
    sub_tables: Dict[int, List[KssSubEntry]] = {}
    full_sets: List[FrozenSet[int]] = [owners for _, owners in entries]
    for k in sketch.smaller_ks:
        rows, level_sets = build_sub_table(k, sketch, entries)
        sub_tables[k] = rows
        full_sets += level_sets
    table, ids = signature_table_from_sets(full_sets)
    kmers = np.array([kmer for kmer, _ in entries], dtype=column_dtype(sketch.k_max))
    levels: Dict[int, KssLevelStore] = {}
    start = len(entries)
    for k, rows in sub_tables.items():
        levels[k] = level_store(
            kmers, 2 * (sketch.k_max - k),
            np.array([row.prefix for row in rows], dtype=column_dtype(k)),
            *pack_sets_csr([row.stored for row in rows]),
            ids[start:start + len(rows)],
        )
        start += len(rows)
    return KssStore(
        k_max=sketch.k_max,
        smaller_ks=sketch.smaller_ks,
        kmers=kmers,
        signatures=ids[:len(entries)],
        levels=levels,
        table=table,
    )


def reference_kss(sketch: SketchDatabase) -> KssTables:
    """The KSS over :func:`kss_store` of ``sketch``'s dict rows."""
    return KssTables(kss_store(sketch))
