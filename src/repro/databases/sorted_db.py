"""Lexicographically sorted k-mer database (S-Qry: Metalign and MegIS).

The database is the union of all reference genomes' k-mers, kept sorted so
that queries reduce to a streaming merge (§2.1.1, §4.3.1).  Large k-mers
(the tools use k = 60) keep the false-positive rate low.  A built database
also records, per k-mer, which species contain it — needed for building
sketches and for tests; the intersection step only uses the k-mers, so
that is all an index file stores of it.

A :class:`SortedKmerDatabase` *is* its columns, as a
:class:`~repro.databases.kss.KssTables` is its store: its state is ``(k,
key column, owner CSR or none)`` — the sorted key column (``uint64``;
``object`` dtype past 64 bits) and, for a built table and its slices,
the owner CSR ``(taxids, offsets)``, which lives in memory only.  A table
attached from a key column alone (an opened index) is *ownerless*:
:meth:`owner_columns` and :meth:`owners_of` raise, and so do its slices'.
``len``, ``in``, :meth:`owners_of` and :meth:`slice` bisect the column;
the Python int list the register-level reference paths
walk (:attr:`kmers`, :meth:`stream`, :meth:`stream_range`,
:meth:`intersect`) is a view materialized on demand and counted in
``row_materializations`` — so tests can assert that a served database is
never boxed between queries.

The offline build (§4.2) has two arms, chosen by ``k`` alone.  For ``k <=
31`` (:data:`COLUMN_BUILD_MAX_K`, what
:func:`~repro.sequences.kmers.extract_kmers_batch` packs into ``uint64``)
it is column arithmetic: :func:`extract_pairs` runs one extraction over
all genomes and one sort, giving the distinct sorted ``(k-mer, genome)``
:class:`PairColumns`; the key column is the pairs' distinct k-mers and the
owner CSR is the pair taxids themselves (:meth:`SortedKmerDatabase.
from_pairs` — no row is ever packed).  The sketch and the KSS are built
from the same pairs (:meth:`~repro.databases.sketch.SketchDatabase.
from_pairs`), so :class:`~repro.megis.index.IndexBuilder` extracts once.
Wider k-mers (``object`` columns, the paper's k = 60) build per k-mer in
Python — the reference the tests hold the column arm to, byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np
from numpy.typing import NDArray

from repro.backends.base import bisect_column
from repro.backends.numpy_backend import as_column, column_dtype
from repro.backends.retrieval import column_to_list, group_sorted, pack_sets_csr
from repro.sequences.generator import ReferenceCollection
from repro.sequences.kmers import extract_kmers, extract_kmers_batch

#: Owner CSR ``(taxids, offsets)``; row ``i`` owns
#: ``taxids[offsets[i]:offsets[i+1]]``.
OwnerColumns = Tuple[NDArray[Any], NDArray[Any]]

#: Widest ``k`` the column build handles — what ``extract_kmers_batch``
#: packs into ``uint64``.  (``k = 32`` has a ``uint64`` column but an
#: ``object`` extractor, so it builds by rows with everything wider.)
COLUMN_BUILD_MAX_K = 31


@dataclass(frozen=True)
class PairColumns:
    """Every distinct ``(k-mer, genome)`` pair of a reference collection,
    sorted by k-mer then genome — the one intermediate of the column build.

    ``genomes[i]`` indexes ``taxids`` (the collection's ascending species
    taxids), so it orders like the taxid it stands for while staying dense
    enough to pack beside a row number into one sort key.
    """

    k: int
    kmers: NDArray[np.uint64]
    genomes: NDArray[np.int64]
    taxids: NDArray[np.int64]


def extract_pairs(references: ReferenceCollection, k: int) -> PairColumns:
    """One extraction over all genomes, one sort (``k <= COLUMN_BUILD_MAX_K``)."""
    taxids = references.species_taxids
    kmers, genomes = extract_kmers_batch([references.sequence(t) for t in taxids], k)
    # Genome ids ascend along the extraction, so a stable sort on the k-mers
    # alone leaves each k-mer's genomes ascending: the (k-mer, genome) lexsort.
    order = np.argsort(kmers, kind="stable")
    kmers, genomes = kmers[order], genomes[order]
    distinct = np.ones(len(kmers), dtype=bool)
    distinct[1:] = (kmers[1:] != kmers[:-1]) | (genomes[1:] != genomes[:-1])
    return PairColumns(
        k, kmers[distinct], genomes[distinct], np.asarray(taxids, dtype=np.int64)
    )


def _increasing(column: NDArray[Any]) -> NDArray[Any]:
    """``column``, refused unless strictly increasing (vectorized on either
    dtype): a corrupt payload must fail at load, not misresolve bisects."""
    if np.any(np.asarray(column[1:] <= column[:-1], dtype=bool)):
        raise ValueError("kmers must be strictly increasing")
    return column


def _build_rows(
    references: ReferenceCollection, k: int, canonical: bool
) -> Tuple[List[int], List[FrozenSet[int]]]:
    """The reference build, per k-mer in Python: sorted k-mers and their
    owner sets.  What ``k > COLUMN_BUILD_MAX_K`` runs."""
    membership: Dict[int, Set[int]] = {}
    for taxid in references.species_taxids:
        seq = references.sequence(taxid)
        for kmer in extract_kmers(seq, k, canonical=canonical).tolist():
            membership.setdefault(int(kmer), set()).add(taxid)
    kmers = sorted(membership)
    return kmers, [frozenset(membership[x]) for x in kmers]


class SortedKmerDatabase:
    """Sorted distinct k-mers with per-k-mer species sets."""

    def __init__(
        self, k: int, kmers: Sequence[int], owners: Sequence[FrozenSet[int]]
    ) -> None:
        """From rows (hand-built tables, the reference build): pack them
        into the columns, once."""
        if len(kmers) != len(owners):
            raise ValueError("kmers and owners must have equal length")
        column = _increasing(as_column(kmers, column_dtype(k)))
        self._attach(k, column, pack_sets_csr(owners))

    def _attach(
        self, k: int, column: NDArray[Any], owner_columns: Optional[OwnerColumns]
    ) -> None:
        self.k = k
        self._column = column
        #: ``None`` for an ownerless table (attached from a key column alone).
        self._owner_columns = owner_columns
        self._row_kmers: Optional[List[int]] = None
        #: Times the Python int list was built (see the module docstring).
        self.row_materializations = 0

    @classmethod
    def build(
        cls, references: ReferenceCollection, k: int = 60, canonical: bool = False
    ) -> "SortedKmerDatabase":
        """Index all reference genomes.

        Non-canonical (forward-strand) k-mers are the default because the
        sketch machinery relies on prefix structure, which canonicalization
        would destroy; Metalign/CMash handle strands by sketching both.
        (The batch extractor packs forward k-mers only, so a canonical
        database builds by rows at any ``k``.)
        """
        if canonical or k > COLUMN_BUILD_MAX_K:
            return cls(k, *_build_rows(references, k, canonical))
        return cls.from_pairs(extract_pairs(references, k))

    @classmethod
    def from_pairs(cls, pairs: PairColumns) -> "SortedKmerDatabase":
        """The column build: the pairs' distinct k-mers are the key column
        and their taxids, already grouped by k-mer, the owner CSR."""
        column, offsets = group_sorted(pairs.kmers)
        return cls.from_columns(pairs.k, column, (pairs.taxids[pairs.genomes], offsets))

    @classmethod
    def from_columns(
        cls, k: int, column: NDArray[Any], owners: Optional[OwnerColumns] = None
    ) -> "SortedKmerDatabase":
        """Attach columns verbatim (nothing copied or boxed).

        ``column`` is the sorted key column in the dtype
        :func:`~repro.backends.numpy_backend.column_dtype` gives ``k``;
        ``owners`` is the CSR of the table the column came from.  Without
        it the table is ownerless — what an index file holds.
        """
        if owners is not None and len(owners[1]) != len(column) + 1:
            raise ValueError(
                f"owner offsets must have {len(column) + 1} entries, "
                f"got {len(owners[1])}"
            )
        db = cls.__new__(cls)
        db._attach(k, _increasing(column), owners)
        return db

    # -- the columns -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._column)

    def _find(self, kmer: int) -> Optional[int]:
        """Row of ``kmer`` in the key column, ``None`` when absent."""
        i = bisect_column(self._column, kmer)
        if i < len(self._column) and int(self._column[i]) == int(kmer):
            return i
        return None

    def __contains__(self, kmer: int) -> bool:
        return self._find(kmer) is not None

    def column(self) -> NDArray[Any]:
        """The sorted key column.

        ``uint64`` when ``2 * k <= 64`` (vectorized fast path); ``object``
        dtype otherwise so the same kernels stay correct for the paper's
        k = 60 (120-bit k-mers).  Treat the returned array as read-only.
        """
        return self._column

    def owner_columns(self) -> OwnerColumns:
        """CSR owner columns ``(taxids, offsets)``.

        ``taxids`` is the flat concatenation of every k-mer's taxID set
        (each row sorted ascending); ``offsets`` has one entry per k-mer
        plus a trailing total — the layout sharding slices.  Treat the
        returned arrays as read-only.
        """
        if self._owner_columns is None:
            raise ValueError("no owner columns: an index file stores the key column only")
        return self._owner_columns

    def owners_of(self, kmer: int) -> FrozenSet[int]:
        taxids, offsets = self.owner_columns()
        i = self._find(kmer)
        if i is None:
            raise KeyError(f"k-mer {kmer} not in database")
        return frozenset(taxids[int(offsets[i]) : int(offsets[i + 1])].tolist())

    def slice(self, start: int, stop: int) -> "SortedKmerDatabase":
        """Contiguous positional shard: zero-copy views of this database's
        columns (offsets re-based to 0; ownerless stays ownerless), no
        re-validation — a slice of a strictly increasing column is strictly
        increasing."""
        owners = self._owner_columns
        if owners is not None:
            taxids, offsets = owners
            owners = (
                taxids[int(offsets[start]) : int(offsets[stop])],
                offsets[start : stop + 1] - offsets[start],
            )
        shard = self.__class__.__new__(self.__class__)
        shard._attach(self.k, self._column[start:stop], owners)
        return shard

    # -- the row view (reference paths) ----------------------------------------

    def _rows(self) -> List[int]:
        """The key column as Python ints, materialized on demand."""
        if self._row_kmers is None:
            self._row_kmers = column_to_list(self._column)
            self.row_materializations += 1
        return self._row_kmers

    @property
    def kmers(self) -> List[int]:
        return list(self._rows())

    def stream(self) -> Iterator[int]:
        """Stream the database in sorted order (what the flash chips serve)."""
        return iter(self._rows())

    def stream_range(self, lo: int, hi: int) -> Iterator[int]:
        """Stream k-mers in ``[lo, hi)`` — a lexicographic bucket's slice.

        MegIS's bucketing (§4.2.1) works because the database is sorted too:
        a query bucket only ever intersects the matching database range.
        """
        start = bisect_column(self._column, lo)
        return iter(self._rows()[start : bisect_column(self._column, hi, lo=start)])

    def intersect(self, sorted_query: Sequence[int]) -> List[int]:
        """Streaming intersection (two-pointer merge).

        The pure-Python reference merge — the result every Step-2 backend
        must reproduce exactly (tests assert the equivalence).
        """
        result: List[int] = []
        i = j = 0
        db = self._rows()
        while i < len(db) and j < len(sorted_query):
            d, q = db[i], int(sorted_query[j])
            if d == q:
                result.append(d)
                i += 1
                j += 1
            elif d < q:
                i += 1
            else:
                j += 1
        return result

    def size_bytes(self) -> int:
        """On-flash size: 2 bits per base, padded to whole bytes per k-mer."""
        kmer_bytes = (2 * self.k + 7) // 8
        return kmer_bytes * len(self)

    def species_containment(self, intersecting: Sequence[int]) -> Dict[int, int]:
        """Per-species count of intersecting k-mers (ground-truth helper)."""
        counts: Dict[int, int] = {}
        for kmer in intersecting:
            for taxid in self.owners_of(kmer):
                counts[taxid] = counts.get(taxid, 0) + 1
        return counts
