"""Lexicographically sorted k-mer database (S-Qry: Metalign and MegIS).

The database is the union of all reference genomes' k-mers, kept sorted so
that queries reduce to a streaming merge (§2.1.1, §4.3.1).  Large k-mers
(the tools use k = 60) keep the false-positive rate low.  A built database
also records, per k-mer, which species contain it — needed for building
sketches and for tests; the intersection step only uses the k-mers, so
that is all an index file stores of it.

A :class:`SortedKmerDatabase` *is* its columns, as a
:class:`~repro.databases.kss.KssTables` is its store: its state is ``(k,
key column, owner CSR or none)`` — the sorted key column
(:mod:`repro.sequences.keys`) and, for a built table and its slices,
the owner CSR ``(taxids, offsets)``, which lives in memory only.  A table
attached from a key column alone (an opened index) is *ownerless*:
:meth:`owner_columns` raises, and so do its slices'.  A table is built one
way, from columns: :meth:`~SortedKmerDatabase.from_columns` (which
:meth:`~SortedKmerDatabase.from_pairs` calls), or :meth:`slice` over a
built table's columns; ``len`` and :meth:`slice` read the column;
the Python int list the register-level reference paths
walk (:attr:`kmers`, :meth:`stream`, :meth:`stream_range`,
:meth:`intersect`) is a view materialized on demand and counted in
``row_materializations`` — so tests can assert that a served database is
never boxed between queries.

The offline build (§4.2) is column arithmetic at every k:
:func:`extract_pairs` runs one extraction over all genomes and one sort,
giving the distinct sorted ``(k-mer, genome)`` :class:`PairColumns`, whose
distinct k-mers are the key column and whose taxids are the owner CSR.
The sketch and the KSS are built from the same pairs, so
:class:`~repro.megis.index.IndexBuilder` extracts once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator, List, Optional, Sequence, Tuple

import numpy as np
from numpy.typing import NDArray

from repro.backends.base import bisect_column
from repro.backends.retrieval import column_to_list, group_sorted
from repro.sequences.generator import ReferenceCollection
from repro.sequences.keys import extract_kmers_batch, kmer_record_bytes, spare_bits

#: Owner CSR ``(taxids, offsets)``; row ``i`` owns
#: ``taxids[offsets[i]:offsets[i+1]]``.
OwnerColumns = Tuple[NDArray[Any], NDArray[Any]]


@dataclass(frozen=True)
class PairColumns:
    """Every distinct ``(k-mer, genome)`` pair of a reference collection,
    sorted by k-mer then genome — the one intermediate of the column build.

    ``genomes[i]`` indexes ``taxids`` (the collection's ascending species
    taxids), so it orders like the taxid it stands for while staying dense
    enough to pack beside a row number into one sort key.
    """

    k: int
    kmers: NDArray[Any]
    genomes: NDArray[np.int64]
    taxids: NDArray[np.int64]


def extract_pairs(references: ReferenceCollection, k: int) -> PairColumns:
    """One extraction over all genomes, one sort."""
    taxids = references.species_taxids
    kmers, genomes = extract_kmers_batch([references.sequence(t) for t in taxids], k)
    genome_bits = max(1, (len(taxids) - 1).bit_length())
    if genome_bits <= spare_bits(k):
        # A (k-mer, genome) pair fits one uint64 key: one value sort is the
        # (k-mer, genome) lexsort, several times cheaper than an argsort.
        shift = np.uint64(genome_bits)
        keys = np.sort((kmers << shift) | genomes.astype(np.uint64))
        kmers = keys >> shift
        genomes = (keys & np.uint64((1 << genome_bits) - 1)).astype(np.int64)
    else:
        # Genome ids ascend along the extraction, so a stable sort on the
        # k-mers alone leaves each k-mer's genomes ascending.
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


class SortedKmerDatabase:
    """Sorted distinct k-mers with per-k-mer species sets."""

    def __init__(
        self, k: int, column: NDArray[Any], owner_columns: Optional[OwnerColumns]
    ) -> None:
        """Hold the columns as given, unchecked: :meth:`from_columns` is
        the validating entry point."""
        self.k = k
        self._column = column
        #: ``None`` for an ownerless table (attached from a key column alone).
        self._owner_columns = owner_columns
        self._row_kmers: Optional[List[int]] = None
        #: Times the Python int list was built (see the module docstring).
        self.row_materializations = 0

    @classmethod
    def build(cls, references: ReferenceCollection, k: int = 60) -> "SortedKmerDatabase":
        """Index all reference genomes' forward-strand k-mers.

        Not canonical: the sketch machinery relies on prefix structure,
        which canonicalization would destroy; Metalign/CMash handle strands
        by sketching both.
        """
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
        :func:`~repro.sequences.keys.column_dtype` gives ``k``;
        ``owners`` is the CSR of the table the column came from.  Without
        it the table is ownerless — what an index file holds.
        """
        if owners is not None and len(owners[1]) != len(column) + 1:
            raise ValueError(
                f"owner offsets must have {len(column) + 1} entries, "
                f"got {len(owners[1])}"
            )
        return cls(k, _increasing(column), owners)

    # -- the columns -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._column)

    def column(self) -> NDArray[Any]:
        """The sorted key column (:mod:`repro.sequences.keys`); read-only."""
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
        return self.__class__(self.k, self._column[start:stop], owners)

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
        return kmer_record_bytes(self.k) * len(self)
