"""Lexicographically sorted k-mer database (S-Qry: Metalign and MegIS).

The database is the union of all reference genomes' k-mers, kept sorted so
that queries reduce to a streaming merge (§2.1.1, §4.3.1).  Large k-mers
(the tools use k = 60) keep the false-positive rate low.  The database also
records, per k-mer, which species contain it — needed for building sketches
and for tests, though the intersection step itself only uses the k-mers.

The owner sets live in two interchangeable representations: per-row
``frozenset`` objects (the reference view) and flat CSR columns
(``owner_columns``, the layout the serialization format persists and the
columnar backends slice).  Either side can be materialized lazily from the
other; a loaded database's columns are views of the buffer it was parsed
from (``from_columns`` attaches them verbatim), so it never rebuilds them —
and never touches per-row Python objects until a reference code path asks.
``column_builds`` / ``owner_column_builds`` count cache (re)constructions
so tests can assert a served database is never rebuilt between queries.
"""

from __future__ import annotations

import bisect
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.sequences.generator import ReferenceCollection
from repro.sequences.kmers import extract_kmers


class SortedKmerDatabase:
    """Sorted distinct k-mers with per-k-mer species sets."""

    def __init__(self, k: int, kmers: Sequence[int], owners: Sequence[frozenset]):
        if len(kmers) != len(owners):
            raise ValueError("kmers and owners must have equal length")
        if any(kmers[i] >= kmers[i + 1] for i in range(len(kmers) - 1)):
            raise ValueError("kmers must be strictly increasing")
        self.k = k
        self._kmers: List[int] = [int(x) for x in kmers]
        self._owners: Optional[List[frozenset]] = list(owners)
        self._init_caches()

    def _init_caches(self) -> None:
        self._column: Optional[np.ndarray] = None
        self._owner_columns: Optional[Tuple[np.ndarray, np.ndarray]] = None
        #: Deferred owner-column source (multi-shard index opens):
        #: invoked — and counted as a build — only if a consumer actually
        #: asks for the stitched columns.
        self._owner_loader: Optional[
            Callable[[], Tuple[np.ndarray, np.ndarray]]
        ] = None
        #: Cache-construction counters (see the module docstring).
        self.column_builds = 0
        self.owner_column_builds = 0

    @classmethod
    def build(
        cls, references: ReferenceCollection, k: int = 60, canonical: bool = False
    ) -> "SortedKmerDatabase":
        """Index all reference genomes.

        Non-canonical (forward-strand) k-mers are the default because the
        sketch machinery relies on prefix structure, which canonicalization
        would destroy; Metalign/CMash handle strands by sketching both.
        """
        membership: Dict[int, Set[int]] = {}
        for taxid in references.species_taxids:
            seq = references.sequence(taxid)
            for kmer in set(extract_kmers(seq, k, canonical=canonical).tolist()):
                membership.setdefault(int(kmer), set()).add(taxid)
        kmers = sorted(membership)
        owners = [frozenset(membership[x]) for x in kmers]
        return cls(k, kmers, owners)

    @classmethod
    def from_columns(
        cls,
        k: int,
        kmers: Sequence[int],
        owner_taxids: Optional[np.ndarray] = None,
        owner_offsets: Optional[np.ndarray] = None,
        column: Optional[np.ndarray] = None,
        owner_loader: Optional[
            Callable[[], Tuple[np.ndarray, np.ndarray]]
        ] = None,
    ) -> "SortedKmerDatabase":
        """Construct straight from persisted CSR columns (no row objects).

        The loaded CSR arrays become the ``owner_columns`` cache verbatim
        (keeping a ``np.memmap``'s type and the on-disk dtype — nothing is
        copied); per-row owner ``frozenset``s are materialized only if a
        reference code path asks for them.  ``column``, when given, is the
        parsed ndarray k-mer column to attach as the cache.  Ordering is
        validated (vectorized when the column is available) — a corrupt
        payload must fail here, not return wrong bisect results later.

        ``owner_loader`` defers the owner columns entirely — they are
        built (and counted in ``owner_column_builds``) only if a consumer
        asks, which is how a multi-shard open avoids ever materializing
        the stitched owner columns on the query path.
        """
        if (owner_taxids is None) != (owner_offsets is None):
            raise ValueError("owner taxids and offsets must be given together")
        if owner_taxids is None and owner_loader is None:
            raise ValueError("provide owner columns or an owner_loader")
        if owner_taxids is not None and owner_loader is not None:
            raise ValueError("owner columns and owner_loader are exclusive")
        if owner_offsets is not None and len(owner_offsets) != len(kmers) + 1:
            raise ValueError(
                f"owner offsets must have {len(kmers) + 1} entries, "
                f"got {len(owner_offsets)}"
            )
        if column is not None:
            out_of_order = len(column) > 1 and bool(
                np.any(np.asarray(column[1:] <= column[:-1], dtype=bool))
            )
        else:
            out_of_order = any(
                kmers[i] >= kmers[i + 1] for i in range(len(kmers) - 1)
            )
        if out_of_order:
            raise ValueError("kmers must be strictly increasing")
        db = cls.__new__(cls)
        db.k = k
        db._kmers = [int(x) for x in kmers]
        db._owners = None
        db._init_caches()
        if owner_loader is not None:
            db._owner_loader = owner_loader
        else:
            db._owner_columns = (owner_taxids, owner_offsets)
        if column is not None:
            db._column = column
        return db

    # -- streaming access ----------------------------------------------------

    def __len__(self) -> int:
        return len(self._kmers)

    def __contains__(self, kmer: int) -> bool:
        i = bisect.bisect_left(self._kmers, int(kmer))
        return i < len(self._kmers) and self._kmers[i] == int(kmer)

    @property
    def kmers(self) -> List[int]:
        return list(self._kmers)

    def column(self) -> np.ndarray:
        """Sorted k-mer column for the NumPy backend (built once, cached).

        ``uint64`` when ``2 * k <= 64`` (vectorized fast path); ``object``
        dtype otherwise so the same kernels stay correct for the paper's
        k = 60 (120-bit k-mers).  Treat the returned array as read-only.
        """
        if self._column is None:
            from repro.backends.numpy_backend import column_dtype

            self._column = np.array(self._kmers, dtype=column_dtype(self.k))
            self.column_builds += 1
        return self._column

    def owner_columns(self) -> Tuple[np.ndarray, np.ndarray]:
        """CSR owner columns ``(taxids, offsets)`` (built once, cached).

        ``taxids`` is the flat concatenation of every k-mer's taxID set
        (each row sorted ascending, ``int64``); ``offsets`` has one entry
        per k-mer plus a trailing total, so row ``i`` owns
        ``taxids[offsets[i]:offsets[i+1]]``.  This is the layout the
        serialization format persists directly and the columnar consumers
        (sharding, retrieval preprocessing) slice without per-element
        ``owners_of`` lookups.  Treat the returned arrays as read-only.
        """
        if self._owner_columns is None:
            if self._owner_loader is not None:
                self._owner_columns = self._owner_loader()
            else:
                from repro.backends.retrieval import pack_sets_csr

                self._owner_columns = pack_sets_csr(self._owner_rows())
            self.owner_column_builds += 1
        return self._owner_columns

    def _owner_rows(self) -> List[frozenset]:
        """Per-row owner sets, materialized from the CSR columns on demand."""
        if self._owners is None:
            taxids, offsets = self.owner_columns()
            self._owners = [
                frozenset(taxids[offsets[i] : offsets[i + 1]].tolist())
                for i in range(len(self._kmers))
            ]
        return self._owners

    def owners_of(self, kmer: int) -> frozenset:
        i = bisect.bisect_left(self._kmers, int(kmer))
        if i == len(self._kmers) or self._kmers[i] != int(kmer):
            raise KeyError(f"k-mer {kmer} not in database")
        if self._owners is None:
            # Columns-backed database: answer from the CSR slice without
            # materializing every row.
            taxids, offsets = self.owner_columns()
            return frozenset(taxids[offsets[i] : offsets[i + 1]].tolist())
        return self._owners[i]

    def stream(self) -> Iterator[int]:
        """Stream the database in sorted order (what the flash chips serve)."""
        return iter(self._kmers)

    def stream_range(self, lo: int, hi: int) -> Iterator[int]:
        """Stream k-mers in ``[lo, hi)`` — a lexicographic bucket's slice.

        MegIS's bucketing (§4.2.1) works because the database is sorted too:
        a query bucket only ever intersects the matching database range.
        """
        start = bisect.bisect_left(self._kmers, int(lo))
        stop = bisect.bisect_left(self._kmers, int(hi))
        return iter(self._kmers[start:stop])

    def count_range(self, lo: int, hi: int) -> int:
        """Number of database k-mers in ``[lo, hi)``, without materializing."""
        return bisect.bisect_left(self._kmers, int(hi)) - bisect.bisect_left(
            self._kmers, int(lo)
        )

    def slice(self, start: int, stop: int) -> "SortedKmerDatabase":
        """Contiguous positional shard sharing this database's columns.

        The k-mer and owner columns are sliced directly — no per-element
        ``owners_of`` lookups, no re-validation (a slice of a strictly
        increasing sequence is strictly increasing) — and an already-built
        ndarray column is shared as a zero-copy view, so multi-SSD shards
        reuse the parent's columnar cache.
        """
        shard = self.__class__.__new__(self.__class__)
        shard.k = self.k
        shard._kmers = self._kmers[start:stop]
        shard._owners = None if self._owners is None else self._owners[start:stop]
        shard._init_caches()
        shard._column = None if self._column is None else self._column[start:stop]
        if self._owner_columns is not None:
            # The flat taxID slice is a zero-copy view; offsets re-base to 0.
            taxids, offsets = self._owner_columns
            shard._owner_columns = (
                taxids[int(offsets[start]) : int(offsets[stop])],
                offsets[start : stop + 1] - offsets[start],
            )
        elif self._owners is None and self._owner_loader is not None:
            # Deferred parent columns stay deferred in the shard: only a
            # consumer that actually asks for owners pays the stitch.
            def load_slice(parent=self, lo=start, hi=stop):
                taxids, offsets = parent.owner_columns()
                return (
                    taxids[int(offsets[lo]) : int(offsets[hi])],
                    offsets[lo : hi + 1] - offsets[lo],
                )

            shard._owner_loader = load_slice
        return shard

    def intersect(self, sorted_query: Sequence[int]) -> List[int]:
        """Streaming intersection (two-pointer merge).

        The pure-Python reference merge — the result every Step-2 backend
        must reproduce exactly (tests assert the equivalence).
        """
        result: List[int] = []
        i = j = 0
        db = self._kmers
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
        return kmer_bytes * len(self._kmers)

    def species_containment(self, intersecting: Sequence[int]) -> Dict[int, int]:
        """Per-species count of intersecting k-mers (ground-truth helper)."""
        counts: Dict[int, int] = {}
        for kmer in intersecting:
            for taxid in self.owners_of(kmer):
                counts[taxid] = counts.get(taxid, 0) + 1
        return counts
