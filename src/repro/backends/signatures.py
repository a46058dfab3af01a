"""Owner-set signatures: the one table of a KSS's distinct owner sets.

A KSS answers every row with the id of its full owner set, its
*signature* (:mod:`repro.backends.retrieval`).  The sets live once, in a
:class:`SignatureTable`: one CSR of ascending taxIDs, signature ``0`` the
empty set.  :func:`intern_rows` builds one from CSR rows: rows are grouped
by a 64-bit sum-of-random-words hash of their taxIDs, and every row is
then compared entry for entry with its group's first — a hash collision is
refused, never merged.  Ids follow the hash order, so the same distinct
sets give the same table however they were built (the column build, the
row walk over a dict sketch, a reopened file).  The CSR helpers the table
and the KSS build share live here too.
"""

from __future__ import annotations

import hashlib
from functools import cached_property
from itertools import chain
from typing import Any, Dict, FrozenSet, Iterable, List, Sequence, Tuple

import numpy as np
import numpy.typing as npt

#: One level's answer: a signature id per query.
SignatureColumn = npt.NDArray[np.int32]


def pack_sets_csr(
    sets: Sequence[Iterable[int]],
) -> Tuple[npt.NDArray[np.int64], npt.NDArray[np.int64]]:
    """Pack per-row taxID sets into CSR ``(taxids, offsets)`` int64 columns,
    each row's taxIDs sorted ascending."""
    rows = [sorted(row) for row in sets]
    offsets = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum(
        np.fromiter(map(len, rows), dtype=np.int64, count=len(rows)),
        out=offsets[1:],
    )
    taxids = np.fromiter(
        chain.from_iterable(rows), dtype=np.int64, count=int(offsets[-1])
    )
    return taxids, offsets


def row_entries(
    offsets: npt.NDArray[np.int64], rows: npt.NDArray[Any],
) -> Tuple[npt.NDArray[np.int64], npt.NDArray[np.int64]]:
    """Where CSR ``rows`` live: the entry index of each of their entries,
    row after row, and the offsets of each row's run in that list."""
    starts = offsets[rows]
    out = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum(offsets[np.asarray(rows) + 1] - starts, out=out[1:])
    lengths = np.diff(out)
    index = np.arange(int(out[-1]), dtype=np.int64) + np.repeat(
        starts - out[:-1], lengths
    )
    return index, out


def stack_csr(
    parts: Sequence[Tuple[npt.NDArray[Any], npt.NDArray[np.int64]]],
) -> Tuple[npt.NDArray[Any], npt.NDArray[np.int64]]:
    """CSR blocks end to end: one value column, one offset column."""
    values = np.concatenate([np.zeros(0, np.int64)] + [part for part, _ in parts])
    shifted = [np.zeros(1, dtype=np.int64)]
    base = 0
    for part, offsets in parts:
        shifted.append(np.asarray(offsets[1:], dtype=np.int64) + base)
        base += len(part)
    return values, np.concatenate(shifted)


def _mix64(values: npt.NDArray[Any]) -> npt.NDArray[np.uint64]:
    """SplitMix64's finalizer: one well-mixed 64-bit word per taxID."""
    z = values.astype(np.uint64) + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    mixed: npt.NDArray[np.uint64] = z ^ (z >> np.uint64(31))
    return mixed


class SignatureTable:
    """The distinct owner sets of one KSS: signature ``i`` is
    ``taxids[offsets[i]:offsets[i+1]]``, ascending; signature ``0`` is the
    empty set.  Immutable; every derived view is computed once."""

    def __init__(self, taxids: npt.NDArray[np.int64],
                 offsets: npt.NDArray[np.int64]) -> None:
        self.taxids = taxids
        self.offsets = offsets

    def __len__(self) -> int:
        return len(self.offsets) - 1

    @cached_property
    def lengths(self) -> npt.NDArray[np.int64]:
        """Each signature's taxID count."""
        return np.diff(self.offsets)

    @cached_property
    def digest(self) -> str:
        """Content identity: SHA-256 of the two columns (hex, 128 bits)."""
        sha = hashlib.sha256(np.asarray(self.offsets, dtype="<i8").tobytes())
        sha.update(np.asarray(self.taxids, dtype="<i8").tobytes())
        return sha.hexdigest()[:32]

    @cached_property
    def universe(self) -> npt.NDArray[np.int64]:
        """Every taxID any signature holds, ascending."""
        return np.unique(self.taxids)

    @cached_property
    def codes(self) -> npt.NDArray[np.intp]:
        """Each table entry's position in :attr:`universe`."""
        return np.searchsorted(self.universe, self.taxids)

    @cached_property
    def sets(self) -> List[FrozenSet[int]]:
        """Signature id -> owner set, boxed (for the reference paths)."""
        bounds = self.offsets.tolist()
        taxids = self.taxids.tolist()
        return [
            frozenset(taxids[bounds[i]:bounds[i + 1]]) for i in range(len(self))
        ]

    @cached_property
    def ids(self) -> Dict[FrozenSet[int], int]:
        """Owner set -> signature id (the reference backend's lookup)."""
        return {owners: i for i, owners in enumerate(self.sets)}

    def entries(
        self, ids: npt.NDArray[Any],
    ) -> Tuple[npt.NDArray[np.int64], npt.NDArray[np.int64]]:
        """Table entry indices of signatures ``ids``, plus their offsets."""
        return row_entries(self.offsets, ids)

    def expand(
        self, ids: npt.NDArray[Any],
    ) -> Tuple[npt.NDArray[np.int64], npt.NDArray[np.int64]]:
        """The CSR owner columns ``(taxids, offsets)`` of signatures ``ids``."""
        index, offsets = self.entries(ids)
        return self.taxids[index], offsets

    @classmethod
    def from_csr(
        cls, taxids: npt.NDArray[np.int64], offsets: npt.NDArray[np.int64],
    ) -> Tuple["SignatureTable", SignatureColumn]:
        """Intern CSR owner rows (each duplicate-free, in any order): the
        table and each row's id."""
        rows = np.repeat(np.arange(len(offsets) - 1), np.diff(offsets))
        taxids = taxids[np.lexsort((taxids, rows))]
        universe = np.unique(taxids)
        return intern_rows(np.searchsorted(universe, taxids), offsets, universe)


def intern_rows(
    codes: npt.NDArray[Any], offsets: npt.NDArray[np.int64],
    universe: npt.NDArray[Any],
) -> Tuple[SignatureTable, SignatureColumn]:
    """Group CSR rows into distinct sets: the table and every row's id.

    ``codes`` index the ascending taxID column ``universe``; each row's
    codes ascend without repeats.  Rows group by a 64-bit
    sum-of-random-words hash, every row is checked entry for entry
    against its group's first, and a mismatch — a collision — is a
    ``ValueError``.  Ids: ``0`` for the empty set, then ``1..`` in hash
    order.
    """
    sums = np.zeros(len(codes) + 1, dtype=np.uint64)
    np.cumsum(_mix64(np.asarray(universe))[codes], out=sums[1:])
    hashes = sums[offsets[1:]] - sums[offsets[:-1]]
    # Any order within a hash run will do: every row is held to its run's
    # first below, and ids follow the hashes alone.
    order = np.argsort(hashes)
    ranked = hashes[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = ranked[1:] != ranked[:-1]
    group = np.empty(len(order), dtype=np.int64)
    group[order] = np.cumsum(first) - 1
    leaders = order[first]
    lengths = np.diff(offsets)
    leader = leaders[group]
    same = bool(np.array_equal(lengths, lengths[leader]))
    if same:
        theirs = np.arange(len(codes)) + np.repeat(
            offsets[leader] - offsets[:-1], lengths
        )
        same = bool(np.array_equal(codes, codes[theirs]))
    if not same:
        raise ValueError(
            "owner-set hash collision: two different sets share a signature "
            "hash; refusing to merge them"
        )
    kept = np.flatnonzero(lengths[leaders] > 0)
    if len(kept) >= np.iinfo(np.int32).max:
        raise ValueError(f"{len(kept)} owner sets overflow int32 signature ids")
    signature = np.zeros(len(leaders), dtype=np.int32)
    signature[kept] = np.arange(1, len(kept) + 1, dtype=np.int32)
    index, table_offsets = row_entries(offsets, leaders[kept])
    table = SignatureTable(
        np.asarray(universe, dtype=np.int64)[codes[index]],
        np.concatenate(([0], table_offsets)).astype(np.int64),
    )
    return table, signature[group]
