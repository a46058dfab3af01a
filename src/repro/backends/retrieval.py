"""The columnar layout of KSS taxID retrieval results.

Step 2's retrieval phase (paper §4.3.2) answers, for every intersecting
k-mer, the taxID set at each sketch level.  A KSS holds few *distinct*
owner sets, so every row answers with the id of its set — its
**signature** — and the sets themselves live once, in the store's
:class:`~repro.backends.signatures.SignatureTable`.  A
:class:`RetrievalResult` is then

- ``queries``: the sorted intersecting k-mers (one row per query);
- per level ``k``, one ``int32`` signature column of length
  ``len(queries)`` — ``0`` where the query has no row at that level;
- ``signatures``: the table every id refers to.

Both Step-2 backends emit this layout: the ``numpy`` backend takes each
row's id straight from the store, the ``python`` reference maps the set
its register-level merge built to its id.  Per-shard and per-sample
results share their store's table, so they concatenate level by level
(:meth:`RetrievalResult.concatenate`) with no offset arithmetic, and
consumers count hits per signature before they ever touch a taxID.
:meth:`RetrievalResult.expand` gives the per-query ``(taxids, offsets)``
owner columns back, for tests and the JSON probe codec.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np
import numpy.typing as npt

from repro.backends.signatures import (
    SignatureColumn,
    SignatureTable,
    pack_sets_csr,
    stack_csr,
)

#: One CSR column: a plain int list (``python`` backend) or an ndarray
#: (``numpy`` backend; dtype is ``int64``/``uint64``, or ``object`` for
#: k-mers wider than 64 bits).
IntColumn = Union[Sequence[int], npt.NDArray[Any]]


def column_to_list(column: IntColumn) -> List[int]:
    """Plain-int copy of a k-mer column (Python list or ndarray).

    ``tolist`` unboxes ndarray columns to Python ints in one pass; the
    extra ``int()`` keeps object-dtype columns and exotic containers exact.
    """
    tolist = getattr(column, "tolist", None)
    if tolist is not None:
        return [int(x) for x in tolist()]
    return [int(x) for x in column]


def group_sorted(
    keys: npt.NDArray[Any],
) -> Tuple[npt.NDArray[Any], npt.NDArray[np.int64]]:
    """Distinct keys of a sorted column and the CSR offsets of their runs.

    Row ``i`` of the result is ``keys[offsets[i]:offsets[i+1]]`` — all equal
    to ``distinct[i]`` — so a column sorted alongside ``keys`` *is* the CSR
    payload: how the column build turns sorted ``(k-mer, taxid)`` pairs into
    a key column plus owner CSR without packing a row.
    """
    first = np.ones(len(keys), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    starts = np.flatnonzero(first)
    return keys[starts], np.append(starts, len(keys)).astype(np.int64, copy=False)


@dataclass(eq=False)
class RetrievalResult:
    """Columnar Step-2 retrieval output: queries, one signature column per
    KSS level (``k_max`` and every smaller ``k``, even when nothing hit),
    and the table the ids refer to."""

    #: The sorted intersecting k-mers: a plain int list on the ``python``
    #: backend, the intersect kernel's own column on the ``numpy`` one.
    queries: IntColumn
    levels: Dict[int, SignatureColumn]
    signatures: SignatureTable

    @classmethod
    def from_sets(
        cls, queries: IntColumn, levels: Mapping[int, Sequence[Iterable[int]]],
    ) -> "RetrievalResult":
        """A result over a fresh table interning per-level, per-query owner
        sets (``levels[k][i]`` is query ``i``'s level-``k`` set)."""
        return cls.from_csr(
            queries, {k: pack_sets_csr(rows) for k, rows in levels.items()}
        )

    @classmethod
    def from_csr(
        cls, queries: IntColumn,
        levels: Mapping[int, Tuple[npt.NDArray[np.int64], npt.NDArray[np.int64]]],
    ) -> "RetrievalResult":
        """A result over a fresh table interning per-level, per-query CSR
        owner columns (what :meth:`expand` gives)."""
        keys = list(levels)
        table, ids = SignatureTable.from_csr(
            *stack_csr([levels[k] for k in keys])
        )
        n = len(queries)
        return cls(
            queries=queries,
            levels={k: ids[i * n:(i + 1) * n] for i, k in enumerate(keys)},
            signatures=table,
        )

    @classmethod
    def concatenate(cls, parts: Sequence["RetrievalResult"]) -> "RetrievalResult":
        """Column-wise concatenation of results over one signature table.

        ``parts`` must cover ascending disjoint query ranges (what sharded
        Step 2 produces: one result per SSD, shards in range order), so the
        concatenated ``queries`` stay sorted and each level's ids are the
        parts' ids end to end.  A part whose first query is not above the
        previous part's last is refused — intersecting k-mers are distinct,
        and a repeated one would count its hits twice — as is a part over
        another table or another level set.
        """
        if len(parts) == 1:
            return parts[0]
        table = parts[0].signatures
        keys = sorted(parts[0].levels, reverse=True)
        last: Optional[int] = None
        for part in parts:
            if part.signatures is not table and part.signatures.digest != table.digest:
                raise ValueError("retrieval results answer from different signature tables")
            if sorted(part.levels, reverse=True) != keys:
                raise ValueError("retrieval results must carry the same levels")
            if not len(part.queries):
                continue
            if last is not None and int(part.queries[0]) <= last:
                raise ValueError(
                    "retrieval results must cover ascending, disjoint query ranges"
                )
            last = int(part.queries[-1])
        columns = [part.queries for part in parts]
        queries: IntColumn
        if all(isinstance(c, np.ndarray) for c in columns):
            queries = np.concatenate(columns)
        else:
            queries = list(chain.from_iterable(columns))
        return cls(
            queries=queries,
            levels={
                k: np.concatenate([part.levels[k] for part in parts]) for k in keys
            },
            signatures=table,
        )

    def expand(self) -> Dict[int, Tuple[npt.NDArray[np.int64], npt.NDArray[np.int64]]]:
        """Per level, the per-query CSR owner columns ``(taxids, offsets)``:
        query ``i``'s taxIDs are ``taxids[offsets[i]:offsets[i+1]]``."""
        return {k: self.signatures.expand(ids) for k, ids in self.levels.items()}
