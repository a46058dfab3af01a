"""Comparing k-mer columns across Step-2 backends.

The ``python`` reference backend returns intersecting k-mers as int
lists; the ``numpy`` backend returns them as ndarray columns in the
database column's dtype.  Tests compare the two as Python ints through
:func:`as_ints` (``==`` on an ndarray is elementwise, so a bare
comparison would not even be a truth value), and check the numpy side's
container with :func:`native_column`.
"""

from __future__ import annotations

from typing import Any, List, Sequence, Tuple

import numpy as np


def as_ints(column: Any) -> List[int]:
    """A k-mer column — an int list or an ndarray — as Python ints."""
    if isinstance(column, np.ndarray):
        return [int(x) for x in column.tolist()]
    return [int(x) for x in column]


def pairs_as_ints(results: Sequence[Tuple[Any, Any]]) -> List[Tuple[List[int], Any]]:
    """Step-2 ``(intersecting, retrieved)`` pairs with their k-mers as
    ints; the retrieval results compare by value already."""
    return [(as_ints(intersecting), retrieved) for intersecting, retrieved in results]


def native_column(column: Any, database: Any) -> List[int]:
    """Check ``column`` is a columnar backend's output for ``database`` —
    an ndarray in ``database.column()``'s dtype — and return it as ints."""
    assert isinstance(column, np.ndarray), type(column)
    assert column.dtype == database.column().dtype, (column.dtype, database.column().dtype)
    return as_ints(column)
