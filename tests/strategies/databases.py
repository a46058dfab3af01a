"""Generated databases: sorted k-mer columns, owner sets, whole indexes."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Sequence, Tuple

from hypothesis import strategies as st

from repro.databases.sketch import SketchDatabase
from repro.databases.sorted_db import SortedKmerDatabase
from repro.megis.index import MegisIndex
from repro.sequences.encoding import kmer_prefix

#: Small taxID universe, so generated owner sets overlap across k-mers.
TAXIDS = st.integers(min_value=1, max_value=6)


def owner_sets(min_size: int = 1) -> st.SearchStrategy[FrozenSet[int]]:
    """One k-mer's (or prefix row's) set of owning species."""
    return st.frozensets(TAXIDS, min_size=min_size, max_size=4)


@st.composite
def kmer_rows(draw, k: int, max_size: int = 40) -> Tuple[List[int], List[FrozenSet[int]]]:
    """Strictly increasing k-mers with one owner set per row, as plain lists.

    Sizes start at zero and k-mers are drawn from the whole ``4^k`` key
    space, so empty databases, empty shards and both range ends occur.
    """
    kmers = sorted(draw(st.sets(
        st.integers(min_value=0, max_value=(1 << (2 * k)) - 1), max_size=max_size,
    )))
    owners = draw(st.lists(owner_sets(), min_size=len(kmers), max_size=len(kmers)))
    return kmers, owners


@st.composite
def sorted_kmer_databases(draw, k: int, max_size: int = 40) -> SortedKmerDatabase:
    """The row-built database over one :func:`kmer_rows` draw."""
    return SortedKmerDatabase(k, *draw(kmer_rows(k, max_size)))


def key_probes(k: int, kmers: List[int]) -> st.SearchStrategy[int]:
    """Keys to look up: the stored ones, their neighbours, and anything in
    ``[-1, 4^k]`` — both just outside the key space included."""
    anywhere = st.integers(min_value=-1, max_value=1 << (2 * k))
    if not kmers:
        return anywhere
    stored = st.sampled_from(kmers)
    return st.one_of(stored, stored.map(lambda x: x + 1), anywhere)


@dataclass
class IndexWorld:
    """A generated index plus a sorted query column that half-hits it."""

    index: MegisIndex
    query: List[int]


@st.composite
def index_worlds(draw, ks: Sequence[int] = (6, 8, 10)) -> IndexWorld:
    """A database, a sketch over a subset of its k-mers, and a query.

    ``ks`` are the k-mer lengths drawn from — pass ``(12,)`` / ``(40,)``
    to pin the ``uint64`` / ``object`` key width.

    The sketch keeps the invariant ``SketchDatabase.build`` guarantees —
    a level's full set contains the owners of every sketched k_max-mer
    under the prefix — and adds drawn extra owners per prefix row, so the
    KSS *stored* sets are non-trivial.
    """
    k = draw(st.sampled_from(list(ks)))
    smaller_ks = draw(st.sampled_from([(k - 2,), (k - 2, k - 5)]))
    database = draw(sorted_kmer_databases(k))
    kmers = database.kmers
    sketched = [x for x in kmers if draw(st.booleans())]
    tables: Dict[int, Dict[int, FrozenSet[int]]] = {
        k: {x: database.owners_of(x) for x in sketched}
    }
    for level in smaller_ks:
        rows: Dict[int, FrozenSet[int]] = {}
        for x in sketched:
            prefix = kmer_prefix(x, k, level)
            rows[prefix] = rows.get(prefix, frozenset()) | database.owners_of(x)
        tables[level] = {
            prefix: covered | draw(owner_sets(min_size=0))
            for prefix, covered in rows.items()
        }
    sketch_sizes: Dict[int, int] = {}
    for owners in tables[k].values():
        for taxid in owners:
            sketch_sizes[taxid] = sketch_sizes.get(taxid, 0) + 1
    misses = draw(st.sets(
        st.integers(min_value=0, max_value=(1 << (2 * k)) - 1), max_size=10,
    ))
    return IndexWorld(
        index=MegisIndex(database, SketchDatabase(k, smaller_ks, tables, sketch_sizes)),
        query=sorted(misses | set(kmers[::2])),
    )
