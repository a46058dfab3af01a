"""Generated databases: sorted k-mer columns, owner sets, whole indexes."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Sequence, Tuple

from hypothesis import strategies as st

from repro.databases.sketch import SketchDatabase
from repro.databases.sorted_db import SortedKmerDatabase
from repro.megis.index import IndexBuilder, MegisIndex
from repro.sequences.encoding import kmer_prefix
from repro.sequences.generator import ReferenceCollection, SpeciesGenome
from tests.oracles import (
    build_rows,
    build_tables,
    database_from_rows,
    owners_of,
    reference_kss,
)

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
    return database_from_rows(k, *draw(kmer_rows(k, max_size)))


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
    to pin the ``uint64`` / ``object`` key column
    (:mod:`repro.sequences.keys`).

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
        k: {x: owners_of(database, x) for x in sketched}
    }
    for level in smaller_ks:
        rows: Dict[int, FrozenSet[int]] = {}
        for x in sketched:
            prefix = kmer_prefix(x, k, level)
            rows[prefix] = rows.get(prefix, frozenset()) | owners_of(database, x)
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
    sketch = SketchDatabase(k, smaller_ks, tables, sketch_sizes)
    return IndexWorld(
        index=MegisIndex(database, sketch, kss=reference_kss(sketch)),
        query=sorted(misses | set(kmers[::2])),
    )


def synthetic_sketch(
    kmers: List[int], owners: List[FrozenSet[int]],
    k_max: int, smaller_ks: Tuple[int, ...] = (12, 8),
) -> SketchDatabase:
    """A SketchDatabase straight from (k-mer, owners) pairs.

    Treats every database k-mer as sketched, with smaller-k tables as the
    per-prefix owner unions — the shape :meth:`SketchDatabase.build`
    produces, without needing reference genomes.  Shared by the retrieval
    property tests and the retrieval benchmarks, whose worlds are too
    large to draw.
    """
    tables: Dict[int, Dict[int, FrozenSet[int]]] = {
        k_max: dict(zip(kmers, owners))
    }
    for k in smaller_ks:
        level: Dict[int, set] = {}
        for kmer, own in zip(kmers, owners):
            level.setdefault(kmer_prefix(kmer, k_max, k), set()).update(own)
        tables[k] = {p: frozenset(s) for p, s in level.items()}
    sizes: Counter = Counter()
    for own in owners:
        sizes.update(own)
    return SketchDatabase(k_max, smaller_ks, tables, dict(sizes))


@dataclass
class ReferenceWorld:
    """Generated reference genomes plus the parameters to index them with."""

    references: ReferenceCollection
    k: int
    smaller_ks: Tuple[int, ...]
    sketch_fraction: float
    seed: int

    def build(self) -> MegisIndex:
        """The index ``IndexBuilder`` gives (the column build, at any ``k``)."""
        return IndexBuilder(
            self.k, self.smaller_ks, self.sketch_fraction, self.seed
        ).build(self.references)

    def reference_build(self) -> MegisIndex:
        """The same index from the per-k-mer dict builders, at any ``k``."""
        sketch = SketchDatabase(*build_tables(
            self.references, self.k, self.smaller_ks, self.sketch_fraction, self.seed
        ))
        return MegisIndex(
            database_from_rows(self.k, *build_rows(self.references, self.k, False)),
            sketch, self.references, kss=reference_kss(sketch),
        )


def collection(genomes: Dict[int, str]) -> ReferenceCollection:
    """Sequences by taxid as a one-genus reference collection."""
    return ReferenceCollection({
        taxid: SpeciesGenome(taxid, 1, f"species_{taxid}", sequence)
        for taxid, sequence in genomes.items()
    })


@st.composite
def reference_worlds(draw, ks: Sequence[int] = (6, 8, 10, 31)) -> ReferenceWorld:
    """1-6 genomes of 0-120 bases stitched from private text and a pool of
    shared segments (so owner sets overlap and KSS rows hold stored taxids),
    some an exact copy of another, some shorter than ``k``; ``smaller_ks``
    also arrives unsorted and with repeats; seeds include a negative one and
    one whose salt product wraps past 64 bits."""
    k = draw(st.sampled_from(list(ks)))
    dna = st.text(alphabet="ACGT", max_size=70)
    shared = draw(st.lists(
        st.text(alphabet="ACGT", min_size=k, max_size=k + 20), max_size=3
    ))
    piece = st.one_of(dna, st.sampled_from(shared)) if shared else dna
    taxids = draw(st.lists(
        st.integers(min_value=2, max_value=60), unique=True, min_size=1, max_size=6
    ))
    genomes: Dict[int, str] = {}
    for taxid in taxids:
        if genomes and draw(st.integers(0, 4)) == 0:
            genomes[taxid] = genomes[draw(st.sampled_from(sorted(genomes)))]
        else:
            genomes[taxid] = "".join(draw(st.lists(piece, max_size=5)))[:120]
    return ReferenceWorld(
        references=collection(genomes),
        k=k,
        smaller_ks=draw(st.sampled_from([
            (k - 2,), (k - 2, k - 5), (k - 5, k - 2), (k - 2, k - 5, k - 2),
        ])),
        sketch_fraction=draw(st.sampled_from([0.25, 0.5, 1.0])),
        seed=draw(st.sampled_from([0, 7, -3, 2**63 + 5])),
    )
