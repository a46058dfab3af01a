"""Generated Step-3 inputs: read lists and small candidate-genome worlds."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from hypothesis import strategies as st

from repro.tools.mapping import ColumnarUnifiedIndex, UnifiedIndex


def reference_view(index: ColumnarUnifiedIndex) -> UnifiedIndex:
    """A columnar unified index as the dict index it must equal."""
    offsets = index.offsets.tolist()
    locations = index.locations.tolist()
    starts = index.starts.tolist()
    return UnifiedIndex(
        k=index.k,
        entries={
            kmer: tuple(locations[offsets[i]:offsets[i + 1]])
            for i, kmer in enumerate(index.kmers.tolist())
        },
        boundaries={
            taxid: (start, end)
            for taxid, start, end in zip(
                index.taxids.tolist(), starts, [*starts[1:], index.total_length]
            )
        },
    )


def dna(min_size: int = 0, max_size: int = 40,
        alphabet: str = "ACGT") -> st.SearchStrategy[str]:
    return st.text(alphabet=alphabet, min_size=min_size, max_size=max_size)


@st.composite
def read_lists(draw, k: int, max_reads: int = 8) -> List[str]:
    """Reads around the k boundary: empty, shorter than k, exactly k,
    longer, upper and lower case — and the empty list."""
    read = st.one_of(
        dna(max_size=max(0, k - 1), alphabet="ACGTacgt"),
        dna(min_size=k, max_size=k, alphabet="ACGTacgt"),
        dna(min_size=k, max_size=k + 30, alphabet="ACGTacgt"),
    )
    return draw(st.lists(read, max_size=max_reads))


@dataclass
class MappingWorld:
    """Candidate genomes by taxid, a mapper k, and reads to place."""

    k: int
    genomes: Dict[int, str]
    reads: List[str]


@st.composite
def mapping_worlds(draw, min_species: int = 0) -> MappingWorld:
    """Short genomes over a short k, so k-mers repeat within a genome and
    are shared across species; some genomes are copies of another (exact
    vote ties), a tail of another (k-mers shared at any k) or shorter
    than k (no entries); reads are genome windows, noise, and reads
    shorter than k.  k is also drawn from {26, 27, 31}, where a vote
    block's read id has 12, 10 and 2 bits beside the seed."""
    k = draw(st.one_of(
        st.integers(min_value=2, max_value=6), st.sampled_from([26, 27, 31])
    ))
    taxids = draw(st.lists(
        st.integers(min_value=1, max_value=40), unique=True,
        min_size=min_species, max_size=5,
    ))
    genomes: Dict[int, str] = {}
    for taxid in taxids:
        kind = draw(st.integers(0, 3)) if genomes else 3
        if kind < 2:
            source = genomes[draw(st.sampled_from(sorted(genomes)))]
            genomes[taxid] = source if kind == 0 else (
                source[draw(st.integers(0, len(source))):] + draw(dna(max_size=20))
            )
        else:
            genomes[taxid] = draw(dna(max_size=max(60, k + 40)))
    windows = [
        g[i:i + k + 8] for g in genomes.values() for i in range(0, len(g), 7)
    ]
    read = st.one_of(dna(max_size=k + 12), dna(max_size=max(0, k - 1)))
    if windows:
        read = st.one_of(st.sampled_from(windows), read)
    return MappingWorld(k, genomes, draw(st.lists(read, max_size=12)))
