"""Generated Step-3 inputs: read lists and small candidate-genome worlds."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

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


@dataclass
class StreamSample:
    """Genomes indexed at ``k``, a sample over them and the Step-1/3 knobs
    the session's stream-seeded vote depends on."""

    genomes: Dict[int, str]
    k: int
    mapper_k: int
    reads: List[str]
    min_count: int
    max_count: Optional[int]
    #: ``VOTE_BLOCK_READS`` for the run: the sample spans several blocks.
    block: int


@st.composite
def stream_samples(draw) -> StreamSample:
    """A database k of 3-12 or 31 and a mapper k of 1..k; reads are
    genome windows and noise shorter than the mapper k, between the two
    and at least k long, some repeated.  At k = 31 the sample has more
    than 4 reads, so Step 1's read-tagged word does not fit and the vote
    falls back to its own extraction."""
    k = draw(st.one_of(st.integers(min_value=3, max_value=12), st.just(31)))
    mapper_k = draw(st.integers(min_value=1, max_value=k))
    genomes: Dict[int, str] = {}
    for taxid in draw(st.lists(
        st.integers(min_value=1, max_value=30), unique=True, min_size=1, max_size=4
    )):
        if genomes and draw(st.integers(0, 4)) == 0:
            genomes[taxid] = genomes[draw(st.sampled_from(sorted(genomes)))]
        else:
            genomes[taxid] = draw(dna(min_size=k, max_size=k + 80))
    texts = sorted(genomes.values())
    lengths = st.one_of(
        st.integers(min_value=0, max_value=mapper_k - 1),
        st.integers(min_value=mapper_k, max_value=k - 1) if mapper_k < k
        else st.just(k),
        st.integers(min_value=k, max_value=k + 25),
    )

    @st.composite
    def read(draw_read) -> str:
        length = draw_read(lengths)
        if draw_read(st.integers(0, 4)) == 0:
            return draw_read(dna(min_size=length, max_size=length))
        text = draw_read(st.sampled_from(texts))
        start = draw_read(st.integers(0, max(0, len(text) - length)))
        return text[start:start + length]

    reads = draw(st.lists(read(), min_size=5 if k == 31 else 0, max_size=14))
    if reads:
        reads += draw(st.lists(st.sampled_from(reads), max_size=4))
    window = draw(st.sampled_from([(1, None), (2, None), (1, 2)]))
    return StreamSample(
        genomes, k, mapper_k, reads, *window,
        block=draw(st.sampled_from([1, 3, 2048])),
    )
