"""Read mapping for abundance estimation.

Metagenomic tools map reads against the reference genomes of the candidate
species found present, and derive abundances from the relative number of
reads mapping to each species (paper §2.1.2, §4.4).  The mapper here is a
seed-counting mapper: reads vote for the species whose reference index
contains the most of their k-mers — the same role GenCache plays in the
paper's evaluation, where only its throughput matters.

The *unified index* (Fig 9) merges per-species sorted k-mer indexes into one
structure with genome-offset-adjusted locations so the mapper searches a
single index instead of one per species; MegIS's Step 3 builds this merge
in-storage (:mod:`repro.megis.abundance` models that data path and must
produce exactly this structure).

Two representations hold the same index, and :class:`ReadMapper` accepts
either:

* :class:`SpeciesIndex` / :class:`UnifiedIndex` — the register-level
  *reference*: ``{k-mer: locations}`` dicts, a ``boundaries`` dict and one
  vote per read (:meth:`ReadMapper.map_read`).  ``backend="python"``
  sessions and the golden suites run it, which keeps them independent of
  the fast path — the role ``SortedKmerDatabase.intersect`` plays for
  Step 2.
* :class:`ColumnarSpeciesIndex` / :class:`ColumnarUnifiedIndex` — the
  shape every other resident table has: a sorted ``uint64`` key column, CSR
  ``offsets`` into a ``locations`` column with its ``location_species``
  column beside it, the genomes' ``starts`` in ascending-taxid order, and
  the merge's key *signatures* — the few distinct per-key vectors of
  per-species location counts, one row id per key.
  The mapper votes for a whole block of reads at once from the block's
  *seeds* — its reads' k-mers in key order, each tagged with its read,
  in at most two ascending runs.  A session hands over Step 1's sorted
  ``(K-mer, read)`` stream (:class:`~repro.sequences.kmers.KmerStream`,
  at the database ``K`` >= the mapper ``k``): the main run is the
  ``k``-prefixes of its ``K``-mers, already in key order, and a small
  sorted second run holds the k-mers of each read's last ``K - 1``
  bases, cut out of its last ``K``-mer (plus all the k-mers of a read
  shorter than ``K``, extracted).  Any other caller extracts and sorts
  its block at the mapper k (one batch extraction, one value sort of
  ``seed << read_bits | read`` words) and has one run.  Either way the vote is one
  ``searchsorted`` of the block's *distinct* seeds — the first of each
  run of equal seeds, the two runs' merged — with each signature copied
  back to its run of equal seeds, one ``bincount`` over ``read * (n_sig
  + 1) + signature``, and one product of those per-read signature counts
  with ``signatures`` for the per-species votes.  Every columnar-backend
  session whose mapper k-mer fits one key word
  (:func:`~repro.sequences.keys.fits_word`) takes this path; results
  equal the reference read for read.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.sequences.keys import extract_kmers, extract_kmers_batch
from repro.sequences.keys import searchsorted_clamped, spare_bits
from repro.sequences.kmers import KmerStream, read_id_bits
from repro.sequences.reads import Read, read_sequences
from repro.taxonomy.profiles import AbundanceProfile

#: Reads voted for per columnar pass, at most: peak memory of the vote is
#: O(block x species + the block's seeds), not O(sample).
#: :func:`vote_block_reads` narrows it for an index with more signatures
#: than species, and for a k whose seed leaves few bits for the read id.
VOTE_BLOCK_READS = 2048


@dataclass
class SpeciesIndex:
    """Per-species sorted k-mer index: k-mer -> sorted genome locations."""

    taxid: int
    k: int
    genome_length: int
    entries: Dict[int, Tuple[int, ...]]

    @classmethod
    def build(cls, taxid: int, sequence: str, k: int) -> "SpeciesIndex":
        locations: Dict[int, List[int]] = {}
        for pos, kmer in enumerate(extract_kmers(sequence, k, canonical=False).tolist()):
            locations.setdefault(int(kmer), []).append(pos)
        return cls(
            taxid=taxid,
            k=k,
            genome_length=len(sequence),
            entries={x: tuple(p) for x, p in sorted(locations.items())},
        )

    def sorted_kmers(self) -> List[int]:
        return sorted(self.entries)


@dataclass
class UnifiedIndex:
    """Merged index over candidate species with offset-adjusted locations.

    Locations are global coordinates into the concatenation of the candidate
    genomes (in ascending-taxid order); ``boundaries`` maps each species to
    its ``[start, end)`` range so hits can be attributed back.
    """

    k: int
    entries: Dict[int, Tuple[int, ...]]
    boundaries: Dict[int, Tuple[int, int]]

    def taxid_of_location(self, location: int) -> Optional[int]:
        for taxid, (start, end) in self.boundaries.items():
            if start <= location < end:
                return taxid
        return None

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class ColumnarSpeciesIndex:
    """Per-species sorted index as columns: one stable argsort of the genome.

    ``kmers`` holds the k-mer of every genome position in ascending order
    (repeats kept) and ``positions`` the position each came from, so the
    positions of one k-mer are contiguous and ascending.
    """

    taxid: int
    k: int
    genome_length: int
    kmers: np.ndarray
    positions: np.ndarray

    @classmethod
    def build(cls, taxid: int, sequence: str, k: int) -> "ColumnarSpeciesIndex":
        kmers = extract_kmers(sequence, k, canonical=False)
        order = np.argsort(kmers, kind="stable")
        return cls(
            taxid=taxid,
            k=k,
            genome_length=len(sequence),
            kmers=kmers[order],
            positions=order.astype(np.int64, copy=False),
        )

    def distinct_kmers(self) -> int:
        """Entries of the equivalent :class:`SpeciesIndex`."""
        if self.kmers.size == 0:
            return 0
        return 1 + int(np.count_nonzero(self.kmers[1:] != self.kmers[:-1]))


@dataclass(frozen=True)
class ColumnarUnifiedIndex:
    """Merged candidate index as ``(key column, CSR offsets, locations)``.

    ``locations[offsets[i]:offsets[i + 1]]`` are the ascending global
    locations of ``kmers[i]``; species ``taxids[j]`` (ascending) covers
    locations ``[starts[j], starts[j + 1])``, the last one up to
    ``total_length``.  ``location_species[i]`` is the species (an index
    into ``taxids``) that ``locations[i]`` falls in, fixed by the merge.

    ``signatures`` is an ``(n_sig + 1, n_species)`` ``int64`` matrix of
    pairwise distinct rows: row ``key_signature[i]`` counts, per species,
    the locations of ``kmers[i]``, and the last row, all zeros, is what
    a seed that hits no key votes with.  A merge of a few species has few
    distinct rows whatever its key count, so the vote counts hits per
    signature and multiplies by this matrix once per block.
    """

    k: int
    kmers: np.ndarray
    offsets: np.ndarray
    locations: np.ndarray
    location_species: np.ndarray
    taxids: np.ndarray
    starts: np.ndarray
    total_length: int
    signatures: np.ndarray
    key_signature: np.ndarray

    def __len__(self) -> int:
        return int(self.kmers.size)


def vote_block_reads(index: ColumnarUnifiedIndex) -> int:
    """Reads per columnar vote block over ``index``.

    At most :data:`VOTE_BLOCK_READS`; at most ``1 << spare_bits(k)``
    (:func:`~repro.sequences.keys.spare_bits`), so a block-local read id
    always fits beside a seed in its key word; and scaled by
    ``n_species / n_sig``, so the block's ``(reads, n_sig + 1)`` count
    matrix stays O(block x species) however many signatures the merge
    holds.
    """
    n_sig = index.signatures.shape[0] - 1
    return min(
        VOTE_BLOCK_READS,
        1 << spare_bits(index.k),
        max(1, VOTE_BLOCK_READS * index.taxids.size // max(1, n_sig)),
    )


class ReadMapper:
    """Seed-voting mapper over a unified index (either representation)."""

    def __init__(
        self,
        index: Union[UnifiedIndex, ColumnarUnifiedIndex],
        min_seed_hits: int = 2,
    ):
        if min_seed_hits < 1:
            raise ValueError("min_seed_hits must be >= 1")
        self.index = index
        self.min_seed_hits = min_seed_hits

    def map_read(self, sequence: str) -> Optional[int]:
        """Best species for one read, or None if unmapped."""
        if isinstance(self.index, ColumnarUnifiedIndex):
            species = int(self._vote_block(self.index, [sequence])[0])
            return int(self.index.taxids[species]) if species >= 0 else None
        if self.index.k == 0 or len(sequence) < self.index.k:
            return None
        votes: Counter = Counter()
        for kmer in extract_kmers(sequence, self.index.k, canonical=False).tolist():
            for location in self.index.entries.get(int(kmer), ()):
                taxid = self.index.taxid_of_location(location)
                if taxid is not None:
                    votes[taxid] += 1
        if not votes:
            return None
        taxid, hits = max(votes.items(), key=lambda item: (item[1], -item[0]))
        if hits < self.min_seed_hits:
            return None
        return taxid

    def estimate_abundance(
        self, reads: Sequence[Read], stream: Optional[KmerStream] = None
    ) -> AbundanceProfile:
        """Map all reads; profile = relative mapped-read counts per species.

        ``stream`` is Step 1's sorted k-mer stream of exactly these reads
        (:attr:`~repro.megis.host.BucketSet.stream`); over a columnar
        index of a k no wider than the stream's, the vote takes its seeds
        from it instead of extracting them.  The profile is the same
        either way.
        """
        if isinstance(self.index, ColumnarUnifiedIndex):
            return self._estimate_columnar(self.index, reads, stream)
        counts: Counter = Counter()
        for sequence in read_sequences(reads):
            taxid = self.map_read(sequence)
            if taxid is not None:
                counts[taxid] += 1
        return AbundanceProfile.from_counts(counts)

    # -- the columnar vote --------------------------------------------------------

    def _estimate_columnar(
        self,
        index: ColumnarUnifiedIndex,
        reads: Sequence[Read],
        stream: Optional[KmerStream],
    ) -> AbundanceProfile:
        sequences = read_sequences(reads)
        if stream is not None and stream.lengths.size != len(sequences):
            raise ValueError(
                f"a stream of {stream.lengths.size} reads cannot seed "
                f"a vote over {len(sequences)}"
            )
        seeded = stream is not None and stream.k >= index.k and _votes(index)
        block = vote_block_reads(index)
        block_words = iter(_block_words(stream, block) if seeded else ())
        mapped = np.zeros(index.taxids.size, dtype=np.int64)
        for lo in range(0, len(sequences), block):
            hi = min(lo + block, len(sequences))
            if seeded:
                species = self._vote(index, hi - lo, *_stream_seeds(
                    stream, index.k, sequences, lo, hi, next(block_words)
                ))
            else:
                species = self._vote_block(index, sequences[lo:hi])
            mapped += np.bincount(
                species[species >= 0], minlength=index.taxids.size
            )
        # Python ints: the wire JSON-encodes taxids as dict keys.
        return AbundanceProfile.from_counts({
            int(taxid): int(count)
            for taxid, count in zip(index.taxids.tolist(), mapped.tolist())
            if count
        })

    def _vote_block(
        self, index: ColumnarUnifiedIndex, sequences: Sequence[str]
    ) -> np.ndarray:
        """Best species (an index into ``taxids``; -1 unmapped) per read.

        Equal to :meth:`map_read` over the reference index read for read:
        most seed hits wins, ties go to the lowest taxid (``argmax``
        returns the first maximum and species are in ascending-taxid
        order), fewer than ``min_seed_hits`` hits — which covers reads
        shorter than k, holding no k-mer — is unmapped.  At most
        :func:`vote_block_reads` sequences: the block's own extraction
        at ``index.k``, sorted as one :class:`KmerStream`.
        """
        n_reads = len(sequences)
        if not _votes(index):
            return np.full(n_reads, -1, dtype=np.int64)
        stream = KmerStream.build(sequences, index.k)
        if stream is None:
            raise ValueError(
                f"{n_reads} reads do not fit one vote block at k={index.k}"
            )
        return self._vote(
            index,
            n_reads,
            *_stream_seeds(stream, index.k, sequences, 0, n_reads, stream.words),
        )

    def _vote(
        self,
        index: ColumnarUnifiedIndex,
        n_reads: int,
        seeds: np.ndarray,
        reads: np.ndarray,
        tail_seeds: np.ndarray,
        tail_reads: np.ndarray,
    ) -> np.ndarray:
        """The vote of one block from its seeds in two ascending runs.

        ``seeds[i]`` is a k-mer of block read ``reads[i]``, and so is
        ``tail_seeds[i]`` of ``tail_reads[i]``; each run is ascending.
        Reads cover their genomes several times over, so equal seeds come
        in groups: only the first seed of each group is searched — each
        run's distinct seeds are one strictly increasing needle, so
        consecutive binary searches walk the same path through the key
        column — and its signature (a miss votes with the zero row) is
        copied back to the group with ``np.repeat``.
        """
        n_rows = index.signatures.shape[0]

        def cells(run_seeds, run_reads):
            starts, needle = _distinct(run_seeds)
            slots = searchsorted_clamped(index.kmers, needle)
            signature = np.where(
                index.kmers[slots] == needle, index.key_signature[slots], n_rows - 1
            )
            return run_reads * n_rows + np.repeat(
                signature, np.diff(starts, append=run_reads.size)
            )

        counted = cells(seeds, reads)
        if tail_reads.size:
            counted = np.concatenate((counted, cells(tail_seeds, tail_reads)))
        votes = np.bincount(counted, minlength=n_reads * n_rows).reshape(
            n_reads, n_rows
        ) @ index.signatures
        return np.where(
            votes.max(axis=1) >= self.min_seed_hits, votes.argmax(axis=1), -1
        )


def _votes(index: ColumnarUnifiedIndex) -> bool:
    """Whether any read can map: the index holds a species and a key."""
    return bool(index.taxids.size and index.kmers.size)


def _block_words(stream: KmerStream, block: int) -> List[np.ndarray]:
    """The stream's words of each block of ``block`` reads, in order.

    A stable sort on the block number keeps each block's words in key
    order; one block needs none.
    """
    n_blocks = -(-stream.lengths.size // block)
    if n_blocks <= 1:
        return [stream.words]
    number = stream.reads() // block
    order = np.argsort(number, kind="stable")
    bounds = np.cumsum(np.bincount(number, minlength=n_blocks))[:-1]
    return np.split(stream.words[order], bounds)


def _stream_seeds(
    stream: KmerStream,
    k: int,
    sequences: Sequence[str],
    lo: int,
    hi: int,
    words: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The k-mers of reads ``lo .. hi`` as the vote's two ascending runs.

    ``words`` are the stream's words of those reads, in key order.  Their
    ``k``-prefixes are every read's k-mers but those starting in its last
    ``stream.k - k`` positions, in key order: the main run.  The tail run
    cuts those out of each long read's last ``stream.k``-mer (``stream.k
    - k`` shifts and masks), extracts every k-mer of a read shorter than
    ``stream.k`` (a read shorter than ``k`` has none), and sorts the
    lot.  Read ids are block-local.
    """
    span = stream.k - k
    seeds = words >> np.uint64(stream.read_bits + 2 * span)
    reads = (words & np.uint64((1 << stream.read_bits) - 1)).view(np.int64)
    if lo:
        reads = reads - lo
    lengths = stream.lengths[lo:hi]
    tails: List[np.ndarray] = []
    tail_reads: List[np.ndarray] = []
    if span:
        held = np.flatnonzero(lengths >= stream.k)
        shifts = np.arange(2 * (span - 1), -1, -2, dtype=np.uint64)
        window = np.uint64((1 << (2 * k)) - 1)
        tails.append(
            ((stream.last_kmers[lo:hi][held] >> shifts[:, None]) & window).ravel()
        )
        tail_reads.append(np.tile(held, span))
        short = np.flatnonzero((lengths >= k) & (lengths < stream.k))
        if short.size:
            kmers, ids = extract_kmers_batch(
                [sequences[lo + i] for i in short.tolist()], k
            )
            tails.append(kmers)
            tail_reads.append(short[ids])
    if not tails:
        empty = np.empty(0, dtype=np.uint64)
        return seeds, reads, empty, empty.view(np.int64)
    read_bits = read_id_bits(hi - lo)
    tagged = np.concatenate(tails) << np.uint64(read_bits)
    tagged |= np.concatenate(tail_reads).view(np.uint64)
    tagged.sort()
    return (
        seeds,
        reads,
        tagged >> np.uint64(read_bits),
        (tagged & np.uint64((1 << read_bits) - 1)).view(np.int64),
    )


def _distinct(seeds: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Where each run of equal seeds starts, and its seed.

    The distinct seeds are a take at ``flatnonzero(first)``: a boolean
    mask this sparse and irregular is several times slower.
    """
    first = np.empty(seeds.size, dtype=bool)
    first[:1] = True
    np.not_equal(seeds[1:], seeds[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    return starts, seeds[starts]
