"""Columnar Step 3 and the batch k-mer extractor against their references.

The dict ``SpeciesIndex`` / ``UnifiedIndex.merge`` / per-read ``map_read``
and the per-read ``extract_kmers`` are the references; everything the
columnar session runs must equal them on generated inputs.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.megis.abundance import merge_species_columns, merge_species_indexes
from repro.megis.index import IndexBuilder, MegisIndex
from repro.megis.session import AnalysisSession, MegisConfig
from repro.sequences.encoding import EncodingError
from repro.sequences.kmers import KmerStream, extract_kmers, extract_kmers_batch
from repro.sequences.reads import Read
from repro.tools import mapping
from repro.tools.mapping import (
    ColumnarSpeciesIndex,
    ColumnarUnifiedIndex,
    ReadMapper,
    SpeciesIndex,
    UnifiedIndex,
)
from tests.oracles import merge_unified_index
from tests.strategies import (
    STANDARD_SETTINGS,
    collection,
    mapping_worlds,
    read_lists,
    reference_view,
    stream_samples,
)


def _reference_batch(reads, k):
    per_read = [extract_kmers(read, k, canonical=False) for read in reads]
    kmers = np.concatenate([np.empty(0, dtype=np.uint64), *per_read])
    ids = np.repeat(np.arange(len(reads)), [len(x) for x in per_read])
    return kmers, ids


class TestBatchExtractor:
    @STANDARD_SETTINGS
    @given(st.data(), st.integers(min_value=1, max_value=31))
    def test_equals_per_read_extraction(self, data, k):
        reads = data.draw(read_lists(k))
        want_kmers, want_ids = _reference_batch(reads, k)
        kmers, ids = extract_kmers_batch(reads, k)
        assert kmers.dtype == np.uint64
        assert kmers.tolist() == want_kmers.tolist()
        assert ids.tolist() == want_ids.tolist()

    @pytest.mark.parametrize("k", range(1, 32))
    def test_tail_read_of_exactly_k_bases(self, k):
        """The last k-mer's head window reaches the very end of the
        concatenation — for odd k into the padding codes.  A batch whose
        last read is exactly k bases long, and a lone such read, extract
        what the per-read extractor does, as ``uint64``."""
        rng = np.random.default_rng(k)
        bases = np.array(list("ACGT"))
        exact = "".join(rng.choice(bases, size=k))
        longer = "".join(rng.choice(bases, size=2 * k + 3))
        for reads in ([longer, "A" * (k - 1), exact], [exact], ["T" * k]):
            want_kmers, want_ids = _reference_batch(reads, k)
            kmers, ids = extract_kmers_batch(reads, k)
            assert kmers.dtype == np.uint64
            assert kmers.tolist() == want_kmers.tolist()
            assert ids.tolist() == want_ids.tolist()

    def test_boundary_cases(self):
        for reads in ([], [""], ["AC"], ["ACG"], ["acgtt", "AC", "TTT", ""]):
            want_kmers, want_ids = _reference_batch(reads, 3)
            kmers, ids = extract_kmers_batch(reads, 3)
            assert kmers.tolist() == want_kmers.tolist()
            assert ids.tolist() == want_ids.tolist()

    def test_invalid_nucleotide_raises_like_the_per_read_extractor(self):
        reads = ["ACGT", "ACNT", "AXGT"]
        with pytest.raises(EncodingError) as per_read:
            _reference_batch(reads, 3)
        with pytest.raises(EncodingError) as batch:
            extract_kmers_batch(reads, 3)
        assert str(batch.value) == str(per_read.value)
        # A read too short to hold a k-mer is never encoded, by either.
        assert extract_kmers_batch(["NN", "ACGT"], 3)[0].tolist() == (
            _reference_batch(["NN", "ACGT"], 3)[0].tolist()
        )

    def test_k_must_fit_uint64(self):
        """A ``uint64`` column holds k-mers up to k = 32; from k = 33 the
        same k-mers come back as Python ints in an ``object`` column."""
        with pytest.raises(ValueError):
            extract_kmers_batch(["ACGT"], 0)
        seq = "ACGTTGCATGCCGATAGCTAGGATCCATTGACCAGTAGGC"
        for k, dtype in ((32, np.uint64), (33, object)):
            kmers, reads = extract_kmers_batch([seq, "A" * 5, seq], k)
            assert kmers.dtype == dtype
            assert kmers.tolist() == 2 * extract_kmers(seq, k, canonical=False).tolist()
            assert reads.tolist() == [0] * (len(seq) - k + 1) + [2] * (len(seq) - k + 1)


def _vote(mapper, index, reads):
    """Per-read species of ``reads``, one ``_vote_block`` per vote block."""
    block = mapping.vote_block_reads(index)
    return [
        species
        for start in range(0, len(reads), block)
        for species in mapper._vote_block(index, reads[start:start + block]).tolist()
    ]


def _species_counts(index):
    """Per-key species location counts, recomputed from the CSR columns."""
    offsets = index.offsets.tolist()
    species = index.location_species.tolist()
    return [
        [species[lo:hi].count(s) for s in range(index.taxids.size)]
        for lo, hi in zip(offsets, offsets[1:])
    ]


def _assert_signatures_hold(index):
    signatures = index.signatures
    n_species = index.taxids.size
    assert signatures.dtype == np.int64 and index.key_signature.dtype == np.int64
    assert signatures.shape == (signatures.shape[0], n_species)
    assert index.key_signature.shape == index.kmers.shape
    assert signatures[index.key_signature].tolist() == _species_counts(index)
    rows = [tuple(row) for row in signatures.tolist()]
    assert len(set(rows)) == len(rows), "signature rows must be distinct"
    assert rows[-1] == (0,) * n_species


def _both_kinds(world):
    rows = [SpeciesIndex.build(t, g, world.k) for t, g in world.genomes.items()]
    columns = [
        ColumnarSpeciesIndex.build(t, g, world.k)
        for t, g in world.genomes.items()
    ]
    return rows, columns


class TestColumnarMerge:
    @STANDARD_SETTINGS
    @given(mapping_worlds())
    def test_equals_the_reference_merge(self, world):
        rows, columns = _both_kinds(world)
        merged, stats = merge_species_columns(columns)
        assert isinstance(merged, ColumnarUnifiedIndex)
        reference = merge_unified_index(rows)
        assert reference_view(merged) == reference
        assert len(merged) == len(reference)
        # The heap merge is the reference for the counters.
        assert stats == merge_species_indexes(rows)[1]

    @STANDARD_SETTINGS
    @given(mapping_worlds(min_species=1))
    def test_dispatch_on_the_index_kind(self, world):
        rows, columns = _both_kinds(world)
        assert isinstance(merge_species_indexes(rows)[0], UnifiedIndex)
        assert isinstance(
            merge_species_indexes(columns)[0], ColumnarUnifiedIndex
        )

    @STANDARD_SETTINGS
    @given(mapping_worlds())
    def test_location_species_is_the_reference_attribution(self, world):
        """Each location's species column entry is the index in ``taxids``
        of ``UnifiedIndex.taxid_of_location`` — empty genomes (two equal
        ``starts``) included."""
        rows, columns = _both_kinds(world)
        merged, _ = merge_species_columns(columns)
        reference = merge_unified_index(rows)
        taxids = merged.taxids.tolist()
        assert merged.location_species.shape == merged.locations.shape
        assert merged.location_species.tolist() == [
            taxids.index(reference.taxid_of_location(location))
            for location in merged.locations.tolist()
        ]

    @STANDARD_SETTINGS
    @given(mapping_worlds())
    def test_key_signatures_are_the_per_key_species_counts(self, world):
        """``signatures[key_signature]`` is every key's per-species count of
        locations; the rows are distinct and end with the zero row; and
        the merge's counters are still the heap merge's."""
        rows, columns = _both_kinds(world)
        merged, stats = merge_species_columns(columns)
        _assert_signatures_hold(merged)
        assert stats == merge_species_indexes(rows)[1]

    def test_key_signatures_of_the_empty_and_single_merges(self):
        empty, _ = merge_species_columns([])
        _assert_signatures_hold(empty)
        assert empty.signatures.shape == (1, 0)
        short, _ = merge_species_columns([ColumnarSpeciesIndex.build(4, "AC", 3)])
        _assert_signatures_hold(short)
        assert short.signatures.tolist() == [[0]]
        only, _ = merge_species_columns([ColumnarSpeciesIndex.build(9, "AAAAC", 2)])
        _assert_signatures_hold(only)
        # AA at 0, 1, 2 and AC at 3: two distinct rows and the zero row.
        assert only.signatures.tolist() == [[1], [3], [0]]
        assert only.key_signature.tolist() == [1, 0]

    def test_shared_and_repeated_kmers(self):
        a = ColumnarSpeciesIndex.build(1, "AAAA", k=2)   # AA at 0, 1, 2
        b = ColumnarSpeciesIndex.build(2, "AATT", k=2)
        merged, stats = merge_species_columns([b, a])
        view = reference_view(merged)
        assert view.entries[0] == (0, 1, 2, 4)
        assert view.boundaries == {1: (0, 4), 2: (4, 8)}
        assert (stats.entries_read, stats.entries_written, stats.shared_kmers) == (
            4, 3, 1
        )

    def test_empty_and_single(self):
        merged, stats = merge_species_columns([])
        assert reference_view(merged) == merge_unified_index([])
        assert stats.entries_written == 0
        only = ColumnarSpeciesIndex.build(9, "ACGTAC", k=3)
        merged, stats = merge_species_columns([only])
        assert reference_view(merged) == merge_unified_index(
            [SpeciesIndex.build(9, "ACGTAC", 3)]
        )
        assert stats.shared_kmers == 0

    def test_mixed_k_rejected(self):
        a = ColumnarSpeciesIndex.build(1, "AAAA", k=2)
        b = ColumnarSpeciesIndex.build(2, "AATT", k=3)
        with pytest.raises(ValueError):
            merge_species_indexes([a, b])


class TestColumnarVote:
    @STANDARD_SETTINGS
    @given(mapping_worlds(), st.sampled_from([1, 2, 5]))
    def test_equals_per_read_map_read(self, world, min_seed_hits):
        rows, columns = _both_kinds(world)
        reference = ReadMapper(merge_unified_index(rows), min_seed_hits)
        columnar = ReadMapper(merge_species_columns(columns)[0], min_seed_hits)
        want = [reference.map_read(read) for read in world.reads]
        assert [columnar.map_read(read) for read in world.reads] == want
        reads = [Read(i, seq, 0) for i, seq in enumerate(world.reads)]
        profile = columnar.estimate_abundance(reads)
        assert profile.fractions == reference.estimate_abundance(reads).fractions
        assert all(type(taxid) is int for taxid in profile.fractions)

    @STANDARD_SETTINGS
    @given(mapping_worlds(), st.randoms(use_true_random=False))
    def test_read_order_and_duplicates_change_nothing(self, world, rng):
        """The vote probes a block's distinct seeds in key order: shuffled
        reads (un-permuted) and a block holding every read twice give the
        same per-read species, and the same profile, as the reference."""
        rows, columns = _both_kinds(world)
        unified = merge_species_columns(columns)[0]
        mapper = ReadMapper(unified, min_seed_hits=1)
        reference = ReadMapper(merge_unified_index(rows), min_seed_hits=1)
        want = _vote(mapper, unified, world.reads)
        taxids = unified.taxids.tolist()
        assert [taxids[s] if s >= 0 else None for s in want] == [
            reference.map_read(read) for read in world.reads
        ]

        perm = list(range(len(world.reads)))
        rng.shuffle(perm)
        shuffled = [world.reads[i] for i in perm]
        unpermuted = [0] * len(perm)
        for got, i in zip(_vote(mapper, unified, shuffled), perm):
            unpermuted[i] = got
        assert unpermuted == want
        doubled = [read for read in world.reads for _ in range(2)]
        assert _vote(mapper, unified, doubled) == [
            s for s in want for _ in range(2)
        ]

        profile = reference.estimate_abundance(
            [Read(i, seq, 0) for i, seq in enumerate(world.reads)]
        ).fractions
        for reads in (shuffled, doubled):
            got = mapper.estimate_abundance(
                [Read(i, seq, 0) for i, seq in enumerate(reads)]
            )
            assert got.fractions == profile

    def test_identical_genomes_tie_to_the_lowest_taxid(self):
        genome = "ACGTTGCATGCCGATAGCTA"
        columns = [
            ColumnarSpeciesIndex.build(taxid, genome, 4) for taxid in (7, 3, 5)
        ]
        mapper = ReadMapper(merge_species_columns(columns)[0], min_seed_hits=1)
        assert mapper.map_read(genome[2:12]) == 3
        assert mapper.map_read("ACG") is None  # shorter than k

    def test_blocks_add_up(self, monkeypatch):
        """The vote runs in blocks of reads; a sample spanning several
        blocks (one of them partial) gives the one-block profile."""
        genomes = {1: "ACGTTGCATGCCGATAGCTA", 2: "TTGACCAGTAGGCATCGATC"}
        columns = [ColumnarSpeciesIndex.build(t, g, 4) for t, g in genomes.items()]
        mapper = ReadMapper(merge_species_columns(columns)[0])
        reads = [
            Read(i, genomes[1 + i % 2][i % 9:i % 9 + 10], 0) for i in range(23)
        ]
        whole = mapper.estimate_abundance(reads).fractions
        monkeypatch.setattr(mapping, "VOTE_BLOCK_READS", 5)
        assert mapper.estimate_abundance(reads).fractions == whole


    def test_31_mers_vote_in_blocks_of_four(self):
        """At k = 31 a seed takes 62 bits of the packed word, so a block
        holds 4 reads; a sample spanning several blocks votes as
        ``map_read`` does read for read, and an oversized block is
        refused rather than packed into overlapping bits."""
        genomes = {
            3: "ACGTTGCATGCCGATAGCTAGGATCCATTGACCAGTAGGCATCGATCAAGT",
            8: "TTGACCAGTAGGCATCGATCAAGTCCGATTAGCATGCAAGGTACCTTAGCA",
        }
        columns = [ColumnarSpeciesIndex.build(t, g, 31) for t, g in genomes.items()]
        unified = merge_species_columns(columns)[0]
        assert mapping.vote_block_reads(unified) == 4
        rows = [SpeciesIndex.build(t, g, 31) for t, g in genomes.items()]
        reference = ReadMapper(merge_unified_index(rows), min_seed_hits=1)
        columnar = ReadMapper(unified, min_seed_hits=1)
        reads = [
            Read(i, genomes[(3, 8)[i % 2]][i % 13:i % 13 + 33 + i % 5], 0)
            for i in range(11)
        ] + [Read(11, "ACGT" * 9, 0), Read(12, "ACG", 0)]
        taxids = unified.taxids.tolist()
        assert [
            taxids[s] if s >= 0 else None
            for s in _vote(columnar, unified, [r.sequence for r in reads])
        ] == [reference.map_read(r.sequence) for r in reads]
        assert columnar.estimate_abundance(reads).fractions == (
            reference.estimate_abundance(reads).fractions
        )
        with pytest.raises(ValueError, match="do not fit one vote block"):
            columnar._vote_block(unified, [r.sequence for r in reads[:5]])

    def test_more_signatures_than_species_narrow_the_block(self, monkeypatch):
        """Repeats give keys many distinct species-count rows: the block
        shrinks by ``n_species / n_sig`` and the vote still equals the
        reference across every block."""
        genomes = {1: "AAAAAAACACACAGT", 2: "AAAACACGTGTGTGA"}
        columns = [ColumnarSpeciesIndex.build(t, g, 2) for t, g in genomes.items()]
        unified = merge_species_columns(columns)[0]
        n_sig = unified.signatures.shape[0] - 1
        assert n_sig > unified.taxids.size
        assert mapping.vote_block_reads(unified) == (
            mapping.VOTE_BLOCK_READS * 2 // n_sig
        )
        rows = [SpeciesIndex.build(t, g, 2) for t, g in genomes.items()]
        reference = ReadMapper(merge_unified_index(rows), min_seed_hits=1)
        columnar = ReadMapper(unified, min_seed_hits=1)
        reads = [
            Read(i, genomes[1 + i % 2][i % 7:i % 7 + 3 + i % 6], 0)
            for i in range(30)
        ]
        want = reference.estimate_abundance(reads).fractions
        monkeypatch.setattr(mapping, "VOTE_BLOCK_READS", 8)
        assert mapping.vote_block_reads(unified) == max(1, 16 // n_sig) < 8
        assert columnar.estimate_abundance(reads).fractions == want

    def test_vote_needs_no_unique_and_no_csr_gather(self, monkeypatch):
        """Structural guard: the vote answers with ``np.unique`` patched to
        raise, and the mapping module no longer imports ``csr_gather``."""
        genomes = {1: "ACGTTGCATGCCGATAGCTA", 2: "TTGACCAGTAGGCATCGATC"}
        columns = [ColumnarSpeciesIndex.build(t, g, 4) for t, g in genomes.items()]
        mapper = ReadMapper(merge_species_columns(columns)[0])

        def forbidden(*args, **kwargs):
            raise AssertionError("np.unique called by the vote")

        monkeypatch.setattr(np, "unique", forbidden)
        assert mapper.map_read(genomes[2][3:15]) == 2
        assert not hasattr(mapping, "csr_gather")


def _answer(result):
    return sorted(result.candidates), result.profile.fractions


class TestSessionPaths:
    @pytest.fixture(scope="class")
    def index(self, sorted_db, sketch_db, sample):
        return MegisIndex(sorted_db, sketch_db, sample.references)

    def test_mapper_k_32_votes_in_one_read_blocks(self, index, sample):
        """A 32-mer fills its word, leaving no bit for a read id: the
        numpy session votes over columns one read per block and matches
        the python session."""
        config = MegisConfig(mapper_k=32)
        numpy_session = AnalysisSession(index, config, backend="numpy")
        result = numpy_session.analyze(sample.reads[:60])
        unified, _ = numpy_session.unified_index(result.candidates)
        assert isinstance(unified, ColumnarUnifiedIndex)
        assert mapping.vote_block_reads(unified) == 1
        want = AnalysisSession(index, config, backend="python").analyze(
            sample.reads[:60]
        )
        assert _answer(result) == _answer(want)
        assert result.merge_stats == want.merge_stats

    def test_mapper_k_over_32_falls_to_the_reference(self, index, sample):
        """A 33-mer does not fit uint64: the numpy session runs the dict
        reference and matches the python session."""
        config = MegisConfig(mapper_k=33)
        numpy_session = AnalysisSession(index, config, backend="numpy")
        result = numpy_session.analyze(sample.reads)
        assert result.profile.fractions
        unified, _ = numpy_session.unified_index(result.candidates)
        assert isinstance(unified, UnifiedIndex)
        want = AnalysisSession(index, config, backend="python").analyze(
            sample.reads
        )
        assert _answer(result) == _answer(want)
        assert result.merge_stats == want.merge_stats

    @pytest.mark.parametrize("backend", ["numpy", "python"])
    def test_a_non_ascii_base_is_an_invalid_nucleotide(self, index, sample, backend):
        reads = list(sample.reads[:20])
        reads[7] = Read(reads[7].read_id, reads[7].sequence[:40] + "é", 0)
        session = AnalysisSession(index, backend=backend)
        with pytest.raises(EncodingError, match="invalid nucleotide 'é'"):
            session.analyze(reads)

    @pytest.mark.parametrize("mapper_k", [0, -3])
    def test_config_refuses_a_mapper_k_below_one(self, mapper_k):
        with pytest.raises(ValueError, match="mapper_k"):
            MegisConfig(mapper_k=mapper_k)

    def test_numpy_session_holds_columns_and_equal_merge_stats(
        self, index, sample
    ):
        numpy_session = AnalysisSession(index, backend="numpy")
        result = numpy_session.analyze(sample.reads)
        unified, stats = numpy_session.unified_index(result.candidates)
        assert isinstance(unified, ColumnarUnifiedIndex)
        want = AnalysisSession(index, backend="python").analyze(sample.reads)
        assert _answer(result) == _answer(want)
        assert stats == want.merge_stats

    def test_extractor_calls_do_not_grow_with_the_reads(
        self, index, sample, monkeypatch
    ):
        """Structural guard, independent of host speed: a numpy analysis
        of reads at least the database k long calls the batch extractor
        once per sample, at the database k (Step 1) — the vote takes its
        seeds from Step 1's stream — and never a per-read extractor or a
        per-location ``taxid_of_location``."""
        batch_ks = []

        def counting_batch(sequences, k):
            batch_ks.append(k)
            return extract_kmers_batch(sequences, k)

        def forbidden(name):
            def called(*args, **kwargs):
                raise AssertionError(f"{name} called on the columnar path")
            return called

        session = AnalysisSession(index, backend="numpy")
        session.analyze(sample.reads)  # species indexes built off the count
        import repro.megis.host as host

        monkeypatch.setattr(host, "extract_kmers_batch", counting_batch)
        monkeypatch.setattr(mapping, "extract_kmers_batch", counting_batch)
        monkeypatch.setattr(host, "extract_kmers", forbidden("extract_kmers"))
        monkeypatch.setattr(mapping, "extract_kmers", forbidden("extract_kmers"))
        monkeypatch.setattr(
            UnifiedIndex, "taxid_of_location", forbidden("taxid_of_location")
        )
        k = session.database.k
        vote_blocks = math.ceil(len(sample.reads) / mapping.VOTE_BLOCK_READS)
        assert vote_blocks == 1, "fixture outgrew one vote block"

        for n_reads in (50, len(sample.reads)):
            batch_ks.clear()
            assert session.analyze(sample.reads[:n_reads]).profile.fractions
            assert batch_ks == [k]

        batch_ks.clear()
        batch_of = [sample.reads[:100], sample.reads[100:250], sample.reads[250:]]
        session.analyze_batch(batch_of)
        assert batch_ks == [k] * len(batch_of)

    def test_vote_probes_in_key_order_and_never_searches_starts(
        self, index, sample, monkeypatch
    ):
        """Structural guard, independent of host speed: during a numpy
        analysis every ``searchsorted`` into the unified key column gets a
        non-decreasing needle, and nothing searches the genome ``starts``
        — the vote reads each hit's species counts from its key's
        signature."""
        session = AnalysisSession(index, backend="numpy")
        samples = [sample.reads[:50], sample.reads[::-1]]
        for reads in samples:  # merge off the clock: the unified cache hits
            session.analyze(reads)
        probes = []
        searchsorted = np.searchsorted

        def recording(a, v, *args, **kwargs):
            probes.append((a, np.asarray(v)))
            return searchsorted(a, v, *args, **kwargs)

        monkeypatch.setattr(np, "searchsorted", recording)
        for reads in samples:
            probes.clear()
            result = session.analyze(reads)
            unified, _ = session.unified_index(result.candidates)
            needles = [v for a, v in probes if a is unified.kmers]
            assert needles, "the vote never probed the unified key column"
            assert all(bool(np.all(v[:-1] <= v[1:])) for v in needles)
            assert not any(a is unified.starts for a, _ in probes)

    def test_vote_searches_each_distinct_seed_once(
        self, index, sample, monkeypatch
    ):
        """Structural guard, independent of host speed: during a numpy
        analysis the vote searches the unified key column once per seed
        run, each needle strictly increasing; together they hold every
        distinct ``mapper_k``-mer of the block's reads — fewer needles
        than seeds on a covering sample."""
        session = AnalysisSession(index, backend="numpy")
        reads = sample.reads
        assert len(reads) <= mapping.vote_block_reads(
            session.unified_index(session.analyze(reads).candidates)[0]
        ), "fixture outgrew one vote block"
        probes = []
        searchsorted = np.searchsorted

        def recording(a, v, *args, **kwargs):
            probes.append((a, np.asarray(v)))
            return searchsorted(a, v, *args, **kwargs)

        monkeypatch.setattr(np, "searchsorted", recording)
        result = session.analyze(reads)
        unified, _ = session.unified_index(result.candidates)
        needles = [v for a, v in probes if a is unified.kmers]
        assert 1 <= len(needles) <= 2, "one search per seed run of the block"
        seeds = extract_kmers_batch([read.sequence for read in reads], unified.k)[0]
        distinct = set(seeds.tolist())
        assert all(bool(np.all(v[:-1] < v[1:])) for v in needles)
        assert set(np.concatenate(needles).tolist()) == distinct
        assert sum(v.size for v in needles) < seeds.size


class TestStreamSeededVote:
    """A numpy session's vote takes its seeds from Step 1's sorted
    ``(k-mer, read)`` stream; it must answer as the standalone mapper's
    own extraction and as the ``python`` session do."""

    @STANDARD_SETTINGS
    @given(stream_samples())
    def test_session_standalone_and_python_agree(self, world):
        index = IndexBuilder(
            world.k, (max(1, world.k // 2),), sketch_fraction=1.0
        ).build(collection(world.genomes))
        config = MegisConfig(
            mapper_k=world.mapper_k, min_count=world.min_count,
            max_count=world.max_count, min_containment=0.0, n_buckets=4,
        )
        reads = [Read(i, seq, 0) for i, seq in enumerate(world.reads)]
        session = AnalysisSession(index, config, backend="numpy")
        want = AnalysisSession(index, config, backend="python").analyze(reads)
        needles = []
        searchsorted = np.searchsorted

        def recording(a, v, *args, **kwargs):
            needles.append((a, np.asarray(v)))
            return searchsorted(a, v, *args, **kwargs)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(mapping, "VOTE_BLOCK_READS", world.block)
            if want.candidates:  # merge off the record: the cache hits
                session.unified_index(want.candidates)
            patch.setattr(np, "searchsorted", recording)
            result = session.analyze(reads)
            patch.setattr(np, "searchsorted", searchsorted)
            assert _answer(result) == _answer(want)
            if result.candidates:
                unified, _ = session.unified_index(result.candidates)
                probes = [v for a, v in needles if a is unified.kmers]
                # One or two strictly increasing probes (the main and the
                # tail seed run) per vote block that can map.
                if len(unified) and unified.taxids.size:
                    blocks = math.ceil(len(reads) / mapping.vote_block_reads(unified))
                    assert blocks <= len(probes) <= 2 * blocks
                assert all(bool(np.all(v[:-1] < v[1:])) for v in probes)
                standalone = ReadMapper(unified).estimate_abundance(reads)
                assert standalone.fractions == result.profile.fractions

    @STANDARD_SETTINGS
    @given(stream_samples(), st.integers(min_value=0, max_value=6))
    def test_stream_seeds_are_the_extracted_seeds(self, world, wider):
        """The two runs a stream at k' >= k yields are each ascending and
        together hold exactly the (k-mer, read) pairs the block's own
        extraction at k gives — for every block of reads."""
        k = world.mapper_k
        stream_k = min(31, world.k + wider)
        reads = world.reads
        stream = KmerStream.build(reads, stream_k)
        if stream is None:
            return  # the word does not fit; covered by the fallback
        block = world.block
        for lo, words in zip(
            range(0, len(reads), block), mapping._block_words(stream, block)
        ):
            hi = min(lo + block, len(reads))
            seeds, ids, tail_seeds, tail_ids = mapping._stream_seeds(
                stream, k, reads, lo, hi, words
            )
            for run in (seeds, tail_seeds):
                assert bool(np.all(run[:-1] <= run[1:]))
            kmers, own_ids = extract_kmers_batch(reads[lo:hi], k)
            assert sorted(zip(
                np.concatenate((seeds, tail_seeds)).tolist(),
                np.concatenate((ids, tail_ids)).tolist(),
            )) == sorted(zip(kmers.tolist(), own_ids.tolist()))

    def test_a_stream_of_other_reads_is_refused(self):
        columns = [ColumnarSpeciesIndex.build(1, "ACGTTGCATGCCGATAGCTA", 4)]
        reads = [Read(i, "ACGTTGCATG", 0) for i in range(3)]
        stream = KmerStream.build(["ACGTTGCATG"] * 2, 6)
        with pytest.raises(ValueError, match="cannot seed"):
            ReadMapper(merge_species_columns(columns)[0]).estimate_abundance(
                reads, stream
            )


class TestStreamSeededSession:
    @pytest.fixture(scope="class")
    def index(self, sorted_db, sketch_db, sample):
        return MegisIndex(sorted_db, sketch_db, sample.references)

    def test_reads_shorter_than_k_are_extracted_at_mapper_k_only(
        self, index, sample, monkeypatch
    ):
        """Structural guard: reads at least the database k long are seeded
        from Step 1's stream, so the batch extractor runs once per sample
        at k; a read between ``mapper_k`` and k adds one extraction at
        ``mapper_k`` — of the short reads alone."""
        import repro.megis.host as host
        import repro.sequences.kmers as kmers

        session = AnalysisSession(index, backend="numpy")
        session.analyze(sample.reads)  # species indexes built off the count
        k, mapper_k = session.database.k, session.config.mapper_k
        calls = []

        def counting_batch(sequences, at_k):
            calls.append((at_k, len(sequences)))
            return extract_kmers_batch(sequences, at_k)

        for module in (host, mapping, kmers):
            monkeypatch.setattr(module, "extract_kmers_batch", counting_batch)
        reads = list(sample.reads)
        assert session.analyze(reads).profile.fractions
        assert calls == [(k, len(reads))]
        calls.clear()
        reads[3] = Read(3, reads[3].sequence[:mapper_k + 2], 0)
        assert session.analyze(reads).profile.fractions
        assert calls == [(k, len(reads)), (mapper_k, 1)]

    def test_statistical_presence_only_and_wider_mapper_keep_no_stream(
        self, index, sample
    ):
        seen = []
        session = AnalysisSession(index, MegisConfig(abundance_method="statistical"))
        partition = session._partitioner.partition

        def recording(reads, keep_stream=False):
            bucket_set = partition(reads, keep_stream)
            seen.append(bucket_set.stream)
            return bucket_set

        session._partitioner.partition = recording
        session.analyze(sample.reads[:50])
        mapping_session = AnalysisSession(index)
        mapping_session._partitioner.partition = recording
        mapping_session.analyze(sample.reads[:50], with_abundance=False)
        wider = AnalysisSession(index, MegisConfig(mapper_k=index.database.k + 1))
        wider._partitioner.partition = recording
        assert wider.analyze(sample.reads[:50]).profile.fractions
        assert seen == [None, None, None]
        mapping_session.analyze(sample.reads[:50])
        assert isinstance(seen[-1], KmerStream)

    @pytest.mark.parametrize("backend", ["numpy", "python"])
    def test_a_bad_base_between_mapper_k_and_k_raises_in_step_three(
        self, index, sample, backend
    ):
        """Step 1 never encodes a read shorter than the database k, so an
        invalid base in one at least ``mapper_k`` long surfaces where the
        vote extracts it: Step 3 of a sample with candidates."""
        session = AnalysisSession(index, backend=backend)
        mapper_k = session.config.mapper_k
        bad = Read(9, "ACGTTGCATGCCGAN"[: mapper_k] + "ACG", 0)
        assert mapper_k <= len(bad.sequence) < session.database.k
        reads = [*sample.reads[:20], bad]
        assert session.analyze(reads, with_abundance=False).candidates
        with pytest.raises(EncodingError, match="invalid nucleotide 'N'"):
            session.analyze(reads)
        alone = session.analyze([bad])
        assert not alone.candidates and not alone.profile.fractions

    @pytest.mark.parametrize("backend", ["numpy", "python"])
    def test_a_bad_base_shorter_than_mapper_k_never_raises(
        self, index, sample, backend
    ):
        session = AnalysisSession(index, backend=backend)
        short = "ACGTNACGT"
        assert len(short) < session.config.mapper_k
        clean = session.analyze([*sample.reads[:20], Read(9, "ACGTAACGT", 0)])
        result = session.analyze([*sample.reads[:20], Read(9, short, 0)])
        assert _answer(result) == _answer(clean)
