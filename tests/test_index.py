"""Index lifecycle tests: build -> persist -> open -> serve.

Pins the build-once / query-many contract:

- ``MegisIndex.open()`` + ``AnalysisSession.analyze()`` reproduce a fresh
  pipeline bit for bit, for both backends, both abundance methods, and the
  sharded path;
- opening attaches the persisted columns — no database or KSS row is
  boxed between (or during) consecutive ``analyze()`` calls on the
  columnar backend, asserted through ``row_materializations``;
- the index reader rejects a non-index payload and any corrupt or
  truncated section loudly;
- Step-3 unified-index construction is cached across a sample stream when
  candidate sets overlap;
- the offline build, columnar at every k (``uint64`` keys up to k = 32,
  ``object`` past it), writes the file the per-k-mer reference builders
  write, byte for byte, without a per-k-mer call or a boxed row.
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.backends import get_backend
from repro.databases.serialization import (
    SerializationError,
    pack_sections,
    parse_kmer_column,
    unpack_sections,
)
from repro.databases.sorted_db import SortedKmerDatabase
from repro.megis.index import IndexBuilder, MegisIndex
from repro.megis.multissd import split_database, whole_range, whole_shard
from repro.sequences.keys import column_dtype, kmer_record_bytes, pack_kmer_column
from repro.megis.session import AnalysisSession, MegisConfig, MegisResult
from repro.sequences.generator import GenomeGenerator
from repro.tools.mapping import ColumnarSpeciesIndex, SpeciesIndex
from repro.workloads.cami import CamiDiversity, make_cami_sample
from tests.columns import as_ints, pairs_as_ints, query_dicts, retrieve_with
from tests.oracles import owners_of, sketch_lookup
from tests.strategies import (
    STANDARD_SETTINGS, ReferenceWorld, collection, index_worlds, lying_manifests,
    reference_worlds, with_manifest,
)

BACKENDS = ("python", "numpy")


@pytest.fixture(scope="module")
def index(sorted_db, sketch_db, references):
    return MegisIndex(sorted_db, sketch_db, references)


@pytest.fixture(scope="module")
def payload(index):
    return index.to_bytes(n_shards=3)


@pytest.fixture(scope="module")
def opened(payload):
    return MegisIndex.from_bytes(payload)


class TestRoundTrip:
    def test_database_columns_attached(self, opened, sorted_db):
        assert opened.database.kmers == sorted_db.kmers

    def test_opened_database_is_ownerless(self, opened, sorted_db):
        """An index file stores the key column only: the opened table (and
        its shards) say so instead of answering; the built one answers."""
        kmer = sorted_db.kmers[0]
        assert owners_of(sorted_db, kmer)
        assert len(sorted_db.owner_columns()[1]) == len(sorted_db) + 1
        for database in (opened.database, opened.shards(3)[0].database):
            with pytest.raises(ValueError, match="key column only"):
                database.owner_columns()
            with pytest.raises(ValueError, match="key column only"):
                owners_of(database, kmer)

    def test_kss_store_attached(self, opened):
        assert opened.kss.row_materializations == 0

    def test_kss_columns_equal_built(self, opened, kss_tables):
        got, want = opened.kss.store(), kss_tables.store()
        assert got.kmers.tolist() == want.kmers.tolist()
        assert got.signatures.tolist() == want.signatures.tolist()
        assert got.table.taxids.tolist() == want.table.taxids.tolist()
        assert got.table.offsets.tolist() == want.table.offsets.tolist()
        assert got.table.digest == want.table.digest
        for k in kss_tables.smaller_ks:
            got_level, want_level = got.levels[k], want.levels[k]
            assert got_level.prefixes.tolist() == want_level.prefixes.tolist()
            assert got_level.signatures.tolist() == want_level.signatures.tolist()

    def test_kss_size_equal_built(self, opened, kss_tables):
        # One formula (over the store) for a built and a reloaded table.
        assert opened.kss.size_bytes() == kss_tables.size_bytes()
        assert len(opened.kss) == len(kss_tables)

    def test_kss_rows_lazy_and_equal(self, payload, kss_tables):
        fresh = MegisIndex.from_bytes(payload)
        assert fresh.kss.row_materializations == 0
        assert fresh.kss.entries == kss_tables.entries
        assert fresh.kss.sub_tables == kss_tables.sub_tables
        assert fresh.kss.row_materializations > 0

    def test_sketch_tables_lazy_and_equal(self, payload, sketch_db):
        fresh = MegisIndex.from_bytes(payload)
        assert fresh.sketch.sketch_sizes == sketch_db.sketch_sizes
        assert fresh.sketch._tables is None  # not materialized by loading
        assert fresh.sketch.tables == sketch_db.tables

    def test_saved_shards_are_views_of_the_parent(self, payload):
        """The persisted shard count is served like any other: zero-copy
        views that tile the parent's one key column."""
        fresh = MegisIndex.from_bytes(payload)
        parent = fresh.database.column()
        start = 0
        for shard in fresh.shards(3):
            assert np.shares_memory(shard.database.column(), parent)
            stop = start + len(shard.database)
            assert shard.database.kmers == fresh.database.kmers[start:stop]
            start = stop
        assert start == len(fresh.database)

    def test_references_roundtrip(self, opened, references):
        assert opened.references.species_taxids == references.species_taxids
        for taxid in references.species_taxids:
            assert opened.references.sequence(taxid) == references.sequence(taxid)

    def test_metalign_only_session_never_builds_kss(self, sorted_db, sketch_db,
                                                    references, sample):
        # The lazy-KSS design: a Metalign-only session streams no KSS, so
        # neither the session nor the shim may force its construction.
        lazy = MegisIndex(sorted_db, sketch_db, references)
        session = AnalysisSession(lazy)
        assert session.analyze_metalign(sample.reads).candidates
        assert lazy._kss is None

    def test_without_references(self, index, sample):
        slim = MegisIndex.from_bytes(index.to_bytes(include_references=False))
        assert slim.references is None
        session = AnalysisSession(slim, MegisConfig(abundance_method="statistical"))
        assert session.analyze(sample.reads).candidates
        with pytest.raises(ValueError, match="no reference sequences"):
            AnalysisSession(slim).analyze(sample.reads)

    def test_save_open_file(self, tmp_path, index, sample):
        path = index.save(tmp_path / "world.megis", n_shards=2)
        served = AnalysisSession(MegisIndex.open(path)).analyze(sample.reads)
        fresh = AnalysisSession(index).analyze(sample.reads)
        assert served.candidates == fresh.candidates
        assert served.profile.fractions == fresh.profile.fractions


def _kss_columns(kss):
    """Every column of a KSS (whole, or one shard's range slice), by name."""
    store = kss.store()
    columns = {"kss/kmers": store.kmers, "kss/signatures": store.signatures,
               "kss/signature_taxids": store.table.taxids,
               "kss/signature_offsets": store.table.offsets}
    for k, level in store.levels.items():
        for field in dataclasses.fields(level):
            columns[f"kss/{k}/{field.name}"] = getattr(level, field.name)
    return columns


def _assert_same_columns(got, want):
    assert set(got) == set(want)
    for name, column in want.items():
        assert got[name].tolist() == column.tolist(), name


def _store_columns(index, n_shards):
    """Every persisted column of an index saved with ``n_shards``, by name."""
    columns = _kss_columns(index.kss)
    for shard in index.shards(n_shards):
        columns[f"db/{shard.index}/kmers"] = shard.database.column()
    return columns


class TestSectionSources:
    """``from_bytes(payload)`` and ``open(path)`` are one loader over two
    buffers: nothing but the buffer's type may differ."""

    @pytest.fixture(scope="class")
    def by_source(self, payload, tmp_path_factory):
        path = tmp_path_factory.mktemp("sources") / "world.megis"
        path.write_bytes(payload)
        return {"from_bytes": MegisIndex.from_bytes(payload),
                "open": MegisIndex.open(path)}

    def test_columns_equal_in_value_and_dtype(self, by_source):
        got, want = (
            _store_columns(by_source[s], 3) for s in ("open", "from_bytes")
        )
        assert set(got) == set(want)
        for name, column in want.items():
            assert got[name].dtype == column.dtype, name
            assert np.array_equal(got[name], column), name
        assert got["db/0/kmers"].dtype == np.dtype(np.uint64)
        assert got["kss/signatures"].dtype == np.dtype("<i4")
        assert got["kss/signature_taxids"].dtype == np.dtype("<i8")

    @pytest.mark.parametrize("source", ["from_bytes", "open"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_shard_ranges_equal_built(self, by_source, index, source, n):
        got, want = by_source[source].shards(n), index.shards(n)
        assert [(s.lo, s.hi) for s in got] == [(s.lo, s.hi) for s in want]
        for mine, theirs in zip(got, want):
            assert mine.database.kmers == theirs.database.kmers

    @pytest.mark.parametrize("source", ["from_bytes", "open"])
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_serves_reference_results_from_the_sections(
        self, by_source, index, sample, source, backend
    ):
        """Bit-identical to the ``python`` reference over the built index,
        at the persisted shard count."""
        halves = [sample.reads[:200], sample.reads[200:]]
        want = AnalysisSession(
            index, MegisConfig(backend="python", n_ssds=3)
        ).analyze_batch(halves)
        served = by_source[source]
        got = AnalysisSession(
            served, MegisConfig(backend=backend, n_ssds=3)
        ).analyze_batch(halves)
        for mine, theirs in zip(got, want):
            assert mine.intersecting_kmers == theirs.intersecting_kmers
            assert mine.sketch_hits == theirs.sketch_hits
            assert mine.candidates == theirs.candidates
            assert mine.profile.fractions == theirs.profile.fractions


    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("method,n_ssds", [("mapping", 1),
                                               ("statistical", 3)])
    def test_serves_bit_identically(self, by_source, sample, backend, method,
                                    n_ssds):
        config = MegisConfig(backend=backend, abundance_method=method,
                             n_ssds=n_ssds)
        expected = AnalysisSession(
            by_source["from_bytes"], config
        ).analyze(sample.reads)
        got = AnalysisSession(by_source["open"], config).analyze(sample.reads)
        assert got.intersecting_kmers == expected.intersecting_kmers
        assert got.sketch_hits == expected.sketch_hits
        assert got.candidates == expected.candidates
        assert got.profile.fractions == expected.profile.fractions


def _cut(manifest):
    """The shared edge of a two-shard manifest's ranges."""
    return manifest["shard_ranges"][0][1]


def _top(manifest):
    return manifest["shard_ranges"][1][1]


class TestManifestValidation:
    """A manifest whose keys exist but whose values lie is one
    ``SerializationError`` — at the parent each row was a ``KeyError`` /
    ``TypeError`` / bare ``ValueError`` from a column loader, or (the short
    ``shard_ranges``) no error at all.  Each row maps the two-shard
    fixture's manifest to the one written instead."""

    TAMPERINGS = {
        "level_rows_entry_dropped": lambda m: {
            **m, "kss_level_rows": {"8": m["kss_level_rows"]["8"]}},
        "level_rows_negative": lambda m: {
            **m, "kss_level_rows": {**m["kss_level_rows"], "8": -3}},
        "n_shards_not_an_int": lambda m: {**m, "n_shards": "two"},
        "n_shards_zero": lambda m: {**m, "n_shards": 0},
        "k_null": lambda m: {**m, "k": None},
        "k_disagrees_with_k_max": lambda m: {**m, "k_max": m["k"] + 1},
        # The key-space bound 4^k is checked without being built: at the
        # parent these raised MemoryError under a 2 GB address-space limit.
        "k_huge": lambda m: {**m, "k": 2**40, "k_max": 2**40},
        "k_past_int64": lambda m: {**m, "k": 2**62, "k_max": 2**62},
        "smaller_ks_not_a_list": lambda m: {**m, "smaller_ks": 5},
        "smaller_ks_beyond_k": lambda m: {**m, "smaller_ks": [40, 12]},
        "smaller_ks_not_descending": lambda m: {**m, "smaller_ks": [8, 12]},
        "kss_rows_negative": lambda m: {**m, "kss_rows": -1},
        "shard_ranges_short": lambda m: {
            **m, "shard_ranges": m["shard_ranges"][:1]},
        "shard_ranges_gap": lambda m: {
            **m, "shard_ranges": [[0, _cut(m)], [_cut(m) + 1, _top(m)]]},
        "shard_ranges_inverted": lambda m: {
            **m, "shard_ranges": [[0, -4], [-4, _top(m)]]},
        "shard_ranges_stop_early": lambda m: {
            **m, "shard_ranges": [[0, _cut(m)], [_cut(m), _cut(m)]]},
        "shard_ranges_not_pairs": lambda m: {**m, "shard_ranges": [0, 1]},
        "shard_boundary_below_its_keys": lambda m: {
            **m, "shard_ranges": [[0, _cut(m) // 2], [_cut(m) // 2, _top(m)]]},
        "manifest_not_an_object": lambda m: [1, 2],
    }

    @pytest.mark.parametrize("tampering", sorted(TAMPERINGS))
    def test_tampered_manifest_rejected(self, index, tmp_path, tampering):
        payload = with_manifest(index.to_bytes(n_shards=2),
                                self.TAMPERINGS[tampering])
        path = tmp_path / "tampered.megis"
        path.write_bytes(payload)
        for load in (lambda: MegisIndex.from_bytes(payload),
                     lambda: MegisIndex.open(path)):
            with pytest.raises(SerializationError, match="manifest"):
                load()


    def test_shard_boundary_must_bracket_the_section_keys(self, index, sample):
        """``shard_ranges`` tile the key space *and* agree with the shard
        sections: queries are clipped to them, so a moved boundary used to
        open cleanly and silently drop matches.  Moved either way it is a
        ``SerializationError`` from the shard whose keys it cuts; left
        alone the container is byte-identical and serves the built result."""
        payload = index.to_bytes(n_shards=2)
        [first_of_second] = MegisIndex.from_bytes(payload).shards(2)[1].database.kmers[:1]

        def moved(cut):
            return with_manifest(payload, lambda m: {
                **m, "shard_ranges": [[0, cut], [cut, _top(m)]]})

        lowered, raised = moved(first_of_second // 2), moved(first_of_second + 1)
        for tampered, cut_shard in ((lowered, 0), (raised, 1)):
            with pytest.raises(SerializationError, match=f"shard {cut_shard}"):
                MegisIndex.from_bytes(tampered)

        untouched = with_manifest(payload, lambda m: m)
        assert untouched == payload
        config = MegisConfig(backend="numpy", n_ssds=2)
        got = AnalysisSession(
            MegisIndex.from_bytes(untouched), config
        ).analyze(sample.reads)
        want = AnalysisSession(index, config).analyze(sample.reads)
        assert got.intersecting_kmers == want.intersecting_kmers
        assert got.candidates == want.candidates
        assert got.profile.fractions == want.profile.fractions


class TestSaveReplacesAtomically:
    def test_open_index_survives_a_save_over_its_path(self, tmp_path, index,
                                                      sample):
        """``save`` over a path a live index has mapped must not disturb it
        (an in-place truncate would SIGBUS or swap its columns): the first
        index keeps serving its world, a fresh open serves the new one."""
        path = index.save(tmp_path / "a.megis", n_shards=2)
        first = MegisIndex.open(path)
        config = MegisConfig(backend="numpy", abundance_method="statistical")
        before = AnalysisSession(first, config).analyze(sample.reads)

        other = make_cami_sample(CamiDiversity.LOW, n_reads=120, n_genera=2,
                                 species_per_genus=2, genome_length=900, seed=23)
        new_world = IndexBuilder(k=20).build(other.references)
        new_world.save(path)
        assert [p.name for p in tmp_path.iterdir()] == ["a.megis"]

        after = AnalysisSession(first, config).analyze(sample.reads)
        assert after.intersecting_kmers == before.intersecting_kmers
        assert after.candidates == before.candidates
        assert after.profile.fractions == before.profile.fractions
        assert first.database.kmers == index.database.kmers

        reopened = MegisIndex.open(path)
        assert reopened.database.kmers == new_world.database.kmers
        served = AnalysisSession(reopened, config).analyze(other.reads)
        fresh = AnalysisSession(new_world, config).analyze(other.reads)
        assert served.candidates == fresh.candidates
        assert served.profile.fractions == fresh.profile.fractions


def _assert_same_index(got, want, n_shards, query):
    _assert_same_columns(_store_columns(got, n_shards),
                         _store_columns(want, n_shards))
    assert got.database.kmers == want.database.kmers
    assert got.sketch.sketch_sizes == want.sketch.sketch_sizes
    hits = want.database.intersect(query)
    assert got.database.intersect(query) == hits
    expected = query_dicts(want.kss.retrieve(hits))
    assert query_dicts(got.kss.retrieve(hits)) == expected
    [(kmers, retrieved)] = get_backend("numpy").step_two(
        whole_shard(got.database, got.kss), [whole_range(query, got.k)]
    )
    assert as_ints(kmers) == hits
    assert query_dicts(retrieved) == expected


class TestContainerProperties:
    """Generated databases through the container (ROADMAP item 5)."""

    @pytest.fixture(scope="class")
    def scratch(self, tmp_path_factory):
        return tmp_path_factory.mktemp("generated")

    @given(world=index_worlds(), n_shards=st.integers(min_value=1, max_value=4))
    @STANDARD_SETTINGS
    def test_round_trips_through_both_sources(self, scratch, world, n_shards):
        built = world.index
        payload = built.to_bytes(n_shards=n_shards)
        _assert_same_index(MegisIndex.from_bytes(payload), built, n_shards,
                           world.query)
        # Same path every example: each save replaces a file the previous
        # example's index may still hold mapped.
        path = built.save(scratch / "world.megis", n_shards=n_shards)
        assert path.read_bytes() == payload
        _assert_same_index(MegisIndex.open(path), built, n_shards, world.query)

    @given(world=index_worlds(), n_shards=st.integers(min_value=1, max_value=3),
           data=st.data())
    @STANDARD_SETTINGS
    def test_corruption_is_a_serialization_error(self, scratch, world, n_shards,
                                                 data):
        """Every truncation fails; a flipped header / TOC / manifest byte
        fails or (a flip JSON does not mind) still opens — and nothing
        ever escapes as another exception type, from either source."""
        payload = world.index.to_bytes(n_shards=n_shards)
        # (The manifest is the first section, right behind header and TOC.)
        manifest_end = (len(payload) - sum(
            len(view) for name, view in unpack_sections(payload).items()
            if name != "manifest"
        ))
        path = scratch / "corrupt.megis"

        cut = data.draw(st.integers(min_value=0, max_value=len(payload) - 1))
        path.write_bytes(payload[:cut])
        with pytest.raises(SerializationError):
            MegisIndex.from_bytes(payload[:cut])
        with pytest.raises(SerializationError):
            MegisIndex.open(path)

        at = data.draw(st.integers(min_value=0, max_value=manifest_end - 1))
        flipped = bytearray(payload)
        flipped[at] ^= data.draw(st.integers(min_value=1, max_value=255))
        path.write_bytes(flipped)
        for load in (lambda: MegisIndex.from_bytes(bytes(flipped)),
                     lambda: MegisIndex.open(path)):
            try:
                load()
            except SerializationError:
                pass


@pytest.mark.parametrize("k", [12, 40])  # uint64 / object key columns
class TestOneKeySectionProperties:
    """The file holds the database as one key column: the shard count it
    was saved with decides only which boundaries the manifest records."""

    @pytest.fixture(scope="class")
    def scratch(self, tmp_path_factory):
        return tmp_path_factory.mktemp("one-section")

    @given(data=st.data(), n=st.sampled_from([1, 2, 3, 5]),
           m=st.integers(min_value=1, max_value=6))
    @STANDARD_SETTINGS
    def test_persisted_count_is_only_a_manifest_entry(self, scratch, k, data,
                                                      n, m):
        world = data.draw(index_worlds(ks=(k,)))
        built = world.index
        payload = built.to_bytes(n_shards=n)
        names = list(unpack_sections(payload))
        assert names == list(unpack_sections(built.to_bytes(n_shards=1)))
        assert [name for name in names if name.startswith("db/")] == ["db/kmers"]
        path = built.save(scratch / "world.megis", n_shards=n)
        want = AnalysisSession(
            built, MegisConfig(backend="python", n_ssds=m)
        ).step_two_partial([world.query])
        for opened in (MegisIndex.from_bytes(payload), MegisIndex.open(path)):
            assert opened.to_bytes(n_shards=n) == payload
            for count in (m, n):
                got_shards = opened.shards(count)
                want_shards = split_database(built.database, count)
                assert ([(s.lo, s.hi) for s in got_shards]
                        == [(s.lo, s.hi) for s in want_shards])
                for mine, theirs in zip(got_shards, want_shards):
                    assert mine.database.kmers == theirs.database.kmers
            for backend in BACKENDS:
                assert pairs_as_ints(AnalysisSession(
                    opened, MegisConfig(backend=backend, n_ssds=m)
                ).step_two_partial([world.query])) == pairs_as_ints(want)

    @given(data=st.data(), n=st.integers(min_value=1, max_value=6))
    @STANDARD_SETTINGS
    def test_key_section_is_the_packed_column_at_its_flash_size(self, k, data, n):
        """The file's ``db/kmers`` section, the column codec's output and
        the size the FTL is asked to place are one thing, at any count."""
        index = data.draw(index_worlds(ks=(k,))).index
        database = index.database
        section = bytes(unpack_sections(index.to_bytes(n_shards=n))["db/kmers"])
        assert section == pack_kmer_column(database.column(), k)
        assert len(section) == database.size_bytes()

    @given(data=st.data(), n=st.sampled_from([1, 2, 3, 5]))
    @STANDARD_SETTINGS
    def test_a_lying_manifest_is_a_serialization_error(self, scratch, k, data,
                                                       n):
        world = data.draw(index_worlds(ks=(k,)))
        payload = world.index.to_bytes(n_shards=n)
        tampered = data.draw(lying_manifests(payload, world.index.database.kmers))
        path = scratch / "tampered.megis"
        path.write_bytes(tampered)
        with pytest.raises(SerializationError):
            MegisIndex.from_bytes(tampered)
        with pytest.raises(SerializationError):
            MegisIndex.open(path)


class TestServedEquivalence:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("method", ["mapping", "statistical"])
    @pytest.mark.parametrize("n_ssds", [1, 3])
    def test_session_equals_fresh_pipeline(self, opened, sorted_db, sketch_db,
                                           sample, backend, method, n_ssds):
        config = MegisConfig(backend=backend, abundance_method=method,
                             n_ssds=n_ssds)
        fresh = AnalysisSession(
            MegisIndex(sorted_db, sketch_db, sample.references), config=config
        ).analyze(sample.reads)
        served = AnalysisSession(opened, config).analyze(sample.reads)
        assert served.intersecting_kmers == fresh.intersecting_kmers
        assert served.sketch_hits == fresh.sketch_hits
        assert served.candidates == fresh.candidates
        assert served.profile.fractions == fresh.profile.fractions

    def test_batch_equals_individual(self, opened, sample):
        session = AnalysisSession(opened, MegisConfig(backend="numpy"))
        halves = [sample.reads[:200], sample.reads[200:]]
        batched = session.analyze_batch(halves)
        individual = [session.analyze(reads) for reads in halves]
        for got, want in zip(batched, individual):
            assert got.candidates == want.candidates
            assert got.profile.fractions == want.profile.fractions

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("n_ssds", [1, 3])
    def test_one_sample_is_the_batch_of_one(self, opened, sample, backend,
                                            n_ssds):
        """``analyze(x)`` and ``analyze_batch([x])[0]`` are one path: every
        result field and the Step-2 stream bookkeeping agree, on one SSD
        and sharded."""
        session = AnalysisSession(
            opened, MegisConfig(backend=backend, n_ssds=n_ssds)
        )
        single = session.analyze(sample.reads)
        [batched] = session.analyze_batch([sample.reads])
        for field in dataclasses.fields(MegisResult):
            if field.name != "timings":
                assert getattr(single, field.name) == getattr(batched, field.name)
        for counter in ("db_kmers_streamed", "db_stream_passes",
                        "buckets_processed", "query_kmers_streamed"):
            assert (getattr(single.timings, counter)
                    == getattr(batched.timings, counter)), counter
        assert single.timings.db_stream_passes == n_ssds

    def test_metalign_session_over_opened_index(self, opened, sorted_db,
                                                sketch_db, sample):
        session = AnalysisSession(opened)
        metalign = session.analyze_metalign(sample.reads)
        megis = session.analyze(sample.reads)
        assert metalign.candidates == megis.candidates
        assert metalign.profile.fractions == megis.profile.fractions


class TestZeroReconstruction:
    def test_no_rebuild_between_analyze_calls(self, payload, sample):
        opened = MegisIndex.from_bytes(payload)
        session = AnalysisSession(
            opened, MegisConfig(backend="numpy", abundance_method="statistical",
                                n_ssds=3),
        )
        first = session.analyze(sample.reads)
        second = session.analyze(sample.reads)
        assert first.candidates == second.candidates
        assert opened.kss.row_materializations == 0
        for shard in opened.shards(3):
            assert shard.kss.row_materializations == 0

    @pytest.mark.parametrize("source", ["from_bytes", "open"])
    def test_query_path_never_materializes(self, payload, tmp_path, sample,
                                           source):
        """Serving on the columnar backend builds no column and boxes no
        row — from either section source; the reference backend walks row
        views, so one sample on it materializes the shards' k-mer lists
        and KSS rows (once)."""
        if source == "open":
            path = tmp_path / "world.megis"
            path.write_bytes(payload)
            served = MegisIndex.open(path, mmap=True)
        else:
            served = MegisIndex.from_bytes(payload)
        config = MegisConfig(backend="numpy", abundance_method="statistical",
                             n_ssds=3)
        session = AnalysisSession(served, config)
        first = session.analyze(sample.reads)
        second = session.analyze(sample.reads)
        assert first.candidates and first.candidates == second.candidates
        shards = served.shards(3)
        for database in [served.database] + [s.database for s in shards]:
            assert database.row_materializations == 0
        for kss in [served.kss] + [s.kss for s in shards]:
            assert kss.row_materializations == 0

        reference = AnalysisSession(
            served, dataclasses.replace(config, backend="python")
        ).analyze(sample.reads)
        assert reference.candidates == first.candidates
        for shard in shards:
            assert shard.database.row_materializations == 1
            assert shard.kss.row_materializations > 0

    def test_open_holds_columns_not_python_ints(self, index, tmp_path):
        """``open`` keeps one 8-byte key per database k-mer plus the KSS
        key columns, whatever the persisted shard count — no Python int
        per row (which alone cost > 32 B each, 82 B per k-mer in all)."""
        import tracemalloc

        path = index.save(tmp_path / "world.megis", n_shards=4,
                          include_references=False)
        MegisIndex.open(path)  # imports and caches are not open's footprint
        tracemalloc.start()
        try:
            opened = MegisIndex.open(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / len(opened.database) < 48

    def test_sharded_session_never_builds_the_single_ssd_engine(
        self, opened, sample
    ):
        """Reading the backend's name (analyze, analyze_batch,
        backend_name) must not construct an IspStepTwo the sharded session
        never runs."""
        session = AnalysisSession(opened, MegisConfig(backend="numpy", n_ssds=4))
        assert session.backend_name == "numpy"
        session.analyze(sample.reads, with_abundance=False)
        session.analyze_batch([sample.reads[:100]], with_abundance=False)
        assert session._isp is None
        partial = AnalysisSession(opened, MegisConfig(backend="numpy", n_ssds=4),
                                  shard_range=(0, 2))
        assert partial.backend_name == "numpy"
        assert partial._isp is None

    @staticmethod
    def _species_builds(opened, sample, monkeypatch, backend):
        """Taxids each species-index class built while ``backend`` served
        overlapping candidate sets, as ``{class: [taxid, ...]}``."""
        built = {SpeciesIndex: [], ColumnarSpeciesIndex: []}

        def counting(cls):
            original = cls.build.__func__

            def build(klass, taxid, sequence, k):
                built[cls].append(taxid)
                return original(klass, taxid, sequence, k)

            monkeypatch.setattr(cls, "build", classmethod(build))

        for cls in built:
            counting(cls)
        session = AnalysisSession(opened, MegisConfig(backend=backend))
        session.analyze_batch([sample.reads[:200], sample.reads[200:]])
        session.analyze(sample.reads)
        return built

    def test_species_index_cache_across_overlapping_candidates(
        self, opened, sample, monkeypatch
    ):
        """The path a columnar session runs builds columns — counting the
        dict builder there would pass with nothing counted."""
        built = self._species_builds(opened, sample, monkeypatch, "numpy")
        columns = built[ColumnarSpeciesIndex]
        assert columns, "mapping Step 3 never ran"
        assert len(set(columns)) == len(columns), (
            "a species index was rebuilt despite overlapping candidate sets"
        )
        assert not built[SpeciesIndex], "a columnar session ran the reference"

    def test_species_index_cache_on_the_reference_backend(
        self, opened, sample, monkeypatch
    ):
        built = self._species_builds(opened, sample, monkeypatch, "python")
        rows = built[SpeciesIndex]
        assert rows, "mapping Step 3 never ran"
        assert len(set(rows)) == len(rows), (
            "a species index was rebuilt despite overlapping candidate sets"
        )
        assert not built[ColumnarSpeciesIndex]

    def test_identical_candidate_sets_share_the_merge(self, opened, sample):
        session = AnalysisSession(opened, MegisConfig(backend="numpy"))
        first = session.analyze(sample.reads)
        second = session.analyze(sample.reads)
        assert first.merge_stats is second.merge_stats
        assert len(session._unified_cache) == 1

    def test_unified_cache_is_lru_bounded(self, opened):
        from itertools import combinations, islice

        session = AnalysisSession(opened)
        taxids = opened.references.species_taxids
        n_sets = session.UNIFIED_CACHE_LIMIT + 5
        distinct = list(islice(combinations(taxids, 2), n_sets))
        assert len(distinct) == n_sets, "fixture too small for the sweep"
        for pair in distinct:
            session.unified_index(pair)
        assert len(session._unified_cache) == session.UNIFIED_CACHE_LIMIT
        # The most recent entries survived the eviction.
        assert frozenset(distinct[-1]) in session._unified_cache
        assert frozenset(distinct[0]) not in session._unified_cache

    def test_backend_instance_accepted(self, opened, sample):
        session = AnalysisSession(opened, backend=get_backend("numpy"))
        assert session.config.backend == "numpy"
        assert session.analyze(sample.reads, with_abundance=False).candidates


class TestLegacyAndCorruption:
    def test_bad_magic(self, payload):
        corrupt = bytearray(payload)
        corrupt[0] ^= 0xFF
        with pytest.raises(SerializationError, match="magic"):
            MegisIndex.from_bytes(bytes(corrupt))

    def test_unsupported_version(self, payload):
        corrupt = bytearray(payload)
        corrupt[8] = 99
        with pytest.raises(SerializationError, match="version"):
            MegisIndex.from_bytes(bytes(corrupt))

    def test_truncated_body(self, payload):
        with pytest.raises(SerializationError):
            MegisIndex.from_bytes(payload[:-7])

    def test_trailing_garbage(self, payload):
        with pytest.raises(SerializationError, match="trailing"):
            MegisIndex.from_bytes(payload + b"xx")

    def test_corrupt_toc(self, payload):
        corrupt = bytearray(payload)
        corrupt[20] = 0x7B  # stomp inside the JSON table of contents
        with pytest.raises(SerializationError):
            MegisIndex.from_bytes(bytes(corrupt))

    def test_missing_section_rejected(self, index):
        sections = {
            name: bytes(view)
            for name, view in unpack_sections(index.to_bytes()).items()
            if name != "kss/kmers"
        }
        with pytest.raises(SerializationError, match="kss/kmers"):
            MegisIndex.from_bytes(pack_sections(sections))

    def test_out_of_order_kmer_column_rejected(self):
        # Unsorted k-mer records must fail at attach, not misresolve
        # bisect-based queries later.
        records = bytearray(pack_kmer_column(np.array([5, 9, 40], np.uint64), 12))
        # Swap the first two 3-byte k-mer records.
        records[0:3], records[3:6] = records[3:6], records[0:3]
        column = parse_kmer_column(bytes(records), 12, 3)
        assert column.tolist() == [9, 5, 40]
        with pytest.raises(ValueError, match="strictly increasing"):
            SortedKmerDatabase.from_columns(12, column)

    def test_unsorted_database_section_rejected(self, index):
        sections = {
            name: bytes(view)
            for name, view in unpack_sections(index.to_bytes(n_shards=3)).items()
        }
        width = kmer_record_bytes(index.k)
        records = sections["db/kmers"]
        sections["db/kmers"] = (
            records[width:2 * width] + records[:width] + records[2 * width:]
        )
        with pytest.raises(SerializationError, match="db/kmers.*ascending"):
            MegisIndex.from_bytes(pack_sections(sections))

    def test_parent_format_refused_by_version(self, payload):
        """A version-2 file (per-row full-set owner CSRs) or a version-1
        file (per-shard database sections) is refused at the header, by
        message — not by a missing-section error."""
        assert payload[8:10] == b"\x03\x00"
        for version in (2, 1):
            old = bytearray(payload)
            old[8] = version
            with pytest.raises(SerializationError, match=(
                rf"unsupported index version {version} \(reader takes 3\): "
                r"rebuild the index"
            )):
                MegisIndex.from_bytes(bytes(old))

    @pytest.mark.parametrize("section, damage, message", [
        ("kss/signature_taxids", lambda raw: raw[:-8] + (raw[-8] ^ 1).to_bytes(
            1, "little") + raw[-7:], "digest"),
        ("kss/kmax_signatures", lambda raw: (10**6).to_bytes(4, "little")
         + raw[4:], r"outside \[0, "),
        ("kss/8/signatures", lambda raw: (-1).to_bytes(4, "little", signed=True)
         + raw[4:], r"outside \[0, "),
    ], ids=["table-not-the-manifests", "kmax-id-past-the-table", "negative-level-id"])
    def test_signature_sections_checked_at_open(self, index, section, damage,
                                                message):
        """The signature table must be the one whose digest the manifest
        records, and every row id must name one of its sets."""
        sections = {
            name: bytes(view)
            for name, view in unpack_sections(index.to_bytes()).items()
        }
        sections[section] = damage(sections[section])
        with pytest.raises(SerializationError, match=message):
            MegisIndex.from_bytes(pack_sections(sections))

    def test_level_rows_must_be_the_kmax_prefixes(self, index):
        """A level's rows are exactly the distinct prefixes of the k_max
        rows (retrieval names a row through its k_max-mers), so a file
        whose prefix column names a prefix no k_max-mer carries is
        refused at open."""
        sections = {
            name: bytes(view)
            for name, view in unpack_sections(index.to_bytes()).items()
        }
        prefixes = parse_kmer_column(
            sections["kss/8/prefixes"], 8, len(index.kss.store().levels[8].prefixes)
        )
        assert int(prefixes[-1]) + 1 < 1 << 16
        prefixes[-1] += np.uint64(1)
        sections["kss/8/prefixes"] = pack_kmer_column(prefixes, 8)
        with pytest.raises(SerializationError, match="distinct prefixes"):
            MegisIndex.from_bytes(pack_sections(sections))

    def test_inconsistent_csr_rejected(self, index):
        from repro.databases.serialization import pack_i64

        sections = {
            name: bytes(view)
            for name, view in unpack_sections(index.to_bytes()).items()
        }
        sections["kss/signature_offsets"] = pack_i64([0, 1])  # wrong row count
        with pytest.raises(SerializationError, match="kss/signature_offsets"):
            MegisIndex.from_bytes(pack_sections(sections))


class TestShardSections:
    def test_shard_kss_range_bounded(self, opened, kss_tables):
        # Range-sharded KSS: every shard's KSS only carries its own range
        # (prefix-aligned), and together they stay smaller than n copies.
        shards = opened.shards(3)
        total = sum(len(s.kss) for s in shards)
        assert total == len(kss_tables)  # k_max rows partition exactly
        for shard in shards:
            store = shard.kss.store()
            if len(store.kmers):
                assert int(store.kmers[0]) >= shard.lo
                assert int(store.kmers[-1]) < shard.hi


class TestKssRangeSlicing:
    @pytest.mark.parametrize("backend", [None, "python", "numpy"])
    def test_sliced_retrieval_matches_full(self, kss_tables, sketch_db, backend):
        queries = sorted(sketch_db.tables[sketch_db.k_max])
        cut = queries[len(queries) // 2]
        full = query_dicts(kss_tables.retrieve(queries))
        space = 1 << (2 * kss_tables.k_max)
        for lo, hi in ((0, cut), (cut, space)):
            part = kss_tables.slice_range(lo, hi)
            expected = {q: full[q] for q in queries if lo <= q < hi}
            in_range = [q for q in queries if lo <= q < hi]
            got = (part.retrieve(in_range) if backend is None
                   else retrieve_with(backend, part, in_range))
            assert got.signatures is kss_tables.signatures
            assert query_dicts(got) == expected

    def test_boundary_prefix_stored_absorbs_foreign_coverage(self, kss_tables):
        # Cut inside a prefix group: the boundary row's stored set must
        # absorb owners covered only by the other shard's k-mers, so
        # stored UNION covered-within-shard still equals the full set.
        store = kss_tables.store()
        k = kss_tables.smaller_ks[0]
        shift = 2 * (kss_tables.k_max - k)
        prefixes = np.asarray(store.kmers, dtype=np.uint64) >> np.uint64(shift)
        split_at = None
        for i in range(1, len(prefixes)):
            if prefixes[i] == prefixes[i - 1]:
                split_at = int(store.kmers[i])
                break
        assert split_at is not None, "fixture has no multi-k-mer prefix group"
        left = kss_tables.slice_range(0, split_at)
        right = kss_tables.slice_range(split_at, 1 << (2 * kss_tables.k_max))
        boundary = int(prefixes[i])
        covered_left = left._covered_by_prefix(k).get(boundary, frozenset())
        covered_right = right._covered_by_prefix(k).get(boundary, frozenset())
        full = kss_tables._covered_by_prefix(k)[boundary] | {
            t for row in kss_tables.sub_tables[k] if row.prefix == boundary
            for t in row.stored
        }
        for part, covered in ((left, covered_left), (right, covered_right)):
            row = next(
                r for r in part.sub_tables[k] if r.prefix == boundary
            )
            assert row.stored | covered == full
            assert not (row.stored & covered)

    def test_inverted_range_rejected(self, kss_tables):
        with pytest.raises(ValueError):
            kss_tables.slice_range(10, 5)


class TestIndexBuilder:
    def test_build_matches_manual_construction(self, references, sample):
        built = IndexBuilder(k=20, smaller_ks=(12, 8), sketch_fraction=0.3).build(
            references
        )
        session = AnalysisSession(built)
        result = session.analyze(sample.reads)
        assert result.candidates

    def test_default_smaller_ks_follow_k(self):
        assert IndexBuilder(k=20).resolved_smaller_ks() == (12, 8)
        assert IndexBuilder(k=16).resolved_smaller_ks() == (8, 4)

    def test_mismatched_k_rejected(self, sorted_db, references):
        from repro.databases.sketch import SketchDatabase

        wrong = SketchDatabase.build(references, k_max=16, smaller_ks=(8,))
        with pytest.raises(ValueError):
            MegisIndex(sorted_db, wrong, references)


def _build_columns(index):
    """Every column a built index holds — the owner CSR included."""
    taxids, offsets = index.database.owner_columns()
    return {**_kss_columns(index.kss), "db/kmers": index.database.column(),
            "db/owner_taxids": taxids, "db/owner_offsets": offsets}


def _assert_same_build(world: ReferenceWorld) -> None:
    """The column build equals the reference build: files, columns, rows."""
    built, want = world.build(), world.reference_build()
    for n in (1, 3):
        assert built.to_bytes(n) == want.to_bytes(n)
    got_columns, want_columns = _build_columns(built), _build_columns(want)
    _assert_same_columns(got_columns, want_columns)
    for name, column in want_columns.items():
        assert got_columns[name].dtype == column.dtype, name
    assert built.sketch.sketch_sizes == want.sketch.sketch_sizes
    assert built.sketch.smaller_ks == want.sketch.smaller_ks
    assert built.sketch.tables == want.sketch.tables
    assert built.kss.entries == want.kss.entries
    assert built.kss.sub_tables == want.kss.sub_tables
    for kmer, _ in want.kss.entries:
        assert sketch_lookup(built.sketch, kmer) == sketch_lookup(want.sketch, kmer)


def _count_calls(monkeypatch):
    """Count the per-k-mer and per-genome calls by name: the reference
    builders' (in ``tests.oracles``) and the column build's one batch
    extraction."""
    from repro.databases import kraken, sorted_db
    from tests.oracles import databases as oracles

    calls = {"passes": 0, "_kmer_hash": 0,
             "extract_kmers": 0, "extract_kmers_batch": 0}

    def counted(function):
        def wrapper(*args, **kwargs):
            calls[function.__name__] += 1
            return function(*args, **kwargs)
        return wrapper

    for module, name in [
        (oracles, "passes"), (oracles, "_kmer_hash"), (kraken, "_kmer_hash"),
        (oracles, "extract_kmers"), (sorted_db, "extract_kmers_batch"),
    ]:
        monkeypatch.setattr(module, name, counted(getattr(module, name)))
    return calls


class TestColumnBuild:
    """Every k: one extraction, column arithmetic, the reference's bytes."""

    #: sha256 of this index file as the per-k-mer dict builders write it
    #: (format version 3, recorded when the KSS rows became owner-set
    #: signatures; every row's owner set, stored set and the KSS size equal
    #: the version-2 file's, recorded before the column build existed).
    GOLDEN = "84a588c2bf27a18f51bf15f862444d702c25054ddb799bc1ca2f621b6ab14ade"

    @staticmethod
    def golden_references():
        return GenomeGenerator(
            n_genera=4, species_per_genus=3, genome_length=2000, seed=5
        ).generate()

    def test_golden_digest(self):
        index = IndexBuilder(k=20).build(self.golden_references())
        assert hashlib.sha256(index.to_bytes(4)).hexdigest() == self.GOLDEN

    @STANDARD_SETTINGS
    @given(world=reference_worlds(ks=(6, 8, 10, 31, 32, 33, 60)))
    def test_equals_reference_build(self, world):
        _assert_same_build(world)

    @pytest.mark.parametrize("k", [20, 31, 32, 60])
    def test_golden_world_equals_reference_build(self, k):
        """Both sides of the key word's edge (k = 32 is the last k-mer in
        one ``uint64``; k = 60 is the paper's, in ``object`` columns)."""
        world = ReferenceWorld(self.golden_references(), k, (k - 8, k - 12), 0.25, 0)
        _assert_same_build(world)

    @pytest.mark.parametrize("k", [20, 40, 60])
    def test_every_level_is_held_in_its_own_dtype(self, k):
        """A level's prefixes are a column of the level's k-mers — a
        ``uint64`` word at 32 bases or fewer, whatever k_max is — alike
        in the column build, the dict-table walk and the opened file."""
        world = ReferenceWorld(
            self.golden_references(), k, (k - 8, min(k - 12, 32)), 0.25, 0
        )
        built = world.build()
        payload = built.to_bytes(2)
        opened = MegisIndex.from_bytes(payload)
        walked = world.reference_build()
        for level in built.kss.smaller_ks:
            dtypes = {
                index.kss.store().levels[level].prefixes.dtype
                for index in (built, opened, walked)
            }
            assert dtypes == {column_dtype(level)}, (level, dtypes)
        assert opened.to_bytes(2) == payload == walked.to_bytes(2)

    @pytest.mark.parametrize("genomes", [
        {},
        {3: "ACGT", 9: "", 12: "ACGTACG"},
        {7: "ACGTTGCAAGCTTAGGCATCGATTACGGCATAGCTAGGATC"},
    ], ids=["empty", "all_shorter_than_k", "one_genome"])
    def test_degenerate_collections(self, genomes):
        world = ReferenceWorld(collection(genomes), 8, (6, 3), 0.5, 0)
        _assert_same_build(world)
        assert world.build().sketch.sketch_sizes.keys() == genomes.keys()

    @pytest.mark.parametrize("k", [32, 40])
    def test_wide_k_takes_the_column_arm(self, k, monkeypatch):
        """No k falls back to the per-k-mer builders: a 32-mer is one
        word, a 40-mer an ``object`` key, and either builds from one
        batch extraction."""
        calls = _count_calls(monkeypatch)
        genome = GenomeGenerator(
            n_genera=1, species_per_genus=2, genome_length=150, seed=3
        ).generate()
        world = ReferenceWorld(genome, k, (k - 8, k - 12), 0.5, 0)
        payload = world.build().to_bytes(2)
        assert calls == {"passes": 0, "_kmer_hash": 0,
                         "extract_kmers": 0, "extract_kmers_batch": 1}
        assert payload == world.reference_build().to_bytes(2)
        assert MegisIndex.from_bytes(payload).to_bytes(2) == payload

    def test_no_per_kmer_call_and_no_boxed_row(self, monkeypatch):
        calls = _count_calls(monkeypatch)
        index = IndexBuilder(k=20).build(self.golden_references())
        index.to_bytes(4)
        assert calls == {"passes": 0, "_kmer_hash": 0,
                         "extract_kmers": 0, "extract_kmers_batch": 1}
        assert index.kss.row_materializations == 0
        assert index.database.row_materializations == 0
        assert index.sketch._tables is None
