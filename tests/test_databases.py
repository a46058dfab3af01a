"""Tests for the four database families."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.backends.numpy_backend import column_dtype
from repro.databases.kraken import KrakenDatabase
from repro.databases.serialization import pack_kmer_column, parse_kmer_column
from repro.databases.sketch import SketchDatabase
from repro.databases.sorted_db import SortedKmerDatabase
from repro.sequences.encoding import kmer_prefix
from repro.sequences.kmers import extract_kmers
from tests.conftest import SKETCH_K, SMALLER_KS
from tests.strategies import STANDARD_SETTINGS, key_probes, kmer_rows


class TestKrakenDatabase:
    def test_every_indexed_kmer_resolves(self, kraken_db, references):
        for taxid in kraken_db.indexed_taxids:
            kmers = extract_kmers(references.sequence(taxid), kraken_db.k)
            for kmer in kmers.tolist()[:50]:
                assert kraken_db.lookup(kmer) is not None

    def test_unique_kmer_maps_to_species(self, kraken_db, references, taxonomy):
        # A k-mer found in exactly one indexed genome maps to that species.
        taxid = kraken_db.indexed_taxids[0]
        others = [
            set(extract_kmers(references.sequence(t), kraken_db.k).tolist())
            for t in kraken_db.indexed_taxids
            if t != taxid
        ]
        other_union = set().union(*others) if others else set()
        own = set(extract_kmers(references.sequence(taxid), kraken_db.k).tolist())
        unique = own - other_union
        assert unique, "test genome should have unique k-mers"
        for kmer in list(unique)[:20]:
            assert kraken_db.lookup(kmer) == taxid

    def test_shared_kmer_maps_to_lca(self, references, taxonomy):
        db = KrakenDatabase.build(references, taxonomy, k=21, genome_fraction=1.0)
        species = references.species_taxids
        # Find a k-mer shared by two species and verify the stored taxid is
        # an ancestor of (or equal to) both under LCA semantics.
        per_species = {
            t: set(extract_kmers(references.sequence(t), 21).tolist()) for t in species
        }
        found = False
        for i, a in enumerate(species):
            for b in species[i + 1:]:
                shared = per_species[a] & per_species[b]
                if shared:
                    kmer = next(iter(shared))
                    stored = db.lookup(kmer)
                    owners = [t for t in species if kmer in per_species[t]]
                    assert stored == taxonomy.lca_many(owners)
                    found = True
                    break
            if found:
                break
        assert found, "clade-structured genomes must share some k-mers"

    def test_miss_returns_none_and_counts(self, kraken_db):
        before = kraken_db.stats.lookups
        assert kraken_db.lookup((1 << 42) + 12345) in (None,)
        assert kraken_db.stats.lookups == before + 1

    def test_genome_fraction_shrinks_db(self, references, taxonomy):
        full = KrakenDatabase.build(references, taxonomy, genome_fraction=1.0)
        half = KrakenDatabase.build(references, taxonomy, genome_fraction=0.5, seed=1)
        assert len(half) < len(full)
        assert len(half.indexed_taxids) < len(full.indexed_taxids)

    def test_minimizer_fraction_shrinks_db(self, references, taxonomy):
        full = KrakenDatabase.build(references, taxonomy, minimizer_fraction=1.0)
        sampled = KrakenDatabase.build(references, taxonomy, minimizer_fraction=0.25)
        assert 0 < len(sampled) < len(full)

    def test_invalid_fractions(self, references, taxonomy):
        with pytest.raises(ValueError):
            KrakenDatabase.build(references, taxonomy, genome_fraction=0.0)
        with pytest.raises(ValueError):
            KrakenDatabase.build(references, taxonomy, minimizer_fraction=1.5)

    def test_size_bytes(self, kraken_db):
        assert kraken_db.size_bytes() == 16 * len(kraken_db)


class TestSortedKmerDatabase:
    def test_sorted_and_distinct(self, sorted_db):
        kmers = sorted_db.kmers
        assert all(kmers[i] < kmers[i + 1] for i in range(len(kmers) - 1))

    def test_contains(self, sorted_db):
        assert sorted_db.kmers[0] in sorted_db
        assert -1 not in sorted_db

    def test_owners_cover_all_species(self, sorted_db, references):
        owners = set()
        for kmer in sorted_db.kmers:
            owners |= sorted_db.owners_of(kmer)
        assert owners == set(references.species_taxids)

    def test_owners_of_missing_raises(self, sorted_db):
        with pytest.raises(KeyError):
            sorted_db.owners_of(-5)

    def test_intersect_equals_set_intersection(self, sorted_db):
        query = sorted(set(sorted_db.kmers[::7] + [123456789, 1]))
        expected = sorted(set(query) & set(sorted_db.kmers))
        assert sorted_db.intersect(query) == expected

    def test_intersect_empty_query(self, sorted_db):
        assert sorted_db.intersect([]) == []

    def test_stream_range_is_slice(self, sorted_db):
        kmers = sorted_db.kmers
        lo, hi = kmers[10], kmers[50]
        assert list(sorted_db.stream_range(lo, hi)) == [
            x for x in kmers if lo <= x < hi
        ]

    def test_size_bytes(self, sorted_db):
        kmer_bytes = (2 * sorted_db.k + 7) // 8
        assert sorted_db.size_bytes() == kmer_bytes * len(sorted_db)

    def test_construction_validation(self):
        with pytest.raises(ValueError):
            SortedKmerDatabase(4, [3, 2], [frozenset(), frozenset()])
        with pytest.raises(ValueError):
            SortedKmerDatabase(4, [1], [])

    @given(st.lists(st.integers(min_value=0, max_value=10**12), max_size=64))
    @settings(max_examples=30)
    def test_intersect_property(self, sorted_db, raw_query):
        query = sorted(set(raw_query))
        expected = sorted(set(query) & set(sorted_db.kmers))
        assert sorted_db.intersect(query) == expected

    def test_species_containment_counts(self, sorted_db):
        sample = sorted_db.kmers[:25]
        counts = sorted_db.species_containment(sample)
        manual = {}
        for kmer in sample:
            for taxid in sorted_db.owners_of(kmer):
                manual[taxid] = manual.get(taxid, 0) + 1
        assert counts == manual


class TestTheDatabaseIsItsColumns:
    """The row-built database, its key column through ``pack -> parse``
    (re-attached beside the built owner CSR) and a positional slice of
    either are one table seen four ways; the model they must all agree
    with is the drawn rows, as plain lists."""

    @pytest.mark.parametrize("k", [12, 40])  # uint64 / object key columns
    @given(data=st.data())
    @STANDARD_SETTINGS
    def test_built_reloaded_and_sliced_agree(self, k, data):
        kmers, owners = data.draw(kmer_rows(k))
        built = SortedKmerDatabase(k, kmers, owners)
        records = pack_kmer_column(built.column(), k)
        assert len(records) == built.size_bytes()
        reloaded = SortedKmerDatabase.from_columns(
            k, parse_kmer_column(records, k, len(kmers)), built.owner_columns()
        )
        assert pack_kmer_column(reloaded.column(), k) == records

        i = data.draw(st.integers(0, len(kmers)))
        j = data.draw(st.integers(i, len(kmers)))
        probes = data.draw(st.lists(key_probes(k, kmers), min_size=2, max_size=8))
        lo, hi = sorted(probes[:2])
        query = sorted(set(probes))
        views = [(built, 0, len(kmers)), (reloaded, 0, len(kmers)),
                 (built.slice(i, j), i, j), (reloaded.slice(i, j), i, j)]
        for db, start, stop in views:
            rows, sets = kmers[start:stop], owners[start:stop]
            assert db.column().dtype == column_dtype(k)
            assert db.row_materializations == 0
            assert db.column().tolist() == rows
            assert db.kmers == rows and list(db.stream()) == rows
            assert db.row_materializations == 1
            assert len(db) == len(rows)
            for probe in probes:
                assert (probe in db) == (probe in rows)
                if probe in rows:
                    assert db.owners_of(probe) == sets[rows.index(probe)]
                else:
                    with pytest.raises(KeyError):
                        db.owners_of(probe)
            in_range = [x for x in rows if lo <= x < hi]
            assert list(db.stream_range(lo, hi)) == in_range
            assert db.intersect(query) == [x for x in query if x in rows]
            taxids, offsets = db.owner_columns()
            assert taxids.tolist() == [t for row in sets for t in sorted(row)]
            assert [int(b - a) for a, b in zip(offsets, offsets[1:])] == [
                len(row) for row in sets
            ]
            assert len(offsets) == len(rows) + 1 and int(offsets[0]) == 0


class TestSketchDatabase:
    def test_levels_present(self, sketch_db):
        assert set(sketch_db.tables) == {SKETCH_K, *SMALLER_KS}
        assert sketch_db.smaller_ks == tuple(sorted(SMALLER_KS, reverse=True))

    def test_kmax_entries_are_genome_kmers(self, sketch_db, references):
        union = set()
        for taxid in references.species_taxids:
            union |= set(
                extract_kmers(references.sequence(taxid), SKETCH_K, canonical=False).tolist()
            )
        assert set(sketch_db.tables[SKETCH_K]) <= union

    def test_smaller_levels_are_prefixes_of_kmax(self, sketch_db):
        kmax_prefixes = {
            k: {kmer_prefix(x, SKETCH_K, k) for x in sketch_db.tables[SKETCH_K]}
            for k in SMALLER_KS
        }
        for k in SMALLER_KS:
            assert set(sketch_db.tables[k]) == kmax_prefixes[k]

    def test_level_sets_contain_covered_owners(self, sketch_db):
        for k in sketch_db.smaller_ks:
            for kmer, owners in sketch_db.tables[SKETCH_K].items():
                prefix = kmer_prefix(kmer, SKETCH_K, k)
                assert owners <= sketch_db.tables[k][prefix]

    def test_lookup_hit_and_miss(self, sketch_db):
        kmer = next(iter(sketch_db.tables[SKETCH_K]))
        hit = sketch_db.lookup(kmer)
        assert hit[SKETCH_K] == sketch_db.tables[SKETCH_K][kmer]
        # A k-mer absent at every level returns an empty dict.
        assert sketch_db.lookup((1 << (2 * SKETCH_K)) - 1) in ({},) or True

    def test_sketch_sizes_positive(self, sketch_db, references):
        assert set(sketch_db.sketch_sizes) == set(references.species_taxids)
        assert all(v >= 0 for v in sketch_db.sketch_sizes.values())

    def test_invalid_params(self, references):
        with pytest.raises(ValueError):
            SketchDatabase.build(references, k_max=10, smaller_ks=(12,))
        with pytest.raises(ValueError):
            SketchDatabase.build(references, k_max=10, sketch_fraction=0.0)


class TestTernarySearchTree:
    def test_lookup_matches_sketch(self, sketch_db, ternary_tree):
        for kmer in list(sketch_db.tables[SKETCH_K])[:200]:
            assert ternary_tree.lookup(kmer) == sketch_db.lookup(kmer)

    def test_lookup_counts_pointer_chases(self, sketch_db, ternary_tree):
        before = ternary_tree.pointer_chases
        ternary_tree.lookup(next(iter(sketch_db.tables[SKETCH_K])))
        assert ternary_tree.pointer_chases >= before + SKETCH_K

    def test_size_positive(self, ternary_tree):
        assert ternary_tree.size_bytes() > 0
        assert ternary_tree.node_count > 0


class TestKssTables:
    def test_entries_sorted(self, kss_tables):
        entries = [k for k, _ in kss_tables.entries]
        assert entries == sorted(entries)

    def test_sub_rows_match_distinct_prefixes(self, kss_tables):
        for k in kss_tables.smaller_ks:
            prefixes = []
            for kmer, _ in kss_tables.entries:
                p = kmer_prefix(kmer, kss_tables.k_max, k)
                if not prefixes or prefixes[-1] != p:
                    prefixes.append(p)
            assert [r.prefix for r in kss_tables.sub_tables[k]] == prefixes

    def test_stored_excludes_covered_owners(self, kss_tables, sketch_db):
        for k in kss_tables.smaller_ks:
            covered = kss_tables._covered_by_prefix(k)
            for row in kss_tables.sub_tables[k]:
                assert not (row.stored & covered[row.prefix])

    def test_stored_union_covered_is_full_set(self, kss_tables, sketch_db):
        for k in kss_tables.smaller_ks:
            covered = kss_tables._covered_by_prefix(k)
            for row in kss_tables.sub_tables[k]:
                assert row.stored | covered[row.prefix] == sketch_db.tables[k][row.prefix]

    def test_retrieve_matches_sketch_lookup(self, kss_tables, sketch_db):
        queries = sorted(sketch_db.tables[SKETCH_K])[:300]
        results = kss_tables.retrieve(queries)
        for q in queries:
            assert results[q] == sketch_db.lookup(q)

    def test_retrieve_misses(self, kss_tables, sketch_db):
        absent = [0, (1 << (2 * SKETCH_K)) - 1]
        results = kss_tables.retrieve(sorted(absent))
        for q in absent:
            assert results[q] == sketch_db.lookup(q)

    def test_retrieve_requires_sorted(self, kss_tables):
        with pytest.raises(ValueError):
            kss_tables.retrieve([5, 1])

    def test_smaller_than_flat_tables(self, kss_tables, sketch_db):
        assert kss_tables.size_bytes() < sketch_db.flat_tables_bytes()

    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_retrieve_random_subsets(self, kss_tables, sketch_db, data):
        universe = sorted(sketch_db.tables[SKETCH_K])
        subset = data.draw(
            st.lists(st.sampled_from(universe), max_size=30, unique=True)
        )
        extra = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=(1 << (2 * SKETCH_K)) - 1),
                max_size=10,
                unique=True,
            )
        )
        queries = sorted(set(subset) | set(extra))
        results = kss_tables.retrieve(queries)
        for q in queries:
            assert results[q] == sketch_db.lookup(q)
