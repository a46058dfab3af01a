"""Tests for the on-flash database format and the offline builder."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.databases.builder import DatabaseBuilder, place_bundle
from repro.databases.serialization import (
    SerializationError,
    byte_order_matches_kmer_order,
    deserialize_database,
    kmer_record_bytes,
    payload_pages,
    serialize_database,
)
from repro.databases.sorted_db import SortedKmerDatabase
from repro.ssd.config import ssd_c


class TestSerialization:
    def test_roundtrip_with_owners(self, sorted_db):
        payload = serialize_database(sorted_db, with_owners=True)
        loaded = deserialize_database(payload)
        assert loaded.k == sorted_db.k
        assert loaded.kmers == sorted_db.kmers
        for kmer in sorted_db.kmers[:50]:
            assert loaded.owners_of(kmer) == sorted_db.owners_of(kmer)

    def test_roundtrip_without_owners(self, sorted_db):
        payload = serialize_database(sorted_db, with_owners=False)
        loaded = deserialize_database(payload)
        assert loaded.kmers == sorted_db.kmers

    def test_owner_payload_larger(self, sorted_db):
        assert len(serialize_database(sorted_db, with_owners=True)) > len(
            serialize_database(sorted_db, with_owners=False)
        )

    def test_byte_order_property(self, sorted_db):
        # The load-bearing invariant: byte-wise order == k-mer order.
        assert byte_order_matches_kmer_order(sorted_db)

    def test_record_width(self):
        assert kmer_record_bytes(20) == 5
        assert kmer_record_bytes(60) == 15
        assert kmer_record_bytes(4) == 1

    def test_bad_magic(self, sorted_db):
        payload = bytearray(serialize_database(sorted_db))
        payload[0] = 0
        with pytest.raises(SerializationError):
            deserialize_database(bytes(payload))

    def test_truncated_payload(self, sorted_db):
        payload = serialize_database(sorted_db)
        with pytest.raises(SerializationError):
            deserialize_database(payload[:-3])

    def test_trailing_garbage(self, sorted_db):
        payload = serialize_database(sorted_db) + b"xx"
        with pytest.raises(SerializationError):
            deserialize_database(payload)

    def test_short_header(self):
        with pytest.raises(SerializationError):
            deserialize_database(b"abc")

    def test_payload_pages(self):
        assert payload_pages(b"x" * 10000, 4096) == (2, 1808)
        with pytest.raises(ValueError):
            payload_pages(b"", 0)

    @given(st.lists(st.integers(min_value=0, max_value=(1 << 24) - 1),
                    min_size=0, max_size=40, unique=True))
    @settings(max_examples=25)
    def test_roundtrip_property(self, raw):
        kmers = sorted(raw)
        db = SortedKmerDatabase(12, kmers, [frozenset({1})] * len(kmers))
        loaded = deserialize_database(serialize_database(db))
        assert loaded.kmers == kmers


class TestCsrOwnerLayout:
    """The CSR owner columns are the persisted format and the cached view."""

    def test_flags_mark_csr(self, sorted_db):
        import struct

        payload = serialize_database(sorted_db)
        _, _, flags, _ = struct.unpack_from("<8sHHI", payload, 0)
        assert flags == 3  # FLAG_OWNERS | FLAG_CSR

    def test_per_record_owner_layout_rejected(self, sorted_db):
        # Flag bit 0 alone was the per-record owner layout; its reader is
        # gone, so such a payload must be refused, not misparsed as CSR.
        payload = bytearray(serialize_database(sorted_db))
        payload[10] = 1
        with pytest.raises(SerializationError, match="owner layout"):
            deserialize_database(bytes(payload))

    def test_owner_columns_are_views_in_on_disk_dtypes(self, sorted_db):
        loaded = deserialize_database(serialize_database(sorted_db))
        taxids, offsets = loaded.owner_columns()
        assert (taxids.dtype, offsets.dtype) == (np.dtype("<u4"), np.dtype("<u8"))
        assert taxids.base is not None and offsets.base is not None

    def test_deserialized_csr_cache_attached(self, sorted_db):
        loaded = deserialize_database(serialize_database(sorted_db))
        assert loaded._owner_columns is not None
        taxids, offsets = loaded.owner_columns()
        want_taxids, want_offsets = sorted_db.owner_columns()
        assert taxids.tolist() == want_taxids.tolist()
        assert offsets.tolist() == want_offsets.tolist()

    def test_owner_columns_match_owners_of(self, sorted_db):
        taxids, offsets = sorted_db.owner_columns()
        assert len(offsets) == len(sorted_db) + 1
        for i, kmer in enumerate(sorted_db.kmers[:80]):
            row = taxids[offsets[i] : offsets[i + 1]].tolist()
            assert row == sorted(sorted_db.owners_of(kmer))
            assert frozenset(row) == sorted_db.owners_of(kmer)

    def test_slice_shares_owner_columns(self, sorted_db):
        parent_taxids, parent_offsets = sorted_db.owner_columns()
        shard = sorted_db.slice(10, 40)
        taxids, offsets = shard.owner_columns()
        assert int(offsets[0]) == 0
        assert taxids.base is not None  # zero-copy view of the parent column
        for i, kmer in enumerate(shard.kmers):
            assert taxids[offsets[i] : offsets[i + 1]].tolist() == sorted(
                sorted_db.owners_of(kmer)
            )

    def test_csr_roundtrip_beyond_255_owners(self):
        # The CSR offsets column puts no u8 cap on owners per k-mer.
        owners = [frozenset(range(1, 300))]
        db = SortedKmerDatabase(12, [7], owners)
        loaded = deserialize_database(serialize_database(db))
        assert loaded.owners_of(7) == owners[0]

    def test_csr_rejects_taxids_beyond_u32(self):
        # A taxID that does not fit u32 must fail loudly, not wrap modulo
        # 2**32 into a different species.
        db = SortedKmerDatabase(12, [7], [frozenset({1 << 33})])
        with pytest.raises(SerializationError):
            serialize_database(db)

    def test_csr_truncated_offsets(self, sorted_db):
        payload = serialize_database(sorted_db)
        # Cut inside the offsets column: header + kmer records + a few bytes.
        cut = 16 + kmer_record_bytes(sorted_db.k) * len(sorted_db) + 4
        with pytest.raises(SerializationError):
            deserialize_database(payload[:cut])

    def test_vectorized_parse_attaches_column(self, sorted_db):
        # 2k <= 64: the k-mer records parse vectorized and the uint64
        # column is attached as is (nothing built, nothing boxed).
        loaded = deserialize_database(serialize_database(sorted_db))
        assert loaded.column().dtype == np.uint64
        assert loaded.column_builds == 0
        assert loaded.row_materializations == 0
        assert loaded.column().tolist() == sorted_db.kmers

    def test_wide_k_roundtrip_falls_back(self):
        # The paper's k = 60 (120-bit k-mers) takes the per-record parse,
        # which fills the attached column with object dtype.
        kmers = [3, 1 << 100, (1 << 119) + 5]
        db = SortedKmerDatabase(60, kmers, [frozenset({i})for i in range(3)])
        loaded = deserialize_database(serialize_database(db))
        assert loaded.kmers == kmers
        assert loaded.column_builds == 0
        assert loaded.column().dtype == object
        assert loaded.column().tolist() == kmers
        for kmer in kmers:
            assert loaded.owners_of(kmer) == db.owners_of(kmer)


class TestDatabaseBuilder:
    @pytest.fixture(scope="class")
    def bundle(self, references):
        return DatabaseBuilder(k=20, smaller_ks=(12, 8)).build(references)

    def test_bundle_consistency(self, bundle):
        assert bundle.sorted_db.k == bundle.sketch.k_max == 20
        assert bundle.kss.k_max == 20
        assert set(bundle.taxonomy.species()) == set(
            bundle.references.species_taxids
        )

    def test_flash_image_parses(self, bundle):
        loaded = deserialize_database(bundle.flash_image)
        assert loaded.kmers == bundle.sorted_db.kmers

    def test_sizes_reported(self, bundle):
        sizes = bundle.sizes()
        assert sizes["flash_image"] > 0
        assert sizes["kss"] < sizes["flat_sketch"]

    def test_pipelines_work_from_bundle(self, bundle, sample):
        from repro.megis.index import MegisIndex
        from repro.megis.session import AnalysisSession

        session = AnalysisSession(
            MegisIndex(bundle.sorted_db, bundle.sketch, bundle.references)
        )
        ours = session.analyze(sample.reads)
        theirs = session.analyze_metalign(sample.reads)
        assert ours.profile.fractions == theirs.profile.fractions

    def test_build_from_fasta(self, references):
        from repro.sequences.io import references_to_fasta

        bundle = DatabaseBuilder(k=16, smaller_ks=(8,)).build_from_fasta(
            references_to_fasta(references)
        )
        assert len(bundle.sorted_db) > 0

    def test_invalid_smaller_ks(self):
        with pytest.raises(ValueError):
            DatabaseBuilder(k=10, smaller_ks=(12,))

    def test_placement_uses_real_size(self, bundle):
        layout = place_bundle(bundle, ssd_c().geometry)
        assert layout.size_bytes == len(bundle.flash_image)
        assert layout.n_pages >= 1
