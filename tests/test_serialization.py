"""Tests for the on-flash k-mer column format and the offline builder."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.databases.serialization import (
    SerializationError,
    pack_sections,
    parse_kmer_column,
    payload_pages,
    unpack_sections,
)
from repro.databases.sorted_db import SortedKmerDatabase
from repro.megis.commands import CommandProcessor
from repro.megis.index import IndexBuilder, MegisIndex
from repro.sequences.keys import kmer_record_bytes, pack_kmer_column
from repro.ssd.config import ssd_c
from repro.ssd.device import SSD
from tests.oracles import byte_order_matches_kmer_order, database_from_rows, owners_of
from tests.strategies import property_settings


def reattached(db):
    """``db``'s key column through its on-flash records and back."""
    packed = pack_kmer_column(db.column(), db.k)
    return SortedKmerDatabase.from_columns(
        db.k, parse_kmer_column(packed, db.k, len(db))
    )


class TestSerialization:
    def test_roundtrip_without_owners(self, sorted_db):
        loaded = reattached(sorted_db)
        assert loaded.k == sorted_db.k
        assert loaded.kmers == sorted_db.kmers

    def test_byte_order_property(self, sorted_db):
        # The load-bearing invariant: byte-wise order == k-mer order.
        assert byte_order_matches_kmer_order(sorted_db)

    def test_record_width(self):
        assert kmer_record_bytes(20) == 5
        assert kmer_record_bytes(60) == 15
        assert kmer_record_bytes(4) == 1

    def test_payload_pages(self):
        assert payload_pages(b"x" * 10000, 4096) == (2, 1808)
        with pytest.raises(ValueError):
            payload_pages(b"", 0)

    @given(st.lists(st.integers(min_value=0, max_value=(1 << 24) - 1),
                    min_size=0, max_size=40, unique=True))
    @settings(max_examples=25)
    def test_roundtrip_property(self, raw):
        kmers = sorted(raw)
        db = database_from_rows(12, kmers, [frozenset({1})] * len(kmers))
        assert reattached(db).kmers == kmers


def _row_copy_pack(column, k):
    """The record packer before the per-byte columns: a big-endian view
    of each left-aligned key, its low ``width`` bytes copied out."""
    width = kmer_record_bytes(k)
    shifted = np.asarray(column, dtype=np.uint64) << np.uint64(width * 8 - 2 * k)
    records = shifted.astype(">u8").view(np.uint8).reshape(-1, 8)
    return records[:, 8 - width:].tobytes()


def _row_copy_parse(buf, k, count):
    """The record parser before the strided words: every record copied
    into its own zero-padded 8-byte row."""
    width = kmer_record_bytes(k)
    raw = np.frombuffer(buf, dtype=np.uint8)[: count * width]
    padded = np.zeros((count, 8), dtype=np.uint8)
    padded[:, 8 - width:] = raw.reshape(count, width)
    shift = np.uint64(width * 8 - 2 * k)
    return padded.reshape(-1).view(">u8").astype(np.uint64) >> shift


def _sorted_keys(k, n, seed):
    top = 1 << (2 * k)
    rng = np.random.default_rng(seed)
    keys = rng.integers(0, top, size=n, dtype=np.uint64, endpoint=False)
    if n:
        keys[0], keys[-1] = 0, top - 1  # both ends of the key space
    return np.sort(keys)


class TestKmerRecordCodec:
    """``pack_kmer_column`` / ``parse_kmer_column`` write and read the
    same bytes the row-copy codec did, at every uint64 width."""

    @pytest.mark.parametrize("k", range(1, 32))
    @pytest.mark.parametrize("n", [0, 1, 2, 7, 100])
    def test_bytes_match_the_row_copy_codec(self, k, n):
        column = _sorted_keys(k, n, seed=k * 101 + n)
        packed = pack_kmer_column(column, k)
        assert packed == _row_copy_pack(column, k)
        assert len(packed) == n * kmer_record_bytes(k)
        parsed = parse_kmer_column(packed, k, n)
        assert parsed.dtype == np.uint64
        assert parsed.tolist() == _row_copy_parse(packed, k, n).tolist()
        assert parsed.tolist() == column.tolist()

    @given(k=st.integers(min_value=1, max_value=32), data=st.data())
    @property_settings(40)
    def test_roundtrip_matches_row_copy_property(self, k, data):
        keys = data.draw(st.lists(
            st.integers(min_value=0, max_value=(1 << (2 * k)) - 1), max_size=50,
        ))
        column = np.array(sorted(keys), dtype=np.uint64)
        packed = pack_kmer_column(column, k)
        assert packed == _row_copy_pack(column, k)
        # Parsing a prefix of a longer buffer reads only its records.
        tail = data.draw(st.binary(max_size=8))
        parsed = parse_kmer_column(packed + tail, k, len(column))
        assert parsed.tolist() == column.tolist()

    def test_truncated_records_are_refused(self):
        packed = pack_kmer_column(np.arange(4, dtype=np.uint64), 20)
        with pytest.raises(SerializationError, match="truncated"):
            parse_kmer_column(packed[:-1], 20, 4)

    def test_padding_bits_are_refused(self):
        """A record whose bits below the 2k key bits are set would decode
        to a key, so a frame carrying one is refused before parsing."""
        from repro.megis import wire

        records = bytearray(pack_kmer_column(np.array([5, 9, 40], np.uint64), 18))
        records[-1] |= 0x01  # k = 18: 36 key bits in 5 bytes, 4 padding
        body = pack_sections({"q0": bytes(records)})
        header = {"schema": 1, "op": "step2", "id": 1, "k": 18, "counts": [3],
                  "bytes": len(body)}
        with pytest.raises(ValueError, match="padding bits"):
            wire.parse_step2_frame(header, body, 18)


class TestCsrOwnerLayout:
    """The CSR owner columns of a row-built table, and the key column's
    two parse paths."""

    def test_owner_columns_match_owners_of(self, sorted_db):
        taxids, offsets = sorted_db.owner_columns()
        assert len(offsets) == len(sorted_db) + 1
        for i, kmer in enumerate(sorted_db.kmers[:80]):
            row = taxids[offsets[i] : offsets[i + 1]].tolist()
            assert row == sorted(owners_of(sorted_db, kmer))
            assert frozenset(row) == owners_of(sorted_db, kmer)

    def test_slice_shares_owner_columns(self, sorted_db):
        parent_taxids, parent_offsets = sorted_db.owner_columns()
        shard = sorted_db.slice(10, 40)
        taxids, offsets = shard.owner_columns()
        assert int(offsets[0]) == 0
        assert taxids.base is not None  # zero-copy view of the parent column
        for i, kmer in enumerate(shard.kmers):
            assert taxids[offsets[i] : offsets[i + 1]].tolist() == sorted(
                owners_of(sorted_db, kmer)
            )

    def test_csr_roundtrip_beyond_255_owners(self):
        # The CSR offsets column puts no u8 cap on owners per k-mer.
        owners = [frozenset(range(1, 300))]
        db = database_from_rows(12, [7], owners)
        assert owners_of(db, 7) == owners[0]

    def test_vectorized_parse_attaches_column(self, sorted_db):
        # 2k <= 64: the k-mer records parse vectorized and the uint64
        # column is attached as is (nothing built, nothing boxed).
        loaded = reattached(sorted_db)
        assert loaded.column().dtype == np.uint64
        assert loaded.row_materializations == 0
        assert loaded.column().tolist() == sorted_db.kmers

    def test_wide_k_roundtrip_falls_back(self):
        # The paper's k = 60 (120-bit k-mers) takes the per-record parse,
        # which fills the attached column with object dtype.
        kmers = [3, 1 << 100, (1 << 119) + 5]
        db = database_from_rows(60, kmers, [frozenset({i})for i in range(3)])
        loaded = reattached(db)
        assert loaded.column().dtype == object
        assert loaded.column().tolist() == kmers
        assert loaded.row_materializations == 0
        assert loaded.kmers == kmers


class TestDatabaseBuilder:
    """The one offline build: ``IndexBuilder`` → ``MegisIndex`` → bytes."""

    @pytest.fixture(scope="class")
    def index(self, references):
        return IndexBuilder(k=20, smaller_ks=(12, 8)).build(references)

    @staticmethod
    def db_section(index):
        return bytes(unpack_sections(index.to_bytes())["db/kmers"])

    def test_bundle_consistency(self, index, references):
        assert index.database.k == index.sketch.k_max == 20
        assert index.kss.k_max == 20
        assert index.references is references

    def test_flash_image_parses(self, index):
        loaded = MegisIndex.from_bytes(index.to_bytes())
        assert loaded.database.kmers == index.database.kmers

    def test_sizes_reported(self, index):
        database = index.database
        section = self.db_section(index)
        assert section == pack_kmer_column(database.column(), database.k)
        assert len(section) == database.size_bytes() > 0
        assert index.kss.size_bytes() < index.sketch.flat_tables_bytes()

    def test_pipelines_work_from_bundle(self, index, sample):
        from repro.megis.session import AnalysisSession

        session = AnalysisSession(index)
        ours = session.analyze(sample.reads)
        theirs = session.analyze_metalign(sample.reads)
        assert ours.profile.fractions == theirs.profile.fractions

    def test_build_from_fasta(self, references):
        from repro.sequences.io import references_to_fasta

        index = IndexBuilder(k=16, smaller_ks=(8,)).build_from_fasta(
            references_to_fasta(references)
        )
        assert len(index.database) > 0

    def test_invalid_smaller_ks(self):
        with pytest.raises(ValueError, match="strictly between 0 and k_max"):
            IndexBuilder(k=10, smaller_ks=(12,))

    def test_placement_uses_real_size(self, index):
        # The placement an analysis scope makes on a simulated SSD.
        with CommandProcessor(SSD(ssd_c())).analysis(index) as processor:
            layout = processor.megis_ftl.layouts["kmer_db"]
        assert layout.size_bytes == len(self.db_section(index))
        assert layout.n_pages >= 1
