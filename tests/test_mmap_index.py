"""What only the file source of an index can show: np.memmap columns.

``MegisIndex.open`` must attach the persisted int sections — the KSS
signature columns per level, the stored CSRs and the signature table — as
``np.memmap`` views of the file, in
their on-disk dtypes, and the shard handles' KSS range slices must stay
views of them; ``map_sections`` must reject what ``unpack_sections``
rejects.
Everything the two section sources share — equal columns, dtypes, shard
ranges, bit-identical serving, nothing built or boxed on the query path —
is tested once, source-parametrised, in ``tests/test_index.py``
(``TestSectionSources`` / ``TestZeroReconstruction``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.databases.kss import KssTables
from repro.databases.serialization import SerializationError, map_sections
from repro.megis.index import MegisIndex
from tests.columns import query_dicts


@pytest.fixture(scope="module")
def index_path(tmp_path_factory, sorted_db, sketch_db, references):
    path = tmp_path_factory.mktemp("mmap") / "world.megis"
    MegisIndex(sorted_db, sketch_db, references).save(path, n_shards=3)
    return path


@pytest.fixture()
def mapped(index_path):
    return MegisIndex.open(index_path)


def _is_memmap_view(array) -> bool:
    """True when ``array`` is (a view of) a ``np.memmap``."""
    while array is not None:
        if isinstance(array, np.memmap):
            return True
        array = getattr(array, "base", None)
    return False


class TestMemmapAttachment:
    def test_kss_csr_sections_are_memmap_views(self, mapped):
        store = mapped.kss.store()
        assert isinstance(store.signatures, np.memmap)
        assert isinstance(store.table.taxids, np.memmap)
        assert isinstance(store.table.offsets, np.memmap)
        assert store.signatures.dtype == np.dtype("<i4")
        assert store.table.taxids.dtype == np.dtype("<i8")
        for level in store.levels.values():
            assert isinstance(level.stored_taxids, np.memmap)
            assert isinstance(level.stored_offsets, np.memmap)
            assert isinstance(level.signatures, np.memmap)
        # The shard handles' KSS range slices stay memmap-backed too, and
        # share the one table.
        for shard in mapped.shards(3):
            assert _is_memmap_view(shard.kss.store().signatures)
            assert shard.kss.signatures is store.table

    def test_sharded_kss_slices_work_unchanged(self, mapped, kss_tables):
        """KssTables over memmap columns + slice_range == in-RAM."""
        store = mapped.kss.store()
        reloaded = KssTables(store)
        space = 1 << (2 * mapped.k)
        sliced = reloaded.slice_range(0, space // 2)
        expected = kss_tables.slice_range(0, space // 2)
        assert len(sliced) == len(expected)
        queries = [kmer for kmer, _ in expected.entries][:50]
        assert (query_dicts(sliced.retrieve(queries))
                == query_dicts(expected.retrieve(queries)))

    def test_default_open_is_mapped(self, index_path):
        """Opening *is* mapping; ``mmap=False`` is ``from_bytes`` over the
        file's bytes — same views, of a buffer instead of the file."""
        assert isinstance(MegisIndex.open(index_path).kss.store().signatures,
                          np.memmap)
        in_memory = MegisIndex.open(index_path, mmap=False).kss.store().signatures
        assert not _is_memmap_view(in_memory)
        assert in_memory.base is not None and not in_memory.flags.writeable


class TestMapSectionsErrors:
    def test_rejects_truncated_file(self, tmp_path, index_path):
        truncated = tmp_path / "trunc.megis"
        truncated.write_bytes(index_path.read_bytes()[:64])
        with pytest.raises(SerializationError):
            map_sections(truncated)

    def test_rejects_bad_magic(self, tmp_path):
        bogus = tmp_path / "bogus.megis"
        bogus.write_bytes(b"NOTANIDX" + b"\x00" * 64)
        with pytest.raises(SerializationError, match="bad index magic"):
            map_sections(bogus)

    def test_rejects_short_header(self, tmp_path):
        stub = tmp_path / "stub.megis"
        stub.write_bytes(b"MEGI")
        with pytest.raises(SerializationError, match="shorter than header"):
            map_sections(stub)

    def test_sections_match_bytes_open(self, index_path):
        from repro.databases.serialization import unpack_sections

        by_map = map_sections(index_path)
        by_bytes = unpack_sections(index_path.read_bytes())
        assert set(by_map) == set(by_bytes)
        for name, view in by_map.items():
            assert isinstance(view, np.memmap)
            assert bytes(view) == bytes(by_bytes[name])


class TestStepTwoColumnsArePlain:
    """``np.take`` on a mapped signature column hands back ``np.memmap``
    copies, whose every downstream op pays ``memmap.__array_finalize__``:
    Step-2 results over a mapped index must be plain ``np.ndarray``."""

    @pytest.mark.parametrize("n_ssds", [1, 3])
    def test_whole_and_sharded_results(self, mapped, sample, n_ssds):
        from repro.megis.session import AnalysisSession, MegisConfig

        session = AnalysisSession(mapped, MegisConfig(n_ssds=n_ssds)).warm()
        query = session._partitioner.partition(sample.reads).merged_column()
        [(kmers, retrieved)] = session.step_two_partial([query])
        assert len(kmers)
        assert type(kmers) is np.ndarray and type(retrieved.queries) is np.ndarray
        for ids in retrieved.levels.values():
            assert type(ids) is np.ndarray
            assert ids.any()
