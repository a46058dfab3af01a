"""Tests for the NVMe command extensions, FTL metadata swapping, and the
command scope a caller wraps around one analysis."""

from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.megis.commands import (
    CommandProcessor,
    HostStep,
    MegisInit,
    MegisStep,
    MegisWrite,
    ProtocolError,
    SsdMode,
)
from repro.megis.ftl import MegisFtl
from repro.megis.index import MegisIndex
from repro.megis.session import AnalysisSession, MegisConfig
from repro.ssd.config import ssd_c
from repro.ssd.device import SSD
from repro.ssd.dram import DramCapacityError
from tests.strategies import STANDARD_SETTINGS


@pytest.fixture()
def processor():
    ssd = SSD(ssd_c())
    megis_ftl = MegisFtl(ssd.config.geometry)
    megis_ftl.place_database("kmer_db", int(1e12))
    return CommandProcessor(ssd, megis_ftl)


class TestProtocol:
    def test_starts_in_baseline_mode(self, processor):
        assert processor.mode is SsdMode.BASELINE

    def test_init_enters_acceleration(self, processor):
        processor.megis_init(MegisInit(0, 1 << 30))
        assert processor.mode is SsdMode.ACCELERATION
        assert processor.host_buffer_bytes == 1 << 30

    def test_double_init_rejected(self, processor):
        processor.megis_init(MegisInit(0, 1 << 30))
        with pytest.raises(ProtocolError):
            processor.megis_init(MegisInit(0, 1 << 30))

    def test_init_requires_buffer(self, processor):
        with pytest.raises(ProtocolError):
            processor.megis_init(MegisInit(0, 0))

    def test_step_outside_acceleration_rejected(self, processor):
        with pytest.raises(ProtocolError):
            processor.megis_step(MegisStep(HostStep.SORTING))

    def test_step_toggles(self, processor):
        processor.megis_init(MegisInit(0, 1))
        assert processor.megis_step(MegisStep(HostStep.SORTING)) == "start"
        assert processor.megis_step(MegisStep(HostStep.SORTING)) == "end"

    def test_step_cannot_restart(self, processor):
        processor.megis_init(MegisInit(0, 1))
        processor.megis_step(MegisStep(HostStep.SORTING))
        processor.megis_step(MegisStep(HostStep.SORTING))
        with pytest.raises(ProtocolError):
            processor.megis_step(MegisStep(HostStep.SORTING))

    def test_write_only_during_extraction(self, processor):
        processor.megis_init(MegisInit(0, 1))
        with pytest.raises(ProtocolError):
            processor.megis_write(MegisWrite(lpa=0))
        processor.megis_step(MegisStep(HostStep.KMER_EXTRACTION))
        processor.megis_write(MegisWrite(lpa=0))
        assert processor.ssd.ftl.translate(0) is not None

    def test_finish_requires_steps_closed(self, processor):
        processor.megis_init(MegisInit(0, 1))
        processor.megis_step(MegisStep(HostStep.SORTING))
        with pytest.raises(ProtocolError):
            processor.finish()

    def test_finish_returns_to_baseline(self, processor):
        processor.megis_init(MegisInit(0, 1))
        processor.megis_step(MegisStep(HostStep.KMER_EXTRACTION))
        processor.megis_step(MegisStep(HostStep.KMER_EXTRACTION))
        processor.finish()
        assert processor.mode is SsdMode.BASELINE

    def test_finish_outside_acceleration_rejected(self, processor):
        with pytest.raises(ProtocolError):
            processor.finish()


class TestMetadataSwap:
    def test_extraction_end_swaps_l2p(self, processor):
        dram = processor.ssd.dram
        assert "baseline_l2p" in dram.allocations()
        processor.megis_init(MegisInit(0, 1))
        processor.megis_step(MegisStep(HostStep.KMER_EXTRACTION))
        processor.megis_step(MegisStep(HostStep.KMER_EXTRACTION))
        assert "baseline_l2p" not in dram.allocations()
        assert "megis_l2p" in dram.allocations()
        # MegIS metadata is tiny compared to the page-level table.
        assert dram.allocation("megis_l2p") < processor.ssd.ftl.metadata_bytes() / 100

    def test_finish_restores_baseline_l2p(self, processor):
        processor.megis_init(MegisInit(0, 1))
        processor.megis_step(MegisStep(HostStep.KMER_EXTRACTION))
        processor.megis_step(MegisStep(HostStep.KMER_EXTRACTION))
        processor.finish()
        dram = processor.ssd.dram
        assert "baseline_l2p" in dram.allocations()
        assert "megis_l2p" not in dram.allocations()

    def test_swap_frees_dram_for_isp(self, processor):
        dram = processor.ssd.dram
        before = dram.free_bytes
        processor.megis_init(MegisInit(0, 1))
        processor.megis_step(MegisStep(HostStep.KMER_EXTRACTION))
        processor.megis_step(MegisStep(HostStep.KMER_EXTRACTION))
        assert dram.free_bytes > before


@pytest.fixture(scope="module")
def index(sorted_db, sketch_db, references):
    return MegisIndex(sorted_db, sketch_db, references)


def _at_baseline(processor):
    """The state every scope must leave behind, however its body ended."""
    return (
        processor.mode is SsdMode.BASELINE
        and not processor.active_steps
        and set(processor.ssd.dram.allocations()) == {"baseline_l2p"}
    )


def _signature(result):
    return (
        result.intersecting_kmers,
        result.sketch_hits,
        sorted(result.candidates),
        sorted(result.profile.fractions.items()),
        result.timings.db_kmers_streamed,
    )


class TestAnalysisScope:
    def test_body_runs_as_kmer_extraction(self, index):
        processor = CommandProcessor(SSD(ssd_c()))
        with processor.analysis(index) as scope:
            assert scope is processor
            assert processor.mode is SsdMode.ACCELERATION
            assert processor.active_steps == {HostStep.KMER_EXTRACTION}
            processor.megis_write(MegisWrite(lpa=0))  # a spilled bucket
            # The page-level L2P stays resident until extraction ends.
            assert "baseline_l2p" in processor.ssd.dram.allocations()
        assert processor.completed_steps == {HostStep.KMER_EXTRACTION}
        assert _at_baseline(processor)

    def test_places_the_streamed_sections_once(self, index):
        processor = CommandProcessor(SSD(ssd_c()))
        with processor.analysis(index):
            pass
        layouts = dict(processor.megis_ftl.layouts)
        assert layouts["kmer_db"].size_bytes == index.database.size_bytes()
        assert layouts["kss_db"].size_bytes == index.kss.size_bytes()
        with processor.analysis(index):
            pass
        assert processor.megis_ftl.layouts == layouts

    def test_refuses_an_index_of_another_size(self, index):
        from repro.databases.sorted_db import SortedKmerDatabase

        processor = CommandProcessor(SSD(ssd_c()))
        with processor.analysis(index):
            pass
        database = index.database
        smaller = MegisIndex(
            SortedKmerDatabase.from_columns(database.k, database.column()[:-8]),
            index.sketch, index.references,
        )
        with pytest.raises(ValueError, match="kmer_db is placed"):
            with processor.analysis(smaller):
                pass
        assert _at_baseline(processor)

    def test_nested_scope_refused(self, index):
        processor = CommandProcessor(SSD(ssd_c()))
        with processor.analysis(index):
            with pytest.raises(ProtocolError):
                with processor.analysis(index):
                    pass
        assert _at_baseline(processor)

    def test_raising_body_leaves_acceleration_mode(self, index):
        """Regression: an analysis that raised used to leave the SSD in
        acceleration mode, so every later analysis failed at MegIS_Init."""
        processor = CommandProcessor(SSD(ssd_c()))
        with pytest.raises(RuntimeError, match="boom"):
            with processor.analysis(index):
                raise RuntimeError("boom")
        assert _at_baseline(processor)
        with processor.analysis(index):
            pass
        assert _at_baseline(processor)

    def test_step_left_open_is_a_protocol_error(self, index):
        processor = CommandProcessor(SSD(ssd_c()))
        with pytest.raises(ProtocolError, match="still active"):
            with processor.analysis(index):
                processor.megis_step(MegisStep(HostStep.SORTING))
        assert _at_baseline(processor)

    def test_buffers_that_do_not_fit_reserve_nothing(self, index):
        """§4.3.1's 256 MiB intersection buffer cannot fit a 200 MiB DRAM:
        the scope raises, and neither a query batch nor MegIS metadata is
        left allocated."""
        ssd = SSD(replace(ssd_c(), dram_bytes=200 << 20))
        processor = CommandProcessor(ssd)
        with pytest.raises(DramCapacityError, match="intersection"):
            with processor.analysis(index):
                pass
        assert _at_baseline(processor)

    @pytest.mark.parametrize("backend", ["python", "numpy"])
    def test_scope_changes_no_result(self, index, sample, backend):
        session = AnalysisSession(index, MegisConfig(backend=backend))
        halves = [sample.reads[:200], sample.reads[200:]]
        expected = [_signature(r) for r in session.analyze_batch(halves)]
        processor = CommandProcessor(SSD(ssd_c()))
        with processor.analysis(index):
            got = [_signature(r) for r in session.analyze_batch(halves)]
        assert got == expected
        assert _at_baseline(processor)

    def test_failed_analysis_then_a_clean_one(self, index, sample):
        """A session analysis that raises inside the scope (mapping Step 3
        over an index without references) leaves the SSD usable."""
        bare = MegisIndex(index.database, index.sketch, references=None)
        processor = CommandProcessor(SSD(ssd_c()))
        with pytest.raises(ValueError, match="no reference sequences"):
            with processor.analysis(bare):
                AnalysisSession(bare).analyze(sample.reads)
        with processor.analysis(index):
            result = AnalysisSession(index).analyze(sample.reads)
        assert result.candidates
        assert _at_baseline(processor)


#: What one scope's body does: finish, raise, leave a step open, write a
#: spilled page, or try to open a nested scope.
BODIES = ("clean", "raise", "open_step", "write", "nest")


@given(st.lists(st.sampled_from(BODIES), min_size=1, max_size=6))
@STANDARD_SETTINGS
def test_any_schedule_of_scopes_ends_at_baseline(index, schedule):
    """Whatever each body does, every scope on one processor leaves the
    SSD in baseline mode with only the page-level L2P resident, at its
    original size, and the next scope opens."""
    processor = CommandProcessor(SSD(ssd_c()))
    resident = processor.ssd.dram.allocation("baseline_l2p")
    for body in schedule:
        try:
            with processor.analysis(index):
                if body == "raise":
                    raise RuntimeError("body failed")
                if body == "open_step":
                    processor.megis_step(MegisStep(HostStep.SORTING))
                elif body == "write":
                    processor.megis_write(MegisWrite(lpa=7))
                elif body == "nest":
                    with processor.analysis(index):
                        pass
        except (RuntimeError, ProtocolError) as error:
            assert body != "clean" and body != "write", error
        else:
            assert body in ("clean", "write")
        assert _at_baseline(processor)
        assert processor.ssd.dram.allocation("baseline_l2p") == resident
