"""Cross-substrate integration tests.

These tie layers together: the database's packed key column (the index
file's ``db/kmers`` section) placed by MegIS FTL and streamed through the
channel simulator; an analysis wrapped in a simulated SSD's §4.6 command
scope with §4.3.1 buffers; Fig 13's phase-bucket mapping staying in sync with the
timing model's phase names; and the package's one version.
"""

from pathlib import Path

import pytest

import repro

from repro.experiments.fig13_breakdown import BUCKETS, bucketize
from repro.megis.commands import CommandProcessor
from repro.megis.ftl import MegisFtl
from repro.megis.index import IndexBuilder, MegisIndex
from repro.megis.session import AnalysisSession
from repro.perf.specs import baseline_system
from repro.perf.timing import TimingModel
from repro.ssd.channel import ChannelSimulator, ReadRequest
from repro.ssd.config import ssd_c, ssd_p
from repro.ssd.device import SSD
from repro.workloads.datasets import cami_spec


class TestFlashImageStreaming:
    """Built db -> FTL placement -> channel-level streaming time."""

    @pytest.fixture(scope="class")
    def placed(self, references):
        index = IndexBuilder(k=20, smaller_ks=(12, 8)).build(references)
        config = ssd_c()
        ftl = MegisFtl(config.geometry)
        layout = ftl.place_database("kmer_db", index.database.size_bytes())
        return config, layout

    def test_read_order_matches_page_count(self, placed):
        config, layout = placed
        addresses = list(layout.read_order())
        assert len(addresses) == layout.n_pages

    def test_streaming_achieves_full_bandwidth(self, placed):
        config, layout = placed
        sim = ChannelSimulator(config.geometry, config.t_read_us, config.channel_bw)
        requests = [
            ReadRequest(addr.channel, addr.die, multiplane=True)
            for addr in layout.read_order()
        ]
        # Repeat the tiny layout to reach steady state; MegIS's sequential
        # walk uses NAND cache reads, so even a few dies saturate the buses
        # on the channels the image touches.
        result = sim.simulate(requests * 64, cache_mode=True)
        channels_touched = len({r.channel for r in requests})
        peak = config.channel_bw * channels_touched
        assert result.bandwidth > 0.8 * peak

    def test_round_robin_visits_all_channels(self, placed):
        config, layout = placed
        first_round = list(layout.read_order())[: config.geometry.channels]
        assert {a.channel for a in first_round} == set(
            range(min(config.geometry.channels, layout.n_pages))
        )


class TestPipelineOnSimulatedSsd:
    def test_buffers_released_after_analysis(self, sorted_db, sketch_db, sample):
        index = MegisIndex(sorted_db, sketch_db, sample.references)
        session = AnalysisSession(index)
        ssd = SSD(ssd_c())
        with CommandProcessor(ssd).analysis(index):
            session.analyze(sample.reads, with_abundance=False)
        # Only the restored baseline L2P remains allocated.
        assert set(ssd.dram.allocations()) == {"baseline_l2p"}

    def test_two_analyses_back_to_back(self, sorted_db, sketch_db, sample):
        index = MegisIndex(sorted_db, sketch_db, sample.references)
        session = AnalysisSession(index)
        processor = CommandProcessor(SSD(ssd_c()))
        with processor.analysis(index):
            first = session.analyze(sample.reads, with_abundance=False)
        with processor.analysis(index):
            second = session.analyze(sample.reads, with_abundance=False)
        assert first.candidates == second.candidates


class TestPhaseBucketMapping:
    """Fig 13's phase-name mapping must cover what the models emit."""

    @pytest.mark.parametrize("ssd_factory", [ssd_c, ssd_p])
    def test_all_phase_names_mapped(self, ssd_factory):
        model = TimingModel(baseline_system(ssd_factory()), cami_spec("CAMI-L"))
        breakdowns = [
            model.popt(), model.aopt(), model.aopt(use_kss=True),
            model.megis("ms"), model.megis("ms-nol"),
        ]
        for breakdown in breakdowns:
            for phase in breakdown.phases:
                assert phase.name in BUCKETS, (
                    f"phase {phase.name!r} missing from fig13 BUCKETS map"
                )

    def test_bucket_totals_match_breakdown(self):
        model = TimingModel(baseline_system(ssd_c()), cami_spec("CAMI-L"))
        breakdown = model.aopt()
        assert sum(bucketize(breakdown).values()) == pytest.approx(
            breakdown.total_seconds
        )


class TestPackage:
    def test_version_is_kept_in_one_place(self):
        """The distribution metadata reads ``repro.__version__``."""
        try:
            import tomllib
        except ModuleNotFoundError:  # Python 3.10: tomli rides in with pytest
            tomllib = pytest.importorskip("tomli")
        root = Path(__file__).resolve().parent.parent
        with (root / "pyproject.toml").open("rb") as handle:
            project = tomllib.load(handle)
        assert "version" not in project["project"]
        assert project["project"]["dynamic"] == ["version"]
        attr = project["tool"]["setuptools"]["dynamic"]["version"]["attr"]
        assert attr == "repro.__version__"
        assert repro.__version__ == "0.2.0"
