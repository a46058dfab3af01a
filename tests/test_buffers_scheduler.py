"""Tests for ISP buffer planning (§4.3.1) and the request scheduler."""

import pytest

from repro.megis.buffers import (
    buffered_design_bytes,
    dram_bandwidth_demand,
    plan_buffers,
    query_batch_size,
    stream_register_bytes,
)
from repro.ssd.config import NandGeometry, ssd_c, ssd_p
from repro.ssd.dram import DramCapacityError, InternalDram
from repro.ssd.scheduler import (
    LatencyStats,
    OpType,
    Request,
    RequestScheduler,
)
from repro.workloads.datasets import cami_spec


class TestBufferSizing:
    def test_paper_example_batch_size(self):
        # §4.3.1: 8 channels, 4 dies/channel, 2 planes/die, 16-KiB pages
        # -> two 1-MiB batches.
        geometry = NandGeometry(
            channels=8, dies_per_channel=4, planes_per_die=2,
            blocks_per_plane=2048, pages_per_block=588, page_bytes=16 * 1024,
        )
        assert query_batch_size(geometry) == 1 << 20

    def test_registers_cheaper_than_staging_buffers(self):
        for config in (ssd_c(), ssd_p()):
            registers = stream_register_bytes(config.geometry)
            staged = buffered_design_bytes(config.geometry)
            assert registers < staged / 1000

    def test_plan_fits_internal_dram(self):
        for config in (ssd_c(), ssd_p()):
            dram = InternalDram(config.dram_bytes, config.dram_bw)
            plan = plan_buffers(config)
            plan.apply(dram)
            assert dram.used_bytes == plan.total_bytes()
            plan.release(dram)
            assert dram.used_bytes == 0

    def test_plan_that_cannot_fit_reserves_nothing(self):
        """``apply`` is all or nothing: the intersection buffer overflowing
        a small DRAM frees the query batches reserved before it."""
        config = ssd_c()
        dram = InternalDram(200 << 20, config.dram_bw)
        dram.allocate("resident", 1 << 20)
        with pytest.raises(DramCapacityError, match="intersection"):
            plan_buffers(config).apply(dram)
        assert dram.allocations() == {"resident": 1 << 20}

    def test_double_buffering(self):
        plan = plan_buffers(ssd_c())
        allocations = plan.allocations()
        assert allocations["query_batch_0"] == allocations["query_batch_1"]


class TestDramBandwidthDemand:
    def test_paper_claim_on_ssd_p(self):
        # §4.3.1: at full SSD-P internal bandwidth, MegIS needs only
        # ~2.4 GB/s of DRAM bandwidth.  Our byte counts give the same
        # order: single-digit GB/s, far below the flash stream.
        report = dram_bandwidth_demand(ssd_p(), cami_spec("CAMI-M"))
        assert 0.2e9 < report.total_demand < 4e9
        assert report.total_demand < ssd_p().internal_read_bw / 10

    def test_demand_fits_lpddr4(self):
        for config in (ssd_c(), ssd_p()):
            report = dram_bandwidth_demand(config, cami_spec("CAMI-M"))
            assert report.fits(config.dram_bw)

    def test_more_internal_bw_more_demand(self):
        low = dram_bandwidth_demand(ssd_c(), cami_spec("CAMI-M"))
        high = dram_bandwidth_demand(ssd_p(), cami_spec("CAMI-M"))
        assert high.total_demand > low.total_demand

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            dram_bandwidth_demand(ssd_c(), cami_spec("CAMI-M"),
                                  intersection_fraction=2.0)


class TestRequestScheduler:
    def tiny(self):
        return RequestScheduler(
            NandGeometry(
                channels=2, dies_per_channel=2, planes_per_die=1,
                blocks_per_plane=4, pages_per_block=8, page_bytes=4096,
            ),
            t_read_us=50.0, t_prog_us=700.0, channel_bw=1e9,
        )

    def test_single_read_latency(self):
        scheduler = self.tiny()
        done = scheduler.run([Request(0.0, OpType.READ, 0, 0)])
        expected = 50e-6 + 4096 / 1e9
        assert done[0].latency_s == pytest.approx(expected)

    def test_single_write_latency(self):
        scheduler = self.tiny()
        done = scheduler.run([Request(0.0, OpType.WRITE, 0, 0)])
        expected = 4096 / 1e9 + 700e-6
        assert done[0].latency_s == pytest.approx(expected)

    def test_same_die_serializes(self):
        scheduler = self.tiny()
        done = scheduler.run([
            Request(0.0, OpType.READ, 0, 0),
            Request(0.0, OpType.READ, 0, 0),
        ])
        assert done[1].latency_s > done[0].latency_s

    def test_different_dies_overlap_sensing(self):
        scheduler = self.tiny()
        same = scheduler.run([
            Request(0.0, OpType.READ, 0, 0),
            Request(0.0, OpType.READ, 0, 0),
        ])[1].latency_s
        different = scheduler.run([
            Request(0.0, OpType.READ, 0, 0),
            Request(0.0, OpType.READ, 0, 1),
        ])[1].latency_s
        assert different < same

    def test_write_blocks_die_not_channel(self):
        scheduler = self.tiny()
        done = scheduler.run([
            Request(0.0, OpType.WRITE, 0, 0),
            Request(0.0, OpType.READ, 0, 1),
        ])
        # The read on die 1 need not wait for die 0's program, only for
        # the channel transfer.
        assert done[1].latency_s < done[0].latency_s

    def test_unsorted_arrivals_rejected(self):
        scheduler = self.tiny()
        with pytest.raises(ValueError):
            scheduler.run([
                Request(1.0, OpType.READ, 0, 0),
                Request(0.0, OpType.READ, 0, 0),
            ])

    def test_latency_grows_toward_saturation(self):
        scheduler = RequestScheduler(ssd_c().geometry)
        saturation = scheduler.saturation_rate()
        light = scheduler.measure_latency(0.05 * saturation, duration_s=0.02)
        heavy = scheduler.measure_latency(0.95 * saturation, duration_s=0.02)
        assert heavy.p99_s > light.p99_s
        assert heavy.mean_s > light.mean_s

    def test_light_load_latency_near_service_time(self):
        scheduler = RequestScheduler(ssd_c().geometry)
        stats = scheduler.measure_latency(1000, duration_s=0.05)
        service = 52.5e-6 + 16384 / 1.2e9
        assert stats.p50_s < 2 * service

    def test_empty_stats(self):
        stats = LatencyStats.from_completions([])
        assert stats.count == 0

    def test_invalid_workload_params(self):
        scheduler = self.tiny()
        with pytest.raises(ValueError):
            scheduler.poisson_random_reads(0, 1)
        with pytest.raises(ValueError):
            Request(-1.0, OpType.READ, 0, 0)
