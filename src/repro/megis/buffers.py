"""ISP buffer sizing and internal-DRAM bandwidth analysis (paper §4.3.1).

Three quantitative claims from the paper are computed (not asserted) here:

- *query batch size*: MegIS double-buffers query k-mers in internal DRAM;
  one batch covers one multi-plane read round across every die, so for an
  SSD with 8 channels, 4 dies/channel, 2 planes/die and 16-KiB pages the
  batch is 1 MiB (two in flight);
- *per-channel stream registers*: computing directly on the flash stream
  needs only two k-mer registers per channel instead of the 64 KiB + 64 KiB
  per-channel staging buffers a buffered design would need;
- *DRAM bandwidth demand*: while the flash channels deliver the database at
  full internal bandwidth, everything MegIS actually stores in DRAM (query
  batches in/out, intersecting k-mers, FTL metadata) needs only a few GB/s
  — 2.4 GB/s for the paper's datasets on SSD-P — which is why bypassing
  DRAM for the database stream is what makes ISP feasible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.ssd.config import NandGeometry, SSDConfig
from repro.ssd.dram import InternalDram
from repro.workloads.datasets import DatasetSpec

#: Per-channel staging an (avoided) buffered design would need (§4.3.1).
BUFFERED_DESIGN_IN_BYTES = 64 * 1024
BUFFERED_DESIGN_OUT_BYTES = 64 * 1024

#: Width of one k-mer register (120 bits for k = 60, Table 2), in bytes.
KMER_REGISTER_BYTES = 15


def query_batch_size(geometry: NandGeometry) -> int:
    """One query batch: one multi-plane page per die across all channels."""
    return (
        geometry.channels
        * geometry.dies_per_channel
        * geometry.planes_per_die
        * geometry.page_bytes
    )


def stream_register_bytes(geometry: NandGeometry) -> int:
    """Two k-mer registers per channel (current + next)."""
    return 2 * KMER_REGISTER_BYTES * geometry.channels


def buffered_design_bytes(geometry: NandGeometry) -> int:
    """What per-channel staging buffers would cost instead."""
    return (BUFFERED_DESIGN_IN_BYTES + BUFFERED_DESIGN_OUT_BYTES) * geometry.channels


@dataclass
class IspBufferPlan:
    """Named internal-DRAM allocations for Step 2."""

    query_batch: int
    intersection_bytes: int
    metadata_bytes: int

    def allocations(self) -> Dict[str, int]:
        return {
            "query_batch_0": self.query_batch,
            "query_batch_1": self.query_batch,
            "intersection": self.intersection_bytes,
            # Named distinctly from the CommandProcessor's "megis_l2p" so a
            # pipeline that swaps FTL metadata separately can apply this
            # plan alongside it (the bytes then count metadata headroom).
            "isp_metadata": self.metadata_bytes,
        }

    def total_bytes(self) -> int:
        return sum(self.allocations().values())

    def apply(self, dram: InternalDram) -> None:
        """Reserve every buffer in the DRAM ledger, or none: a buffer that
        cannot fit frees the ones reserved before it, then raises."""
        reserved = []
        try:
            for name, nbytes in self.allocations().items():
                dram.allocate(name, nbytes)
                reserved.append(name)
        except BaseException:
            for name in reserved:
                dram.free(name)
            raise

    def release(self, dram: InternalDram) -> None:
        for name in self.allocations():
            dram.free(name)


def plan_buffers(
    config: SSDConfig,
    intersection_bytes: int = 256 << 20,
    metadata_bytes: int = 3 << 20,
) -> IspBufferPlan:
    """Build the Step-2 buffer plan for an SSD configuration.

    The intersection buffer is opportunistic (§4.3.1 footnote 9): it takes
    whatever DRAM remains; the default reserves a conservative 256 MiB.
    """
    return IspBufferPlan(
        query_batch=query_batch_size(config.geometry),
        intersection_bytes=intersection_bytes,
        metadata_bytes=metadata_bytes,
    )


@dataclass
class DramBandwidthReport:
    """Bandwidth demand on internal DRAM during Step 2."""

    step2_seconds: float
    query_in_bw: float
    query_out_bw: float
    intersection_write_bw: float
    metadata_bw: float

    @property
    def total_demand(self) -> float:
        return (
            self.query_in_bw
            + self.query_out_bw
            + self.intersection_write_bw
            + self.metadata_bw
        )

    def fits(self, dram_bandwidth: float) -> bool:
        return self.total_demand <= dram_bandwidth


def dram_bandwidth_demand(
    config: SSDConfig,
    dataset: DatasetSpec,
    intersection_fraction: float = 0.3,
) -> DramBandwidthReport:
    """DRAM traffic while the database streams at full internal bandwidth.

    During Step 2 the flash channels deliver ``sorted_db + kss`` bytes at
    ``internal_read_bw``; over that window, DRAM absorbs the query batches
    arriving from the host (write), feeds them to the Intersect units
    (read), stores the intersecting k-mers (write, a fraction of the query
    set), and serves FTL metadata reads (megabytes — negligible).
    """
    if not 0 <= intersection_fraction <= 1:
        raise ValueError("intersection_fraction must be in [0, 1]")
    stream_bytes = dataset.sorted_db_bytes + dataset.kss_table_bytes
    step2_seconds = stream_bytes / config.internal_read_bw
    queries = dataset.selected_kmer_bytes
    return DramBandwidthReport(
        step2_seconds=step2_seconds,
        query_in_bw=queries / step2_seconds,
        query_out_bw=queries / step2_seconds,
        intersection_write_bw=queries * intersection_fraction / step2_seconds,
        metadata_bw=(3 << 20) / step2_seconds,
    )
