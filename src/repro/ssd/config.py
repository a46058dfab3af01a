"""SSD configurations (paper Table 1).

Two presets: the cost-optimized ``SSD-C`` (Samsung 870 EVO class: SATA3,
8 channels) and the performance-optimized ``SSD-P`` (Samsung PM1735 class:
PCIe Gen4 x4, 16 channels).  Both are 48-WL-layer 3D TLC parts with 4 TB
capacity, 4 GB internal LPDDR4 DRAM, 1.2 GB/s channel I/O rate, tR = 52.5 us
and tPROG = 700 us.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

KiB = 1024
GB = 1_000_000_000
US_PER_S = 1_000_000


@dataclass(frozen=True)
class NandGeometry:
    """Physical organization of the NAND flash array."""

    channels: int
    dies_per_channel: int
    planes_per_die: int
    blocks_per_plane: int
    pages_per_block: int
    page_bytes: int

    def __post_init__(self):
        for name in (
            "channels",
            "dies_per_channel",
            "planes_per_die",
            "blocks_per_plane",
            "pages_per_block",
            "page_bytes",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")

    @property
    def dies(self) -> int:
        return self.channels * self.dies_per_channel

    @property
    def planes(self) -> int:
        return self.dies * self.planes_per_die

    @property
    def blocks(self) -> int:
        return self.planes * self.blocks_per_plane

    @property
    def pages(self) -> int:
        return self.blocks * self.pages_per_block

    @property
    def capacity_bytes(self) -> int:
        return self.pages * self.page_bytes

    @property
    def multiplane_read_bytes(self) -> int:
        """Bytes delivered by one multi-plane read on one die (§2.2)."""
        return self.planes_per_die * self.page_bytes


@dataclass(frozen=True)
class SSDConfig:
    """A complete SSD specification fed to the simulator and timing model."""

    name: str
    geometry: NandGeometry
    t_read_us: float = 52.5
    t_prog_us: float = 700.0
    channel_bw: float = 1.2 * GB  # bytes/s per channel bus
    interface_bw: float = 600_000_000.0  # host link, bytes/s
    seq_read_bw: float = 560_000_000.0  # sustained host-visible, bytes/s
    dram_bytes: int = 4 * GB
    dram_bw: float = 4.266 * GB  # LPDDR4-4266 x16 class, bytes/s... see dram.py
    n_cores: int = 3
    core_name: str = "ARM Cortex-R4"

    @property
    def internal_read_bw(self) -> float:
        """Peak internal streaming bandwidth, bytes/s.

        With several dies per channel pipelining tR against transfers, the
        per-channel bus is the bottleneck, so the aggregate is
        ``channels x channel_bw`` — e.g. 16 x 1.2 GB/s = 19.2 GB/s for the
        high-end controller quoted in §2.3.
        """
        per_die = self.geometry.multiplane_read_bytes / (self.t_read_us / US_PER_S)
        per_channel = min(self.channel_bw, per_die * self.geometry.dies_per_channel)
        return per_channel * self.geometry.channels

    @property
    def capacity_bytes(self) -> int:
        return self.geometry.capacity_bytes

    def with_channels(self, channels: int) -> "SSDConfig":
        """Same device with a different channel count (Fig 17 sweep).

        Dies per channel are kept constant, so total capacity scales with
        the channel count, matching how the paper varies internal bandwidth.
        """
        return replace(
            self,
            name=f"{self.name}/{channels}ch",
            geometry=replace(self.geometry, channels=channels),
        )


def ssd_c() -> SSDConfig:
    """Cost-optimized SATA3 SSD (Table 1, left column)."""
    return SSDConfig(
        name="SSD-C",
        geometry=NandGeometry(
            channels=8,
            dies_per_channel=8,
            planes_per_die=4,
            blocks_per_plane=2048,
            pages_per_block=196 * 3,  # 196 WLs x 3 (TLC) pages per WL
            page_bytes=16 * KiB,
        ),
        interface_bw=600_000_000.0,
        seq_read_bw=560_000_000.0,
        n_cores=3,
    )


def ssd_p() -> SSDConfig:
    """Performance-optimized PCIe Gen4 SSD (Table 1, right column)."""
    return SSDConfig(
        name="SSD-P",
        geometry=NandGeometry(
            channels=16,
            dies_per_channel=8,
            planes_per_die=2,
            blocks_per_plane=2048,
            pages_per_block=196 * 3,
            page_bytes=16 * KiB,
        ),
        interface_bw=8 * GB,
        seq_read_bw=7 * GB,
        n_cores=4,
    )
