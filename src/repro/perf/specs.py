"""System specifications for the performance model.

The paper's evaluation machine is an AMD EPYC 7742 node (128 cores) with
1 TB of DRAM for the performance-optimized system and 64 GB for the
cost-optimized one (Fig 18, footnote 13 for prices).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.ssd.config import GB, SSDConfig, ssd_c, ssd_p

#: Component prices (USD) from the paper's footnote 13.
PRICE_DRAM_1TB = 7080.0
PRICE_DRAM_64GB = 312.0
PRICE_SSD_P = 875.0
PRICE_SSD_C = 346.0


@dataclass(frozen=True)
class HostSpec:
    """Host-side resources visible to the timing model."""

    name: str
    dram_bytes: float
    cpu_cores: int = 128
    dram_price_usd: float = PRICE_DRAM_1TB

    def with_dram(self, dram_bytes: float, price_usd: float | None = None) -> "HostSpec":
        return replace(
            self,
            name=f"{self.name}@{dram_bytes / GB:.0f}GB",
            dram_bytes=dram_bytes,
            dram_price_usd=price_usd if price_usd is not None else self.dram_price_usd,
        )


@dataclass(frozen=True)
class SystemSpec:
    """A host + one or more identical SSDs."""

    host: HostSpec
    ssd: SSDConfig
    n_ssds: int = 1
    ssd_price_usd: float = PRICE_SSD_C

    @property
    def name(self) -> str:
        suffix = f" x{self.n_ssds}" if self.n_ssds > 1 else ""
        return f"{self.host.name}+{self.ssd.name}{suffix}"

    @property
    def external_bw(self) -> float:
        """Aggregate host-visible sequential-read bandwidth, bytes/s."""
        return min(self.ssd.seq_read_bw, self.ssd.interface_bw) * self.n_ssds

    @property
    def internal_bw(self) -> float:
        """Aggregate in-storage streaming bandwidth, bytes/s."""
        return self.ssd.internal_read_bw * self.n_ssds

    @property
    def price_usd(self) -> float:
        return self.host.dram_price_usd + self.ssd_price_usd * self.n_ssds

    def with_channels(self, channels: int) -> "SystemSpec":
        return replace(self, ssd=self.ssd.with_channels(channels))

    def with_dram(self, dram_bytes: float, price_usd: float | None = None) -> "SystemSpec":
        return replace(self, host=self.host.with_dram(dram_bytes, price_usd))


def perf_host() -> HostSpec:
    return HostSpec(name="EPYC-1TB", dram_bytes=1000 * GB, dram_price_usd=PRICE_DRAM_1TB)


def cost_host() -> HostSpec:
    return HostSpec(name="EPYC-64GB", dram_bytes=64 * GB, dram_price_usd=PRICE_DRAM_64GB)


def perf_system(n_ssds: int = 1) -> SystemSpec:
    """Performance-optimized system: SSD-P + 1 TB DRAM."""
    return SystemSpec(host=perf_host(), ssd=ssd_p(), n_ssds=n_ssds,
                      ssd_price_usd=PRICE_SSD_P)


def cost_system(n_ssds: int = 1) -> SystemSpec:
    """Cost-optimized system: SSD-C + 64 GB DRAM."""
    return SystemSpec(host=cost_host(), ssd=ssd_c(), n_ssds=n_ssds,
                      ssd_price_usd=PRICE_SSD_C)


def baseline_system(ssd: SSDConfig, dram_bytes: float = 1000 * GB,
                    n_ssds: int = 1) -> SystemSpec:
    """The evaluation default: chosen SSD with the 1-TB host (Fig 12)."""
    price = PRICE_SSD_P if ssd.name.startswith("SSD-P") else PRICE_SSD_C
    return SystemSpec(host=perf_host().with_dram(dram_bytes), ssd=ssd,
                      n_ssds=n_ssds, ssd_price_usd=price)
