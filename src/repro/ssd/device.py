"""SSD device facade: geometry + NAND + FTL + DRAM + host interface.

Provides the byte-level timing queries the performance model consumes and
tracks data-movement counters used by the energy / I/O-reduction analysis
(§6.5).  Host-visible transfers are limited by the external interface
(SATA3 or PCIe Gen4); in-storage streaming is limited only by the internal
channel bandwidth.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ssd.channel import AccessPattern, ChannelSimulator
from repro.ssd.config import SSDConfig
from repro.ssd.dram import InternalDram
from repro.ssd.ftl import PageLevelFTL
from repro.ssd.nand import NandFlash


@dataclass
class TransferCounters:
    """Bytes moved across each boundary, for the data-movement analysis."""

    host_read_bytes: float = 0.0
    host_write_bytes: float = 0.0
    internal_read_bytes: float = 0.0

    @property
    def external_bytes(self) -> float:
        return self.host_read_bytes + self.host_write_bytes


class SSD:
    """A simulated SSD with timing queries used by the experiments."""

    def __init__(self, config: SSDConfig):
        self.config = config
        self.flash = NandFlash(config.geometry)
        self.ftl = PageLevelFTL(self.flash)
        self.dram = InternalDram(config.dram_bytes, config.dram_bw)
        self.channel_sim = ChannelSimulator(
            config.geometry, config.t_read_us, config.channel_bw
        )
        self.counters = TransferCounters()
        self._random_bw_cache: dict = {}

    # -- host-visible transfers --------------------------------------------

    def host_sequential_read_time(self, nbytes: float) -> float:
        """Seconds to stream ``nbytes`` to the host (interface-limited)."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        self.counters.host_read_bytes += nbytes
        return nbytes / min(self.config.seq_read_bw, self.config.interface_bw)

    def host_sequential_write_time(self, nbytes: float) -> float:
        """Seconds to write ``nbytes`` from the host (interface-limited).

        Sustained write bandwidth is modelled as the sequential-read rate
        capped by program throughput across all dies.
        """
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        g = self.config.geometry
        program_bw = (
            g.dies * g.multiplane_read_bytes / (self.config.t_prog_us / 1e6)
        )
        bw = min(self.config.seq_read_bw, self.config.interface_bw, program_bw)
        self.counters.host_write_bytes += nbytes
        return nbytes / bw

    def host_random_read_time(self, nbytes: float) -> float:
        """Seconds for the host to read ``nbytes`` with a random pattern.

        Random accesses pay twice: internal die/channel conflicts reduce the
        achievable flash bandwidth (measured by the channel simulator), and
        page-granularity reads amplify traffic for the 4-KiB mapping units
        the host actually wants.
        """
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        amplification = max(1.0, self.config.geometry.page_bytes / 4096)
        flash_bw = self.random_internal_bandwidth() / amplification
        bw = min(flash_bw, self.config.interface_bw, self.config.seq_read_bw)
        self.counters.host_read_bytes += nbytes
        return nbytes / bw

    # -- in-storage transfers ------------------------------------------------

    def internal_sequential_read_time(self, nbytes: float) -> float:
        """Seconds for ISP units to stream ``nbytes`` from the flash chips."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        self.counters.internal_read_bytes += nbytes
        return nbytes / self.internal_bandwidth()

    def internal_bandwidth(self) -> float:
        """Streaming internal bandwidth (channel-bus limited), bytes/s."""
        return self.config.internal_read_bw

    def random_internal_bandwidth(self) -> float:
        """Measured bandwidth of a random single-plane access pattern."""
        key = self.config.name
        if key not in self._random_bw_cache:
            self._random_bw_cache[key] = self.channel_sim.measure_bandwidth(
                AccessPattern.RANDOM
            )
        return self._random_bw_cache[key]
