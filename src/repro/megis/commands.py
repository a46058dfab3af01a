"""MegIS's NVMe command extensions (paper §4.6).

Three commands drive the host/SSD coordination:

- ``MegIS_Init`` starts metagenomic-acceleration mode and communicates the
  host DRAM window available to MegIS;
- ``MegIS_Step`` marks the start/end of each host-side step (k-mer
  extraction, sorting); sending the same step name again toggles end;
- ``MegIS_Write`` is a specialized write that updates both the regular
  FTL's and MegIS FTL's mapping metadata.

:class:`CommandProcessor` is the SSD-side state machine that validates the
protocol and swaps FTL metadata between modes (§4.5): entering ISP after
k-mer extraction flushes the regular page-level L2P from internal DRAM and
loads MegIS's block-level metadata.

The functional pipeline never drives a simulated SSD itself.  A caller
that wants the device side of an analysis wraps the analysis in
:meth:`CommandProcessor.analysis`, which issues the whole command
sequence around it::

    processor = CommandProcessor(SSD(ssd_c()))
    with processor.analysis(index):
        result = session.analyze(reads)
"""

from __future__ import annotations

import enum
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Optional, Set

from repro.megis.buffers import plan_buffers
from repro.megis.ftl import MegisFtl
from repro.megis.index import MegisIndex
from repro.ssd.device import SSD


class SsdMode(enum.Enum):
    BASELINE = "baseline"
    ACCELERATION = "acceleration"


class HostStep(enum.Enum):
    KMER_EXTRACTION = "kmer_extraction"
    SORTING = "sorting"


class ProtocolError(RuntimeError):
    """Raised when a command arrives in an invalid state."""


@dataclass(frozen=True)
class MegisInit:
    host_buffer_addr: int
    host_buffer_bytes: int


@dataclass(frozen=True)
class MegisStep:
    step: HostStep


@dataclass(frozen=True)
class MegisWrite:
    lpa: int
    data: object = True


class CommandProcessor:
    """SSD-side handler for the MegIS command set."""

    def __init__(self, ssd: SSD, megis_ftl: Optional[MegisFtl] = None):
        self.ssd = ssd
        self.megis_ftl = megis_ftl or MegisFtl(ssd.config.geometry)
        self.mode = SsdMode.BASELINE
        self.host_buffer_bytes = 0
        self.active_steps: Set[HostStep] = set()
        self.completed_steps: Set[HostStep] = set()
        self._baseline_l2p_resident = True
        self.ssd.dram.allocate("baseline_l2p", self._baseline_l2p_bytes())

    def _baseline_l2p_bytes(self) -> int:
        """Resident page-level L2P: the full table, capped at 90% of DRAM.

        Raw NAND capacity slightly exceeds the advertised 4 TB (over-
        provisioning), so a full table would not fit; real FTLs keep the
        hot subset resident and demand-load the rest.
        """
        return min(
            self.ssd.ftl.metadata_bytes(), int(0.9 * self.ssd.dram.capacity_bytes)
        )

    # -- commands ------------------------------------------------------------

    def megis_init(self, command: MegisInit) -> None:
        """Enter acceleration mode; record the host DRAM window."""
        if self.mode is SsdMode.ACCELERATION:
            raise ProtocolError("MegIS_Init while already in acceleration mode")
        if command.host_buffer_bytes <= 0:
            raise ProtocolError("host buffer must be non-empty")
        self.mode = SsdMode.ACCELERATION
        self.host_buffer_bytes = command.host_buffer_bytes
        self.active_steps.clear()
        self.completed_steps.clear()

    def megis_step(self, command: MegisStep) -> str:
        """Toggle a host step's start/end; returns "start" or "end"."""
        if self.mode is not SsdMode.ACCELERATION:
            raise ProtocolError("MegIS_Step outside acceleration mode")
        step = command.step
        if step in self.active_steps:
            self.active_steps.remove(step)
            self.completed_steps.add(step)
            if step is HostStep.KMER_EXTRACTION:
                self._swap_to_megis_metadata()
            return "end"
        if step in self.completed_steps:
            raise ProtocolError(f"step {step.value} already completed")
        self.active_steps.add(step)
        return "start"

    def megis_write(self, command: MegisWrite) -> None:
        """Write metagenomic data, updating both FTLs' metadata.

        Only legal during the k-mer extraction step — the single phase of
        MegIS that may write to the flash chips (§4.5).
        """
        if self.mode is not SsdMode.ACCELERATION:
            raise ProtocolError("MegIS_Write outside acceleration mode")
        if HostStep.KMER_EXTRACTION not in self.active_steps:
            raise ProtocolError("MegIS_Write outside the k-mer extraction step")
        self.ssd.ftl.write(command.lpa, command.data)

    def finish(self) -> None:
        """Return to baseline mode, restoring regular FTL metadata."""
        if self.mode is not SsdMode.ACCELERATION:
            raise ProtocolError("finish called outside acceleration mode")
        if self.active_steps:
            raise ProtocolError(f"steps still active: {sorted(s.value for s in self.active_steps)}")
        self._restore_baseline_metadata()
        self.mode = SsdMode.BASELINE

    # -- one analysis --------------------------------------------------------

    @contextmanager
    def analysis(self, index: MegisIndex) -> Iterator[CommandProcessor]:
        """Bracket one analysis (or one §4.7 batch) with the §4.6 commands.

        On entry MegIS FTL places the two databases Step 2 streams, sized
        from ``index``'s sections (the ``db/kmers`` key column and the KSS
        tables; placed by the first scope, checked by later ones), then
        ``MegIS_Init`` enters acceleration mode and ``MegIS_Step`` opens
        k-mer extraction.  The body is that step, so ``MegIS_Write`` (a
        spilled bucket) is legal inside it.  On exit the step closes (the
        FTL metadata swap), the §4.3.1 Step-2 buffers are reserved beside
        MegIS's metadata and released, and ``finish`` restores baseline
        metadata.  When the body raises, its open steps are dropped and the
        SSD still returns to baseline mode, so the next scope starts clean;
        a nested scope is refused by ``MegIS_Init``.
        """
        for name, section_bytes in (
            ("kmer_db", index.database.size_bytes()),
            ("kss_db", index.kss.size_bytes()),
        ):
            section_bytes = max(1, section_bytes)
            layout = self.megis_ftl.layouts.get(name)
            if layout is None:
                self.megis_ftl.place_database(name, section_bytes)
            elif layout.size_bytes != section_bytes:
                raise ValueError(
                    f"{name} is placed at {layout.size_bytes} bytes; this "
                    f"index streams {section_bytes}"
                )
        self.megis_init(MegisInit(0, host_buffer_bytes=1 << 30))
        try:
            self.megis_step(MegisStep(HostStep.KMER_EXTRACTION))
            yield self
            self.megis_step(MegisStep(HostStep.KMER_EXTRACTION))
            buffers = plan_buffers(self.ssd.config)
            buffers.apply(self.ssd.dram)
            buffers.release(self.ssd.dram)
            self.finish()
        except BaseException:
            self.active_steps.clear()
            self.finish()
            raise

    # -- metadata swapping --------------------------------------------------------

    def _swap_to_megis_metadata(self) -> None:
        """Flush page-level L2P, load MegIS's small block-level metadata."""
        if self._baseline_l2p_resident:
            self.ssd.dram.free("baseline_l2p")
            self._baseline_l2p_resident = False
        megis_bytes = sum(
            self.megis_ftl.total_metadata_bytes(name) for name in self.megis_ftl.layouts
        ) or 16
        self.ssd.dram.allocate("megis_l2p", megis_bytes)

    def _restore_baseline_metadata(self) -> None:
        if not self._baseline_l2p_resident:
            if "megis_l2p" in self.ssd.dram.allocations():
                self.ssd.dram.free("megis_l2p")
            self.ssd.dram.allocate("baseline_l2p", self._baseline_l2p_bytes())
            self._baseline_l2p_resident = True
