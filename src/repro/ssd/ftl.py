"""Baseline page-level Flash Translation Layer.

The regular FTL maps logical to physical addresses at 4-KiB granularity to
keep random accesses fast; its L2P table consumes ~0.1% of device capacity
(4 bytes per 4 KiB), which is why a 4-TB SSD carries 4 GB of internal DRAM
(paper §2.2).  MegIS's specialized FTL (:mod:`repro.megis.ftl`) replaces
this with block-level mappings during ISP.

This FTL also implements the management machinery MegIS's design is careful
to avoid triggering during ISP (§2.3, §4.5): overwrites invalidate the old
physical page, and :mod:`repro.ssd.gc` reclaims blocks by relocating valid
pages (write amplification) and erasing.  Allocation is channel-striped for
parallelism and wear-aware: fresh blocks are drawn lowest-erase-count
first.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Iterator, List, Optional, Set, Tuple

from repro.ssd.config import NandGeometry
from repro.ssd.nand import NandFlash, PageAddress

L2P_UNIT_BYTES = 4096
L2P_ENTRY_BYTES = 4

BlockKey = Tuple[int, int, int, int]  # (channel, die, plane, block)


@dataclass
class FtlStats:
    """Counters for host writes, GC relocations, and write amplification."""

    host_writes: int = 0
    host_reads: int = 0
    gc_relocations: int = 0
    gc_erases: int = 0

    @property
    def write_amplification(self) -> float:
        """(host + relocated) / host page programs."""
        if self.host_writes == 0:
            return 1.0
        return (self.host_writes + self.gc_relocations) / self.host_writes


class PageLevelFTL:
    """Page-granularity L2P with striped, wear-aware block allocation."""

    def __init__(self, flash: NandFlash):
        self.flash = flash
        self.geometry: NandGeometry = flash.geometry
        self._l2p: Dict[int, PageAddress] = {}
        self._reverse: Dict[PageAddress, int] = {}
        self._invalid: Set[PageAddress] = set()
        self.stats = FtlStats()
        # Per-channel pools of free (never-written or erased) blocks and the
        # currently open block with its next page offset.
        self._free_blocks: Dict[int, Deque[BlockKey]] = {
            channel: deque(self._initial_blocks(channel))
            for channel in range(self.geometry.channels)
        }
        self._open_block: Dict[int, Optional[BlockKey]] = {
            channel: None for channel in range(self.geometry.channels)
        }
        self._write_offset: Dict[int, int] = {
            channel: 0 for channel in range(self.geometry.channels)
        }
        self._next_channel = 0

    def _initial_blocks(self, channel: int) -> Iterator[BlockKey]:
        g = self.geometry
        for block in range(g.blocks_per_plane):
            for die in range(g.dies_per_channel):
                for plane in range(g.planes_per_die):
                    yield (channel, die, plane, block)

    # -- host operations -----------------------------------------------------

    def write(self, lpa: int, data: object = True) -> PageAddress:
        """Write one logical page; overwrites invalidate the old page."""
        if lpa < 0:
            raise ValueError(f"lpa must be non-negative, got {lpa}")
        addr = self._program_next(data)
        old = self._l2p.get(lpa)
        if old is not None:
            self._invalid.add(old)
            self._reverse.pop(old, None)
        self._l2p[lpa] = addr
        self._reverse[addr] = lpa
        self.stats.host_writes += 1
        return addr

    def read(self, lpa: int) -> Tuple[object, float]:
        """Read one logical page; raises KeyError for unmapped LPAs."""
        addr = self._l2p[lpa]
        self.stats.host_reads += 1
        return self.flash.read(addr)

    def trim(self, lpa: int) -> None:
        """Discard a mapping (the physical page becomes garbage)."""
        addr = self._l2p.pop(lpa, None)
        if addr is not None:
            self._invalid.add(addr)
            self._reverse.pop(addr, None)

    def translate(self, lpa: int) -> Optional[PageAddress]:
        return self._l2p.get(lpa)

    # -- allocation --------------------------------------------------------------

    def _program_next(self, data: object) -> PageAddress:
        attempts = 0
        while attempts < self.geometry.channels:
            channel = self._next_channel
            self._next_channel = (self._next_channel + 1) % self.geometry.channels
            addr = self._next_page_in_channel(channel)
            if addr is not None:
                self.flash.program(addr, data, t_prog_us=700.0)
                return addr
            attempts += 1
        raise RuntimeError("device full (no free blocks in any channel)")

    def _next_page_in_channel(self, channel: int) -> Optional[PageAddress]:
        open_block = self._open_block[channel]
        if open_block is None or self._write_offset[channel] >= self.geometry.pages_per_block:
            open_block = self._open_lowest_wear_block(channel)
            if open_block is None:
                return None
        _, die, plane, block = open_block
        page = self._write_offset[channel]
        self._write_offset[channel] = page + 1
        return PageAddress(channel, die, plane, block, page)

    def _open_lowest_wear_block(self, channel: int) -> Optional[BlockKey]:
        """Wear-leveling: open the free block with the fewest erases."""
        pool = self._free_blocks[channel]
        if not pool:
            self._open_block[channel] = None
            return None
        best_index = min(
            range(len(pool)), key=lambda i: self.flash.erase_count(*pool[i])
        )
        pool.rotate(-best_index)
        key = pool.popleft()
        pool.rotate(best_index)
        self.flash.erase(*key)
        self._open_block[channel] = key
        self._write_offset[channel] = 0
        return key

    # -- introspection for GC -------------------------------------------------------

    def pages_of_block(self, key: BlockKey) -> List[PageAddress]:
        channel, die, plane, block = key
        return [
            PageAddress(channel, die, plane, block, page)
            for page in range(self.geometry.pages_per_block)
        ]

    def invalid_count(self, key: BlockKey) -> int:
        return sum(1 for addr in self.pages_of_block(key) if addr in self._invalid)

    def valid_lpas(self, key: BlockKey) -> List[Tuple[int, PageAddress]]:
        """(lpa, physical page) pairs still live in a block."""
        out = []
        for addr in self.pages_of_block(key):
            lpa = self._reverse.get(addr)
            if lpa is not None:
                out.append((lpa, addr))
        return out

    def written_blocks(self) -> List[BlockKey]:
        """Blocks currently holding at least one programmed page."""
        keys = {addr.block_address() for addr in self._reverse}
        keys |= {addr.block_address() for addr in self._invalid}
        return sorted(keys)

    def open_blocks(self) -> Set[BlockKey]:
        return {key for key in self._open_block.values() if key is not None}

    def close_block(self, key: BlockKey) -> None:
        """Close an open block so subsequent writes allocate a fresh one.

        Used by the garbage collector before collecting a block that is
        still open, so relocation writes cannot target the victim.
        """
        channel = key[0]
        if self._open_block[channel] == key:
            self._open_block[channel] = None
            self._write_offset[channel] = self.geometry.pages_per_block

    def release_block(self, key: BlockKey) -> None:
        """Return an erased block to its channel's free pool (GC helper)."""
        channel = key[0]
        for addr in self.pages_of_block(key):
            self._invalid.discard(addr)
        self._free_blocks[channel].append(key)

    def free_block_count(self) -> int:
        return sum(len(pool) for pool in self._free_blocks.values())

    # -- metadata ---------------------------------------------------------------------

    def metadata_bytes(self) -> int:
        """Full-device L2P table size: 4 bytes per 4-KiB mapping unit."""
        return self.geometry.capacity_bytes // L2P_UNIT_BYTES * L2P_ENTRY_BYTES
