"""Stateful NAND flash array model.

Tracks page program state sparsely (a 4-TB device has hundreds of millions
of pages; only touched blocks allocate state).  Enforces the constraints of
real NAND (paper §2.2): reads and programs at page granularity, erases at
block granularity, in-order programming within a block, and no reprogramming
without an erase.  Multi-plane operation reads the same page offset across a
die's planes concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.ssd.config import NandGeometry


class NandError(RuntimeError):
    """Raised on a constraint violation (reprogram, out-of-order program...)."""


@dataclass(frozen=True, order=True)
class PageAddress:
    """A physical page address."""

    channel: int
    die: int
    plane: int
    block: int
    page: int

    def block_address(self) -> Tuple[int, int, int, int]:
        return (self.channel, self.die, self.plane, self.block)


class NandFlash:
    """A sparse, constraint-enforcing model of the flash array."""

    def __init__(self, geometry: NandGeometry):
        self.geometry = geometry
        # Per-block next programmable page offset; absent -> erased/never used.
        self._write_points: Dict[Tuple[int, int, int, int], int] = {}
        self._erase_counts: Dict[Tuple[int, int, int, int], int] = {}
        self._page_data: Dict[PageAddress, object] = {}
        self.reads = 0
        self.programs = 0
        self.erases = 0

    # -- address helpers ---------------------------------------------------

    def validate(self, addr: PageAddress) -> None:
        g = self.geometry
        checks = (
            (addr.channel, g.channels, "channel"),
            (addr.die, g.dies_per_channel, "die"),
            (addr.plane, g.planes_per_die, "plane"),
            (addr.block, g.blocks_per_plane, "block"),
            (addr.page, g.pages_per_block, "page"),
        )
        for value, bound, label in checks:
            if not 0 <= value < bound:
                raise NandError(f"{label} {value} out of range [0, {bound})")

    def linear_page_index(self, addr: PageAddress) -> int:
        """Linearize an address (stable ordering used by tests)."""
        self.validate(addr)
        g = self.geometry
        index = addr.channel
        index = index * g.dies_per_channel + addr.die
        index = index * g.planes_per_die + addr.plane
        index = index * g.blocks_per_plane + addr.block
        index = index * g.pages_per_block + addr.page
        return index

    # -- operations ----------------------------------------------------------

    def erase(self, channel: int, die: int, plane: int, block: int) -> float:
        """Erase a block; returns latency in microseconds (~3.5 ms typ)."""
        key = (channel, die, plane, block)
        self.validate(PageAddress(channel, die, plane, block, 0))
        self._write_points[key] = 0
        self._erase_counts[key] = self._erase_counts.get(key, 0) + 1
        self._page_data = {
            a: d for a, d in self._page_data.items() if a.block_address() != key
        }
        self.erases += 1
        return 3500.0

    def program(self, addr: PageAddress, data: object = True, t_prog_us: float = 700.0) -> float:
        """Program one page; enforces erase-before-write and in-block order."""
        self.validate(addr)
        key = addr.block_address()
        write_point = self._write_points.get(key, 0)
        if addr.page != write_point:
            raise NandError(
                f"out-of-order program: block write point is page {write_point}, "
                f"got page {addr.page}"
            )
        if addr in self._page_data:
            raise NandError(f"page {addr} already programmed; erase block first")
        self._page_data[addr] = data
        self._write_points[key] = write_point + 1
        self.programs += 1
        return t_prog_us

    def read(self, addr: PageAddress, t_read_us: float = 52.5) -> Tuple[object, float]:
        """Read one page; returns (data, latency_us)."""
        self.validate(addr)
        self.reads += 1
        return self._page_data.get(addr), t_read_us

    def multiplane_read(
        self, channel: int, die: int, block: int, page: int, t_read_us: float = 52.5
    ) -> Tuple[List[object], float]:
        """Read the same (block, page) offset on every plane of a die at once.

        This is the access mode MegIS's data placement is built around: all
        planes fire concurrently, so the die delivers
        ``planes_per_die x page_bytes`` per tR (§2.2, §4.5).
        """
        data = []
        for plane in range(self.geometry.planes_per_die):
            value, _ = self.read(PageAddress(channel, die, plane, block, page), t_read_us)
            data.append(value)
        return data, t_read_us

    # -- introspection -----------------------------------------------------

    def erase_count(self, channel: int, die: int, plane: int, block: int) -> int:
        return self._erase_counts.get((channel, die, plane, block), 0)
