"""Physical geometry of a NAND flash array.

The geometry describes the parallel structure of the device backend:
channels (independent buses), dies per channel (independent command
execution units), planes per die (parallel program targets inside a die),
and the block/page hierarchy that erase and program operations act on.

A concrete geometry together with :class:`repro.flash.nand.NandTiming`
determines the device's raw bandwidth ceilings — e.g. aggregate program
bandwidth = ``total_dies * page_size / program_latency`` — which is how
the ZN540 profile lands on the paper's ~1,155 MiB/s write limit.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["KIB", "MIB", "GIB", "FlashGeometry"]

KIB = 1024
MIB = 1024 * KIB
GIB = 1024 * MIB


@dataclass(frozen=True)
class FlashGeometry:
    """Immutable description of a flash array's parallel structure."""

    channels: int = 8
    dies_per_channel: int = 4
    planes_per_die: int = 2
    blocks_per_plane: int = 512
    pages_per_block: int = 512
    page_size: int = 16 * KIB

    def __post_init__(self) -> None:
        for field in (
            "channels",
            "dies_per_channel",
            "planes_per_die",
            "blocks_per_plane",
            "pages_per_block",
            "page_size",
        ):
            value = getattr(self, field)
            if not isinstance(value, int) or value <= 0:
                raise ValueError(f"{field} must be a positive integer, got {value!r}")
        if self.page_size % 512 != 0:
            raise ValueError(f"page_size must be a multiple of 512, got {self.page_size}")

    # -- derived sizes -----------------------------------------------------
    @property
    def total_dies(self) -> int:
        """Independent execution units across the whole device."""
        return self.channels * self.dies_per_channel

    @property
    def total_planes(self) -> int:
        return self.total_dies * self.planes_per_die

    @property
    def block_bytes(self) -> int:
        """Bytes per erase block."""
        return self.pages_per_block * self.page_size

    @property
    def plane_bytes(self) -> int:
        return self.blocks_per_plane * self.block_bytes

    @property
    def die_bytes(self) -> int:
        return self.planes_per_die * self.plane_bytes

    @property
    def capacity_bytes(self) -> int:
        """Raw capacity of the whole array."""
        return self.total_dies * self.die_bytes

    @property
    def total_blocks(self) -> int:
        return self.total_planes * self.blocks_per_plane

    @property
    def total_pages(self) -> int:
        return self.total_blocks * self.pages_per_block

    # -- indexing ------------------------------------------------------------
    def die_index(self, channel: int, die: int) -> int:
        """Flatten (channel, die-in-channel) to a global die index."""
        if not 0 <= channel < self.channels:
            raise ValueError(f"channel {channel} out of range [0, {self.channels})")
        if not 0 <= die < self.dies_per_channel:
            raise ValueError(f"die {die} out of range [0, {self.dies_per_channel})")
        return channel * self.dies_per_channel + die

    def channel_of_die(self, die_index: int) -> int:
        """Channel that a global die index hangs off."""
        if not 0 <= die_index < self.total_dies:
            raise ValueError(f"die index {die_index} out of range [0, {self.total_dies})")
        return die_index // self.dies_per_channel
