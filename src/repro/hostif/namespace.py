"""NVMe namespace formatting: LBA formats and byte/LBA conversions.

The paper's Observation #1 is that the **LBA format** (512 B vs 4 KiB
sectors) significantly affects write and append latency. The namespace
object carries the active format and converts between bytes and LBAs, so
every command's ``nlb`` depends on the chosen format exactly as it does
on real hardware (an 8 KiB request is 16 LBAs on a 512 B format but only
2 LBAs on a 4 KiB format).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["LbaFormat", "Namespace", "LBA_512", "LBA_4K"]


@dataclass(frozen=True)
class LbaFormat:
    """A supported logical-block size."""

    block_size: int

    def __post_init__(self) -> None:
        if self.block_size not in (512, 4096):
            raise ValueError(
                f"unsupported LBA format {self.block_size} (supported: 512, 4096)"
            )

    def __str__(self) -> str:  # e.g. "512B" / "4KiB"
        return "512B" if self.block_size == 512 else "4KiB"


LBA_512 = LbaFormat(512)
LBA_4K = LbaFormat(4096)


class Namespace:
    """A formatted namespace over a device's capacity."""

    def __init__(self, capacity_bytes: int, lba_format: LbaFormat = LBA_4K):
        if capacity_bytes <= 0:
            raise ValueError(f"capacity must be positive, got {capacity_bytes}")
        if capacity_bytes % lba_format.block_size != 0:
            raise ValueError(
                f"capacity {capacity_bytes} not a multiple of the "
                f"{lba_format.block_size} B block size"
            )
        self.capacity_bytes = capacity_bytes
        self.lba_format = lba_format

    @property
    def block_size(self) -> int:
        return self.lba_format.block_size

    @property
    def capacity_lbas(self) -> int:
        return self.capacity_bytes // self.block_size

    def lbas(self, nbytes: int) -> int:
        """Convert a byte count to an LBA count (must be aligned)."""
        if nbytes <= 0 or nbytes % self.block_size != 0:
            raise ValueError(
                f"{nbytes} bytes is not a positive multiple of the "
                f"{self.block_size} B block size"
            )
        return nbytes // self.block_size

    def bytes_of(self, nlb: int) -> int:
        """Convert an LBA count to bytes."""
        if nlb < 0:
            raise ValueError(f"nlb must be >= 0, got {nlb}")
        return nlb * self.block_size
