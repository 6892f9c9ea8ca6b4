"""A single zone: addressing, write pointer, and occupancy bookkeeping."""

from __future__ import annotations

from .spec import ZoneState

__all__ = ["Zone"]


class Zone:
    """One zone of a zoned namespace.

    Addresses are in LBAs. ``zslba`` is the zone start LBA; the zone spans
    ``size_lbas`` of address space of which only ``cap_lbas`` are writable
    (the ZN540 has 2,048 MiB zones with 1,077 MiB capacity). The write
    pointer ``wp`` is absolute and lives in ``[zslba, zslba + cap_lbas]``.
    """

    __slots__ = ("index", "zslba", "size_lbas", "cap_lbas", "state", "wp", "finished_pad_lbas")

    def __init__(self, index: int, zslba: int, size_lbas: int, cap_lbas: int):
        if cap_lbas <= 0 or size_lbas <= 0:
            raise ValueError("zone size and capacity must be positive")
        if cap_lbas > size_lbas:
            raise ValueError(
                f"zone capacity {cap_lbas} exceeds zone size {size_lbas}"
            )
        self.index = index
        self.zslba = zslba
        self.size_lbas = size_lbas
        self.cap_lbas = cap_lbas
        self.state = ZoneState.EMPTY
        self.wp = zslba
        #: LBAs the device marked (not wrote) when the zone was finished
        #: while partially full; affects later reset cost (§III-E).
        self.finished_pad_lbas = 0

    # -- derived -----------------------------------------------------------
    @property
    def occupancy_lbas(self) -> int:
        """Number of LBAs actually written (the paper's zone occupancy)."""
        return self.wp - self.zslba

    @property
    def occupancy_fraction(self) -> float:
        return self.occupancy_lbas / self.cap_lbas

    @property
    def remaining_lbas(self) -> int:
        return self.cap_lbas - self.occupancy_lbas

    @property
    def writable_end(self) -> int:
        """One past the last writable LBA."""
        return self.zslba + self.cap_lbas

    @property
    def end(self) -> int:
        """One past the last addressable LBA of the zone."""
        return self.zslba + self.size_lbas

    def __repr__(self) -> str:
        return (
            f"Zone(#{self.index}, state={self.state.value}, "
            f"wp={self.wp - self.zslba}/{self.cap_lbas})"
        )
