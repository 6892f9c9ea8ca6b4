"""RAID-0 over zones: a striped "superzone" (ZRAID / RAIZN-lite, ref [79]).

RAIZN builds redundant arrays from zones; the performance-relevant core
is the striped write path — exactly the paper's Recommendation #2
trade-off made reusable: a logical append is chunked across ``width``
member zones (inter-zone parallelism for writes), while the logical
read path fans out to the members holding the stripe units.

The array keeps a logical→member extent map (appends may interleave, so
the device-assigned addresses must be recorded), exposes a combined
capacity, and reclaims all members together with a superzone reset.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

from ..hostif.commands import Command, Completion, Opcode, ZoneAction
from ..hostif.status import StatusError
from ..zns.device import ZnsDevice

__all__ = ["StripedZoneArray"]


@dataclass(frozen=True)
class _Extent:
    """One stripe unit's location: logical offset → member zone LBA."""

    logical_offset: int  # bytes
    length: int          # bytes
    member: int          # index into the member-zone list
    lba: int             # device LBA of the chunk start


class StripedZoneArray:
    """A RAID-0 "superzone" built from ``width`` member zones."""

    def __init__(self, device: ZnsDevice, member_zones: list[int],
                 stripe_unit: int = 64 * 1024, stack=None):
        if len(member_zones) < 2:
            raise ValueError("an array needs at least two member zones")
        if len(set(member_zones)) != len(member_zones):
            raise ValueError("duplicate member zones")
        block = device.namespace.block_size
        if stripe_unit <= 0 or stripe_unit % block:
            raise ValueError(
                f"stripe unit must be a positive multiple of the {block} B block"
            )
        self.device = device
        self.sim = device.sim
        if stack is None:
            # Same contract as ZoneFs: the array always submits through
            # a host stack so striped I/O pays stack overhead like any
            # other path.
            from ..stacks.spdk import SpdkStack

            stack = SpdkStack(device)
        self._target = stack
        self.member_zones = list(member_zones)
        self.stripe_unit = stripe_unit
        self._block = block
        self._extents: list[_Extent] = []
        self._starts: list[int] = []  # logical offsets, for bisect
        self._written = 0
        self._next_member = 0

    # -- geometry -----------------------------------------------------------
    @property
    def width(self) -> int:
        return len(self.member_zones)

    @property
    def capacity(self) -> int:
        """Combined writable capacity in bytes."""
        return sum(
            self.device.zones.zones[z].cap_lbas * self._block
            for z in self.member_zones
        )

    @property
    def written(self) -> int:
        return self._written

    def submit(self, command: Command):
        """Issue a command through the array's host session."""
        return self._target.submit(command)

    # -- write path -----------------------------------------------------------
    def append(self, nbytes: int) -> tuple[int, list[Completion]]:
        """Striped logical append; returns (logical offset, completions).

        The request is split into stripe units issued as *concurrent*
        appends to consecutive member zones — the inter-zone write
        parallelism of §III-D — then recorded in the extent map at the
        device-assigned addresses.
        """
        if nbytes <= 0 or nbytes % self._block:
            raise ValueError(
                f"length {nbytes} must be a positive multiple of {self._block}"
            )
        if self._written + nbytes > self.capacity:
            raise ValueError(
                f"append of {nbytes} B exceeds the array capacity "
                f"({self._written}/{self.capacity} B written)"
            )
        chunks: list[tuple[int, int]] = []  # (member, length)
        remaining = nbytes
        while remaining > 0:
            take = min(self.stripe_unit, remaining)
            chunks.append((self._next_member, take))
            self._next_member = (self._next_member + 1) % self.width
            remaining -= take
        events = []
        for member, length in chunks:
            zone = self.device.zones.zones[self.member_zones[member]]
            events.append(self._target.submit(Command(
                Opcode.APPEND, slba=zone.zslba, nlb=length // self._block)))
        self.sim.run(until=self.sim.all_of(events))
        logical_start = self._written
        completions = []
        offset = logical_start
        for (member, length), event in zip(chunks, events):
            completion = event.value
            if not completion.ok:
                raise StatusError(completion.status, f"member {member}")
            self._starts.append(offset)
            self._extents.append(_Extent(offset, length, member,
                                         completion.assigned_lba))
            completions.append(completion)
            offset += length
        self._written = offset
        return logical_start, completions

    # -- read path ---------------------------------------------------------------
    def pread(self, offset: int, nbytes: int) -> list[Completion]:
        """Read a logical range, fanning out to the member extents."""
        if offset < 0 or offset % self._block or nbytes <= 0 or nbytes % self._block:
            raise ValueError("offset/length must be block-aligned and positive")
        if offset + nbytes > self._written:
            raise ValueError(
                f"read [{offset}, {offset + nbytes}) beyond the written "
                f"extent at {self._written}"
            )
        events = []
        cursor, end = offset, offset + nbytes
        while cursor < end:
            extent = self._extent_at(cursor)
            within = cursor - extent.logical_offset
            take = min(end - cursor, extent.length - within)
            events.append(self._target.submit(Command(
                Opcode.READ,
                slba=extent.lba + within // self._block,
                nlb=take // self._block,
            )))
            cursor += take
        self.sim.run(until=self.sim.all_of(events))
        completions = [e.value for e in events]
        for completion in completions:
            if not completion.ok:
                raise StatusError(completion.status, "striped read")
        return completions

    def _extent_at(self, offset: int) -> _Extent:
        index = bisect_right(self._starts, offset) - 1
        extent = self._extents[index]
        assert extent.logical_offset <= offset < extent.logical_offset + extent.length
        return extent

    # -- reclamation ---------------------------------------------------------------
    def reset(self) -> None:
        """Superzone reset: reset every member, clear the extent map."""
        for zone_index in self.member_zones:
            zone = self.device.zones.zones[zone_index]
            completion = self.sim.run(until=self._target.submit(Command(
                Opcode.ZONE_MGMT, slba=zone.zslba, action=ZoneAction.RESET)))
            if not completion.ok:
                raise StatusError(completion.status, f"reset zone {zone_index}")
        self._extents.clear()
        self._starts.clear()
        self._written = 0
        self._next_member = 0
