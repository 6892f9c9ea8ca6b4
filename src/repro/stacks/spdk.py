"""The SPDK-like stack: userspace polling, no scheduler, lowest overhead.

Calibration: paper Observation #2 — SPDK 4 KiB writes at 11.36 µs vs
12.62 µs through the kernel without a scheduler. With the device-side
write path at 10.79 µs (profile constants), SPDK's host overhead is
~0.56 µs, split between submission and completion-polling.

SPDK has no I/O scheduler, so the host must keep writes to a zone
strictly serialized itself; by default the stack *checks* this contract
and surfaces violations as :class:`UnsupportedOperation`, mirroring the
paper's "we are restricted to issuing only one write per zone at a time
with SPDK".
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

from ..hostif.commands import Command, Opcode
from .base import StorageStack, UnsupportedOperation

if TYPE_CHECKING:
    from ..device.core import DeviceCore

__all__ = ["SpdkStack"]


class SpdkStack(StorageStack):
    name = "spdk"

    def __init__(self, device: DeviceCore, enforce_write_serialization: bool = True):
        super().__init__(device, submit_overhead_ns=360, complete_overhead_ns=200)
        self.enforce_write_serialization = enforce_write_serialization
        self._inflight_zone_writes: dict[int, int] = {}
        self._zones = device.zones

    def _zone_index_for(self, command: Command):
        if command.opcode is not Opcode.WRITE or self._zones is None:
            return None
        zone = self._zones.zone_containing(command.slba)
        return None if zone is None else zone.index

    def issue(self, command: Command) -> Generator:
        zone_index = self._zone_index_for(command)
        if zone_index is None:
            return super().issue(command)
        if (
            self.enforce_write_serialization
            and self._inflight_zone_writes.get(zone_index, 0) > 0
        ):
            raise UnsupportedOperation(
                f"SPDK has no scheduler: zone {zone_index} already has an "
                "in-flight write (issue appends or serialize writes)"
            )
        self._inflight_zone_writes[zone_index] = (
            self._inflight_zone_writes.get(zone_index, 0) + 1
        )
        return self._zone_write(zone_index, super().issue(command))

    def _zone_write(self, zone_index: int, execute: Generator):
        """Run a zone write; its zone's count drops however it ends."""
        try:
            return (yield from execute)
        finally:
            self._inflight_zone_writes[zone_index] -= 1
